"""Seeded randomized consistency suites.

Drives the three largest-monomial-subideal routes against each other on
random Artinian ideals and checks the algebraic laws the operation must
satisfy (monotonicity, idempotence, behaviour under radicals, intersections
and products, regularity preservation, top-column Betti implications, the
equal-colon dichotomy, and the socle-based subideal criterion).  Used by the
test battery and exposed through the hidden CLI verb.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dc_field

from .betti import graded_betti
from .engine import mono_oracle, mono_upper, mono_via_gb, mono_via_puv
from .fields import FieldSpec
from .groebner import Ideal
from .monomial import (
    MonomialIdeal,
    _degree_exponents,
    _descending,
    mono_subideal_criterion,
)
from .poly import RingContext

_FIELDS = (FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(32003))
_NAMES = ("x", "y", "z")
_MAX_POWER = 4


@dataclass
class SuiteReport:
    instances: int = 0
    checks: int = 0
    failures: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        status = "ok" if self.ok else f"{len(self.failures)} failures"
        return (
            f"selftest: {self.instances} instances, {self.checks} checks, {status}"
        )


def _random_monomial(rng, n, max_degree):
    d = rng.randint(1, max_degree)
    e = [0] * n
    for _ in range(d):
        e[rng.randrange(n)] += 1
    return tuple(e)


def _random_coeff(rng, field):
    if field.characteristic == 0:
        return rng.choice([1, -1, 2, -2, 3])
    return rng.randint(1, field.characteristic - 1)


def random_artinian_ideal(rng, ring):
    """(I, M): a random Artinian graded ideal I and its monomial base M, a
    pure power x_i^a, 2 <= a <= _MAX_POWER, of every variable and up to two
    monomials of degree <= _MAX_POWER + 1.  I adds to M 1-2 binomials of
    degree at most M's top standard degree."""
    n = ring.n
    powers = [rng.randint(2, _MAX_POWER) for _ in range(n)]
    extra = [_random_monomial(rng, n, _MAX_POWER + 1) for _ in range(rng.randint(0, 2))]
    M = MonomialIdeal.pure_powers(ring, powers).plus(MonomialIdeal(ring, extra))
    gens = M.generators()
    top = M.power_gap() - 1
    for _ in range(rng.randint(1, 2)):
        d = rng.randint(1, max(1, top))
        pool = list(_degree_exponents(ring.n, d))
        u = rng.choice(pool)
        v = rng.choice(pool)
        if u == v:
            continue
        c = _random_coeff(rng, ring.field)
        gens.append(ring.monomial(u) + ring.monomial(v) * c)
    return Ideal(ring, gens), M


def run_suite(seed, instances=50):
    """Run the randomized battery; returns a SuiteReport."""
    rng = random.Random(seed)
    report = SuiteReport()

    def check(cond, label):
        report.checks += 1
        if not cond:
            report.failures.append(label)

    for count in range(instances):
        field = _FIELDS[count % len(_FIELDS)]
        n = rng.choice((2, 3))
        ring = RingContext(field, _NAMES[:n])
        I, base = random_artinian_ideal(rng, ring)
        tag = f"[{count}:{field}:{ring}]"

        got_gb = mono_via_gb(I)
        got_puv = mono_via_puv(I)  # cross-checks against gb internally
        got_oracle = mono_oracle(I)
        check(got_gb == got_puv, f"{tag} colon-formula route disagrees")
        check(got_gb == got_oracle, f"{tag} brute-force route disagrees")
        M = got_gb

        # decreasing + idempotent + inclusion-preserving
        check(
            all(I.contains(e) for e in M.min_gens),
            f"{tag} result is not inside the ideal",
        )
        check(
            mono_via_gb(M.to_ideal()) == M,
            f"{tag} not idempotent on its own result",
        )
        bigger = I.plus([ring.monomial(_random_monomial(rng, n, 3))])
        check(
            mono_via_gb(bigger).contains(M),
            f"{tag} not inclusion-preserving",
        )

        J, _ = random_artinian_ideal(rng, ring)
        MJ = mono_via_gb(J)
        meet = mono_via_gb(I.intersect(J))
        check(
            meet == M.intersect(MJ),
            f"{tag} does not commute with intersection",
        )
        prod = mono_via_gb(I.product(J))
        check(
            prod.contains(M.times(MJ)),
            f"{tag} product lower containment fails",
        )
        check(
            M.intersect(MJ).contains(prod),
            f"{tag} product upper containment fails",
        )

        # graded invariants (Artinian in, Artinian out)
        check(M.is_artinian(), f"{tag} result of an Artinian ideal not Artinian")
        t_i = graded_betti(I)
        t_m = graded_betti(M.to_ideal())
        check(
            t_i.regularity() == t_m.regularity(),
            f"{tag} regularity changed",
        )
        hf = MonomialIdeal(ring, I.leading_exponents()).hilbert_function()
        top_hf = len([d for d, c in enumerate(hf) if c]) - 1
        check(
            t_i.regularity() == top_hf,
            f"{tag} regularity differs from the top nonzero degree",
        )
        check(
            all(
                t_i.beta(n, j) != 0
                for (i, j) in t_m.entries
                if i == n
            ),
            f"{tag} top-column Betti implication fails",
        )
        if t_i.is_level():
            check(
                t_m.is_level()
                and t_m.socle_degrees()[-1] == t_i.socle_degrees()[-1],
                f"{tag} level structure not preserved",
            )

        # equal-colon dichotomy on the monomial base
        _check_equal_colon(check, tag, ring, base)

        # Gorenstein results force pure-power form
        if M.is_artinian() and M.is_gorenstein():
            b = M.pure_power_bounds()
            check(
                I.equals(MonomialIdeal.pure_powers(ring, b).to_ideal()),
                f"{tag} Gorenstein result from a non-pure-power ideal",
            )

        # socle criterion agrees with direct equality
        check(
            mono_subideal_criterion(I, M),
            f"{tag} socle criterion rejects the true result",
        )
        smaller = MonomialIdeal.maximal(ring).times(M)
        check(
            not mono_subideal_criterion(I, smaller),
            f"{tag} socle criterion accepts a strictly smaller ideal",
        )
        check(
            _criterion_c(M, M) and not _criterion_c(smaller, M),
            f"{tag} colon-cap criterion disagrees with the socle criterion",
        )

        report.instances += 1
    return report


def _criterion_c(M, mono):
    """(M : max-ideal) meet mono(I) inside M, given ``mono`` = mono(I)."""
    cap = M.colon_ideal(MonomialIdeal.maximal(M.ring)).intersect(mono)
    return M.contains(cap)


def _check_equal_colon(check, tag, ring, M):
    classes = M.equal_colon_classes()
    if classes:
        d, members = classes[0]
        u1, u2 = members[0], members[1]
        I = M.to_ideal().plus([ring.monomial(u1) + ring.monomial(u2)])
        check(
            mono_via_gb(I) == M,
            f"{tag} equal colons did not keep the monomial part fixed",
        )
    pair = _unequal_colon_pair(M)
    if pair is not None:
        u1, u2 = pair
        I = M.to_ideal().plus([ring.monomial(u1) + ring.monomial(u2)])
        got = mono_via_gb(I)
        check(
            got.contains(M) and got != M,
            f"{tag} unequal colons did not enlarge the monomial part",
        )


def _unequal_colon_pair(M):
    for piece in M._pieces():
        for u1, u2 in itertools.combinations(_descending(piece, M.ring.n), 2):
            if M.colon(u1) != M.colon(u2):
                return u1, u2
    return None
