"""Largest monomial subideal of an ideal, by three routes, plus the smallest
monomial over-ideal and a characteristic scanner.

Each route returns the ``MonomialIdeal`` it computes.  The saturation route
works for arbitrary ideals: multi-homogenize the generators, saturate by the
product of the companion variables one companion at a time by Bayer's trick,
read the monomials out of a reduced basis for a companion-first elimination
order, and set the companions to one.  The
colon-formula route applies to unmixed ideals carrying a monomial regular
sequence, and the brute-force route is an independent degree-by-degree
membership sweep for Artinian input.  The saturation and colon routes
re-verify each generator as a member before returning, and the colon route
must agree with the saturation route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, PreconditionError
from .fields import FieldSpec
from .groebner import Ideal
from .monomial import MonomialIdeal, _degree_exponents, as_exponent
from .orders import TermOrder
from .poly import Polynomial, RingContext, ev_support, fresh_names, multi_homogenize

DEFAULT_DEGREE_CEILING = 30


def _verify_members(I, M, method):
    ring = I.ring
    for e in M.sorted_gens():
        if not I.contains(ring.monomial(e)):
            raise InternalCheckError(
                f"method {method} produced a non-member generator"
            )


def _saturate_by_companions(ext, homog):
    """``(homog) : (y_1...y_n)^inf`` for homogeneous ``homog`` in ``ext``, a
    ring of 2n variables whose companions y_1..y_n sit at indices n..2n-1.

    Saturates one companion at a time by Bayer's trick: the reduced basis of
    a homogeneous ideal is homogeneous, and under a grevlex order with y_i
    last, y_i divides a homogeneous element exactly as often as it divides
    its lead, so dividing each basis element by its largest y_i power gives
    a Groebner basis of the colon by y_i^inf.  The other companions come
    ahead of the originals in that order, which keeps the intermediate bases
    small.
    """
    n = ext.n // 2
    gens = homog
    for i in range(n, 2 * n):
        ahead = tuple(k for k in range(n, 2 * n) if k != i) + tuple(range(n))
        order = TermOrder(ext.n, [(ahead + (i,), "grevlex")])
        gens = [
            _divide_out(g, i) for g in Ideal(ext, gens).groebner_basis(order)
        ]
    return Ideal(ext, gens)


def _divide_out(g, i):
    """g divided by the largest power of variable i that divides it."""
    k = min(e[i] for e in g.coeffs)
    if not k:
        return g
    return Polynomial._raw(
        g.ring, {e[:i] + (e[i] - k,) + e[i + 1 :]: c for e, c in g.coeffs.items()}
    )


def mono_via_gb(I):
    """Largest monomial subideal via saturation and elimination.

    Works for any ideal.  Multi-homogenizes each generator with one companion
    variable per original variable, saturates one companion at a time by
    Bayer's trick, and collects the monomial elements of the reduced basis
    under a companions-first block order, specialized at companion = 1.
    """
    ring = I.ring
    n = ring.n
    ynames = fresh_names(ring, [f"y{i + 1}" for i in range(n)])
    ext = ring.extended(ynames)
    homog = [multi_homogenize(g, ext) for g in I.gens]
    yfirst = TermOrder(ext.n, [(range(n, 2 * n), "grevlex"), (range(n), "grevlex")])
    basis = _saturate_by_companions(ext, homog).groebner_basis(yfirst)
    exps = []
    for g in basis:
        if g.is_monomial():
            (e,) = g.coeffs
            exps.append(e[:n])
    M = MonomialIdeal(ring, exps)
    _verify_members(I, M, "gb")
    return M


def mono_upper(I):
    """Smallest monomial ideal containing I: all terms of the generators."""
    exps = []
    for g in I.gens:
        exps.extend(g.coeffs)
    return MonomialIdeal(I.ring, exps)


def _least_pure_power(I, i, ceiling):
    """Smallest a with x_i^a in I, by doubling then bisection; None if > ceiling."""
    ring = I.ring

    def member(a):
        e = [0] * ring.n
        e[i] = a
        return I.contains(ring.monomial(e))

    hi = 1
    while hi <= ceiling and not member(hi):
        hi *= 2
    if hi > ceiling:
        if hi // 2 < ceiling and member(ceiling):
            hi = ceiling
        else:
            return None
    lo = hi // 2  # member(lo) known False (or lo == 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if member(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _auto_beta(I, ceiling):
    ring = I.ring
    beta = []
    for i in range(ring.n):
        a = _least_pure_power(I, i, ceiling)
        if a is None:
            raise PreconditionError(
                f"no pure power of {ring.variables[i]} found up to degree {ceiling}; "
                "supply the monomial regular sequence explicitly"
            )
        e = [0] * ring.n
        e[i] = a
        beta.append(tuple(e))
    return beta


def mono_via_puv(I, beta=None, ceiling=DEFAULT_DEGREE_CEILING):
    """Largest monomial subideal via the colon formula.

    Requires an unmixed ideal with a regular sequence ``beta`` of monomials
    in I, one per codimension.  For Artinian input beta defaults to the least
    pure powers of the variables found in I.  The result is cross-checked
    against the saturation route and must agree exactly.
    """
    ring = I.ring
    if beta is None:
        beta = _auto_beta(I, ceiling)
    else:
        beta = [as_exponent(b) for b in beta]
        for e in beta:
            if not I.contains(ring.monomial(e)):
                raise PreconditionError(f"beta element x^{e} is not in the ideal")
        supports = [set(ev_support(e)) for e in beta]
        for i in range(len(beta)):
            for j in range(i + 1, len(beta)):
                if supports[i] & supports[j]:
                    raise PreconditionError(
                        "beta is not a monomial regular sequence "
                        "(variable supports overlap)"
                    )
    B = Ideal(ring, [ring.monomial(e) for e in beta])
    quotient = B.colon_ideal(I)
    upper = mono_upper(quotient)
    Bm = MonomialIdeal(ring, beta)
    M = Bm.colon_ideal(upper)
    _verify_members(I, M, "puv")
    if mono_via_gb(I) != M:
        raise InternalCheckError(
            "colon-formula route disagrees with the saturation route"
        )
    return M


def mono_oracle(I, ceiling=DEFAULT_DEGREE_CEILING):
    """Brute-force largest monomial subideal for Artinian ideals.

    Sweeps the degrees upward until every monomial of one degree is in I.
    A monomial is a member when one of its predecessors (one degree lower,
    one variable fewer) is, since I is an ideal; only the others are tested
    by a normal form, and those found members are the minimal generators.
    Entirely membership-driven, so it is independent of the saturation and
    colon routes.
    """
    ring = I.ring
    n = ring.n
    if I.contains(ring.one()):
        return MonomialIdeal(ring, [(0,) * n])
    powers = []
    for i in range(n):
        a = _least_pure_power(I, i, ceiling)
        if a is None:
            raise PreconditionError(
                f"not Artinian within degree ceiling {ceiling}: "
                f"no pure power of {ring.variables[i]}"
            )
        powers.append(a)
    bound = 1 + sum(a - 1 for a in powers)
    exps = []
    members = set()  # every member of degree s - 1
    for s in range(1, bound + 1):
        implied = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in members for i in range(n)}
        full = True
        for e in _degree_exponents(n, s):
            if e in implied:
                continue
            if max(e) == s:  # x_i^s: the pure-power search already decided it
                member = s >= powers[e.index(s)]
            else:
                member = I.contains(ring.monomial(e))
            if member:
                implied.add(e)
                exps.append(e)
            else:
                full = False
        if full:
            break
        members = implied
    else:
        # degree `bound` forces some exponent past its pure power
        raise InternalCheckError("membership sweep missed the guaranteed degree")
    return MonomialIdeal(ring, exps)


# ------------------------------------------------------------------ char scan


@dataclass
class CharScanResult:
    """Minimal generators of the largest monomial subideal per ground field."""

    fields: list
    generators: dict  # FieldSpec -> tuple of exponent vectors (sorted)
    variables: tuple

    def union(self):
        seen = []
        for f in self.fields:
            for e in self.generators[f]:
                if e not in seen:
                    seen.append(e)
        order = TermOrder.grevlex(len(self.variables))
        return sorted(seen, key=order.key, reverse=True)

    def common(self):
        sets = [set(self.generators[f]) for f in self.fields]
        out = set.intersection(*sets) if sets else set()
        return out

    def field_dependent(self):
        """(exponent, fields-that-have-it) for every non-universal generator."""
        common = self.common()
        out = []
        for e in self.union():
            if e not in common:
                out.append((e, [f for f in self.fields if e in set(self.generators[f])]))
        return out


def char_scan(I, primes, include_char_zero=True):
    """Largest monomial subideal of an integer-coefficient ideal over QQ,
    recomputed over several prime fields (and optionally QQ itself), with a
    difference report.  Each generator maps into GF(p) coefficient-wise.
    """
    fields = []
    if include_char_zero:
        fields.append(FieldSpec(0))
    for p in sorted(set(primes)):
        try:
            fields.append(FieldSpec(p))
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
    if not fields:
        raise PreconditionError("no fields requested")
    if I.ring.field.characteristic:
        raise PreconditionError("characteristic scan needs an ideal over QQ")
    for g in I.gens:
        if any(c.denominator != 1 for c in g.coeffs.values()):
            raise PreconditionError(
                "characteristic scan requires integer coefficients"
            )

    variables = I.ring.variables
    generators = {}
    for f in fields:
        ring = RingContext(f, variables)
        J = Ideal(ring, [Polynomial(ring, g.coeffs) for g in I.gens])
        generators[f] = tuple(mono_via_gb(J).sorted_gens())
    return CharScanResult(fields, generators, variables)
