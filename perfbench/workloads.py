"""Seeded instance batches for the three benchmark workloads.

Each workload is a fixed cycle of instance shapes (variables, field, kind)
filled in from ``random.Random(seed)``: the shapes keep the cost of a batch
about the same from seed to seed, while the order of the exponents over the
variables, the coefficients and (outside betti) the extra terms change.
The same seed gives byte-identical ``.ideal`` texts.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

BATCH = 120  # >= 100, so latency_p90_ms has at least ten samples beyond it

QQ, GF2, GF3, GFP = 0, 2, 3, 32003
_VARS = {3: "xyz", 4: "xyzw", 5: "abcde"}


@dataclass(frozen=True)
class Instance:
    """One generated input: the file text and the CLI verb that times it."""

    name: str
    text: str
    verb: tuple  # CLI arguments before --in/--ideal
    n: int
    monomial: tuple | None = None  # exponent vectors, for monomial-only input


def _ring(field, n):
    head = "QQ" if field == QQ else f"ZZ/{field}"
    return f"ring {head}[{','.join(_VARS[n])}];"


def _mono(n, e):
    parts = []
    for v, a in zip(_VARS[n], e):
        if a == 1:
            parts.append(v)
        elif a > 1:
            parts.append(f"{v}^{a}")
    return "*".join(parts) or "1"


def _poly(n, terms):
    """Render [(coeff, exponent)] as text; coefficients are nonzero ints."""
    out = ""
    for c, e in terms:
        m = _mono(n, e)
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        body = m if mag == 1 else (str(mag) if m == "1" else f"{mag}*{m}")
        out += (sign if out or c < 0 else "") + body
    return out


def _degree_exps(n, d):
    return [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]


def _coeff(rng, field):
    if field in (GF2, GF3):
        return rng.randint(1, field - 1)
    return rng.choice((1, -1, 2, -2, 3, -3, 5))


def _pure_powers(n, exps):
    return [tuple(a if j == i else 0 for j in range(n)) for i, a in enumerate(exps)]


def _text(field, n, gens):
    return f"{_ring(field, n)}\nI = ideal({', '.join(gens)});\n"


# Every shape fixes the multiset of pure-power exponents; the seed permutes
# it over the variables and draws the coefficients and extra terms.  With
# exponents drawn from a range, a batch's cost hung on how many draws hit
# the top of the range, because basis size grows steeply with them.


def _powers(rng, n, exps):
    exps = list(exps)
    rng.shuffle(exps)
    return _pure_powers(n, exps)


# -- saturation: `mono --method gb` -------------------------------------------
# Pure powers keep every ideal Artinian, so the oracle route can check the
# answer.  The dense forms couple all variables, which is what makes the
# 2n+1-variable saturation basis expensive; inhomogeneous forms exercise
# pair selection on non-graded input.  Exponents stay small: with pure cubes
# in 4 variables and one linear form a single instance takes seconds.
_SAT_SHAPES = (
    # (n, field, pure-power exponents, dense form degrees, inhomogeneous)
    (3, QQ, (2, 3, 3), (1,), False),
    (3, GFP, (2, 3, 4), (1,), False),
    (3, QQ, (2, 2, 3), (2,), False),
    (3, QQ, (2, 2, 3), (2,), True),
    (3, GFP, (2, 3, 3), (2,), True),
    (3, GFP, (2, 2, 3), (2, 2), False),
    (3, GF2, (2, 3, 4), (1, 2), False),
    (3, GF3, (2, 3, 3), (2,), False),
    (4, GFP, (2, 2, 2, 2), (2,), False),
    (4, QQ, (2, 2, 2, 2), (2,), True),
    (3, QQ, (2, 3, 4), (1,), False),
    (3, QQ, (3, 3, 4), (1,), True),
)


def _dense_form(rng, field, n, d, inhomogeneous):
    exps = _degree_exps(n, d)
    if inhomogeneous:
        exps += _degree_exps(n, d - 1) if d > 1 else []
    return [(_coeff(rng, field), e) for e in sorted(exps, reverse=True)]


def _saturation(rng, k):
    n, field, powers, degs, inhom = _SAT_SHAPES[k % len(_SAT_SHAPES)]
    gens = [_mono(n, e) for e in _powers(rng, n, powers)]
    for d in degs:
        gens.append(_poly(n, _dense_form(rng, field, n, d, inhom)))
    return field, n, gens, None


# -- membership: `oracle` -----------------------------------------------------
# As selftest.random_artinian_ideal: pure powers plus sparse homogeneous
# binomials or trinomials.  The oracle builds one small grevlex basis and
# then sweeps every monomial up to the socle degree through Ideal.contains,
# so the normal-form read side dominates.  Two extra generators with a
# trinomial among them are kept to small exponents, because the gb route
# that checks these answers takes seconds on them.
_MEM_SHAPES = (
    # (n, field, pure-power exponents, terms of each extra generator)
    (4, QQ, (3, 4, 4, 5), (2,)),
    (4, GFP, (3, 3, 4, 5), (2,)),
    (4, QQ, (3, 3, 4, 4), (3,)),
    (3, QQ, (5, 6, 7), (2,)),
    (3, GF2, (4, 6, 7), (2, 2)),
    (3, GFP, (4, 5, 6), (3,)),
    (4, GF3, (3, 3, 4, 4), (2, 2)),
    (3, QQ, (4, 5, 5), (3, 2)),
)


def _sparse_form(rng, field, n, d, nterms):
    picks = sorted(rng.sample(_degree_exps(n, d), nterms), reverse=True)
    return [(_coeff(rng, field) if i else 1, e) for i, e in enumerate(picks)]


def _membership(rng, k):
    n, field, powers, forms = _MEM_SHAPES[k % len(_MEM_SHAPES)]
    gens = [_mono(n, e) for e in _powers(rng, n, powers)]
    for t in forms:
        gens.append(_poly(n, _sparse_form(rng, field, n, rng.randint(2, 3), t)))
    return field, n, gens, None


# -- betti: `betti` -----------------------------------------------------------
# Homogeneous Artinian quotients.  Monomial instances take the monomial fast
# path in graded_betti (no normal forms); binomial instances fill strand
# matrices from normal forms.  QQ against GF(32003) separates fraction-free
# Bareiss rank from rank mod p; the 5-variable QQ shapes form the tail.
# The supports of the extra generators are fixed per shape and the seed
# permutes the variables: with randomly drawn extra monomials the strand
# matrices of a batch varied by 12 % in size between seeds.
_BETTI_SHAPES = (
    # (n, field, pure-power exponents, extra monomials, binomials u + c*v)
    (4, QQ, (2, 2, 3, 3), ((1, 1, 1, 0), (0, 1, 1, 1)), ()),
    (4, GFP, (2, 2, 3, 3), (), (((1, 1, 0, 0), (0, 0, 1, 1)),)),
    (5, GFP, (2, 2, 2, 2, 2), ((1, 1, 1, 0, 0), (0, 0, 1, 1, 1)), ()),
    (4, QQ, (2, 3, 3, 3), (), (((0, 1, 1, 0), (1, 0, 0, 1)),)),
    (4, GFP, (2, 2, 3, 3), ((1, 0, 1, 0), (0, 1, 1, 1)), ()),
    (5, QQ, (2, 2, 2, 2, 2), (), (((1, 1, 0, 0, 0), (0, 0, 1, 1, 0)),)),
    (4, QQ, (2, 2, 2, 3), ((1, 1, 0, 1), (0, 0, 1, 2)), ()),
    (
        4,
        GFP,
        (2, 3, 3, 3),
        (),
        (((1, 1, 0, 0), (0, 0, 1, 1)), ((0, 1, 1, 0), (1, 0, 0, 1))),
    ),
    (5, QQ, (2, 2, 2, 2, 2), ((1, 1, 1, 0, 0), (0, 1, 0, 1, 1)), ()),
    (5, GFP, (2, 2, 2, 2, 2), (), (((1, 1, 0, 0, 0), (0, 0, 0, 1, 1)),)),
)


def _betti(rng, k):
    n, field, powers, extra, binomials = _BETTI_SHAPES[k % len(_BETTI_SHAPES)]
    perm = rng.sample(range(n), n)

    def moved(e):
        out = [0] * n
        for i, a in enumerate(e):
            out[perm[i]] = a
        return tuple(out)

    exps = [moved(e) for e in _pure_powers(n, powers) + list(extra)]
    gens = [_mono(n, e) for e in exps]
    for u, v in binomials:
        terms = sorted([(1, moved(u)), (_coeff(rng, field), moved(v))], key=lambda t: t[1])
        gens.append(_poly(n, terms[::-1]))
    return field, n, gens, None if binomials else tuple(exps)


WORKLOADS = {
    "saturation": (_saturation, ("mono", "--method", "gb", "--format", "records")),
    "membership": (_membership, ("oracle", "--format", "records")),
    "betti": (_betti, ("betti", "--format", "records")),
}


def generate(workload, seed, count=BATCH):
    """The batch of ``count`` instances for ``workload`` drawn from ``seed``."""
    make, verb = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for k in range(count):
        field, n, gens, mono = make(rng, k)
        out.append(
            Instance(
                name=f"{workload}-{k:03d}",
                text=_text(field, n, gens),
                verb=verb,
                n=n,
                monomial=mono,
            )
        )
    return out
