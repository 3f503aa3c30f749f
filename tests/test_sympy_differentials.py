"""The saturation route and ``Ideal.saturate`` against sympy's Groebner bases,
on hypothesis-drawn QQ ideals that are not homogeneous.

Half of the drawn ideals also contain a pure power of every variable, so both
Artinian and non-Artinian input reach ``mono_via_gb``.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from monoideal import (
    FieldSpec,
    Ideal,
    Polynomial,
    RingContext,
    TermOrder,
    mono_subideal_criterion,
    mono_via_gb,
)

sp = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
SYMS = sp.symbols(NAMES)
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@st.composite
def nonhomogeneous_ideals(draw):
    """(ideal, Artinian by construction) over QQ in two or three variables."""
    n = draw(st.sampled_from((2, 3)))
    ring = RingContext(FieldSpec(0), NAMES[:n])
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 2))
    terms = st.dictionaries(exps, coeffs, min_size=1, max_size=3)
    gens = [Polynomial(ring, t) for t in draw(st.lists(terms, min_size=1, max_size=2))]
    artinian = draw(st.booleans())
    if artinian:
        for i in range(n):
            e = [0] * n
            e[i] = draw(st.integers(2, 3))
            gens.append(ring.monomial(e))
    I = Ideal(ring, gens)
    assume(not I.is_homogeneous())
    return I, artinian


def to_sympy(f):
    return sp.Add(*(
        sp.Rational(c.numerator, c.denominator)
        * sp.Mul(*(s**k for s, k in zip(SYMS, e)))
        for e, c in f.coeffs.items()
    ))


def canon(polys):
    return {frozenset((e, Fraction(c)) for e, c in f.coeffs.items()) for f in polys}


def canon_sympy(exprs, gens):
    return {
        frozenset(
            (e, Fraction(int(c.p), int(c.q)))
            for e, c in sp.Poly(g, *gens, domain=sp.QQ).terms()
        )
        for g in exprs
    }


@SETTINGS
@given(nonhomogeneous_ideals())
def test_gb_route_generators_are_members_by_sympy(drawn):
    I, artinian = drawn
    gens = SYMS[: I.ring.n]
    M = mono_via_gb(I)
    G = sp.groebner([to_sympy(g) for g in I.gens], *gens, order="grevlex", domain=sp.QQ)
    for e in M.sorted_gens():
        assert G.contains(sp.Mul(*(s**k for s, k in zip(gens, e))))
    if M.is_artinian():
        assert mono_subideal_criterion(I, M)
    assert M.is_artinian() or not artinian


@SETTINGS
@given(nonhomogeneous_ideals(), st.tuples(*[st.integers(0, 2)] * 3))
def test_saturate_matches_sympy_elimination(drawn, m):
    I, _ = drawn
    n = I.ring.n
    m = m[:n]
    assume(any(m))
    gens = SYMS[:n]
    t = sp.Symbol("t")
    mono = sp.Mul(*(s**k for s, k in zip(gens, m)))
    exprs = [to_sympy(g) for g in I.gens] + [t * mono - 1]
    elim = sp.groebner(exprs, t, *gens, order="lex", domain=sp.QQ)
    contracted = [g for g in elim.exprs if not g.has(t)]
    theirs = sp.groebner(contracted or [0], *gens, order="grevlex", domain=sp.QQ).exprs
    mine = I.saturate(m).groebner_basis(TermOrder.grevlex(n))
    assert canon(mine) == canon_sympy([g for g in theirs if g != 0], gens)
