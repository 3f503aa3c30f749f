"""The saturation route and ``Ideal.saturate`` against sympy's Groebner bases,
on hypothesis-drawn ideals.

Ideals that are not homogeneous, over QQ, GF(2) and GF(32003), reach
``Ideal.saturate`` through its homogenizing variable; the QQ ones also reach
``mono_via_gb``, and half of them contain a pure power of every variable, so
both Artinian and non-Artinian input reach the route.  Homogeneous ideals over
QQ and GF(32003) go through the same variable, which none of their terms
carries.  sympy's side adds t*m - 1 and eliminates t.

``Ideal.eliminate`` and ``Ideal.intersect`` are checked against the t-free
elements of sympy's lex basis with t first, over QQ and GF(32003).
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
from monoideal.monomial import _degree_exponents

sp = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
SYMS = sp.symbols(NAMES)
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@st.composite
def nonhomogeneous_ideals(draw, char=0):
    """(ideal, Artinian by construction) over QQ or GF(char) in two or three
    variables.  Over GF(char) the coefficients are integers that do not
    vanish mod char (a denominator 2 would vanish in GF(2))."""
    n = draw(st.sampled_from((2, 3)))
    ring = RingContext(FieldSpec(char), NAMES[:n])
    exps = st.tuples(*[st.integers(0, 2)] * n)
    if char:
        coeffs = st.integers(-3, 3).filter(lambda c: c % char)
    else:
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


@st.composite
def homogeneous_ideals(draw, char):
    """One to three homogeneous generators of degree 1 to 3 in two or three
    variables over QQ or GF(char)."""
    n = draw(st.sampled_from((2, 3)))
    ring = RingContext(FieldSpec(char), NAMES[:n])
    coeffs = st.integers(-3, 3).filter(bool)
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 3))
        exps = st.sampled_from(sorted(_degree_exponents(n, d)))
        terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))
        gens.append(Polynomial(ring, terms))
    return Ideal(ring, gens)


def to_sympy(f, syms=SYMS):
    return sp.Add(*(
        sp.Rational(c.numerator, c.denominator)
        * sp.Mul(*(s**k for s, k in zip(syms, e)))
        for e, c in f.coeffs.items()
    ))


def canon(polys):
    return {frozenset((e, Fraction(c)) for e, c in f.coeffs.items()) for f in polys}


def sympy_domain(p):
    return {"modulus": p} if p else {"domain": sp.QQ}


def canon_sympy(exprs, gens, p=0):
    def coeff(c):
        return Fraction(int(c) % p) if p else Fraction(int(c.p), int(c.q))

    return {
        frozenset((e, coeff(c)) for e, c in sp.Poly(g, *gens, **sympy_domain(p)).terms())
        for g in exprs
    }


def sympy_saturation(I, m):
    """Reduced grevlex basis of I : m^inf by sympy: add t*m - 1, eliminate t
    under lex, and reduce what is left."""
    n = I.ring.n
    p = I.ring.field.characteristic
    domain = sympy_domain(p)
    gens = SYMS[:n]
    t = sp.Symbol("t")
    mono = sp.Mul(*(s**k for s, k in zip(gens, m)))
    exprs = [to_sympy(g) for g in I.gens] + [t * mono - 1]
    elim = sp.groebner(exprs, t, *gens, order="lex", **domain)
    contracted = [g for g in elim.exprs if not g.has(t)]
    theirs = sp.groebner(contracted or [0], *gens, order="grevlex", **domain).exprs
    return canon_sympy([g for g in theirs if g != 0], gens, p)


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


@pytest.mark.parametrize("char", [0, 2, 32003])
@SETTINGS
@given(data=st.data())
def test_saturate_matches_sympy_elimination(char, data):
    I, _ = data.draw(nonhomogeneous_ideals(char))
    m = data.draw(st.tuples(*[st.integers(0, 2)] * 3))
    n = I.ring.n
    m = m[:n]
    assume(any(m))
    mine = I.saturate(m).groebner_basis(TermOrder.grevlex(n))
    assert canon(mine) == sympy_saturation(I, m)


@pytest.mark.parametrize("char", [0, 32003])
@SETTINGS
@given(data=st.data())
def test_saturate_homogeneous_matches_sympy_elimination(char, data):
    I = data.draw(homogeneous_ideals(char))
    m = data.draw(st.tuples(*[st.integers(0, 2)] * I.ring.n))
    assert I.is_homogeneous()
    mine = I.saturate(m).groebner_basis(TermOrder.grevlex(I.ring.n))
    assert canon(mine) == sympy_saturation(I, m)


def small_ideals(ring, char, max_size):
    """One to ``max_size`` generators with exponents 0..2 over QQ or GF(char)."""
    n = ring.n
    coeffs = st.integers(-3, 3).filter(lambda c: c % char if char else c)
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), coeffs, min_size=1, max_size=3)
    return st.lists(terms, min_size=1, max_size=max_size).map(
        lambda ts: Ideal(ring, [Polynomial(ring, t) for t in ts])
    )


def sympy_t_free(exprs, ring, t):
    """The ideal of ``ring`` generated by the t-free elements of sympy's lex
    basis of ``exprs``, with t first."""
    p = ring.field.characteristic
    gens = sp.symbols(ring.variables)
    basis = sp.groebner(exprs, t, *gens, order="lex", **sympy_domain(p))
    kept = canon_sympy([g for g in basis.exprs if not g.has(t)], gens, p)
    return Ideal(ring, [Polynomial(ring, dict(f)) for f in kept])


@pytest.mark.parametrize("char", [0, 32003])
@SETTINGS
@given(data=st.data())
def test_eliminate_matches_sympy_lex(char, data):
    ring = RingContext(FieldSpec(char), ("t", "x", "y"))
    I = data.draw(small_ideals(ring, char, 3))
    mine = I.eliminate(["t"])
    syms = sp.symbols(ring.variables)
    theirs = sympy_t_free([to_sympy(g, syms) for g in I.gens], mine.ring, syms[0])
    assert mine.equals(theirs)


@pytest.mark.parametrize("char", [0, 32003])
@SETTINGS
@given(data=st.data())
def test_intersect_matches_sympy_lex(char, data):
    ring = RingContext(FieldSpec(char), NAMES[:2])
    A = data.draw(small_ideals(ring, char, 2))
    B = data.draw(small_ideals(ring, char, 2))
    t = sp.Symbol("t")
    exprs = [t * to_sympy(a) for a in A.gens] + [(1 - t) * to_sympy(b) for b in B.gens]
    assert A.intersect(B).equals(sympy_t_free(exprs, ring, t))
