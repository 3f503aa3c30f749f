"""Sparse exact rank against sympy's DomainMatrix, alone and inside graded_betti."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from monoideal import FieldSpec, Ideal, RingContext, graded_betti
from monoideal import betti as betti_mod
from monoideal.linalg import rank

from conftest import poly

CHARACTERISTICS = [0, 2, 3, 32003]


def sympy_rank(rows, field):
    """Reference rank: sympy's sparse DomainMatrix over QQ or GF(p)."""
    p = field.characteristic
    K = GF(p) if p else QQ
    entries = {}
    for i, row in enumerate(rows):
        converted = {}
        for c, v in row.items():
            v = Fraction(v)
            x = K(v.numerator) / K(v.denominator)
            if x:
                converted[c] = x
        if converted:
            entries[i] = converted
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    return DomainMatrix(entries, (len(rows), ncols), K).rank()


@st.composite
def sparse_matrices(draw, p):
    """Dict rows with zero entries, empty rows and dependent rows mixed in."""
    ncols = draw(st.integers(1, 10))
    if p:
        entry = st.integers(-2, 2) | st.integers(-p, p)
    else:
        entry = st.integers(-2, 2) | st.fractions(-3, 3, max_denominator=5)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    rows = draw(st.lists(row, max_size=10))
    coeffs = st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows))
    for combo in draw(st.lists(coeffs, max_size=4)) if rows else []:
        dependent = {}
        for a, r in zip(combo, rows):
            for c, v in r.items():
                dependent[c] = dependent.get(c, 0) + a * v
        rows.append(dependent)
    return draw(st.permutations(rows))


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_rank_matches_sympy(p):
    field = FieldSpec(p)

    @settings(max_examples=100, deadline=None)
    @given(sparse_matrices(p))
    def check(rows):
        before = [dict(r) for r in rows]
        assert rank(rows, field) == sympy_rank(rows, field)
        assert rows == before

    check()


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_rank_of_trivial_matrices(p):
    field = FieldSpec(p)
    assert rank([], field) == 0
    assert rank([{}, {}], field) == 0
    assert rank([{0: 0, 3: p}], field) == 0
    assert rank([{5: 1}, {5: -1}, {2: 3}], field) == (1 if p == 3 else 2)


def _random_binomial_ideal(ring, rng):
    """Pure powers plus two same-degree binomials with random coefficients."""
    names = ring.variables
    gens = [f"{v}^{rng.randint(2, 3)}" for v in names]
    for _ in range(2):
        deg = rng.randint(2, 3)
        a = b = ""
        while a == b:
            a, b = ("*".join(sorted(rng.choices(names, k=deg))) for _ in range(2))
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        gens.append(f"{a} - ({c})*{b}")
    return Ideal(ring, [poly(ring, g) for g in gens])


@pytest.mark.parametrize("p", [0, 32003])
def test_graded_betti_matches_sympy_rank(p, monkeypatch):
    rng = random.Random(7 + p)
    cases = []
    for k in range(20):
        ring = RingContext(FieldSpec(p), ("x", "y", "z", "w")[: 3 + k % 2])
        cases.append(_random_binomial_ideal(ring, rng))
    ours = [graded_betti(I).entries for I in cases]
    monkeypatch.setattr(betti_mod, "rank", sympy_rank)
    assert [graded_betti(I).entries for I in cases] == ours
