"""Sparse exact rank against sympy's DomainMatrix, alone and inside graded_betti."""

import contextlib
import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoideal import FieldSpec, ParseError, RingContext, graded_betti
from monoideal import betti as betti_mod
from monoideal.linalg import rank
from monoideal.poly import ev_add

from conftest import random_binomial_ideal, sympy_rank

CHARACTERISTICS = [0, 2, 3, 32003]


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


@st.composite
def working_form_matrices(draw, p):
    """Rows ``rank`` uses as given: nonzero ints over QQ, ints in 1..p-1 over
    GF(p); with dependent rows and dict objects repeated in the list."""
    ncols = draw(st.integers(1, 8))
    entry = st.integers(1, p - 1) if p else st.integers(-5, 5).filter(bool)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, min_size=1, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2))
        s = draw(st.integers(1, p - 1) if p else st.integers(-3, 3).filter(bool))
        dependent = dict(a)
        for c, v in b.items():
            dependent[c] = dependent.get(c, 0) + s * v
        dependent = {c: v % p if p else v for c, v in dependent.items()}
        if all(dependent.values()):  # a cancelled entry would leave working form
            rows.append(dependent)
    rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows))


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_rank_uses_working_form_rows_as_given(p):
    field = FieldSpec(p)

    @settings(max_examples=150, deadline=None)
    @given(working_form_matrices(p))
    def check(rows):
        before = copy.deepcopy(rows)
        ids = [id(r) for r in rows]
        expected = sympy_rank(before, field)
        for _ in range(2):
            assert rank(rows, field) == expected
            assert rows == before
            assert [id(r) for r in rows] == ids

    check()


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_rank_of_trivial_matrices(p):
    field = FieldSpec(p)
    assert rank([], field) == 0
    assert rank([{}, {}], field) == 0
    assert rank([{0: 0, 3: p}], field) == 0
    assert rank([{5: 1}, {5: -1}, {2: 3}], field) == (1 if p == 3 else 2)


def _shared_rows():
    """Augmented rows as socle_matrix_test builds them: dicts shared by rows."""
    base = [{0: 1, 1: 2}, {0: 1, 1: 2, 2: 1}, {1: 3}]
    return base + [base[0], {**base[1], 3: 1}, base[2], base[0]]


_UNCHANGED_CASES = {
    "ints": [{0: 1, 1: 2}, {0: 1, 1: 3}, {0: 2, 1: 4, 2: 1}, {1: 1, 2: -1}],
    "explicit-zeros": [{0: 0, 1: 1}, {0: 1, 1: 1, 2: 0}, {0: 1, 1: 2}, {2: 0}],
    "shared-dicts": _shared_rows(),
}


@pytest.mark.parametrize(
    "p, rows",
    [
        pytest.param(p, rows, id=f"{name}-{p}")
        for name, rows in _UNCHANGED_CASES.items()
        for p in CHARACTERISTICS
    ]
    + [
        pytest.param(
            0,
            [{0: Fraction(1, 2), 1: 1}, {0: 1, 1: 2}, {0: 1, 1: Fraction(3, 2)}],
            id="fractions-0",
        )
    ],
)
def test_rank_leaves_rows_unchanged(p, rows):
    field = FieldSpec(p)
    before = copy.deepcopy(rows)
    ids = [id(r) for r in rows]
    expected = sympy_rank(before, field)
    assert rank(rows, field) == expected
    assert rows == before
    assert [id(r) for r in rows] == ids
    assert rank(rows, field) == expected


@pytest.mark.parametrize("p", CHARACTERISTICS)
def test_graded_betti_matches_sympy_rank(p, monkeypatch):
    rng = random.Random(7 + p)
    cases = []
    while len(cases) < 20:
        ring = RingContext(FieldSpec(p), ("x", "y", "z", "w")[: 3 + len(cases) % 2])
        # a drawn denominator may vanish mod 2 or 3; draw again
        with contextlib.suppress(ParseError):
            cases.append(random_binomial_ideal(ring, rng))
    ours = [graded_betti(I).entries for I in cases]
    monkeypatch.setattr(betti_mod, "rank", sympy_rank)
    assert [graded_betti(I).entries for I in cases] == ours


@pytest.mark.parametrize("p", [0, 32003])
def test_first_betti_numbers_count_minimal_generators(p):
    """beta_{1,j} = dim I_j - dim R_1 I_{j-1}, from sympy ranks of multiples."""
    rng = random.Random(11 + p)
    for k in range(20):
        ring = RingContext(FieldSpec(p), ("x", "y", "z", "w")[: 3 + k % 2])
        I = random_binomial_ideal(ring, rng)
        n = ring.n
        # the generators are homogeneous: any term gives the degree
        gens = [(g, sum(next(iter(g.coeffs)))) for g in I.gens]
        top = max(deg for _, deg in gens)

        def span_rank(j, least):
            """Rank of the products m*g with deg m = j - deg g >= least."""
            rows, cols = [], {}
            for g, deg in gens:
                if j - deg < least:
                    continue
                for m in itertools.combinations_with_replacement(range(n), j - deg):
                    e = tuple(m.count(v) for v in range(n))
                    rows.append(
                        {
                            cols.setdefault(ev_add(e, t), len(cols)): c
                            for t, c in g.coeffs.items()
                        }
                    )
            return sympy_rank(rows, ring.field)

        table = graded_betti(I)
        expected = {j: span_rank(j, 0) - span_rank(j, 1) for j in range(1, top + 2)}
        assert expected[top + 1] == 0
        got = {j: table.beta(1, j) for j in range(1, top + 2)}
        assert got == expected
        assert all(j <= top for i, j in table.entries if i == 1)
