"""Betti tables: fixtures, the text layout, and consistency identities."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoideal import (
    BettiTable,
    FieldSpec,
    Ideal,
    MonomialIdeal,
    PreconditionError,
    RingContext,
    format_table,
    graded_betti,
    mono_via_gb,
)
from monoideal import betti
from monoideal.betti import machine_records
from monoideal.poly import ev_divides, ev_lcm

from conftest import poly, random_binomial_ideal, sympy_rank


def mi(ring, *gens):
    return MonomialIdeal(ring, [poly(ring, g) for g in gens])


def max_power(ring, k):
    M = MonomialIdeal.maximal(ring)
    out = M
    for _ in range(k - 1):
        out = out.times(M)
    return out


# ---------------------------------------------------------------- small fixtures


def test_single_variable():
    ring = RingContext(FieldSpec(0), ("x",))
    t = graded_betti(Ideal(ring, [ring.variable(0)]))
    assert t.entries == {(0, 0): 1, (1, 1): 1}
    assert t.totals() == [1, 1]


def test_square_of_max(qq_xy):
    t = graded_betti(max_power(qq_xy, 2).to_ideal())
    assert t.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}


def test_cube_of_max_matches_printed_table(qq_xyz):
    t = graded_betti(max_power(qq_xyz, 3).to_ideal())
    assert t.totals() == [1, 10, 15, 6]
    text = format_table(t)
    rows = [line.split() for line in text.splitlines()]
    assert rows[2] == ["0:", "1", ".", ".", "."]
    assert rows[4] == ["2:", ".", "10", "15", "6"]


def test_non_homogeneous_rejected(qq_xy):
    with pytest.raises(PreconditionError):
        graded_betti(Ideal(qq_xy, [poly(qq_xy, "x^2 + y")]))


def test_non_artinian_needs_no_bound(qq_xy):
    """(x) leaves y free: with no cap the sweep stops at D = 1, uncut, and a
    cap above D gives the same table."""
    I = Ideal(qq_xy, [poly(qq_xy, "x")])
    t = graded_betti(I)
    assert t.entries == {(0, 0): 1, (1, 1): 1}
    assert not t.cut
    assert graded_betti(I, max_degree=4) == t


def test_zero_ideal_with_bound(qq_xy):
    t = graded_betti(Ideal(qq_xy, []), max_degree=3)
    assert t.entries == {(0, 0): 1}


def test_principal_ideal_short_resolution(qq_xy):
    t = graded_betti(Ideal(qq_xy, [poly(qq_xy, "x*y")]), max_degree=6)
    assert t.entries == {(0, 0): 1, (1, 2): 1}


def test_twisted_cubic_table():
    ring = RingContext(FieldSpec(0), ("x", "y", "z", "w"))
    gens = [
        poly(ring, "x*z - y^2"),
        poly(ring, "x*w - y*z"),
        poly(ring, "y*w - z^2"),
    ]
    t = graded_betti(Ideal(ring, gens), max_degree=7)
    assert t.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert t.totals() == [1, 3, 2]


def test_unit_ideal_rejected(qq_xy):
    with pytest.raises(PreconditionError):
        graded_betti(Ideal(qq_xy, [qq_xy.one()]))


def test_complete_intersection_two_vars(qq_xy):
    # quadric pair: Koszul shape 1, 2, 1 with the expected degrees
    I = Ideal(qq_xy, [poly(qq_xy, "x^2 + x*y + y^2"), poly(qq_xy, "x^2 - y^2")])
    t = graded_betti(I)
    assert t.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}
    assert t.regularity() == 2


def test_five_cubes_over_qq_within_budget():
    # the rank-heavy stress instance: dense elimination needed about 15 s
    ring = RingContext(FieldSpec(0), tuple("abcde"))
    I = Ideal(ring, [poly(ring, f"{v}^3") for v in "abcde"])
    start = time.monotonic()
    t = graded_betti(I)
    elapsed = time.monotonic() - start
    assert t.entries == {
        (0, 0): 1, (1, 3): 5, (2, 6): 10, (3, 9): 10, (4, 12): 5, (5, 15): 1
    }
    assert elapsed < 5, f"over budget: {elapsed:.1f}s >= 5s"


# ---------------------------------------------------------------- accessors


def test_regularity_of_power(qq_xyz):
    assert graded_betti(max_power(qq_xyz, 3).to_ideal()).regularity() == 2


def test_socle_degrees_match_socle_monomials(qq_xyz):
    import random

    rng = random.Random(19)
    for _ in range(12):
        b = [rng.randint(2, 3) for _ in range(3)]
        M = MonomialIdeal.pure_powers(qq_xyz, b)
        extra = tuple(rng.randint(0, 2) for _ in range(3))
        if any(extra):
            M = M.plus(MonomialIdeal(qq_xyz, [extra]))
        t = graded_betti(M.to_ideal())
        from_table = t.socle_degrees()
        from_socle = sorted(sum(u) for u in M.socle_monomials())
        assert from_table == from_socle


def test_level_flags(qq_xyz):
    assert graded_betti(max_power(qq_xyz, 3).to_ideal()).is_level()
    N = mi(qq_xyz, "x^3", "x^2*y", "x^2*z", "x*y^2", "y^3", "y^2*z", "z^3")
    assert not graded_betti(N.to_ideal()).is_level()


def test_projective_dimension_artinian(qq_xyz):
    t = graded_betti(MonomialIdeal.pure_powers(qq_xyz, (2, 2, 2)).to_ideal())
    assert t.projective_dimension() == 3


# ---------------------------------------------------------------- identities


def _hilbert_numerator(table, hf):
    """Coefficients of HF(t) * (1-t)^n, padded to the table's degree range."""
    n = table.n_vars
    # (1-t)^n coefficients
    binom = [1]
    for _ in range(n):
        binom = [a - b for a, b in zip(binom + [0], [0] + binom)]
    top = max(j for _, j in table.entries) if table.entries else 0
    out = [0] * (top + 1)
    for d, c in enumerate(hf):
        for k, b in enumerate(binom):
            if d + k <= top:
                out[d + k] += c * b
    return out


def test_alternating_sums_give_hilbert_numerator(qq_xyz):
    import random

    rng = random.Random(29)
    for _ in range(8):
        b = [rng.randint(2, 3) for _ in range(3)]
        M = MonomialIdeal.pure_powers(qq_xyz, b)
        extra = tuple(rng.randint(0, 3) for _ in range(3))
        if any(extra):
            M = M.plus(MonomialIdeal(qq_xyz, [extra]))
        t = graded_betti(M.to_ideal())
        hf = M.hilbert_function()
        expected = _hilbert_numerator(t, hf)
        top = len(expected) - 1
        got = [
            sum((-1) ** i * t.beta(i, j) for i in range(t.n_vars + 1))
            for j in range(top + 1)
        ]
        assert got == expected


def test_cross_characteristic_table(qq_xyz):
    ring_p = RingContext(FieldSpec(32003), ("x", "y", "z"))
    I0 = max_power(qq_xyz, 3).to_ideal()
    Ip = max_power(ring_p, 3).to_ideal()
    assert graded_betti(I0).entries == graded_betti(Ip).entries


def _cap_cases(p):
    """Binomial and monomial Artinian ideals in 3 and 4 variables over GF(p)."""
    rng = random.Random(3 + p)
    cases = []
    for k in range(8):
        ring = RingContext(FieldSpec(p), ("x", "y", "z", "w")[: 3 + k % 2])
        cases.append(random_binomial_ideal(ring, rng))
        M = MonomialIdeal.pure_powers(ring, [rng.randint(2, 3) for _ in ring.variables])
        extra = tuple(rng.randint(0, 2) for _ in ring.variables)
        if any(extra):
            M = M.plus(MonomialIdeal(ring, [extra]))
        cases.append(M.to_ideal())
    return cases


@pytest.mark.parametrize("p", [0, 32003])
def test_degree_cap_truncates_the_full_table(p):
    """graded_betti(I, m) is the full table restricted to j <= m."""
    for I in _cap_cases(p):
        full = graded_betti(I)
        for m in range(full.regularity() + I.ring.n + 2):
            expected = {k: v for k, v in full.entries.items() if k[1] <= m}
            assert graded_betti(I, max_degree=m).entries == expected, (I.gens, m)


def _counted_ranks(monkeypatch):
    """The list that gets one entry per ``linalg.rank`` call of ``betti``."""
    calls = []
    real_rank = betti.rank

    def counting(rows, field):
        calls.append(None)
        return real_rank(rows, field)

    monkeypatch.setattr(betti, "rank", counting)
    return calls


@pytest.mark.parametrize("p", [0, 32003])
def test_degree_cap_bounds_the_strand_ranks(p, monkeypatch):
    """graded_betti(I, m) ranks one strand (i, j) for each 2 <= i <= n and
    j <= m whose degrees j - i and j - i + 1 both have standard monomials,
    and no other."""
    calls = _counted_ranks(monkeypatch)
    for I in _cap_cases(p):
        n = I.ring.n
        hf = MonomialIdeal(I.ring, I.leading_exponents()).hilbert_function()

        def nonzero(d):
            return 0 <= d < len(hf) and hf[d] > 0

        for m in range(len(hf) + n + 1):
            expected = sum(
                nonzero(j - i) and nonzero(j - i + 1)
                for i in range(2, n + 1)
                for j in range(m + 1)
            )
            calls.clear()
            graded_betti(I, max_degree=m)
            assert len(calls) == expected, (I.gens, m)


@pytest.mark.parametrize("p", [0, 32003])
def test_cut_flag_marks_a_cap_below_the_last_degree(p):
    """On Artinian input the last entry is beta_(n, top + n); a cap below
    it, and only such a cap, cuts the table."""
    for I in _cap_cases(p):
        full = graded_betti(I)
        last = max(j for _, j in full.entries)
        assert not full.cut
        for m in range(last + 3):
            assert graded_betti(I, max_degree=m).cut == (m < last), (I.gens, m)


@pytest.mark.parametrize(
    "texts, D",
    [
        # the nonartinian.ideal fixture: in(I) = (x*y, x*z, y*z)
        (("x*y + y^2", "x*z", "y*z"), 3),
        # the twisted cubic: in(I) = (y^2, y*z, z^2)
        (("x*z - y^2", "x*w - y*z", "y*w - z^2"), 4),
    ],
)
def test_non_artinian_sweep_stops_at_the_lcm_degree(monkeypatch, texts, D):
    """No entry lies past D, the degree of the lcm of in(I)'s minimal
    generators: no cap, or a cap above D, ranks no more strands and gives
    the table at D, uncut; a cap below D cuts it."""
    ring = RingContext(FieldSpec(0), ("x", "y", "z", "w"))
    I = Ideal(ring, [poly(ring, t) for t in texts])
    calls = _counted_ranks(monkeypatch)
    at_D = graded_betti(I, max_degree=D)
    ranked = len(calls)
    assert not at_D.cut
    for m in (None, D + 1, D + 6, 10**8):
        calls.clear()
        t = graded_betti(I, max_degree=m)
        assert len(calls) == ranked
        assert t == at_D and not t.cut
    for m in range(D):
        assert graded_betti(I, max_degree=m).cut


def test_tables_compare_by_entries_and_print_as_formatted(qq_xy):
    t = graded_betti(max_power(qq_xy, 2).to_ideal())
    assert t == BettiTable(dict(t.entries), 2, cut=True)
    assert t != BettiTable(dict(t.entries), 3)
    assert t != BettiTable({(0, 0): 1}, 2)
    assert t != t.entries
    assert str(t) == format_table(t)


# ---------------------------------------------------------------- reference
#
# Monomial Betti numbers by upper Koszul simplicial complexes (Miller and
# Sturmfels, Combinatorial Commutative Algebra, Thm 1.34):
# beta_{i+1,b}(R/I) = dim H~_{i-1}(K^b(I)) with K^b(I) = {tau <= supp b :
# x^(b - tau) in I}, nonzero only for b in the lcm lattice of the generators.
# It shares no code with the strand ranks of graded_betti.


def koszul_reference(M):
    """Graded Betti numbers of R/M for a monomial ideal M, by Thm 1.34."""
    gens = list(M.min_gens)
    lattice = set()
    for g in gens:
        lattice |= {ev_lcm(g, b) for b in lattice} | {g}
    field = M.ring.field
    entries = {(0, 0): 1}
    for b in lattice:
        support = [k for k, v in enumerate(b) if v]
        faces = {}  # dimension -> faces of K^b
        for size in range(len(support) + 1):
            for tau in itertools.combinations(support, size):
                e = tuple(v - (k in tau) for k, v in enumerate(b))
                if any(ev_divides(g, e) for g in gens):
                    faces.setdefault(size - 1, []).append(tau)

        def boundary_rank(dim):
            # the augmented boundary from dim-faces to (dim-1)-faces
            if dim not in faces or dim - 1 not in faces:
                return 0
            lower = {tau: r for r, tau in enumerate(faces[dim - 1])}
            cols = [
                {lower[tau[:k] + tau[k + 1 :]]: (-1) ** k for k in range(len(tau))}
                for tau in faces[dim]
            ]
            return sympy_rank(cols, field)

        for dim, top in faces.items():
            h = len(top) - boundary_rank(dim) - boundary_rank(dim + 1)
            if h:
                key = (dim + 2, sum(b))
                entries[key] = entries.get(key, 0) + h
    return entries


@st.composite
def monomial_ideals(draw):
    """A power of 0 leaves that variable's pure power out, so some of these
    ideals are not Artinian; the tables of all of them are uncapped."""
    n = draw(st.integers(2, 5))
    p = draw(st.sampled_from([0, 2]))
    ring = RingContext(FieldSpec(p), ("a", "b", "c", "d", "e")[:n])
    powers = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    extra = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple),
            max_size=4,
        )
    )
    gens = [tuple(a * (k == i) for k in range(n)) for i, a in enumerate(powers)]
    return MonomialIdeal(ring, [e for e in gens + extra if any(e)])


@settings(max_examples=60, deadline=None)
@given(monomial_ideals())
def test_monomial_tables_match_koszul_reference(M):
    assert graded_betti(M.to_ideal()).entries == koszul_reference(M)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32))
def test_mono_tables_match_koszul_reference(seed):
    """The monomial side of ``compare``: mono(I) of a binomial ideal over QQ,
    and its generators over GF(2)."""
    rng = random.Random(seed)
    ring = RingContext(FieldSpec(0), ("x", "y", "z", "w")[: rng.randint(2, 4)])
    M = mono_via_gb(random_binomial_ideal(ring, rng))
    for p in (0, 2):
        Mp = MonomialIdeal(RingContext(FieldSpec(p), ring.variables), M.min_gens)
        assert graded_betti(Mp.to_ideal()).entries == koszul_reference(Mp)


# ---------------------------------------------------------------- strand reference
#
# The Koszul strands of R/I assembled whole: every e_S tensor u row and every
# (T, w) column, each product x_l*u in the coordinates of its normal form
# (Ideal.normal_form), ranked by sympy.  It shares no code with the strand
# assembly of graded_betti, and it uses no matching.


def strand_reference(I):
    """Graded Betti numbers of R/I for a homogeneous Artinian ideal I."""
    ring = I.ring
    n = ring.n
    initial = MonomialIdeal(ring, I.leading_exponents())
    std = []  # std[d]: the standard monomials of degree d
    while True:
        piece = []
        for c in itertools.combinations_with_replacement(range(n), len(std)):
            e = tuple(c.count(v) for v in range(n))
            if not initial.contains_exp(e):
                piece.append(e)
        if not piece:
            break
        std.append(piece)
    nf = {}

    def image(e):
        if e not in nf:
            nf[e] = I.normal_form(ring.monomial(e)).coeffs
        return nf[e]

    def strand_rank(i, d):
        """Rank of (K_i)_{i+d} -> (K_{i-1})_{i+d}."""
        if not 1 <= i <= n or not 0 <= d < len(std) - 1:
            return 0
        cols, rows = {}, []
        for S in itertools.combinations(range(n), i):
            for u in std[d]:
                row = {}
                for pos, l in enumerate(S):
                    up = tuple(a + (k == l) for k, a in enumerate(u))
                    for w, c in image(up).items():
                        key = cols.setdefault((S[:pos] + S[pos + 1 :], w), len(cols))
                        row[key] = row.get(key, 0) + (-1) ** pos * c
                rows.append(row)
        return sympy_rank(rows, ring.field)

    entries = {}
    for j in range(len(std) + n):
        for i in range(n + 1):
            d = j - i
            if 0 <= d < len(std):
                b = (
                    math.comb(n, i) * len(std[d])
                    - strand_rank(i, d)
                    - strand_rank(i + 1, d - 1)
                )
                if b:
                    entries[(i, j)] = b
    return entries


@st.composite
def artinian_ideals(draw, kinds=("monomial", "binomial", "trinomial")):
    """Pure powers plus one or two homogeneous forms of degree 2 or 3 with
    one, two or three terms, in 3 to 5 variables over QQ, GF(2), GF(3) and
    GF(32003)."""
    n = draw(st.integers(3, 5))
    p = draw(st.sampled_from([0, 2, 3, 32003]))
    ring = RingContext(FieldSpec(p), ("a", "b", "c", "d", "e")[:n])
    powers = draw(st.lists(st.integers(2, 3), min_size=n, max_size=n))
    gens = [ring.monomial([a * (k == i) for k in range(n)]) for i, a in enumerate(powers)]
    size = 1 + ("monomial", "binomial", "trinomial").index(draw(st.sampled_from(kinds)))
    coeff = (
        st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
        if p == 0
        else st.integers(1, p - 1)
    )
    for _ in range(draw(st.integers(1, 2))):
        deg = draw(st.integers(2, 3))
        mono = st.lists(st.integers(0, n - 1), min_size=deg, max_size=deg).map(
            lambda v: tuple(v.count(k) for k in range(n))
        )
        terms = draw(st.lists(mono, min_size=size, max_size=size, unique=True))
        f = ring.zero()
        for e in terms:
            f = f + ring.monomial(e, draw(coeff))
        gens.append(f)
    return Ideal(ring, gens)


@settings(max_examples=60, deadline=None)
@given(artinian_ideals())
def test_tables_match_the_whole_strand_reference(I):
    """The rows and columns a Morse matching settles change no rank, on
    monomial and non-monomial input over every field."""
    assert graded_betti(I).entries == strand_reference(I)


@settings(max_examples=40, deadline=None)
@given(artinian_ideals(kinds=("binomial", "trinomial")))
def test_tables_are_upper_semicontinuous_toward_the_initial_ideal(I):
    """beta_ij(R/I) <= beta_ij(R/in(I)), and the alternating sums agree in
    each internal degree, since both quotients have one Hilbert function."""
    ours = graded_betti(I)
    theirs = graded_betti(MonomialIdeal(I.ring, I.leading_exponents()).to_ideal())
    assert all(v <= theirs.beta(i, j) for (i, j), v in ours.entries.items())
    for t in (ours, theirs):
        assert not t.cut
    degrees = {j for _, j in ours.entries} | {j for _, j in theirs.entries}
    for j in degrees:
        assert sum((-1) ** i * ours.beta(i, j) for i in range(I.ring.n + 1)) == sum(
            (-1) ** i * theirs.beta(i, j) for i in range(I.ring.n + 1)
        )


# ---------------------------------------------------------------- rendering


def test_format_zero_row_padding():
    ring = RingContext(FieldSpec(0), ("x",))
    t = graded_betti(Ideal(ring, [ring.variable(0)]))
    assert format_table(t) == "\n".join(
        [
            "       0 1",
            "total: 1 1",
            "    0: 1 1",
        ]
    )


def test_format_trivial_table():
    t = BettiTable({(0, 0): 1}, 2)
    lines = format_table(t).splitlines()
    assert lines[-1].split() == ["0:", "1"]


def test_machine_records(qq_xy):
    t = graded_betti(max_power(qq_xy, 2).to_ideal())
    assert machine_records(t) == ["0 0 1", "1 2 3", "2 3 2"]
