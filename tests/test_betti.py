"""Betti tables: fixtures, the text layout, and consistency identities."""

import time

import pytest

from monoideal import (
    BettiTable,
    FieldSpec,
    Ideal,
    MonomialIdeal,
    PreconditionError,
    RingContext,
    format_table,
    graded_betti,
)
from monoideal.betti import machine_records

from conftest import poly


def mi(ring, *gens):
    return MonomialIdeal.from_polys(ring, [poly(ring, g) for g in gens])


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


def test_non_artinian_needs_bound(qq_xy):
    I = Ideal(qq_xy, [poly(qq_xy, "x")])
    with pytest.raises(PreconditionError):
        graded_betti(I)
    t = graded_betti(I, max_degree=4)
    assert t.entries == {(0, 0): 1, (1, 1): 1}


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
