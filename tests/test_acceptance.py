"""Acceptance battery.

Each test covers one acceptance criterion, asserts the exact expected values
(tables compare token-wise), enforces the stated runtime budget, and prints
one PASS line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import pytest

from monoideal import (
    FieldSpec,
    Ideal,
    MonomialIdeal,
    RingContext,
    char_scan,
    format_table,
    graded_betti,
    mono_oracle,
    mono_via_gb,
    mono_via_puv,
    mono_subideal_criterion,
    parse_source,
    socle_matrix,
    socle_matrix_test,
)
from monoideal.selftest import run_suite

from conftest import fixture_text, poly


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"over budget: {elapsed:.1f}s >= {self.limit}s"
        return elapsed


def _tokens(text):
    return text.split()


def _assert_table_matches(table, expected_text):
    assert _tokens(format_table(table)) == _tokens(expected_text)


def max_power(ring, k):
    M = MonomialIdeal.maximal(ring)
    out = M
    for _ in range(k - 1):
        out = out.times(M)
    return out


def _passline(n, text):
    print(f"\nPASS criterion {n}: {text}")


# ----------------------------------------------------------------------------- 1


def test_criterion_1_char_two_cube_family():
    budget = Budget(5)
    text = fixture_text("cubes.ideal")
    xyz2 = (1, 1, 2)
    for p in (0, 2, 3, 5):
        _, ideals = parse_source(text, field_override=FieldSpec(p))
        res = mono_via_gb(ideals["I"])
        assert res.contains_exp(xyz2) is (p == 2)
    elapsed = budget.check()
    _passline(1, f"x*y*z^2 appears exactly in characteristic 2 ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------- 2


def test_criterion_2_pure_power_families():
    budget = Budget(30)
    for p in (2, 3, 5):
        text = f"ring QQ[x,y,z]; I = ideal(x^{p}, y^{p}, x + y + z);"
        zp = (0, 0, p)
        for q in (0, 2, 3, 5):
            _, ideals = parse_source(text, field_override=FieldSpec(q))
            res = mono_via_gb(ideals["I"])
            assert res.contains_exp(zp) is (q == p)
    for p in (2, 3):
        text = f"ring QQ[x,y,z]; I = ideal(x^{2 * p}, y^{2 * p}, x^2 + y^2 + z^2);"
        zp = (0, 0, 2 * p)
        for q in (0, 2, 3, 5):
            _, ideals = parse_source(text, field_override=FieldSpec(q))
            res = mono_via_gb(ideals["I"])
            assert res.contains_exp(zp) is (q == p)
    elapsed = budget.check()
    _passline(2, f"z^p detection tracks the characteristic ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------- 3


def test_criterion_3_generic_quadric_pair():
    budget = Budget(5)
    ring, ideals = parse_source(fixture_text("quadrics.ideal"))
    I = ideals["I"]
    m3 = max_power(ring, 3)
    m5 = max_power(ring, 5)

    # the fixture's genericity is verified, not assumed
    for e in m3.min_gens:
        assert I.contains(ring.monomial(e))
    for d in (1, 2):
        for e in MonomialIdeal.zero(ring).standard_monomials(d):
            assert not I.contains(ring.monomial(e))

    assert mono_via_gb(I) == m3
    I2 = I.product(I)
    assert mono_via_gb(I2) == m5

    # both product containments strict for I1 = I2 = I
    m6 = m3.times(m3)
    assert m5.contains(m6) and m5 != m6
    assert m3.contains(m5) and m3 != m5
    elapsed = budget.check()
    _passline(3, f"quadric pair gives powers 3 and 5, both containments strict ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------- 4

QUARTIC_TABLE_I = """
              0 1  2  3 4
       total: 1 7 15 13 4
           0: 1 .  .  . .
           1: . 2  .  . .
           2: . 3  5  1 .
           3: . 2  5  4 1
           4: . .  4  5 1
           5: . .  1  3 2
"""

QUARTIC_TABLE_MONO = """
               0  1  2  3 4
        total: 1 11 28 26 8
            0: 1  .  .  . .
            1: .  1  .  . .
            2: .  2  1  . .
            3: .  6 10  5 1
            4: .  2 14 14 3
            5: .  .  3  7 4
"""


def _quartic_tables(field):
    _, ideals = parse_source(fixture_text("quartic.ideal"), field_override=field)
    I = ideals["I"]
    mono = mono_via_gb(I)
    return graded_betti(I), graded_betti(mono.to_ideal())


def test_criterion_4_quartic_curve_tables():
    budget = Budget(60)
    t_i, t_m = _quartic_tables(None)
    _assert_table_matches(t_i, QUARTIC_TABLE_I)
    _assert_table_matches(t_m, QUARTIC_TABLE_MONO)
    assert t_m.beta(1, 5) == 2 and t_i.beta(1, 5) == 0
    assert t_i.beta(3, 5) == 1 and t_m.beta(3, 5) == 0
    elapsed = budget.check()
    _passline(4, f"quartic-curve Betti tables match, including the (1,5)/(3,5) swap ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------- 5

LINEARFORM_TABLE_I = """
                0 1  2 3
         total: 1 7 10 4
             0: 1 .  . .
             1: . 3  3 1
             2: . 4  7 3
"""

LINEARFORM_TABLE_MONO = """
                  0  1  2 3
           total: 1 10 15 6
               0: 1  .  . .
               1: .  .  . .
               2: . 10 15 6
"""


def _linearform_tables(field):
    ring, ideals = parse_source(fixture_text("linearform.ideal"), field_override=field)
    I = ideals["I"]
    mono = mono_via_gb(I)
    assert mono == max_power(ring, 3)
    return graded_betti(I), graded_betti(mono.to_ideal())


def test_criterion_5_linear_form_times_variables():
    budget = Budget(10)
    t_i, t_m = _linearform_tables(None)
    _assert_table_matches(t_i, LINEARFORM_TABLE_I)
    _assert_table_matches(t_m, LINEARFORM_TABLE_MONO)
    assert not t_i.is_level()
    assert t_m.is_level()
    elapsed = budget.check()
    _passline(5, f"cube-of-max example: tables and level flags match ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------- 6


def test_criterion_6_socle_pair_example():
    budget = Budget(10)
    ring, ideals = parse_source(fixture_text("soclepair.ideal"))
    M = MonomialIdeal(ring, ideals["M"].gens)
    I = ideals["I"]

    socle = M.socle_monomials()
    assert set(socle) == {(1, 0, 0), (0, 1, 1)}  # {x, yz}

    assert mono_via_gb(I) == M
    assert mono_via_puv(I) == M
    assert mono_oracle(I) == M
    assert mono_subideal_criterion(I, M)

    assert M.equal_colon_witnesses() == []

    N = MonomialIdeal(ring, ideals["N"].gens)
    assert N.hilbert_function() == [1, 3, 6, 3, 1]
    assert not graded_betti(N.to_ideal()).is_level()
    elapsed = budget.check()
    _passline(6, f"socle pair {{x, yz}} fixed by all three methods; HF 1,3,6,3,1 not level ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------- 7

SOCLEGLUE_TABLE_I = """
               0 1  2  3 4
        total: 1 7 17 16 5
            0: 1 .  .  . .
            1: . 2  .  . .
            2: . 2  1  . .
            3: . .  4  . .
            4: . 3 12 16 4
            5: . .  .  . 1
"""

SOCLEGLUE_TABLE_MONO = """
                0 1  2  3 4
         total: 1 5 10 10 4
             0: 1 .  .  . .
             1: . 2  .  . .
             2: . 2  1  . .
             3: . .  4  . .
             4: . .  1  2 .
             5: . 1  4  8 4
"""


def _socleglue_tables(field):
    ring, ideals = parse_source(fixture_text("socleglue.ideal"), field_override=field)
    I, M = ideals["I"], MonomialIdeal(ring, ideals["M"].gens)
    mono = mono_via_gb(I)
    assert mono == M
    return graded_betti(I), graded_betti(M.to_ideal())


def test_criterion_7_glued_socle_example():
    budget = Budget(120)
    ring, ideals = parse_source(fixture_text("socleglue.ideal"))
    I, M = ideals["I"], MonomialIdeal(ring, ideals["M"].gens)

    S = socle_matrix(M, [g for g in I.gens if not g.is_monomial()])
    assert socle_matrix_test(S) is True
    assert mono_subideal_criterion(I, M)

    t_i, t_m = _socleglue_tables(None)
    _assert_table_matches(t_i, SOCLEGLUE_TABLE_I)
    _assert_table_matches(t_m, SOCLEGLUE_TABLE_MONO)
    assert t_i.regularity() == t_m.regularity() == 5

    totals_i = t_i.totals()
    totals_m = t_m.totals()
    assert totals_i == [1, 7, 17, 16, 5]
    assert totals_m == [1, 5, 10, 10, 4]
    assert all(a > b for a, b in zip(totals_i[1:], totals_m[1:]))
    elapsed = budget.check()
    _passline(7, f"socle-matrix ideal: totals 1 7 17 16 5 strictly dominate 1 5 10 10 4 ({elapsed:.2f}s)")


# ----------------------------------------------------------------------------- 8


def test_criterion_8_randomized_property_suite():
    budget = Budget(600)
    report = run_suite(seed=20260809, instances=50)
    assert report.instances == 50
    assert report.ok, report.failures
    # the seeded draw fixes how many checks run; a route that stops checking shows here
    assert report.checks == 857

    # the two printed strictness instances for the colon-sum lower bound
    ring = RingContext(FieldSpec(0), ("x", "y"))
    for mgens, u1, u2 in (
        (("x^6", "y^6", "x^2*y^4"), "x^2*y", "x*y^2"),
        (("x^3", "y^2"), "x", "y"),
    ):
        M = MonomialIdeal(ring, [poly(ring, g) for g in mgens])
        p1, p2 = poly(ring, u1), poly(ring, u2)
        I = M.to_ideal().plus([p1 + p2])
        left = mono_via_gb(I)
        bound = M.plus(M.colon(p2).scaled(p1)).plus(M.colon(p1).scaled(p2))
        assert left.contains(bound) and left != bound

    elapsed = budget.check()
    _passline(
        8,
        f"{report.instances} seeded instances, {report.checks} checks, zero failures ({elapsed:.2f}s)",
    )


# ----------------------------------------------------------------------------- 9


def test_criterion_9_cross_characteristic_tables():
    budget = Budget(240)
    p = FieldSpec(32003)
    for maker in (_quartic_tables, _linearform_tables, _socleglue_tables):
        t_i0, t_m0 = maker(None)
        t_ip, t_mp = maker(p)
        assert t_i0.entries == t_ip.entries
        assert t_m0.entries == t_mp.entries
    elapsed = budget.check()
    _passline(9, f"tables identical over the rationals and GF(32003) ({elapsed:.2f}s)")
