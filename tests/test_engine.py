"""The three largest-monomial-subideal routes and the characteristic scan."""

import itertools
import random
import time

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from monoideal import (
    FieldSpec,
    Ideal,
    InternalCheckError,
    MonomialIdeal,
    Polynomial,
    PreconditionError,
    RingContext,
    TermOrder,
    char_scan,
    mono_oracle,
    mono_upper,
    mono_via_gb,
    mono_via_puv,
    multi_homogenize,
    parse_source,
)
from monoideal import engine, groebner
from monoideal.engine import _pivot_coordinates, _weights
from monoideal.monomial import _degree_exponents
from monoideal.poly import embed, ev_divides, fresh_names
from monoideal.selftest import random_artinian_ideal

from conftest import fixture_text, poly


def mi(ring, *gens):
    return MonomialIdeal(ring, [poly(ring, g) for g in gens])


def ideal(ring, *texts):
    return Ideal(ring, [poly(ring, t) for t in texts])


def max_power(ring, k):
    M = MonomialIdeal.maximal(ring)
    out = M
    for _ in range(k - 1):
        out = out.times(M)
    return out


# ---------------------------------------------------------------- saturation route


def test_nondegenerate_linear_form_has_no_monomials(qq_xy):
    res = mono_via_gb(ideal(qq_xy, "x + y"))
    assert res.is_zero()


def test_monomial_ideal_is_fixed_point(qq_xyz):
    M = mi(qq_xyz, "x^2", "y*z", "z^3")
    assert mono_via_gb(M.to_ideal()) == M


def test_char_two_cube_family():
    for p, expect in ((0, False), (2, True), (3, False), (5, False)):
        ring = RingContext(FieldSpec(p), ("x", "y", "z"))
        I = ideal(ring, "x^3", "y^3", "z^3", "x*y*(x+y+z)")
        res = mono_via_gb(I)
        assert res.contains_exp((1, 1, 2)) is expect


def test_zero_ideal(qq_xy):
    assert mono_via_gb(Ideal(qq_xy, [])).is_zero()


def test_stress_quartics_over_qq_within_budget():
    # four quartics and the linear form took about 10 s with the tag variable
    ring = RingContext(FieldSpec(0), tuple("xyzw"))
    I = ideal(ring, "x^4", "y^4", "z^4", "w^4", "x + y + z + w")
    start = time.monotonic()
    got = mono_via_gb(I)
    elapsed = time.monotonic() - start
    assert len(got.sorted_gens()) == 44
    assert got == mono_oracle(I)
    assert elapsed < 6, f"over budget: {elapsed:.1f}s >= 6s"


def test_stress_quartics_over_gfp_within_budget():
    # the same ideal over GF(32003): the packed engine at eight variables
    # (four original, three companion and the homogenizing one) in the
    # Bayer passes, since the linear form's differences have rank three
    ring = RingContext(FieldSpec(32003), tuple("xyzw"))
    I = ideal(ring, "x^4", "y^4", "z^4", "w^4", "x + y + z + w")
    start = time.monotonic()
    got = mono_via_gb(I)
    elapsed = time.monotonic() - start
    assert len(got.sorted_gens()) == 44
    assert got == mono_oracle(I)
    assert elapsed < 6, f"over budget: {elapsed:.1f}s >= 6s"


def test_stress_cubics_over_qq_within_budget():
    # five cubes and the linear form took 29.5 s with the tag variable
    ring = RingContext(FieldSpec(0), tuple("abcde"))
    I = ideal(ring, "a^3", "b^3", "c^3", "d^3", "e^3", "a + b + c + d + e")
    start = time.monotonic()
    got = mono_via_gb(I)
    elapsed = time.monotonic() - start
    assert len(got.sorted_gens()) == 46
    assert got == mono_oracle(I)
    assert elapsed < 12, f"over budget: {elapsed:.1f}s >= 12s"


@pytest.mark.parametrize(
    "names, texts",
    [
        (("y1", "y2", "y3"), ("y1^3", "y2^3", "y3^3", "y1*y2 + y2*y3 - 2*y1*y3")),
        (("y2", "y1"), ("y2^3", "y1^4", "y2^2 + y1*y2 - y1^2 + y1")),
        (("x", "t", "y1"), ("x^3", "t^2", "y1^3", "x*t + t*y1 + y1^2 - x")),
    ],
    ids=["y1-y2-y3", "y2-y1", "x-t-y1"],
)
@pytest.mark.parametrize("char", [0, 2, 32003])
def test_gb_route_on_rings_with_companion_names(names, texts, char):
    ring = RingContext(FieldSpec(char), names)
    I = ideal(ring, *texts)
    assert mono_via_gb(I) == mono_oracle(I)


@st.composite
def _multi_homogenized(draw, char):
    """Multi-homogenized random generators in two or three variables: each
    generator is homogeneous, mixed-degree, or a dense degree-2 form with all
    its lower-degree terms.  In three variables there are at most two
    generators and only the first may be dense: with two dense forms there
    the tag-variable reference can run for over a minute."""
    n = draw(st.integers(min_value=2, max_value=3))
    ring = RingContext(FieldSpec(char), ("x", "y", "z")[:n])
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)
    gens = []
    for k in range(draw(st.integers(min_value=1, max_value=5 - n))):
        kinds = ["homogeneous", "mixed"]
        if n == 2 or k == 0:
            kinds.append("dense")
        kind = draw(st.sampled_from(kinds))
        if kind == "dense":
            exps = [e for d in range(3) for e in _degree_exponents(n, d)]
        else:
            top = draw(st.integers(min_value=1, max_value=3))
            exps = []
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                d = top if kind == "homogeneous" else draw(st.integers(0, top))
                exps.append(draw(st.sampled_from(list(_degree_exponents(n, d)))))
        gens.append(Polynomial(ring, {e: draw(coeff) for e in exps}))
    ext = ring.extended([f"y{i + 1}" for i in range(n)])
    return ext, [multi_homogenize(g, ext) for g in gens], n


def _saturate_by_tag(ideal, mexp, order):
    """Reference ``ideal : (x^mexp)^inf``: add t*x^mexp - 1, with t a new last
    variable, and eliminate t under a lex block in front of ``order``."""
    big = ideal.ring.extended(["t"])
    big_order = TermOrder(big.n, [((big.n - 1,), "lex"), *order.blocks])
    gens = [embed(g, big) for g in ideal.gens]
    gens.append(big.variable(big.n - 1) * big.monomial(mexp + (0,)) - big.one())
    return Ideal(big, gens).eliminate([big.n - 1], big_order)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_companion_by_companion_saturation_matches_tag_variable(char):
    @settings(max_examples=30, deadline=None)
    @given(_multi_homogenized(char))
    def inner(case):
        ext, homog, n = case
        yfirst = TermOrder(
            ext.n, [(range(n, 2 * n), "grevlex"), (range(n), "grevlex")]
        )
        yprod = (0,) * n + (1,) * n
        expected = _saturate_by_tag(Ideal(ext, homog), yprod, yfirst)
        got = Ideal(ext, homog).saturate(yprod, order=yfirst)
        assert got.gens == expected.gens

    inner()


def _mono_by_all_companions(I):
    """Reference mono(I): one companion per variable, whatever the rank of
    the exponent differences, then saturation and elimination."""
    ring = I.ring
    n = ring.n
    ext = ring.extended(fresh_names(ring, [f"y{i + 1}" for i in range(n)]))
    homog = [multi_homogenize(g, ext) for g in I.gens]
    ys = range(n, 2 * n)
    yprod = (0,) * n + (1,) * n
    J = Ideal(ext, homog).saturate(yprod, TermOrder.elimination(ys, 2 * n))
    return MonomialIdeal(ring, J.eliminate(ys).gens)


_KINDS = ("homogeneous", "inhomogeneous", "binomial", "rank-1 binomial", "monomial")


@st.composite
def _torus_draws(draw, char, kinds=_KINDS):
    """An Artinian ideal in two or three variables: pure powers of every
    variable plus one or two extra generators of one of ``kinds``.  A rank-1
    binomial is a monomial times x^u - c*x^v for one (u, v) per draw."""
    n = draw(st.integers(min_value=2, max_value=3))
    ring = RingContext(FieldSpec(char), ("x", "y", "z")[:n])
    powers = draw(st.lists(st.integers(min_value=2, max_value=4), min_size=n, max_size=n))
    gens = [
        ring.monomial([a if j == i else 0 for j in range(n)])
        for i, a in enumerate(powers)
    ]
    kind = draw(st.sampled_from(kinds))
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)
    upto = [list(_degree_exponents(n, d)) for d in range(4)]
    every = [e for es in upto for e in es]

    def distinct(exps, k):
        return draw(st.lists(st.sampled_from(exps), min_size=2, max_size=k, unique=True))

    u, v = distinct(upto[1] + upto[2], 2)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        if kind == "homogeneous":
            terms = distinct(upto[draw(st.integers(min_value=1, max_value=3))], 3)
        elif kind == "inhomogeneous":
            terms = distinct(every, 4)
            assume(len(set(map(sum, terms))) > 1)
        elif kind == "binomial":
            terms = distinct(every, 2)
        elif kind == "rank-1 binomial":
            w = draw(st.sampled_from(upto[0] + upto[1]))
            terms = [tuple(map(sum, zip(w, u))), tuple(map(sum, zip(w, v)))]
        else:
            terms = [draw(st.sampled_from(every[1:]))]
        gens.append(Polynomial(ring, {e: draw(coeff) for e in terms}))
    return Ideal(ring, gens)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_gb_route_matches_all_companions_and_oracle(char):
    @settings(max_examples=40, deadline=None)
    @given(_torus_draws(char))
    def inner(I):
        got = mono_via_gb(I)
        assert got == _mono_by_all_companions(I)
        assert got == mono_oracle(I)

    inner()
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    zero = Ideal(ring, [])
    assert mono_via_gb(zero).is_zero() and _mono_by_all_companions(zero).is_zero()
    for texts in (["1"], ["x^2", "y^2", "z^2", "x + 1"], ["x^2", "y^3", "z^2", "3"]):
        I = ideal(ring, *texts)
        assert mono_via_gb(I).is_unit()
        assert _mono_by_all_companions(I).is_unit() and mono_oracle(I).is_unit()
    # a constant term in a generator, which alone makes the rank full
    I = ideal(ring, "x^2", "y^2", "z^3", "x*y + y*z + x + 1")
    assert len(_pivot_coordinates(I.gens, 3)) == 3
    assert len(_pivot_coordinates(I.gens[:3] + (I.gens[3] - 1,), 3)) == 2
    assert mono_via_gb(I) == _mono_by_all_companions(I) == mono_oracle(I)
    for names in (("y1", "y2", "y3"), ("y3", "x", "y1")):
        named = RingContext(FieldSpec(char), names)
        a, b, c = names
        for texts, rank in (
            ([f"{a}^3", f"{b}^3", f"{c}^2", f"{a}*{b} - {b}*{c}"], 1),
            ([f"{a}^3", f"{b}^2", f"{c}^3", f"{a}*{b} + {b}*{c} + {a} + 1"], 3),
        ):
            I = ideal(named, *texts)
            assert len(_pivot_coordinates(I.gens, 3)) == rank
            got = mono_via_gb(I)
            assert got == _mono_by_all_companions(I) == mono_oracle(I)


@st.composite
def _weighted_draws(draw, char):
    """An inhomogeneous Artinian ideal in two or three variables whose
    exponent differences have rank 1 to n - 1 and whose grading weights
    (``_weights``) reach 3 or more: pure powers of every variable plus one or
    two generators whose terms are a shift plus small multiples of one or,
    in three variables, two drawn directions."""
    n = draw(st.integers(min_value=2, max_value=3))
    ring = RingContext(FieldSpec(char), ("x", "y", "z")[:n])
    powers = draw(st.lists(st.integers(min_value=2, max_value=4), min_size=n, max_size=n))
    gens = [
        ring.monomial([a if j == i else 0 for j in range(n)])
        for i, a in enumerate(powers)
    ]
    entry = st.integers(min_value=-3, max_value=3)
    dirs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n - 1))
    coeff = st.integers(min_value=-3, max_value=3).filter(bool)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        ks = draw(
            st.lists(
                st.tuples(*(st.integers(0, 2) for _ in dirs)), min_size=2, max_size=3, unique=True
            )
        )
        raw = [[sum(k * d[i] for k, d in zip(kk, dirs)) for i in range(n)] for kk in ks]
        shift = [max(0, -min(r[i] for r in raw)) + draw(st.integers(0, 1)) for i in range(n)]
        gens.append(
            Polynomial(ring, {tuple(map(sum, zip(r, shift))): draw(coeff) for r in raw})
        )
    I = Ideal(ring, gens)
    rows = _pivot_coordinates(I.gens, n)
    assume(not I.is_homogeneous() and 0 < len(rows) < n)
    assume(max(_weights(rows, n)) > 2)
    return I


def _recorded_saturations(monkeypatch):
    """The generators the saturation route hands to Bayer's passes
    (``_saturated``, as ``engine`` calls it) from now on, as integer tuple
    dicts; each call first asserts that they are standard-homogeneous, the
    passes' precondition, so the route needs no homogenizing variable."""
    seen = []
    saturated = engine._saturated

    def recorded(dicts, mexp, p):
        for d in dicts:
            assert len({sum(e) for e in d}) == 1, f"{d} is not homogeneous"
        seen.append(dicts)
        return saturated(dicts, mexp, p)

    monkeypatch.setattr(engine, "_saturated", recorded)
    return seen


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_weighted_grading_makes_rank_deficient_input_homogeneous(char, monkeypatch):
    # the weights are positive, the one ideal the route saturates is
    # standard-homogeneous (checked by the recorder), and the answer is the
    # all-companion route's and the oracle's
    seen = _recorded_saturations(monkeypatch)

    @settings(max_examples=30, deadline=None)
    @given(_weighted_draws(char))
    def inner(I):
        n = I.ring.n
        rows = _pivot_coordinates(I.gens, n)
        assert len(_weights(rows, n)) == n + len(rows)
        assert min(_weights(rows, n)) >= 1
        seen.clear()
        got = mono_via_gb(I)
        assert len(seen) == 1
        assert got == _mono_by_all_companions(I)
        assert got == mono_oracle(I)

    inner()


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_gb_route_never_reaches_the_homogenizing_variable(char, monkeypatch):
    # every kind of draw: one saturation of a homogeneous ideal when some
    # generator has two terms, none otherwise
    seen = _recorded_saturations(monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(_torus_draws(char))
    def inner(I):
        seen.clear()
        mono_via_gb(I)
        assert len(seen) == (1 if _pivot_coordinates(I.gens, I.ring.n) else 0)

    inner()


def test_full_rank_input_keeps_unit_weights(monkeypatch):
    # S is all n: no weights are solved for and the companion ideal is
    # saturated as multi_homogenize gives it; the weights would be 1 anyway
    def unexpected(rows, n):
        raise AssertionError("weights solved for full-rank input")

    seen = _recorded_saturations(monkeypatch)
    monkeypatch.setattr(engine, "_weights", unexpected)
    for char in (0, 2, 32003):
        ring = RingContext(FieldSpec(char), ("x", "y", "z"))
        ext = ring.extended(["y1", "y2", "y3"])
        for texts in (
            ["x^2", "y^2", "z^3", "x*y + z^2 + x + 1"],
            ["x^3", "y^2", "z^2", "x + y^2 + z*x + 1"],
        ):
            I = ideal(ring, *texts)
            rows = _pivot_coordinates(I.gens, 3)
            assert [p for p, _ in rows] == [0, 1, 2]
            assert _weights(rows, 3) == (1,) * 6
            seen.clear()
            assert mono_via_gb(I) == mono_oracle(I)
            (dicts,) = seen
            assert dicts == [multi_homogenize(g, ext).coeffs for g in I.gens]


@pytest.mark.parametrize("char", [0, 2, 32003])
@pytest.mark.parametrize("kind", _KINDS)
def test_gb_route_reads_the_leads_of_a_minimal_basis(kind, char, monkeypatch):
    # the saturated ideal is neither tail-reduced, nor turned into
    # polynomials, nor eliminated: the one tail reduction of a call is the
    # verifier's grevlex basis of I
    calls = []
    autoreduce = groebner._autoreduce

    def counted(G, order, p):
        calls.append(order.order)
        return autoreduce(G, order, p)

    def unexpected(*args):
        raise AssertionError("the route built the saturated ideal")

    monkeypatch.setattr(groebner, "_autoreduce", counted)
    monkeypatch.setattr(groebner, "_polys", unexpected)
    monkeypatch.setattr(Ideal, "eliminate", unexpected)

    @settings(max_examples=10, deadline=None)
    @given(_torus_draws(char, (kind,)))
    def inner(I):
        calls.clear()
        got = mono_via_gb(I)
        assert calls == [TermOrder.grevlex(I.ring.n)]
        assert got == mono_oracle(I)

    inner()


def test_homogeneous_input_weighs_the_pivots_by_two():
    # c = (1, ..., 1) is orthogonal to the differences of a homogeneous
    # generator, so y_i weighs 1, x_i weighs 2 on S and 1 off S
    ring = RingContext(FieldSpec(0), tuple("xyzw"))
    I = ideal(ring, "x^4", "y^4", "z^4", "w^4", "(x + y + z + w)^4")
    rows = _pivot_coordinates(I.gens, 4)
    assert [p for p, _ in rows] == [0, 1, 2]
    assert _weights(rows, 4) == (2, 2, 2, 1, 1, 1, 1)


_ROADMAP_INSTANCES = {
    "quartics": ("xyzw", ("x^4", "y^4", "z^4", "w^4", "x + y + z + w")),
    "cubics": ("abcde", ("a^3", "b^3", "c^3", "d^3", "e^3", "a + b + c + d + e")),
    "quartic_twin": ("xyzw", ("x^4", "y^4", "z^4", "w^4", "(x + y + z + w)^4")),
    "cubic_twin": ("abcde", ("a^3", "b^3", "c^3", "d^3", "e^3", "(a + b + c + d + e)^3")),
}


@pytest.mark.parametrize("name", sorted(_ROADMAP_INSTANCES))
def test_stress_instances_and_twins_within_budget(name):
    # 0.2-0.5 s each on a 2-vCPU host; the twins took 2-2.5 s with a
    # homogenizing variable in every Bayer pass
    names, texts = _ROADMAP_INSTANCES[name]
    I = ideal(RingContext(FieldSpec(0), tuple(names)), *texts)
    start = time.monotonic()
    got = mono_via_gb(I)
    elapsed = time.monotonic() - start
    assert got == mono_oracle(I)
    assert elapsed < 3, f"over budget: {elapsed:.1f}s >= 3s"


_term_lists = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(
                st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(n))),
                min_size=1,
                max_size=4,
            ),
            max_size=4,
        ),
    )
)


@given(_term_lists)
@example((3, [[(1, 0, 0)], [(0, 2, 0)], [(0, 0, 0)]]))  # single terms only
# a repeated generator and a multiple of it
@example((3, [[(2, 0, 0), (0, 1, 1)], [(2, 0, 0), (0, 1, 1)], [(4, 0, 0), (2, 1, 1)]]))
@example((3, [[(1, 0, 1), (1, 0, 1), (0, 1, 1)]]))  # a repeated term
@example((4, [[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0)]]))
def test_pivot_coordinates_are_the_pivots_of_the_differences(case):
    # S has rank(L) coordinates, the first independent columns of the
    # differences of terms within each generator, so L projects injectively
    # onto them; sympy's row reduction gives the reference pivots.
    n, term_lists = case
    ring = RingContext(FieldSpec(0), tuple(f"x{i}" for i in range(n)))
    gens = [Polynomial(ring, {e: 1 for e in terms}) for terms in term_lists]
    diffs = [
        [a - b for a, b in zip(e, f)]
        for g in gens
        for e, f in itertools.combinations(g.coeffs, 2)
    ]
    S = tuple(c for c, _ in _pivot_coordinates(gens, n))
    if not diffs:
        assert S == ()
        return
    rows = sympy.Matrix(diffs)
    rank = rows.rank()
    assert len(S) == rank
    assert S == rows.rref()[1]
    assert rows[:, list(S)].rank() == rank


def test_monomial_input_builds_no_basis_but_is_verified(monkeypatch):
    # S is empty, so the generators are the answer; only the member check
    # of the result may run Buchberger's algorithm.
    calls, verifying = [], []
    buchberger = groebner._buchberger
    verify = engine._verify_members

    def guarded(*args):
        assert verifying, "the route built a Groebner basis"
        return buchberger(*args)

    def recorded(I, M, method):
        calls.append((I, M, method))
        verifying.append(True)
        try:
            verify(I, M, method)
        finally:
            verifying.pop()

    monkeypatch.setattr(groebner, "_buchberger", guarded)
    monkeypatch.setattr(engine, "_verify_members", recorded)
    for char in (0, 2, 32003):
        ring = RingContext(FieldSpec(char), ("x", "y", "z"))
        I = ideal(ring, "x^2*y", "3*y^3", "x*z", "x^3*y^2", "y^3*z")
        calls.clear()
        got = mono_via_gb(I)
        assert got == mi(ring, "x^2*y", "y^3", "x*z")
        assert calls == [(I, got, "gb")]
        assert mono_via_gb(Ideal(ring, [])).is_zero()
        assert mono_via_gb(ideal(ring, "x", "-5")).is_unit()
        assert len(calls) == 3
        # the member check is the real one: x is not in I
        with pytest.raises(InternalCheckError):
            recorded(I, mi(ring, "x", "y^3"), "gb")


# ---------------------------------------------------------------- upper closure


def test_upper_of_linear_form(qq_xy):
    assert mono_upper(ideal(qq_xy, "x + y")) == mi(qq_xy, "x", "y")


def test_upper_collects_terms(qq_xy):
    got = mono_upper(ideal(qq_xy, "x^2 + x*y", "y^3"))
    assert got == mi(qq_xy, "x^2", "x*y", "y^3")


def test_upper_fixed_on_monomial_ideal(qq_xy):
    M = mi(qq_xy, "x^2", "y")
    assert mono_upper(M.to_ideal()) == M


# ---------------------------------------------------------------- colon-formula route


def test_puv_socle_pair_example(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    I = M.to_ideal().plus([poly(qq_xyz, "x + y*z")])
    res = mono_via_puv(I, beta=[poly(qq_xyz, "x^2"), poly(qq_xyz, "y^2"), poly(qq_xyz, "z^2")])
    assert res == M


def test_puv_auto_beta(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    I = M.to_ideal().plus([poly(qq_xyz, "x + y*z")])
    assert mono_via_puv(I) == M


def test_puv_pure_power_fixed_point(qq_xy):
    I = ideal(qq_xy, "x^2", "y^2")
    res = mono_via_puv(I, beta=[poly(qq_xy, "x^2"), poly(qq_xy, "y^2")])
    assert res == mi(qq_xy, "x^2", "y^2")


def test_puv_rejects_beta_outside_ideal(qq_xy):
    I = ideal(qq_xy, "x^2", "y^2")
    with pytest.raises(PreconditionError):
        mono_via_puv(I, beta=[poly(qq_xy, "x")])


def test_puv_rejects_overlapping_supports(qq_xy):
    I = ideal(qq_xy, "x^2", "x*y", "y^2")
    with pytest.raises(PreconditionError):
        mono_via_puv(I, beta=[poly(qq_xy, "x^2"), poly(qq_xy, "x*y")])


def test_puv_requires_beta_when_not_artinian(qq_xy):
    I = ideal(qq_xy, "x^2")
    with pytest.raises(PreconditionError):
        mono_via_puv(I, ceiling=8)


# ---------------------------------------------------------------- brute-force route


def test_oracle_quadrics_fixture():
    ring, ideals = __import__("monoideal").parse_source(fixture_text("quadrics.ideal"))
    I = ideals["I"]
    assert mono_oracle(I) == max_power(ring, 3)
    assert mono_oracle(I.product(I)) == max_power(ring, 5)


def test_oracle_rejects_non_artinian(qq_xy):
    with pytest.raises(PreconditionError):
        mono_oracle(ideal(qq_xy, "x"), ceiling=8)


def test_oracle_unit_ideal(qq_xy):
    got = mono_oracle(Ideal(qq_xy, [qq_xy.constant(7)]))
    assert got.is_unit()
    assert got == mono_via_gb(Ideal(qq_xy, [qq_xy.constant(7)]))


def test_oracle_matches_gb_on_socle_example(qq_xyz):
    I = ideal(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2", "x + y*z")
    assert mono_oracle(I) == mono_via_gb(I)


def test_oracle_linear_form_products_fixture():
    import monoideal

    ring, ideals = monoideal.parse_source(fixture_text("linearform.ideal"))
    assert mono_oracle(ideals["I"]) == max_power(ring, 3)


def _oracle_reference(I, powers):
    """The sweep without the ideal property: every monomial of each degree is
    tested, up to the first degree filled by members.  ``powers`` are
    exponents of pure powers known to lie in I, so the filled degree is at
    most 1 + sum(a - 1)."""
    ring, n = I.ring, I.ring.n
    if I.contains(ring.one()):
        return MonomialIdeal(ring, [(0,) * n])
    exps = []
    for s in range(1, 1 + sum(a - 1 for a in powers) + 1):
        degree = list(_degree_exponents(n, s))
        members = [e for e in degree if I.contains(ring.monomial(e))]
        exps.extend(members)
        if len(members) == len(degree):
            return MonomialIdeal(ring, exps)
    raise AssertionError("no degree filled by members")


@st.composite
def _artinian(draw, char):
    """Pure powers of every variable plus random extra generators, all terms
    of one degree or of mixed degrees."""
    n = draw(st.integers(min_value=2, max_value=3))
    ring = RingContext(FieldSpec(char), ("x", "y", "z")[:n])
    powers = draw(st.lists(st.integers(min_value=2, max_value=4), min_size=n, max_size=n))
    gens = [
        ring.monomial([a if j == i else 0 for j in range(n)])
        for i, a in enumerate(powers)
    ]
    homogeneous = draw(st.booleans())
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        top = draw(st.integers(min_value=1, max_value=4))
        terms = {}
        for _ in range(draw(st.integers(min_value=2, max_value=3))):
            d = top if homogeneous else draw(st.integers(min_value=1, max_value=top))
            e = draw(st.sampled_from(list(_degree_exponents(n, d))))
            terms[e] = draw(st.integers(min_value=-3, max_value=3).filter(bool))
        gens.append(Polynomial(ring, terms))
    return Ideal(ring, gens), powers


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_oracle_matches_full_sweep_and_gb(char):
    @settings(max_examples=50, deadline=None)
    @given(_artinian(char))
    def inner(case):
        I, powers = case
        got = mono_oracle(I)
        assert got == _oracle_reference(I, powers)
        assert got == mono_via_gb(I)

    inner()


def _assert_oracle_never_retests(I, **kwargs):
    tested = []
    contains = Ideal.contains

    def recording(self, f, order=None):
        member = contains(self, f, order)
        tested.append((self.ring._exponent(f), member))
        return member

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Ideal, "contains", recording)
        M = mono_oracle(I, **kwargs)
    seen, members = set(), []
    for e, member in tested:
        assert e not in seen, f"x^{e} tested twice"
        assert not any(ev_divides(m, e) for m in members), (
            f"x^{e} tested after a divisor was found to be a member"
        )
        seen.add(e)
        if member:
            members.append(e)
    # Each variable's pure powers are tested in turn, x_i, x_i^2, ..., up to
    # its least pure power in I, which is a minimal generator of M.
    n = I.ring.n
    if not M.is_unit():
        for i in range(n):
            powers = [e[i] for e, _ in tested if e[i] and n - e.count(0) == 1]
            k = next(e[i] for e in M.min_gens if e[i] and n - e.count(0) == 1)
            assert powers == list(range(1, k + 1)), (i, powers)
    # Outside the pure-power search (and the test of 1), the sweep tests
    # exactly the monomials up to the filled degree that are not pure powers
    # and have no member predecessor.
    swept = {e for e, _ in tested if n - e.count(0) > 1}
    expected, s, filled = set(), 1, M.is_unit()
    while not filled:
        s += 1
        degree = list(_degree_exponents(n, s))
        for e in degree:
            support = [i for i in range(n) if e[i]]
            if len(support) > 1 and not any(
                M.contains_exp(e[:i] + (e[i] - 1,) + e[i + 1 :]) for i in support
            ):
                expected.add(e)
        filled = all(M.contains_exp(e) for e in degree)
    assert swept == expected


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_oracle_never_retests_what_the_ideal_property_decides(char):
    @settings(max_examples=50, deadline=None)
    @given(_artinian(char))
    def inner(case):
        I, _ = case
        _assert_oracle_never_retests(I)

    inner()
    # The least pure power x^5 at, one below and two below the ceiling: the
    # walk tests x, ..., x^5 whatever the ceiling, and nothing above it.
    ring = RingContext(FieldSpec(char), ("x", "y"))
    for ceiling in (5, 6, 7):
        _assert_oracle_never_retests(ideal(ring, "x^5", "y^2"), ceiling=ceiling)


def _recording_contains(tested):
    contains = Ideal.contains

    def recording(self, f, order=None):
        tested.append(self.ring._exponent(f))
        return contains(self, f, order)

    return recording


def _pure_power_walk(n, bounds):
    """x_i, ..., x_i^b_i for each variable x_i in turn."""
    return [
        tuple(a if j == i else 0 for j in range(n))
        for i, b in enumerate(bounds)
        for a in range(1, b + 1)
    ]


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_puv_default_beta_walks_each_pure_power_once(char):
    # The colon route's default beta comes from the oracle's pure-power
    # search: x_i, ..., x_i^a_i in ascending order, each once, variable by
    # variable.  The only other tests are the member checks of the colon
    # route and of the saturation route it is compared with.
    @settings(max_examples=40, deadline=None)
    @given(_artinian(char))
    def inner(case):
        I, _ = case
        tested = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Ideal, "contains", _recording_contains(tested))
            M = mono_via_puv(I)
        gens = M.sorted_gens()
        assert tested == _pure_power_walk(I.ring.n, M.pure_power_bounds()) + gens + gens

    inner()


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_pure_power_search_stops_at_the_ceiling(char):
    # The least pure powers are x^2, y^5, z^3.  With a ceiling below 5 both
    # routes stop after y, ..., y^ceiling with their own message, and
    # neither tests a power of z.
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    I = ideal(ring, "x^2", "y^5", "z^3", "x*y - z^2")
    assert mono_oracle(I).pure_power_bounds() == [2, 5, 3]
    for ceiling in (2, 3, 4):
        walk = _pure_power_walk(3, [2, ceiling])
        routes = [
            (
                mono_via_puv,
                [],
                f"no pure power of y found up to degree {ceiling}; "
                "supply the monomial regular sequence explicitly",
            ),
            (
                mono_oracle,
                [(0, 0, 0)],
                f"not Artinian within degree ceiling {ceiling}: no pure power of y",
            ),
        ]
        for route, first, message in routes:
            tested = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Ideal, "contains", _recording_contains(tested))
                with pytest.raises(PreconditionError) as err:
                    route(I, ceiling=ceiling)
            assert str(err.value) == message
            assert tested == first + walk


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_oracle_normal_forms_are_the_standard_monomials_and_generators(char):
    """Outside the tests of 1 and the pure powers, the oracle takes a normal
    form of exactly the monomials of support >= 2 that are standard in, or
    minimal generators of, mono(I), each once."""
    rng = random.Random(char)
    contains = Ideal.contains
    for _ in range(40):
        ring = RingContext(FieldSpec(char), ("x", "y", "z")[: rng.choice((2, 3))])
        I, _ = random_artinian_ideal(rng, ring)
        tested = []

        def recording(self, f, order=None):
            tested.append(tuple(f))
            return contains(self, f, order)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Ideal, "contains", recording)
            mono_oracle(I)
        M = mono_via_gb(I)
        box = itertools.product(*(range(b) for b in M.pure_power_bounds()))
        standard = [e for e in box if not M.contains_exp(e)]
        expected = {e for e in [*standard, *M.min_gens] if ring.n - e.count(0) >= 2}
        swept = [e for e in tested if ring.n - e.count(0) >= 2]
        assert len(swept) == len(set(swept))
        assert set(swept) == expected


# ---------------------------------------------------------------- behaviour laws


def test_idempotent_and_decreasing(qq_xyz):
    I = ideal(qq_xyz, "x^2", "y^2", "z^2", "x*y + z^2")
    M = mono_via_gb(I)
    for e in M.min_gens:
        assert I.contains(qq_xyz.monomial(e))
    assert mono_via_gb(M.to_ideal()) == M


def test_radical_commutes_on_pure_powers(qq_xyz):
    I = MonomialIdeal.pure_powers(qq_xyz, (2, 3, 2)).to_ideal()
    M = mono_via_gb(I)
    assert M.radical() == MonomialIdeal.maximal(qq_xyz)
    # radical of the ideal is the maximal ideal, whose mono is itself
    assert mono_via_gb(MonomialIdeal.maximal(qq_xyz).to_ideal()) == M.radical()


def test_scaling_by_nonzerodivisor_monomial(qq_xyz):
    I = ideal(qq_xyz, "x^2 + y*z")
    u = poly(qq_xyz, "x")
    scaled = Ideal(qq_xyz, [u * g for g in I.gens])
    left = mono_via_gb(scaled)
    right = mono_via_gb(I).scaled(u)
    assert left == right
    assert left.is_zero()


# ---------------------------------------------------------------- equal-colon behaviour


def test_equal_colons_keep_monomial_part(qq_xy):
    M = mi(qq_xy, "x^2", "x*y", "y^2")
    I = M.to_ideal().plus([poly(qq_xy, "x + y")])
    assert mono_via_gb(I) == M


def test_unequal_colons_enlarge(qq_xy):
    M = mi(qq_xy, "x^2", "y^2")
    I = M.to_ideal().plus([poly(qq_xy, "x + y")])
    got = mono_via_gb(I)
    assert got.contains(M) and got != M
    assert got.contains_exp((1, 1))


@pytest.mark.parametrize(
    "mgens,u1,u2",
    [
        (("x^6", "y^6", "x^2*y^4"), "x^2*y", "x*y^2"),
        (("x^3", "y^2"), "x", "y"),
    ],
)
def test_colon_sum_bound_can_be_strict(qq_xy, mgens, u1, u2):
    M = mi(qq_xy, *mgens)
    p1, p2 = poly(qq_xy, u1), poly(qq_xy, u2)
    I = M.to_ideal().plus([p1 + p2])
    left = mono_via_gb(I)
    bound = M.plus(M.colon(p2).scaled(p1)).plus(M.colon(p1).scaled(p2))
    assert left.contains(bound)
    assert left != bound


# ---------------------------------------------------------------- prime/primary behaviour


def test_mono_of_prime_fixtures(qq_xy):
    assert mono_via_gb(ideal(qq_xy, "x")).is_prime()
    assert mono_via_gb(ideal(qq_xy, "x - y")).is_zero()  # zero ideal is prime


def test_mono_of_primary_fixture(qq_xy):
    got = mono_via_gb(ideal(qq_xy, "x^2"))
    assert got == mi(qq_xy, "x^2")
    assert got.is_primary()


def test_mono_of_non_monomial_primary_stays_primary(qq_xy):
    # quotient by (x^2, x + y) is local Artinian, so the ideal is primary
    got = mono_via_gb(ideal(qq_xy, "x^2", "x + y"))
    assert got == mi(qq_xy, "x^2", "x*y", "y^2")
    assert got.is_primary()


# ---------------------------------------------------------------- char scan


def _scan(text, primes, include_char_zero=True):
    _, ideals = parse_source(text, field_override=FieldSpec(0))
    return char_scan(ideals["I"], primes, include_char_zero=include_char_zero)


def test_char_scan_cube_family():
    scan = _scan(fixture_text("cubes.ideal"), [2, 3, 5])
    assert [f.characteristic for f in scan.fields] == [0, 2, 3, 5]
    xyz2 = (1, 1, 2)
    for f in scan.fields:
        present = xyz2 in set(scan.generators[f])
        assert present is (f.characteristic == 2)
    dep = dict(scan.field_dependent())
    assert [f.characteristic for f in dep[xyz2]] == [2]


def test_char_scan_pure_power_family():
    for p in (2, 3, 5):
        text = f"ring QQ[x,y,z]; I = ideal(x^{p}, y^{p}, x + y + z);"
        scan = _scan(text, [2, 3, 5])
        zp = (0, 0, p)
        for f in scan.fields:
            member = scan.generators[f] and MonomialIdeal(
                RingContext(FieldSpec(0), ("x", "y", "z")), scan.generators[f]
            ).contains_exp(zp)
            assert bool(member) is (f.characteristic == p)


def test_char_scan_monomial_input_is_field_independent():
    text = "ring QQ[x,y,z]; I = ideal(x^2, y^3, x*z^2);"
    scan = _scan(text, [2, 3, 5])
    assert scan.field_dependent() == []


@pytest.mark.parametrize("include_char_zero", [True, False])
def test_char_scan_maps_the_parsed_ideal_like_the_text(include_char_zero):
    # 3 vanishes mod 3 and 2 mod 2: the mapped ideal must lose those terms
    # exactly as the text parsed over that field does
    text = "ring QQ[x,y,z]; I = ideal(x^3, y^3, z^3, 3*x*y*z + x^2*y - 2*y^2*z);"
    scan = _scan(text, [2, 3, 5], include_char_zero)
    expected = [0, 2, 3, 5] if include_char_zero else [2, 3, 5]
    assert [f.characteristic for f in scan.fields] == expected
    for f in scan.fields:
        _, ideals = parse_source(text, field_override=f)
        assert scan.generators[f] == tuple(mono_via_gb(ideals["I"]).sorted_gens())
    assert scan.field_dependent()


def test_char_scan_rejects_rational_coefficients():
    with pytest.raises(PreconditionError):
        _scan("ring QQ[x]; I = ideal(1/2*x);", [3])


def test_char_scan_rejects_an_ideal_over_a_prime_field():
    _, ideals = parse_source("ring ZZ/3[x]; I = ideal(x);")
    with pytest.raises(PreconditionError):
        char_scan(ideals["I"], [5])


def test_char_scan_rejects_composite():
    with pytest.raises(PreconditionError):
        _scan("ring QQ[x]; I = ideal(x);", [4])


# ---------------------------------------------------------------- self-test draws

# The first five draws from random.Random(20260809), as (I, M) texts.  The
# self-test's check count alone would not show a shifted random stream.
_SELFTEST_DRAWS = {
    (0, ("x", "y")): [
        ("Ideal(y^3, x^2, x*y + y^2)", "(y^3, x^2)"),
        ("Ideal(y^3, x^2, x*y, -x + y)", "(y^3, x^2, x*y)"),
        ("Ideal(y^4, x^2, -2*x^2 + x*y)", "(y^4, x^2)"),
        ("Ideal(y^3, x^2)", "(y^3, x^2)"),
        ("Ideal(y^3, x^2, -x^3 + x^2*y)", "(y^3, x^2)"),
    ],
    (5, ("x", "y", "z")): [
        (
            "Ideal(y^3, x^2, z^2, 2*x^3*y + x*y*z^2, 4*x*y^2 + x*z^2)",
            "(y^3, x^2, z^2)",
        ),
        ("Ideal(y^3, x^2, z^2, 2*x^2 + y*z, 4*x*y + x*z)", "(y^3, x^2, z^2)"),
        ("Ideal(x^4, y^3, z^3, x + z)", "(x^4, y^3, z^3)"),
        ("Ideal(x^2, y^2, z^2, y + 2*z)", "(x^2, y^2, z^2)"),
        ("Ideal(y^4, x^2, z^2, x^4 + 3*x*y^3)", "(y^4, x^2, z^2)"),
    ],
}


@pytest.mark.parametrize("char, names", sorted(_SELFTEST_DRAWS))
def test_selftest_draws_are_pinned(char, names):
    ring = RingContext(FieldSpec(char), names)
    rng = random.Random(20260809)
    draws = [random_artinian_ideal(rng, ring) for _ in range(5)]
    assert [(str(I), str(M)) for I, M in draws] == _SELFTEST_DRAWS[char, names]
