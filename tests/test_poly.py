"""Polynomial arithmetic, term orders, and the homogenization map."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoideal import (
    FieldSpec,
    Ideal,
    MonomialIdeal,
    Polynomial,
    PreconditionError,
    RingContext,
    TermOrder,
    mono_subideal_criterion,
    multi_homogenize,
    parse_polynomial,
    socle_matrix,
)
from monoideal.fields import is_prime
from monoideal.poly import embed, ev_add, ev_divides, ev_lcm, ev_sub

from conftest import poly


# ---------------------------------------------------------------- fields


# 25, 35, 49 and 46337^2 (the largest prime square below 2^31) are the
# composites whose least factor trial division has to reach.  A float or a
# string is no characteristic, even when it equals a prime or 0.
@pytest.mark.parametrize(
    "bad", [1, 4, 6, 9, 25, 35, 49, 46337**2, 2**31, 2.0, 3.0, 0.0, "5"]
)
def test_composite_characteristic_rejected(bad):
    with pytest.raises(ValueError):
        FieldSpec(bad)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(20000) if is_prime(n)] == [
        n for n in range(20000) if sympy.isprime(n)
    ]


def test_prime_field_literals():
    f = FieldSpec(5)
    assert f.of(7) == 2
    assert f.of(1, 2) == 3  # 1/2 = 3 mod 5
    with pytest.raises(ZeroDivisionError):
        f.of(1, 10)


def test_rational_literals_stay_exact():
    f = FieldSpec(0)
    assert f.of(4, 2) == 2
    assert f.of(1, 3) == Fraction(1, 3)


# A float, even one of exact value, a string, a bool and None are no field
# elements.  Each used to be kept as it was (a float over GF(p), True as 1),
# or to raise TypeError from Fraction or pow.
_BAD_COEFFICIENTS = [1.5, 0.1, "3", True, None]


def _coefficient_entry_points(char):
    ring = RingContext(FieldSpec(char), ("x", "y"))
    x = ring.variable(0)
    return {
        "FieldSpec.of": ring.field.of,
        "FieldSpec.of_denominator": lambda c: ring.field.of(1, c),
        "ring.constant": ring.constant,
        "ring.monomial": lambda c: ring.monomial((1, 0), c),
        "Polynomial": lambda c: Polynomial(ring, {(1, 0): c}),
        "scalar_mul": lambda c: x * c,
    }


@pytest.mark.parametrize("bad", _BAD_COEFFICIENTS, ids=repr)
@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("entry", sorted(_coefficient_entry_points(0)))
def test_bad_coefficients_raise_value_error(entry, char, bad):
    with pytest.raises(ValueError, match="is not a ratio of ints or Fractions"):
        _coefficient_entry_points(char)[entry](bad)


@pytest.mark.parametrize("char", [0, 5])
def test_fraction_denominators_are_field_elements(char):
    f = FieldSpec(char)
    assert f.of(1, Fraction(1, 2)) == f.of(2)
    assert f.of(Fraction(1, 2), Fraction(1, 3)) == f.of(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.of(1, Fraction(0))


# ---------------------------------------------------------------- orders


def test_grevlex_examples():
    o = TermOrder.grevlex(2)
    assert o.compare((2, 0), (1, 1)) > 0  # x^2 > xy
    assert o.compare((1, 1), (1, 1)) == 0


def test_lex_reflexive():
    o = TermOrder.lex(3)
    assert o.compare((1, 2, 3), (1, 2, 3)) == 0


def test_block_order_eliminates():
    # companion block first: y1 beats any power of x1
    o = TermOrder(2, [((1,), "grevlex"), ((0,), "grevlex")])
    assert o.compare((0, 1), (5, 0)) > 0


def test_unknown_block_kind_is_refused():
    with pytest.raises(ValueError, match="unknown block order kind 'revlex'"):
        TermOrder(2, [((0, 1), "revlex")])


def test_compare_arity_mismatch():
    with pytest.raises(ValueError):
        TermOrder.grevlex(2).compare((1, 0, 0), (0, 1, 0))


_exps = st.tuples(*(st.integers(min_value=0, max_value=6) for _ in range(3)))
_orders = st.sampled_from(
    [
        TermOrder.lex(3),
        TermOrder.grevlex(3),
        TermOrder(3, [((2,), "grevlex"), ((0, 1), "grevlex")]),
        TermOrder(3, [((0, 1), "lex"), ((2,), "lex")]),
    ]
)


@given(_exps, _exps, _exps, _orders)
def test_order_total_and_multiplicative(a, b, c, o):
    ab = o.compare(a, b)
    assert ab == -o.compare(b, a)
    if ab == 0:
        assert a == b
    ac = tuple(x + y for x, y in zip(a, c))
    bc = tuple(x + y for x, y in zip(b, c))
    assert o.compare(ac, bc) == ab


@given(_exps, _exps, _exps, _orders)
def test_order_transitive(a, b, c, o):
    if o.compare(a, b) >= 0 and o.compare(b, c) >= 0:
        assert o.compare(a, c) >= 0


def _reference_compare(blocks, a, b):
    """Block order compared one block at a time, straight from the definition."""
    for ix, kind in blocks:
        sa = [a[i] for i in ix]
        sb = [b[i] for i in ix]
        if kind == "grevlex":
            if sum(sa) != sum(sb):
                return 1 if sum(sa) > sum(sb) else -1
            # the smaller exponent in the last differing place wins
            for x, y in zip(reversed(sa), reversed(sb)):
                if x != y:
                    return 1 if x < y else -1
        else:
            for x, y in zip(sa, sb):
                if x != y:
                    return 1 if x > y else -1
    return 0


@st.composite
def _block_order_and_pair(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    perm = draw(st.permutations(range(n)))
    cuts = draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1 else set()
    bounds = [0, *sorted(cuts), n]
    blocks = [
        (tuple(perm[lo:hi]), draw(st.sampled_from(("lex", "grevlex"))))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    exp = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(n)))
    return blocks, draw(exp), draw(exp)


@settings(max_examples=400, deadline=None)
@given(_block_order_and_pair())
def test_order_key_matches_blockwise_reference(case):
    blocks, a, b = case
    key = TermOrder(len(a), blocks).key
    ka, kb = key(a), key(b)
    assert (ka > kb) - (ka < kb) == _reference_compare(blocks, a, b)


# ---------------------------------------------------------------- arithmetic


def _polys(char):
    field = FieldSpec(char)
    ring = RingContext(field, ("x", "y", "z"))
    coeff = st.integers(min_value=-9, max_value=9)
    exp = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(3)))
    term = st.tuples(exp, coeff)
    return st.lists(term, max_size=5).map(
        lambda terms: sum(
            (ring.monomial(e, c) for e, c in terms),
            ring.zero(),
        )
    )


@pytest.mark.parametrize("char", [0, 5])
def test_ring_axioms(char):
    @settings(max_examples=60, deadline=None)
    @given(_polys(char), _polys(char), _polys(char))
    def inner(f, g, h):
        assert (f + g) * h == f * h + g * h
        assert (f * g) * h == f * (g * h)
        assert f * f.ring.one() == f
        assert (f - f).is_zero()
        assert f * g == g * f

    inner()


def test_pow():
    ring = RingContext(FieldSpec(0), ("x", "y"))
    x, y = ring.variable(0), ring.variable(1)
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3
    assert (x + y) ** 0 == ring.one()


@st.composite
def _powered(draw):
    """(f, k): f with one to three terms, over QQ with Fractions and
    negatives or over a prime field, and 0 <= k <= 7."""
    p = draw(st.sampled_from([0, 2, 3, 32003]))
    ring = RingContext(FieldSpec(p), ("x", "y", "z"))
    exps = st.tuples(*[st.integers(0, 4)] * 3)
    coeff = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=7).filter(
        lambda c: p == 0 or c.denominator % p
    )
    size = draw(st.sampled_from([1, 3]))
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=size))
    return Polynomial(ring, terms), draw(st.integers(0, 7))


@settings(max_examples=300, deadline=None)
@given(_powered(), st.sampled_from([-1, -3, 2.0, True, "2"]))
def test_pow_equals_repeated_product(fk, bad):
    f, k = fk
    product = f.ring.one()
    for _ in range(k):
        product = product * f
    power = f**k
    assert power == product
    if len(f.coeffs) == 1:  # the same coefficient types, so the same printing
        assert {e: type(c) for e, c in power.coeffs.items()} == {
            e: type(c) for e, c in product.coeffs.items()
        }
    with pytest.raises(ValueError, match="nonnegative integers"):
        f**bad


def test_constant_minus_polynomial():
    ring = RingContext(FieldSpec(0), ("x", "y"))
    f = poly(ring, "x^2 - 2*y")
    assert 3 - f == poly(ring, "-x^2 + 2*y + 3")
    assert Fraction(1, 2) - f == -(f - Fraction(1, 2))


def test_zero_polynomial_has_no_lead():
    ring = RingContext(FieldSpec(0), ("x", "y"))
    with pytest.raises(ValueError, match="no leading term"):
        ring.zero().lead()
    assert poly(ring, "x*y + x^3").lead() == ((3, 0), 1)


@pytest.mark.parametrize("k", [True, False, -1, 2.0, "2"], ids=repr)
def test_pow_takes_only_int_exponents(k):
    x = RingContext(FieldSpec(0), ("x", "y")).variable(0)
    with pytest.raises(ValueError, match="nonnegative integers"):
        x**k


def test_char_two_cancellation():
    ring = RingContext(FieldSpec(2), ("x", "y"))
    x, y = ring.variable(0), ring.variable(1)
    assert ((x + y) + (x + y)).is_zero()
    assert (x + y) ** 2 == x**2 + y**2


@pytest.mark.parametrize("char", [0, 5])
def test_print_parse_round_trip(char):
    @settings(max_examples=60, deadline=None)
    @given(_polys(char))
    def inner(f):
        assert parse_polynomial(str(f), f.ring) == f

    inner()


# ---------------------------------------------------------------- exponent vectors

# Over QQ[x,y]: too short, too long, a float entry, an integral float, a
# negative entry, a string entry, a None entry.  Each used to be truncated
# by zip/map, taken as it was, or to raise TypeError.
_BAD_VECTORS = [(5,), (2, 0, 7), (1.5, 3), (1.0, 1), (-1, 3), ("a", 1), (1, None), 5]


def _exponent_entry_points():
    ring = RingContext(FieldSpec(0), ("x", "y"))
    M = MonomialIdeal(ring, [(2, 0), (0, 3)])
    I = Ideal(ring, [poly(ring, t) for t in ("x^2", "y^3", "x*y - y^2")])
    return {
        "ring.monomial": ring.monomial,
        "Polynomial": lambda e: Polynomial(ring, {e: 1}),
        "MonomialIdeal": lambda e: MonomialIdeal(ring, [e]),
        "MonomialIdeal.pure_powers": lambda e: MonomialIdeal.pure_powers(ring, e),
        "MonomialIdeal.contains_exp": M.contains_exp,
        "MonomialIdeal.colon": M.colon,
        "MonomialIdeal.scaled": M.scaled,
        "Ideal.contains": I.contains,
        "Ideal.saturate": I.saturate,
    }


@pytest.mark.parametrize("bad", _BAD_VECTORS, ids=str)
@pytest.mark.parametrize("entry", sorted(_exponent_entry_points()))
def test_bad_exponent_vectors_raise_value_error(entry, bad):
    with pytest.raises(ValueError, match="bad exponent vector"):
        _exponent_entry_points()[entry](bad)


def test_good_exponent_vectors_still_pass():
    calls = _exponent_entry_points()
    assert str(calls["ring.monomial"]([1, 2])) == "x*y^2"
    assert str(calls["MonomialIdeal.pure_powers"]((1, 2))) == "(y^2, x)"
    assert calls["MonomialIdeal.contains_exp"]((3, 1)) is True
    assert calls["MonomialIdeal.contains_exp"]((1, 2)) is False
    assert str(calls["MonomialIdeal.colon"]((1, 0))) == "(y^3, x)"
    assert str(calls["MonomialIdeal.scaled"]((0, 1))) == "(y^4, x^2*y)"
    assert calls["Ideal.contains"]((1, 2)) is True
    assert calls["Ideal.contains"]((1, 1)) is False


# A monomial of a ring with as many variables, and a polynomial of the ring
# that is not a monomial.  Ideal.contains is left out: it takes any
# polynomial of its ring, and rejects one of another ring on its own path.
@pytest.mark.parametrize(
    "ring, text, error, match",
    [
        (RingContext(FieldSpec(7), ("a", "b")), "a*b", ValueError, "does not belong to QQ"),
        (RingContext(FieldSpec(0), ("x", "y")), "x + y", PreconditionError, "not a monomial"),
    ],
    ids=["other_ring", "not_a_monomial"],
)
@pytest.mark.parametrize(
    "entry", sorted(set(_exponent_entry_points()) - {"Ideal.contains"})
)
def test_bad_monomials_raise_their_documented_errors(entry, ring, text, error, match):
    with pytest.raises(error, match=match):
        _exponent_entry_points()[entry](poly(ring, text))


def _index_entry_points():
    ring = RingContext(FieldSpec(0), ("x", "y"))
    g = poly(ring, "x^2*y + y")
    return {
        "ring.variable": ring.variable,
        "ring.dropped": lambda i: ring.dropped([i]),
        "Polynomial.degree_in": g.degree_in,
        "Ideal.eliminate": lambda i: Ideal(ring, [g]).eliminate([i]),
        "multi_homogenize": lambda i: multi_homogenize(g, ring.extended(["u"]), (i,)),
    }


@pytest.mark.parametrize("bad", [-1, 2, 1.0, "q"], ids=str)
@pytest.mark.parametrize("entry", sorted(_index_entry_points()))
def test_bad_variable_indices_raise_value_error(entry, bad):
    with pytest.raises(ValueError, match="no variable of index|unknown variable 'q'"):
        _index_entry_points()[entry](bad)


@pytest.mark.parametrize("entry", sorted(_index_entry_points()))
def test_a_variable_name_and_its_index_agree(entry):
    call = _index_entry_points()[entry]
    assert repr(call("y")) == repr(call(1))


def test_variable_takes_a_name_or_an_index_in_range():
    ring = RingContext(FieldSpec(0), ("x", "y"))
    assert [str(ring.variable(i)) for i in (0, 1, "x", "y")] == ["x", "y", "x", "y"]
    for i in (-1, 2, 5, 1.0):
        with pytest.raises(ValueError, match="no variable of index"):
            ring.variable(i)
    with pytest.raises(ValueError, match="unknown variable"):
        ring.variable("z")


# ---------------------------------------------------------------- ring membership

# A monomial x*y of a ring with another field, with other names and with one
# more variable, a monomial of a ring whose third name is x, and a value of
# no ring.  Each used to be taken where its exponent tuples or variable names
# matched, to be cut short by zip, or to raise AttributeError or a message of
# its own.
_FOREIGN = {
    "other_field": poly(RingContext(FieldSpec(7), ("x", "y")), "x*y"),
    "other_names": poly(RingContext(FieldSpec(0), ("a", "b")), "a*b"),
    "one_more_variable": poly(RingContext(FieldSpec(0), ("x", "y", "z")), "x*y"),
    "third_name_x": poly(RingContext(FieldSpec(0), ("a", "b", "x")), "a*b"),
    "int_3": 3,
}


def _ideal_of(v):
    return Ideal(v.ring, [v]) if isinstance(v, Polynomial) else v


def _monomial_ideal_of(v):
    return MonomialIdeal(v.ring, [v]) if isinstance(v, Polynomial) else v


def _extension_of(v):
    """The value's ring extended by u, so QQ[a,b,x,u] appends a name of
    QQ[x,y]; a value of no ring is the target itself."""
    return v.ring.extended(["u"]) if isinstance(v, Polynomial) else v


def _ring_entry_points():
    """Entry points over QQ[x,y] that take a second polynomial, ideal,
    monomial ideal or extension ring, each built from a foreign value."""
    ring = RingContext(FieldSpec(0), ("x", "y"))
    f = poly(ring, "x^2*y + y")
    I = Ideal(ring, [poly(ring, t) for t in ("x^2", "y^2")])
    M = MonomialIdeal.pure_powers(ring, (2, 2))
    return {
        "Polynomial.__add__": lambda v: f + v,
        "Polynomial.__sub__": lambda v: f - v,
        "Polynomial.__mul__": lambda v: f * v,
        "ring.monomial": ring.monomial,
        "Ideal": lambda v: Ideal(ring, [f, v]),
        "Ideal.plus": lambda v: I.plus([v]),
        "Ideal.contains": I.contains,
        "Ideal.normal_form": I.normal_form,
        "Ideal.intersect": lambda v: I.intersect(_ideal_of(v)),
        "Ideal.colon_ideal": lambda v: I.colon_ideal(_ideal_of(v)),
        "Ideal.product": lambda v: I.product(_ideal_of(v)),
        "MonomialIdeal.contains": lambda v: M.contains(_monomial_ideal_of(v)),
        "MonomialIdeal.colon_ideal": lambda v: M.colon_ideal(_monomial_ideal_of(v)),
        "MonomialIdeal.intersect": lambda v: M.intersect(_monomial_ideal_of(v)),
        "MonomialIdeal.plus": lambda v: M.plus(_monomial_ideal_of(v)),
        "MonomialIdeal.times": lambda v: M.times(_monomial_ideal_of(v)),
        "socle_matrix": lambda v: socle_matrix(M, [v]),
        "mono_subideal_criterion": lambda v: mono_subideal_criterion(I, _monomial_ideal_of(v)),
        "embed": lambda v: embed(f, _extension_of(v)),
        "multi_homogenize": lambda v: multi_homogenize(f, _extension_of(v), (1,)),
    }


# Left out where the value means something else.  The int 3 is a scalar to
# arithmetic and a bad exponent vector to ring.monomial and Ideal.contains
# (test_bad_exponent_vectors_raise_value_error).  QQ[x,y,z] extended by u is
# a ring that extends QQ[x,y], so embed takes it, and multi_homogenize
# rejects it for its companion count.
_ARITHMETIC = ("Polynomial.__add__", "Polynomial.__sub__", "Polynomial.__mul__")
_NOT_FOREIGN = {
    (e, "int_3") for e in _ARITHMETIC + ("ring.monomial", "Ideal.contains")
} | {("embed", "one_more_variable"), ("multi_homogenize", "one_more_variable")}


@pytest.mark.parametrize(
    "entry, other",
    [
        (entry, other)
        for entry in sorted(_ring_entry_points())
        for other in _FOREIGN
        if (entry, other) not in _NOT_FOREIGN
    ],
)
def test_values_of_another_ring_raise_value_error(entry, other):
    with pytest.raises(ValueError, match="does not belong to"):
        _ring_entry_points()[entry](_FOREIGN[other])


def test_the_values_left_out_keep_their_meaning():
    calls = _ring_entry_points()
    assert [str(calls[entry](3)) for entry in _ARITHMETIC] == [
        "x^2*y + y + 3",
        "x^2*y + y - 3",
        "3*x^2*y + 3*y",
    ]
    for entry in ("ring.monomial", "Ideal.contains"):
        with pytest.raises(ValueError, match="bad exponent vector"):
            calls[entry](3)
    assert repr(calls["embed"](_FOREIGN["one_more_variable"])) == "<x^2*y + y over QQ[x,y,z,u]>"
    with pytest.raises(ValueError, match="one companion per coordinate"):
        calls["multi_homogenize"](_FOREIGN["one_more_variable"])


@pytest.mark.parametrize("other", sorted(_FOREIGN))
def test_the_ring_predicates_answer_false_across_rings(other):
    ring = RingContext(FieldSpec(0), ("x", "y"))
    f = poly(ring, "x*y")
    v = _FOREIGN[other]
    assert f != v
    assert MonomialIdeal(ring, [f]) != _monomial_ideal_of(v)
    assert not Ideal(ring, [f]).equals(_ideal_of(v))


# ---------------------------------------------------------------- homogenization


def _extended(ring):
    return ring.extended([f"y{i + 1}" for i in range(ring.n)])


def test_multi_homogenize_linear(qq_xy):
    ext = _extended(qq_xy)
    f = poly(qq_xy, "x + y")
    assert multi_homogenize(f, ext) == parse_polynomial("x*y2 + y*y1", ext)


def test_multi_homogenize_mixed_cubic(qq_xyz):
    ext = _extended(qq_xyz)
    f = poly(qq_xyz, "x^2*y + x*y^2 + x*y*z")
    expected = parse_polynomial("x^2*y*y2*y3 + x*y^2*y1*y3 + x*y*z*y1*y2", ext)
    assert multi_homogenize(f, ext) == expected


def test_multi_homogenize_monomial(qq_xy):
    ext = _extended(qq_xy)
    f = poly(qq_xy, "x^3")
    assert multi_homogenize(f, ext) == parse_polynomial("x^3", ext)


def test_multi_homogenize_zero(qq_xy):
    ext = _extended(qq_xy)
    assert multi_homogenize(qq_xy.zero(), ext).is_zero()


def test_multi_homogenize_bidegrees_constant(qq_xyz):
    ext = _extended(qq_xyz)
    f = poly(qq_xyz, "x^2*z - 3*y^2 + x*y*z")
    h = multi_homogenize(f, ext)
    combined = {
        tuple(e[i] + e[i + 3] for i in range(3)) for e in h.coeffs
    }
    assert len(combined) == 1


def test_multi_homogenize_on_chosen_coordinates(qq_xyz):
    # companions for z and x only, in that order: u pads z and v pads x
    f = poly(qq_xyz, "x^2*z - 3*y^2 + x*y*z")
    ext = qq_xyz.extended(["u", "v"])
    h = multi_homogenize(f, ext, (2, 0))
    assert h == parse_polynomial("x^2*z - 3*y^2*u*v^2 + x*y*z*v", ext)
    with pytest.raises(ValueError, match="one companion per coordinate"):
        multi_homogenize(f, ext, (2,))
    assert multi_homogenize(f, qq_xyz, ()) == f


def test_ev_helpers():
    assert ev_divides((1, 0), (2, 1))
    assert not ev_divides((3, 0), (2, 1))
    assert ev_lcm((1, 2), (2, 0)) == (2, 2)


def _exps_of(n):
    return st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(n)))


_pairs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(_exps_of(n), _exps_of(n))
)


@given(_pairs)
def test_ev_kernels_match_definitions(pair):
    a, b = pair
    assert ev_add(a, b) == tuple(x + y for x, y in zip(a, b))
    assert ev_sub(a, b) == tuple(x - y for x, y in zip(a, b))
    assert ev_divides(a, b) == all(x <= y for x, y in zip(a, b))


_small_polys = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.dictionaries(
            _exps_of(n), st.integers(min_value=-5, max_value=5), max_size=5
        ),
    )
)


@given(_small_polys, st.sampled_from([0, 2, 7]))
@example((2, {}), 0)
@example((3, {(0, 0, 0): 4}), 7)
def test_multi_homogenize_is_homogeneous(case, char):
    # With a companion for every variable, every multi-homogenized generator
    # is homogeneous, constants and zero included, so Ideal.saturate runs
    # Bayer's passes on it without homogenizing.
    n, terms = case
    ring = RingContext(FieldSpec(char), tuple(f"x{i}" for i in range(n)))
    f = Polynomial(ring, terms)
    h = multi_homogenize(f, _extended(ring))
    assert h.is_homogeneous()
    if f.is_constant():
        assert h == _extended(ring).constant(f.coeffs.get((0,) * n, 0))


def test_ring_validation():
    with pytest.raises(ValueError):
        RingContext(FieldSpec(0), ())
    with pytest.raises(ValueError):
        RingContext(FieldSpec(0), ("x", "x"))
    # an int for the field, and names that print as a number, or as nothing
    with pytest.raises(ValueError, match="field must be a FieldSpec"):
        RingContext(0, ("x",))
    with pytest.raises(ValueError, match="non-empty variable names"):
        RingContext(FieldSpec(0), (1, 0))
    with pytest.raises(ValueError, match="non-empty variable names"):
        RingContext(FieldSpec(0), ("",))
