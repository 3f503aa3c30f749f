"""Division, reduced bases, elimination, saturation, intersection, colons."""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoideal import (
    FieldSpec,
    Ideal,
    Polynomial,
    PreconditionError,
    RingContext,
    TermOrder,
    divide,
    mono_oracle,
    mono_via_gb,
    multi_homogenize,
    parse_source,
)
from monoideal import groebner
from monoideal.errors import InternalCheckError
from monoideal.groebner import exact_quotient
from monoideal.poly import ev_add, ev_degree, ev_divides, ev_lcm, ev_sub

from conftest import poly


def _ideal(ring, *texts):
    return Ideal(ring, [poly(ring, t) for t in texts])


# ---------------------------------------------------------------- normal form


def test_normal_form_multiple_of_generator(qq_xy):
    I = _ideal(qq_xy, "x")
    assert I.normal_form(poly(qq_xy, "x^2")).is_zero()


def test_normal_form_single_division_step(qq_xy):
    I = _ideal(qq_xy, "x^2 - y")
    lex = TermOrder.lex(2)
    assert I.normal_form(poly(qq_xy, "x^2 + y"), lex) == poly(qq_xy, "2*y")


def test_normal_form_untouched(qq_xy):
    I = _ideal(qq_xy, "x")
    f = poly(qq_xy, "y")
    assert I.normal_form(f) == f


def test_division_identity(qq_xy):
    rng = random.Random(7)
    xs = [poly(qq_xy, "x^2 - y"), poly(qq_xy, "x*y + 3"), poly(qq_xy, "y^3 - 1")]
    for _ in range(25):
        f = qq_xy.zero()
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 4), rng.randint(0, 4))
            f = f + qq_xy.monomial(e, rng.randint(-5, 5))
        qs, r = divide(f, xs)
        recon = r
        for q, g in zip(qs, xs):
            recon = recon + q * g
        assert recon == f


def _division_polys(char, nonzero=False):
    """Polynomials in x, y, z; over QQ with Fraction coefficients, so that
    leads are rarely monic."""
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    if char == 0:
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        coeff = st.integers(-(2 * char), 2 * char)
    exp = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3)))
    polys = st.dictionaries(exp, coeff, max_size=5).map(
        lambda terms: Polynomial(ring, terms)
    )
    return polys.filter(lambda f: not f.is_zero()) if nonzero else polys


_DIVISION_ORDERS = st.sampled_from(
    [TermOrder.grevlex(3), TermOrder.lex(3), TermOrder(3, [((2,), "lex"), ((0, 1), "grevlex")])]
)


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_divide_identity_and_reduced_remainder(char):
    @settings(max_examples=80, deadline=None)
    @given(
        _division_polys(char),
        st.lists(_division_polys(char, nonzero=True), min_size=1, max_size=3),
        _DIVISION_ORDERS,
    )
    def inner(f, divisors, order):
        qs, r = divide(f, divisors, order)
        assert len(qs) == len(divisors)
        recon = r
        for q, d in zip(qs, divisors):
            recon = recon + q * d
        assert recon == f
        leads = [d.lead(order)[0] for d in divisors]
        assert not any(ev_divides(l, e) for l in leads for e in r.coeffs)

    inner()


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_exact_quotient_inverts_multiplication(char):
    @settings(max_examples=80, deadline=None)
    @given(
        _division_polys(char), _division_polys(char, nonzero=True), _DIVISION_ORDERS
    )
    def inner(q, g, order):
        assert exact_quotient(q * g, g, order) == q
        _, r = divide(q, [g], order)
        if r.is_zero():
            assert exact_quotient(q, g, order) * g == q
        else:
            with pytest.raises(InternalCheckError):
                exact_quotient(q, g, order)

    inner()


def test_membership_iff_zero_normal_form(qq_xy):
    I = _ideal(qq_xy, "x^2 - y", "x*y")
    basis = I.groebner_basis()
    rng = random.Random(3)
    for _ in range(20):
        combo = qq_xy.zero()
        for g in basis:
            e = (rng.randint(0, 2), rng.randint(0, 2))
            combo = combo + qq_xy.monomial(e, rng.randint(-3, 3)) * g
        assert I.contains(combo)
        qs, r = divide(combo, list(basis))
        assert r.is_zero()


# ---------------------------------------------------------------- reduced bases


def test_linear_pair_reduces_to_variables(qq_xy):
    I = _ideal(qq_xy, "x + y", "x - y")
    assert [str(g) for g in I.groebner_basis()] == ["x", "y"]


def test_linear_pair_char_two():
    ring = RingContext(FieldSpec(2), ("x", "y"))
    I = Ideal(ring, [poly(ring, "x + y"), poly(ring, "x + y")])
    assert [str(g) for g in I.groebner_basis()] == ["x + y"]


def test_lex_basis_closed_under_s_pairs(qq_xy):
    lex = TermOrder.lex(2)
    I = _ideal(qq_xy, "x^2 - y", "y^2")
    assert [str(g) for g in I.groebner_basis(lex)] == ["x^2 - y", "y^2"]


def test_reduced_basis_unique_under_shuffle(qq_xyz):
    gens = [
        poly(qq_xyz, "x^2*y - z"),
        poly(qq_xyz, "x*z - y^2"),
        poly(qq_xyz, "y^3 - x"),
        poly(qq_xyz, "z^2 - x*y"),
    ]
    reference = Ideal(qq_xyz, gens).groebner_basis()
    rng = random.Random(11)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert Ideal(qq_xyz, shuffled).groebner_basis() == reference


def test_basis_is_reduced(qq_xyz):
    from monoideal.poly import ev_divides

    I = _ideal(qq_xyz, "x^2 - y*z", "x*y - z^2", "y^2 - x*z + x")
    basis = I.groebner_basis()
    leads = [g.lead()[0] for g in basis]
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            if i != j:
                assert not ev_divides(a, b)
    for g in basis:
        assert g.lead()[1] == 1
        for e in g.coeffs:
            if e != g.lead()[0]:
                assert not any(ev_divides(l, e) for l in leads)
    keys = [TermOrder.grevlex(3).key(l) for l in leads]
    assert keys == sorted(keys, reverse=True)


def _small_polys(char, homogeneous):
    """Nonzero polynomials in x, y, z of degree at most 3 and at most four
    terms; homogeneous ones are of one degree from 1 to 3.  Denser or
    higher-degree draws can take minutes to a basis over QQ."""
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    coeff = st.integers(-9, 9) if char == 0 else st.integers(0, char - 1)

    def of_degree(d):
        exps = [
            e
            for e in itertools.product(range(d + 1), repeat=3)
            if sum(e) == d or (not homogeneous and sum(e) < d)
        ]
        return st.dictionaries(st.sampled_from(exps), coeff, min_size=1, max_size=4)

    polys = st.integers(1, 3).flatmap(of_degree).map(lambda t: Polynomial(ring, t))
    return polys.filter(lambda f: not f.is_zero())


@pytest.mark.parametrize("bayer", [False, True], ids=["grevlex", "bayer"])
@pytest.mark.parametrize("char", [0, 2, 32003])
def test_buchberger_returns_a_minimal_basis(char, bayer, monkeypatch):
    # A saturation pass hands this basis to the next untouched, so it must
    # be a Groebner basis as it stands.  The lead check guards reading a
    # remainder's lead off its first key; it runs on every element as it is
    # built, since a reduction by a wrong lead need not terminate.  The Bayer
    # case is a pass's shape: homogeneous input, one grevlex block in a
    # permuted variable order.  The engine holds terms by order key; the
    # divisibility and lcm checks unpack the leads and use the tuple functions.
    class CheckedBP(groebner._BP):
        __slots__ = ()

        def __init__(self, coeffs, klead, order):
            assert klead == max(coeffs)
            super().__init__(coeffs, klead, order)

    monkeypatch.setattr(groebner, "_BP", CheckedBP)
    if bayer:
        orders = st.permutations(range(3)).map(
            lambda ix: TermOrder(3, [(ix, "grevlex")])
        )
    else:
        orders = st.just(TermOrder.grevlex(3))
    gens = _small_polys(char, homogeneous=bayer)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(gens, min_size=1, max_size=3), orders)
    def inner(gens, order):
        pk = groebner._Packing(order, groebner._FIRST_WIDTH)
        dicts = [pk.packed(groebner._clear_denominators(g.coeffs)[0]) for g in gens]
        G = groebner._buchberger(dicts, pk, char, char)
        leads = [pk.unpack(b.lead) for b in G]
        for a, b in itertools.permutations(leads, 2):
            assert not ev_divides(a, b)
        for (a, la), (b, lb) in itertools.combinations(zip(G, leads), 2):
            s = groebner._spoly(a, b, pk.key(pk.pack(ev_lcm(la, lb))), char)
            assert not groebner._nf(s, G, pk, char)[0]
        I = Ideal(gens[0].ring, gens)
        bps = groebner._autoreduce(G, pk, char)
        reduced = groebner._polys(I.ring, (pk, bps))
        assert reduced == I.groebner_basis(order)

    inner()


def _built_leads(gens, order, char):
    """The leads of the minimal basis that ``_buchberger`` builds from gens."""
    dicts = [groebner._clear_denominators(g.coeffs)[0] for g in gens]
    G, pk = groebner._minimal_basis(*groebner._packed(dicts, order), order, char)
    return {pk.unpack(b.lead) for b in G}


def _sympy_leads(gens, order, char):
    """The leads of sympy's reduced basis of gens under ``order``."""
    sp = pytest.importorskip("sympy")
    from sympy.polys.groebnertools import groebner as sp_groebner

    dom = sp.QQ if char == 0 else sp.GF(char)
    kind = order.kind
    sp_order = kind if kind == "grevlex" else _sympy_product_order(order.blocks)
    R, *_ = sp.ring(",".join(gens[0].ring.variables), dom, sp_order)

    def element(c):
        c = Fraction(c)
        return dom(c.numerator) / dom(c.denominator)

    polys = [R.from_dict({e: element(c) for e, c in g.coeffs.items()}) for g in gens]
    return {tuple(f.LM) for f in sp_groebner(polys, R)}


@pytest.mark.parametrize("order", ["grevlex", "elimination"])
@pytest.mark.parametrize("char", [0, 2, 3, 32003])
def test_redundant_seeds_leave_the_leads(char, order):
    # A seed whose lead an earlier lead divides is not inserted; its
    # remainder is.  A duplicate, a scalar multiple and g + c*x^a*h add
    # nothing to the ideal, so the leads stay those of the drawn generators.
    # A seed g + x^b, x^b below g's lead, shares g's lead and may enlarge the
    # ideal: the leads are then those of sympy's basis of everything.
    order = TermOrder.grevlex(3) if order == "grevlex" else TermOrder.elimination([0], 3)
    gens = st.lists(_small_polys(char, homogeneous=False), min_size=1, max_size=3)
    small = st.tuples(*[st.integers(0, 1)] * 3)
    coeff = st.integers(1, 9) if char == 0 else st.integers(1, char - 1)

    @settings(max_examples=30, deadline=None)
    @given(gens, st.data())
    def inner(gens, data):
        ring = gens[0].ring
        pick = st.sampled_from(gens)
        g, h, c = data.draw(pick), data.draw(pick), data.draw(coeff)
        same = [data.draw(pick), g * c, g + ring.monomial(data.draw(small), c) * h]
        base = _built_leads(gens, order, char)
        assert base == _sympy_leads(gens, order, char)
        assert _built_leads(same + gens + same, order, char) == base
        u = g.lead(order)[0]
        if not any(u):
            return  # no monomial lies below a constant
        below = data.draw(small.filter(lambda e: order.key(e) < order.key(u)))
        wider = gens + [g + ring.monomial(below)]
        assert _built_leads(wider, order, char) == _sympy_leads(wider, order, char)

    inner()


@pytest.mark.parametrize("char", [0, 2])
def test_a_redundant_seed_hands_on_its_remainder(char):
    # x^2 + y shares its lead with x^2; whichever of the two goes in second
    # leaves y as its remainder, which must enter the basis.
    ring = RingContext(FieldSpec(char), ("x", "y"))
    order = TermOrder.grevlex(2)
    gens = [poly(ring, "x^2"), poly(ring, "x^2 + y")]
    assert _built_leads(gens, order, char) == {(2, 0), (0, 1)}
    assert Ideal(ring, gens).groebner_basis() == (poly(ring, "x^2"), poly(ring, "y"))


def _update_reference(leads, f, pairs):
    """Gebauer-Moeller on exponent tuples: the pairs (i, j) -> lcm that live
    after ``f`` joins ``leads``.  An old pair dies when f's lead divides its
    lcm and differs from both lcms with f (chain criterion); of the new pairs
    (i, m) one per lcm survives, the first, if its lcm is minimal among them
    and no pair of that lcm has coprime leads."""
    m = len(leads)
    live = {
        (i, j): L
        for (i, j), L in pairs.items()
        if not ev_divides(f, L) or L in (ev_lcm(leads[i], f), ev_lcm(leads[j], f))
    }
    first, coprime = {}, set()
    for i, a in enumerate(leads):
        L = ev_lcm(a, f)
        first.setdefault(L, i)
        if L == ev_add(a, f):
            coprime.add(L)
    for L, i in first.items():
        if L in coprime or any(K != L and ev_divides(K, L) for K in first):
            continue
        live[i, m] = L
    return live


@pytest.mark.parametrize("width", [8, 16])
def test_update_matches_the_tuple_reference(width):
    # Each call's surviving pairs, each with the (key, packed lcm) it stores,
    # are the reference's, no more: an unpruned pair would not change a
    # basis, so nothing downstream would see it.  Old survivors keep their
    # order, and the new pairs come last, where the insertion queues them.
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def inner(data):
        n = data.draw(st.integers(1, 5))
        pk = groebner._Packing(data.draw(_orders(n)), width)
        mono = st.tuples(*[st.integers(0, 3)] * n)
        seq = data.draw(st.lists(mono, min_size=1, max_size=12))
        G, P, ref = [], {}, {}
        for f in seq:
            k = pk.key(pk.pack(f))
            old = list(P)
            ref = _update_reference([pk.unpack(b.lead) for b in G], f, ref)
            G2, P2 = groebner._update(G, P, groebner._BP({k: 1}, k, pk), pk)
            assert G2 is G and P2 is P and pk.unpack(G[-1].lead) == f
            expected = {ij: (pk.key(pk.pack(L)), pk.pack(L)) for ij, L in ref.items()}
            assert P == expected
            kept = [ij for ij in P if ij[1] < len(G) - 1]
            assert kept == [ij for ij in old if ij in P]
            assert list(P)[len(kept):] == [ij for ij in P if ij[1] == len(G) - 1]

    inner()


# ---------------------------------------------------------------- packed monomials


def _fits(order, limit, e):
    """Whether ``e`` is legal in a packing of ``order`` whose fields hold
    ``limit``: each grevlex block's degree and each lex exponent at most it."""
    return all(
        (sum(e[i] for i in ix) if kind == "grevlex" else max(e[i] for i in ix)) <= limit
        for ix, kind in order.blocks
    )


@st.composite
def _orders(draw, n):
    """Grevlex, lex, an elimination order or a permuted one-block Bayer
    order in n variables."""
    kind = draw(st.sampled_from(("grevlex", "lex", "elimination", "bayer")))
    if kind == "grevlex":
        return TermOrder.grevlex(n)
    if kind == "lex":
        return TermOrder.lex(n)
    if kind == "elimination":
        front = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
        return TermOrder.elimination(front, n)
    return TermOrder(n, [(draw(st.permutations(range(n))), "grevlex")])


@st.composite
def _packings(draw):
    """A packing of an order of ``_orders``, in one to five variables, 4 to
    16 bits a field."""
    order = draw(_orders(draw(st.integers(1, 5))))
    return groebner._Packing(order, draw(st.sampled_from((4, 8, 16))))


@st.composite
def _monomials(draw, pk):
    """An exponent vector at, below or one past the packing's limit: one
    block gets a degree budget of limit - 1, limit or limit + 1, spread over
    its variables, and every other exponent stays small."""
    n = pk.order.arity
    e = [draw(st.integers(0, 1)) for _ in range(n)]
    ix, kind = draw(st.sampled_from(pk.order.blocks))
    budget = pk.limit + draw(st.sampled_from((-1, 0, 1)))
    if kind == "lex":
        e[draw(st.sampled_from(ix))] = budget
        return tuple(e)
    rest = budget - sum(e[i] for i in ix)
    k = len(ix) - 1
    cuts = sorted(draw(st.lists(st.integers(0, rest), min_size=k, max_size=k)))
    for i, lo, hi in zip(ix, [0] + cuts, cuts + [rest]):
        e[i] += hi - lo
    return tuple(e)


def test_packing_matches_the_tuple_functions():
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def inner(data):
        pk = data.draw(_packings())
        order, H = pk.order, pk.guard
        a, b = data.draw(_monomials(pk)), data.draw(_monomials(pk))
        for e in (a, b):
            if not _fits(order, pk.limit, e):
                with pytest.raises(groebner._Overflow):
                    pk.pack(e)
        if not (_fits(order, pk.limit, a) and _fits(order, pk.limit, b)):
            return
        A, B = pk.pack(a), pk.pack(b)
        assert (pk.unpack(A), pk.unpack(B)) == (a, b)
        assert pk.unkey(pk.key(A)) == A
        assert not (B - A) & H == ev_divides(a, b)
        assert pk.unpack(pk.lcm(A, B)) == ev_lcm(a, b)
        assert (pk.key(A) < pk.key(B)) == (order.key(a) < order.key(b))
        # A product is a sum, its key the sum of the keys, and the key's
        # guard bits show exactly when it no longer fits.
        ab = ev_add(a, b)
        assert pk.key(A + B) == pk.key(A) + pk.key(B)
        assert not pk.key(A + B) & H == _fits(order, pk.limit, ab)
        if _fits(order, pk.limit, ab):
            assert pk.pack(ab) == A + B
        if order.kind == "grevlex":
            assert pk.key(A) >> pk.width * (order.arity - 1) == ev_degree(a)

    inner()


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_spoly_matches_the_tuple_functions(char):
    # _spoly shifts the two tails by key arithmetic alone.  Its terms, and
    # the lcm of the leads, may leave the packing; _nf must then raise, and
    # otherwise give the S-polynomial of the tuple functions.
    coeff = st.integers(-9, 9).filter(bool) if char == 0 else st.integers(1, char - 1)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def inner(data):
        pk = data.draw(_packings())

        def fits(e):
            return _fits(pk.order, pk.limit, e)

        polys = st.dictionaries(_monomials(pk).filter(fits), coeff, min_size=1, max_size=3)
        bps = []
        for d in (data.draw(polys), data.draw(polys)):
            keyed = pk.packed(d)
            klead = max(keyed)
            bps.append(groebner._BP(groebner._normalized(keyed, klead, char), klead, pk))
        b1, b2 = bps
        leads = [pk.unpack(b.lead) for b in bps]
        lcm = ev_lcm(*leads)
        g = gcd(b1.lc, b2.lc)
        expected = {}
        for b, lead, m in zip(bps, leads, (b2.lc // g, -(b1.lc // g))):
            for e, c in pk.unpacked(b.coeffs).items():
                t = ev_add(e, ev_sub(lcm, lead))
                expected[t] = expected.get(t, 0) + m * c
        expected = {e: c % char if char else c for e, c in expected.items()}
        expected = {e: c for e, c in expected.items() if c}
        s = groebner._spoly(b1, b2, pk.key(pk.lcm(b1.lead, b2.lead)), char)
        if all(map(fits, expected)):
            assert pk.unpacked(groebner._nf(s, [], pk, char)[0]) == expected
        else:
            with pytest.raises(groebner._Overflow):
                groebner._nf(s, [], pk, char)

    inner()


def _recorded_builds(monkeypatch):
    """Every ``_buchberger`` call from now on, as [dicts, packing, basis]:
    the keyed input, the packing that keys it, and the minimal basis, which
    stays None while the build runs or if it overflows."""
    calls = []
    buchberger = groebner._buchberger

    def recorded(dicts, order, char, p):
        call = [dicts, order, None]
        calls.append(call)
        call[2] = buchberger(dicts, order, char, p)
        return call[2]

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    return calls


def _divided_by_tuples(keyed, src, i, dst):
    """The tuple route of a Bayer pass's hand-off, the reference for its key
    arithmetic: unpack under ``src``, divide by the largest power of x_i that
    divides the polynomial, pack under ``dst``."""
    coeffs = src.unpacked(keyed)
    a = min(e[i] for e in coeffs)
    return dst.packed({e[:i] + (e[i] - a,) + e[i + 1 :]: c for e, c in coeffs.items()})


def test_moved_matches_the_tuple_route():
    # _moved lays keyed dicts out for another order of the same arity, at the
    # same or twice the width, as unpacking and packing would.  A key that
    # leaves the new fields raises as packing does: a lex or two-block key
    # may hold a degree past the limit, a one-block grevlex key never does.
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def inner(data):
        src = data.draw(_packings())
        n = src.order.arity
        dst = groebner._Packing(data.draw(_orders(n)), src.width * data.draw(st.sampled_from((1, 2))))
        legal = _monomials(src).filter(lambda e: _fits(src.order, src.limit, e))
        polys = st.dictionaries(legal, st.integers(1, 9), min_size=1, max_size=3)
        dicts = [src.packed(d) for d in data.draw(st.lists(polys, min_size=1, max_size=3))]
        try:
            expected = [dst.packed(src.unpacked(d)) for d in dicts]
        except groebner._Overflow:
            assert src.order.kind != "grevlex"
            with pytest.raises(groebner._Overflow):
                groebner._moved(dicts, src, dst)
            return
        assert groebner._moved(dicts, src, dst) == expected
        assert groebner._moved(dicts, src, src) is dicts

    inner()


@pytest.mark.parametrize("char", [0, 32003])
def test_bayer_division_matches_the_tuple_route(char, monkeypatch):
    # A pass divides its minimal basis by the largest power of its last
    # variable with one subtraction a key, and _moved lays the result out
    # for the next build.  Each build's input, the passes' result, and that
    # result moved to any order at the same or twice the width are what the
    # tuple route makes of the build before; every variable gets divided.
    calls = _recorded_builds(monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(_small_polys(char, homogeneous=True), min_size=1, max_size=3),
        st.sets(st.integers(0, 2), min_size=1),
        st.data(),
    )
    def inner(gens, support, data):
        dicts = [groebner._clear_denominators(g.coeffs)[0] for g in gens]
        calls.clear()
        mexp = tuple(int(i in support) for i in range(3))
        keyed, pk = groebner._saturated(dicts, mexp, char)
        builds = [c for c in calls if c[2] is not None]
        assert len(builds) == len(support)
        assert builds[0][0] == [builds[0][1].packed(d) for d in dicts]
        wide = groebner._Packing(data.draw(_orders(3)), pk.width * data.draw(st.sampled_from((1, 2))))
        handed = [(d, dst) for d, dst, _ in builds[1:]] + [(keyed, pk)]
        handed.append((groebner._moved(keyed, pk, wide), wide))
        for (_, src, G), (got, dst) in zip(builds + builds[-1:], handed):
            i = src.order.blocks[0][0][-1]
            assert got == [_divided_by_tuples(b.coeffs, src, i, dst) for b in G]

    inner()


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("n", [1, 2])
def test_companion_free_leads_match_the_tuple_route(char, n, monkeypatch):
    # The final build takes the last pass's divided basis moved to the
    # companions-first order, and keeps the leads whose keys lie below the
    # companions' fields: exactly the leads free of them.  With one companion
    # y, a lead y alone keys to that bound itself, so it must not be kept.
    calls = _recorded_builds(monkeypatch)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_small_polys(char, homogeneous=True), min_size=1, max_size=3))
    def inner(gens):
        calls.clear()
        got = groebner._companion_free_leads([g.coeffs for g in gens], n, 3, char)
        (_, src, G), (handed, pk, F) = [c for c in calls if c[2] is not None][-2:]
        i = src.order.blocks[0][0][-1]
        assert handed == [_divided_by_tuples(b.coeffs, src, i, pk) for b in G]
        leads = [pk.unpack(b.lead) for b in F]
        assert got == [e[:n] for e in leads if not any(e[n:])]

    inner()
    assert groebner._companion_free_leads([{(1, 0): 1, (0, 1): -1}], 1, 2, char) == []


def test_membership_order_independent(qq_xy):
    I = _ideal(qq_xy, "x^2 - y", "y^2 - 1")
    f = poly(qq_xy, "x^4 - 1")
    for o in (TermOrder.grevlex(2), TermOrder.lex(2), TermOrder(2, [((1,), "lex"), ((0,), "grevlex")])):
        assert I.contains(f, o)


_INSIDE_8_BITS = [(0, 0, 0), (3, 1, 0), (5, 7, 2), (0, 0, 40), (60, 60, 7)]
_PAST_8_BITS = [(128, 0, 0), (0, 0, 130), (70, 40, 30), (127, 1, 0)]


@pytest.mark.parametrize("char", [0, 32003])
def test_monomial_remainder_matches_remainder(char, monkeypatch):
    """The remainder bound to the cached basis equals ``_remainder`` on
    monomials inside its 8-bit packing, and past it (degree >= 128), where
    it goes to ``_remainder`` and the cached basis keeps its width."""
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    I = _ideal(ring, "x^2 - 3/2*y*z", "y^2 - 2*x*z + 5*z^2")
    order = TermOrder.grevlex(3)
    remainder = I._monomial_remainder(order)
    assert I._basis(order)[0].width == 8
    real = groebner.Ideal._remainder
    expected = {e: real(I, {e: 1}, order) for e in _INSIDE_8_BITS + _PAST_8_BITS}
    fallbacks = []

    def counted(self, ints, o):
        fallbacks.extend(ints)
        return real(self, ints, o)

    monkeypatch.setattr(groebner.Ideal, "_remainder", counted)
    assert {e: remainder(e) for e in expected} == expected
    assert fallbacks == _PAST_8_BITS
    assert any(len(expected[e][0]) > 1 for e in _PAST_8_BITS)
    assert I._basis(order)[0].width == 8


_WRONG_ARITY = {
    "grevlex5": TermOrder.grevlex(5),
    "lex7": TermOrder.lex(7),
    "block3": TermOrder(3, [((0,), "grevlex"), ((1,), "grevlex"), ((2,), "lex")]),
    "eliminating1": TermOrder.lex(1),
}


@pytest.mark.parametrize("name", sorted(_WRONG_ARITY))
@pytest.mark.parametrize(
    "call",
    [
        lambda I, f, o: I.groebner_basis(o),
        lambda I, f, o: I.normal_form(f, o),
        lambda I, f, o: I.contains(f, o),
        lambda I, f, o: I.eliminate(["x"], o),
        lambda I, f, o: I.saturate(f, o),
        lambda I, f, o: divide(f, list(I.gens), o),
    ],
    ids=["groebner_basis", "normal_form", "contains", "eliminate", "saturate", "divide"],
)
def test_order_of_the_wrong_arity_is_rejected(qq_xy, call, name):
    # eliminate checks the arity before it reads the order's first block
    order = _WRONG_ARITY[name]
    I = _ideal(qq_xy, "x^2 - y", "x*y - 1")
    with pytest.raises(ValueError, match="does not order the 2 variables"):
        call(I, poly(qq_xy, "x*y"), order)
    assert not I._cache


@pytest.mark.parametrize("name", sorted(_WRONG_ARITY))
@pytest.mark.parametrize(
    "call",
    [
        lambda I, f, o: I.contains((1, 1), o),
        lambda I, f, o: I.contains(f, o),
        lambda I, f, o: I.normal_form(f, o),
    ],
    ids=["contains_vector", "contains", "normal_form"],
)
def test_order_of_the_wrong_arity_is_rejected_with_a_warm_cache(qq_xy, call, name):
    # a cache lookup comes first, so a wrong order must still miss it
    order = _WRONG_ARITY[name]
    I = _ideal(qq_xy, "x^2 - y", "x*y - 1")
    I._basis()
    with pytest.raises(ValueError, match="does not order the 2 variables"):
        call(I, poly(qq_xy, "x*y"), order)
    assert list(I._cache) == [TermOrder.grevlex(2)]


# ---------------------------------------------------------------- elimination


def test_eliminate_parabola(qq_xy):
    ring = RingContext(FieldSpec(0), ("x", "y", "t"))
    I = _ideal(ring, "x - t", "y - t^2")
    J = I.eliminate(["t"])
    assert J.ring.variables == ("x", "y")
    assert [str(g) for g in J.groebner_basis()] == ["x^2 - y"]


def test_eliminate_absent_variable(qq_xy):
    I = _ideal(qq_xy, "x")
    J = I.eliminate(["y"])
    assert [str(g) for g in J.gens] == ["x"]


def test_eliminate_everything_relevant(qq_xy):
    I = _ideal(qq_xy, "y")
    J = I.eliminate(["y"])
    assert J.is_zero()


def test_eliminate_nothing_keeps_the_ideal(qq_xy):
    I = _ideal(qq_xy, "x*y - 1", "y^2")
    J = I.eliminate([])
    assert J.ring == I.ring and J.gens == I.gens


def test_eliminate_every_variable_is_refused(qq_xy):
    # no ring is left to hold the contraction; the message names the ring
    # the caller declared, not the empty one
    I = _ideal(qq_xy, "x*y - 1")
    for drop in (["x", "y"], [1, "x"], ["y", 0, "y"]):
        with pytest.raises(ValueError, match=r"cannot eliminate every variable of QQ\[x,y\]"):
            I.eliminate(drop)


def test_eliminate_under_a_given_order():
    ring = RingContext(FieldSpec(0), ("x", "y", "t"))
    I = _ideal(ring, "x - t", "y - t^2")
    lex_rest = TermOrder(3, [((2,), "grevlex"), ((0, 1), "lex")])
    J = I.eliminate(["t"], lex_rest)
    assert [str(g) for g in J.groebner_basis(TermOrder.lex(2))] == ["x^2 - y"]
    assert I.eliminate(["t", 2]).gens == I.eliminate(["t"]).gens
    with pytest.raises(ValueError, match="first block"):
        I.eliminate(["t"], TermOrder.lex(3))


# ---------------------------------------------------------------- saturation


def test_saturate_strips_factor(qq_xy):
    I = _ideal(qq_xy, "x*y")
    S = I.saturate(poly(qq_xy, "y"))
    assert [str(g) for g in S.groebner_basis()] == ["x"]


def test_saturate_to_unit(qq_xy):
    I = _ideal(qq_xy, "x^2*y", "x*y^2")
    S = I.saturate(poly(qq_xy, "x*y"))
    assert [str(g) for g in S.groebner_basis()] == ["1"]


def test_saturate_nonzerodivisor(qq_xy):
    I = _ideal(qq_xy, "x")
    S = I.saturate(poly(qq_xy, "y"))
    assert [str(g) for g in S.groebner_basis()] == ["x"]


def test_saturate_agrees_with_iterated_colon(qq_xyz):
    rng = random.Random(23)
    mons = ["x", "y", "z", "x*y", "y*z", "x^2", "z^2"]
    for _ in range(10):
        gens = rng.sample(mons, rng.randint(1, 3))
        gens.append(
            f"{rng.choice(mons)} + {rng.randint(1, 3)}*{rng.choice(mons)}"
        )
        I = _ideal(qq_xyz, *gens)
        m = poly(qq_xyz, "x*y*z")
        sat = I.saturate(m)
        cur = I
        while True:
            nxt = cur.colon(m)
            if nxt.equals(cur):
                break
            cur = nxt
        assert sat.equals(cur)


@pytest.mark.parametrize(
    "texts",
    [("x^2*y - x*y^2", "y^3"), ("x^2*y - y", "x*y^2")],
    ids=["homogeneous", "nonhomogeneous"],
)
def test_saturate_checks_its_monomial_on_both_branches(qq_xy, texts):
    I = _ideal(qq_xy, *texts)
    assert I.is_homogeneous() == (texts[1] == "y^3")
    with pytest.raises(PreconditionError):
        I.saturate(poly(qq_xy, "x + y"))
    for bad in ((1,), (0, 1, 0), (1, -1)):
        with pytest.raises(ValueError):
            I.saturate(bad)
    lex = TermOrder.lex(2)
    assert I.saturate(qq_xy.one()).gens == I.groebner_basis()
    assert I.saturate((0, 0), lex).gens == I.groebner_basis(lex)


def test_saturate_homogeneous_within_budget():
    # the tag variable ran for over a minute on this multi-homogenized ideal
    ring = RingContext(FieldSpec(0), ("x", "y", "z"))
    texts = (
        "x^2 - x*y - 2*y^2 + x*z - y*z - 2*z^2 + 3*x - 3*y + 2*z - 2",
        "2*x^2*z - 2*y^2*z + 3*z^3",
        "-2*x^2 - 2*x*y + y^2 + 3*x*z - y*z - z^2 + x + 2*y - 2*z - 1",
    )
    ext = ring.extended(["y1", "y2", "y3"])
    homog = [multi_homogenize(poly(ring, t), ext) for t in texts]
    order = TermOrder.elimination(range(3, 6), 6)
    yprod = poly(ext, "y1*y2*y3")
    start = time.monotonic()
    S = Ideal(ext, homog).saturate(yprod, order)
    elapsed = time.monotonic() - start
    assert elapsed < 15, f"over budget: {elapsed:.1f}s >= 15s"
    assert S.saturate(yprod, order).gens == S.gens
    assert all(S.contains(g, order) for g in homog)


def _seeded_eliminate(qq_xy):
    ring = RingContext(FieldSpec(0), ("x", "t", "y"))
    I = _ideal(ring, "x - 2*t^2 + y", "3*y*t - x^2", "t^3 - y")
    return I.eliminate(["t"]), TermOrder.grevlex(2)


def _seeded_intersect(qq_xy):
    A = _ideal(qq_xy, "x^2*y - y", "3*x*y^2 + x")
    B = _ideal(qq_xy, "x^2 - 2*y", "y^3")
    return A.intersect(B), TermOrder.grevlex(2)


def _seeded_saturate_grevlex(qq_xy):
    I = _ideal(qq_xy, "x^2*y - y", "x*y^2")
    order = TermOrder.grevlex(2)
    return I.saturate(poly(qq_xy, "y"), order=order), order


def _seeded_saturate_block(qq_xy):
    ring = RingContext(FieldSpec(0), ("x", "y", "z"))
    I = _ideal(ring, "x^2*z - y*z", "x*y^2 - 2*z^3", "y^2*z + x*z^2")
    order = TermOrder(3, [((2,), "grevlex"), ((0, 1), "grevlex")])
    return I.saturate(poly(ring, "z"), order=order), order


def _seeded_saturate_homogeneous(qq_xy):
    ring = RingContext(FieldSpec(0), ("x", "y", "z"))
    I = _ideal(ring, "x^2*z - y^2*z", "x*y^2 - 2*z^3")
    order = TermOrder(3, [((2,), "grevlex"), ((0, 1), "grevlex")])
    return I.saturate(poly(ring, "x*z"), order=order), order


def _seeded_eliminate_lex(qq_xy):
    ring = RingContext(FieldSpec(0), ("t", "x", "y"))
    I = _ideal(ring, "t*x - y^2", "t^2 - x + 1", "x*y - t*y^2")
    order = TermOrder(3, [((0,), "grevlex"), ((1, 2), "lex")])
    return I.eliminate(["t"], order), TermOrder.lex(2)


def _seeded_eliminate_three_blocks(qq_xy):
    # the one-variable grevlex block (x,) is laid out as a lex block
    ring = RingContext(FieldSpec(0), ("t", "x", "y", "z"))
    I = _ideal(ring, "t*x - y*z", "t^2 - x*y + z", "x^2*z - t*y")
    order = TermOrder(4, [((0,), "grevlex"), ((1,), "grevlex"), ((2, 3), "grevlex")])
    kept = TermOrder(3, [((0,), "grevlex"), ((1, 2), "grevlex")])
    return I.eliminate(["t"], order), kept


def _seeded_eliminate_wide(qq_xy):
    ring = RingContext(FieldSpec(0), ("x", "t", "y"))
    I = _ideal(ring, "x^130 - t", "t^2 - y")
    S = I.eliminate(["t"])
    order = TermOrder.grevlex(2)
    assert S._cache[order][0].width > 8  # x^260 does not fit 8-bit fields
    return S, order


@pytest.mark.parametrize(
    "build",
    [
        _seeded_eliminate,
        _seeded_intersect,
        _seeded_saturate_grevlex,
        _seeded_saturate_block,
        _seeded_saturate_homogeneous,
        _seeded_eliminate_lex,
        _seeded_eliminate_three_blocks,
        _seeded_eliminate_wide,
    ],
    ids=[
        "eliminate",
        "intersect",
        "saturate-grevlex",
        "saturate-block",
        "saturate-homogeneous",
        "eliminate-lex",
        "eliminate-three-blocks",
        "eliminate-wide",
    ],
)
def test_saturation_cache_matches_fresh_run(qq_xy, build):
    S, order = build(qq_xy)
    assert order in S._cache
    seeded = S.groebner_basis(order)
    fresh = Ideal(S.ring, S.gens).groebner_basis(order)
    assert seeded == fresh
    assert not S.is_zero()


# ---------------------------------------------------------------- intersection


def test_intersect_coprime_principal(qq_xy):
    A = _ideal(qq_xy, "x")
    B = _ideal(qq_xy, "y")
    assert [str(g) for g in A.intersect(B).groebner_basis()] == ["x*y"]


def test_intersect_nested(qq_xy):
    A = _ideal(qq_xy, "x^2")
    B = _ideal(qq_xy, "x")
    assert [str(g) for g in A.intersect(B).groebner_basis()] == ["x^2"]


def test_intersect_linear_forms(qq_xy):
    A = _ideal(qq_xy, "x + y")
    B = _ideal(qq_xy, "x - y")
    assert [str(g) for g in A.intersect(B).groebner_basis()] == ["x^2 - y^2"]


def test_intersect_commutative_associative(qq_xyz):
    rng = random.Random(5)
    pool = ["x^2", "x*y", "z", "y^2 - x*z", "x + y"]
    for _ in range(6):
        A = _ideal(qq_xyz, *rng.sample(pool, 2))
        B = _ideal(qq_xyz, *rng.sample(pool, 2))
        C = _ideal(qq_xyz, *rng.sample(pool, 2))
        assert A.intersect(B).equals(B.intersect(A))
        assert A.intersect(B.intersect(C)).equals(A.intersect(B).intersect(C))


# ---------------------------------------------------------------- colons


def test_colon_monomial(qq_xy):
    I = _ideal(qq_xy, "x*y")
    assert [str(g) for g in I.colon(poly(qq_xy, "x")).groebner_basis()] == ["y"]


def test_colon_square_of_max(qq_xy):
    I = _ideal(qq_xy, "x^2", "x*y", "y^2")
    Q = I.colon(poly(qq_xy, "x"))
    assert [str(g) for g in Q.groebner_basis()] == ["x", "y"]


def test_colon_by_one(qq_xy):
    I = _ideal(qq_xy, "x^2 - y")
    assert I.colon(qq_xy.one()).equals(I)


def test_colon_by_a_constant(qq_xy):
    I = _ideal(qq_xy, "x^2 - y", "x*y^2")
    assert I.colon(3).equals(I)
    assert I.colon(Fraction(1, 2)).equals(I)


def test_colon_times_divisor_contained(qq_xyz):
    rng = random.Random(17)
    pool = ["x^2", "x*y", "y*z", "z^3", "x + z", "y^2 - z^2"]
    for _ in range(8):
        I = _ideal(qq_xyz, *rng.sample(pool, 2))
        g = poly(qq_xyz, rng.choice(pool))
        Q = I.colon(g)
        for q in Q.gens:
            assert I.contains(q * g)


def test_colon_by_zero_rejected(qq_xy):
    from monoideal import PreconditionError

    I = _ideal(qq_xy, "x")
    with pytest.raises(PreconditionError):
        I.colon(qq_xy.zero())


def test_exact_quotient(qq_xy):
    f = poly(qq_xy, "x^2*y + x*y^2")
    g = poly(qq_xy, "x + y")
    assert exact_quotient(f, g) == poly(qq_xy, "x*y")
    with pytest.raises(InternalCheckError):
        exact_quotient(f + poly(qq_xy, "y"), g)


def test_colon_ideal_intersects_generator_quotients(qq_xy):
    I = _ideal(qq_xy, "x^2*y", "x*y^2")
    J = _ideal(qq_xy, "x", "y")
    got = I.colon_ideal(J)
    expected = I.colon(poly(qq_xy, "x")).intersect(I.colon(poly(qq_xy, "y")))
    assert got.equals(expected)
    assert [str(g) for g in got.groebner_basis()] == ["x*y"]


def test_colon_by_zero_ideal_is_unit(qq_xy):
    I = _ideal(qq_xy, "x")
    assert [str(g) for g in I.colon_ideal(Ideal(qq_xy, [])).gens] == ["1"]


def _random_qq_ideal(rng, ring):
    gens = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(ring.n))
            terms[e] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        gens.append(Polynomial(ring, terms))
    return Ideal(ring, gens)


def _to_sympy(sp, syms, f):
    return sp.Add(*(
        sp.Rational(str(c)) * sp.Mul(*(s**k for s, k in zip(syms, e)))
        for e, c in f.coeffs.items()
    ))


def _canon(polys):
    return {frozenset((e, Fraction(c)) for e, c in f.coeffs.items()) for f in polys}


def _canon_sympy(sp, exprs, gens):
    """sympy polynomials over QQ in the form ``_canon`` gives ours."""
    return {
        frozenset(
            (e, Fraction(int(c.p), int(c.q)))
            for e, c in sp.Poly(g, *gens, domain=sp.QQ).terms()
        )
        for g in exprs
    }


@pytest.mark.parametrize("operation", ["intersect", "colon"])
def test_intersect_and_colon_match_sympy(operation):
    """Reduced grevlex bases of I ∩ J and I : J equal sympy's, over QQ."""
    sp = pytest.importorskip("sympy")
    rng = random.Random(f"sympy-{operation}")
    names = ("x", "y", "z")
    syms = sp.symbols(names)
    compared = 0
    for _ in range(12):
        n = rng.choice((2, 3))
        ring = RingContext(FieldSpec(0), names[:n])
        I, J = _random_qq_ideal(rng, ring), _random_qq_ideal(rng, ring)
        if I.is_zero() or J.is_zero():
            continue
        gens = syms[:n]
        R = sp.QQ.old_poly_ring(*gens)
        sI = R.ideal(*[_to_sympy(sp, syms, g) for g in I.gens])
        sJ = R.ideal(*[_to_sympy(sp, syms, g) for g in J.gens])
        if operation == "intersect":
            mine, theirs = I.intersect(J), sI.intersect(sJ)
        else:
            mine, theirs = I.colon_ideal(J), sI.quotient(sJ)
        exprs = [R.to_sympy(g) for g in theirs.gens]
        reduced = sp.groebner(exprs, *gens, order="grevlex", domain=sp.QQ).exprs
        assert _canon(mine.groebner_basis()) == _canon_sympy(sp, reduced, gens)
        compared += 1
    assert compared >= 10


# ---------------------------------------------------------------- membership fixture


def _matches_sympy(rng, n, char, order, sp_order, artinian=False):
    """Compare our reduced basis of a random ideal with sympy's in ``order``.

    ``sp_order`` is the same order as a sympy monomial order.  With
    ``artinian`` the ideal also gets a pure power of every variable, which
    keeps bases in elimination orders small, and the drawn generators have
    lower degree and at least two terms.  Returns False when every drawn
    generator came out zero and nothing was compared.
    """
    sp = pytest.importorskip("sympy")
    from fractions import Fraction

    from sympy.polys.groebnertools import groebner as sp_groebner

    from monoideal import Polynomial

    names = "xyzuvw"[:n]
    ring = RingContext(FieldSpec(char), tuple(names))
    dom = sp.QQ if char == 0 else sp.GF(char)
    R, *sp_gens = sp.ring(",".join(names), dom, sp_order)
    top, fewest = (2, 2) if artinian else (3, 1)
    drawn = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(fewest, 4)):
            e = tuple(rng.randint(0, top) for _ in range(n))
            terms[e] = terms.get(e, 0) + rng.randint(-4, 4)
        drawn.append(terms)
    if artinian:
        for i in range(n):
            power = tuple(rng.randint(3, 4) if k == i else 0 for k in range(n))
            drawn.append({power: 1})
    mine, theirs = [], []
    for terms in drawn:
        f = Polynomial(ring, terms)
        if f.is_zero():
            continue
        g = R.zero
        for e, c in terms.items():
            mon = R.one
            for i, ei in enumerate(e):
                mon *= sp_gens[i] ** ei
            g += dom(c) * mon
        mine.append(f)
        theirs.append(g)
    if not mine:
        return False

    def canon_theirs(f):
        out = set()
        for mexp, c in f.terms():
            if char == 0:
                fr = sp.Rational(c)
                out.add((tuple(mexp), (fr.p, fr.q)))
            else:
                out.add((tuple(mexp), int(c) % char))
        return frozenset(out)

    def canon_mine(f):
        return frozenset(
            (e, (Fraction(c).numerator, Fraction(c).denominator) if char == 0 else c)
            for e, c in f.coeffs.items()
        )

    a = {canon_mine(f) for f in Ideal(ring, mine).groebner_basis(order)}
    b = {canon_theirs(f) for f in sp_groebner(theirs, R)}
    assert a == b
    return True


def test_reduced_basis_matches_sympy():
    rng = random.Random(424242)
    checked = 0
    for _ in range(30):
        n = rng.choice((2, 3))
        char = rng.choice((0, 0, 5, 7))
        checked += _matches_sympy(rng, n, char, TermOrder.grevlex(n), "grevlex")
    assert checked > 20


def _sympy_product_order(blocks):
    from sympy.polys.orderings import ProductOrder, grevlex, lex

    kinds = {"lex": lex, "grevlex": grevlex}
    return ProductOrder(
        *[(kinds[kind], lambda m, ix=ix: tuple(m[i] for i in ix)) for ix, kind in blocks]
    )


# The tag-variable saturation shape: a singleton lex tag block in front of
# two grevlex blocks, companions before originals.  No library code builds
# it any more; the tag-variable reference in test_engine.py does.  The next
# cases cover lex blocks, an interleaved partition and a singleton grevlex
# block.  The last is the per-variable shape: one grevlex block, the other
# companion ahead of the originals and the saturating companion last, as
# Ideal.saturate builds it for mono_via_gb.
_BLOCK_ORDERS = [
    (5, [((4,), "lex"), ((2, 3), "grevlex"), ((0, 1), "grevlex")]),
    (4, [((3,), "lex"), ((1, 2), "grevlex"), ((0,), "grevlex")]),
    (4, [((1, 3), "grevlex"), ((0, 2), "lex")]),
    (4, [((2,), "grevlex"), ((0, 1, 3), "grevlex")]),
    (3, [((0,), "lex"), ((1, 2), "lex")]),
    (4, [((3, 0, 1, 2), "grevlex")]),
]


@pytest.mark.parametrize("arity, blocks", _BLOCK_ORDERS)
def test_reduced_basis_matches_sympy_block_orders(arity, blocks):
    pytest.importorskip("sympy")
    rng = random.Random(repr(blocks))
    order = TermOrder(arity, blocks)
    sp_order = _sympy_product_order(order.blocks)
    checked = 0
    for _ in range(20):
        char = rng.choice((0, 0, 5, 7))
        checked += _matches_sympy(rng, arity, char, order, sp_order, artinian=True)
    assert checked == 20


def test_char_two_membership_fixture():
    ring, ideals = parse_source(
        "ring ZZ/2[x,y,z]; I = ideal(x^3, y^3, z^3, x*y*(x+y+z));"
    )
    I = ideals["I"]
    assert I.contains(poly(ring, "x*y*z^2"))


def test_simple_membership(qq_xy):
    assert _ideal(qq_xy, "x").contains(poly(qq_xy, "x^2"))
    assert not _ideal(qq_xy, "x^2").contains(poly(qq_xy, "x"))


def test_shared_ideal_across_threads(qq_xyz):
    # values are immutable; concurrent cache fills must agree with serial use
    from concurrent.futures import ThreadPoolExecutor

    I = _ideal(qq_xyz, "x^2 - y*z", "x*y - z^2", "y^3")
    probe = [poly(qq_xyz, t) for t in ("x^4", "x^2*y - y^2*z", "z^5", "x + y")]
    fresh = Ideal(qq_xyz, I.gens)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(fresh.normal_form, probe * 8))
    serial = [I.normal_form(f) for f in probe * 8]
    assert results == serial


# ---------------------------------------------------------------- widening


# The 8-bit fields hold exponents and grevlex degrees up to 127.  The first
# ideal overflows them on input; the second only in its S-pair, whose lcm
# x^100*y^30 has degree 130 and whose S-polynomial has the term y^130.
@pytest.mark.parametrize(
    "texts, member",
    [
        (("x^300 - y", "y^2 - x"), "x^600 - y^2"),
        (("x^100 - y^100", "x*y^30 + y^31"), "x^100*y^30 - y^130"),
    ],
    ids=["input", "buchberger"],
)
@pytest.mark.parametrize("kind", ["grevlex", "lex"])
def test_widened_basis_matches_sympy(qq_xy, texts, member, kind):
    sp = pytest.importorskip("sympy")
    I = _ideal(qq_xy, *texts)
    order = getattr(TermOrder, kind)(2)
    syms = sp.symbols(qq_xy.variables)
    theirs = sp.groebner([_to_sympy(sp, syms, g) for g in I.gens], *syms, order=kind)
    assert _canon(I.groebner_basis(order)) == _canon_sympy(sp, theirs.exprs, syms)
    assert I._basis(order)[0].width > groebner._FIRST_WIDTH
    assert I.contains(poly(qq_xy, member), order)
    assert not I.contains(poly(qq_xy, member + " + x"), order)


@pytest.mark.parametrize("power", [200, 60])
def test_widened_normal_form(qq_xy, power):
    # x = y^power, so x^3 reduces to y^(3 power): at 200 the input already
    # overflows 8 bits, at 60 only the remainder does.
    I = _ideal(qq_xy, f"x - y^{power}")
    lex = TermOrder.lex(2)
    assert I.normal_form(poly(qq_xy, "x^3"), lex) == poly(qq_xy, f"y^{3 * power}")


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_exponent_vector_membership_matches_the_monomial(char):
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    # Small exponents, or ones around the 127 that 8-bit fields hold.  The
    # generators are homogeneous: over QQ, a lex normal form of x^130 modulo
    # an affine linear form has thousands of terms.
    exponent = st.integers(0, 3) | st.integers(120, 140)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_small_polys(char, homogeneous=True), min_size=1, max_size=3),
        st.tuples(exponent, exponent, exponent),
        _DIVISION_ORDERS,
    )
    def inner(gens, e, order):
        I = Ideal(ring, gens)
        assert I.contains(e, order) == I.contains(ring.monomial(e), order)

    inner()
    # x^3 reduces to y^180 and x*y^40 to y^100: the basis fits 8-bit fields,
    # the first remainder and z^200 do not.
    I = _ideal(ring, "x - y^60", "y^100")
    lex = TermOrder.lex(3)
    cases = [((3, 0, 0), True), ((1, 39, 0), False), ((1, 40, 0), True), ((0, 0, 200), False)]
    for e, member in cases:
        assert I.contains(e, lex) is member
        assert I.contains(list(e), lex) is member
        assert I.contains(ring.monomial(e), lex) is member
    assert I._basis(lex)[0].width == groebner._FIRST_WIDTH
    for bad in [(1, 2), (1, 2, 3, 4), (1, -1, 0)]:
        with pytest.raises(ValueError, match="bad exponent vector"):
            I.contains(bad)
    other = RingContext(FieldSpec(char), ("x", "y"))
    with pytest.raises(ValueError, match="does not belong to"):
        I.contains(other.monomial((1, 0)))


@pytest.mark.parametrize("char", [0, 2, 32003])
def test_standard_monomials_skip_the_reduction(char, monkeypatch):
    # A monomial no basis lead divides is its own nonzero normal form, so
    # contains answers it without reducing; any other goes to _nf.
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    nf = groebner._nf
    calls = []

    def counted(*args):
        calls.append(args)
        return nf(*args)

    monkeypatch.setattr(groebner, "_nf", counted)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_small_polys(char, homogeneous=False), min_size=1, max_size=3),
        st.tuples(*(st.integers(0, 4) for _ in range(3))),
        _DIVISION_ORDERS,
    )
    def inner(gens, e, order):
        I = Ideal(ring, gens)
        # the build's _autoreduce reduces too, so it runs before the count
        leads = I.leading_exponents(order)
        before = len(calls)
        member = I.contains(e, order)
        reductions = len(calls) - before
        assert member == I.normal_form(ring.monomial(e), order).is_zero()
        if any(ev_divides(lead, e) for lead in leads):
            assert reductions >= 1
        else:
            assert reductions == 0
            assert not member

    inner()
    # z^127 fills an 8-bit field and no lead divides it; x^3 reduces to
    # y^180, which overflows it.
    I = _ideal(ring, "x - y^60", "y^100")
    lex = TermOrder.lex(3)
    I._basis(lex)
    calls.clear()
    assert I.contains((0, 0, 127), lex) is False
    assert not calls
    assert I._basis(lex)[0].width == groebner._FIRST_WIDTH
    assert I.contains((3, 0, 0), lex) is True
    assert calls
    assert I._basis(lex)[0].width == groebner._FIRST_WIDTH


def test_equal_orders_share_one_basis(qq_xyz):
    order = TermOrder(3, [((0, 1, 2), "grevlex")])
    assert order is not TermOrder.grevlex(3)
    assert order == TermOrder.grevlex(3)
    assert hash(order) == hash(TermOrder.grevlex(3))
    I = _ideal(qq_xyz, "x^2 - y", "y*z - 1")
    assert I._basis(order) is I._basis()
    assert I._basis(TermOrder(3, [((0, 1, 2), "lex")])) is I._basis(TermOrder.lex(3))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: TermOrder(3, [((0.0, 1, 2), "grevlex")]),
        lambda: TermOrder(3, [((0, True, 2), "grevlex")]),
        lambda: TermOrder.elimination([0.0], 3),
    ],
    ids=["float", "bool", "elimination_float"],
)
def test_orders_with_non_int_indices_are_rejected(qq_xyz, make, warm):
    # 0.0 and True compare and hash as 0 and 1, so such an order would find
    # the basis cached under its int twin, or reach the packing with none
    I = _ideal(qq_xyz, "x^2 - y", "y*z - 1")
    if warm:
        I._basis()
        I._basis(TermOrder.elimination([0], 3))
    cached = list(I._cache)
    with pytest.raises(ValueError, match="blocks must partition"):
        I.groebner_basis(make())
    assert list(I._cache) == cached


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize(
    "make",
    [
        lambda: TermOrder(2.0, [((0, 1), "grevlex")]),
        lambda: TermOrder(True, [((0,), "lex")]),
        lambda: TermOrder.grevlex(True),
        lambda: TermOrder(0, []),
        lambda: TermOrder(-1, []),
    ],
    ids=["float", "bool", "grevlex_bool", "zero", "negative"],
)
def test_orders_need_an_int_arity_of_at_least_one(make, warm):
    # True would equal, hash as and find the cache entry of arity 1, and no
    # ring has zero variables
    if warm:
        TermOrder.grevlex(1)
        TermOrder.lex(1)
    with pytest.raises(ValueError, match="arity must be an int >= 1"):
        make()


def test_widened_saturation_matches_the_oracle():
    ring = RingContext(FieldSpec(32003), ("x", "y", "z"))
    I = _ideal(ring, "x^130", "y^2", "z^2", "x + y + z")
    assert mono_via_gb(I) == mono_oracle(I)


@pytest.mark.parametrize("char", [0, 32003])
def test_tail_reduction_that_overflows_widens_a_copy(char, monkeypatch):
    # The minimal lex basis (x - y^100, y - z^100) fits 8-bit fields; tail
    # reduction turns y^100 into z^10000, which does not.  Only the tail
    # reduction is redone wider: Buchberger runs once.
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    buchberger = groebner._buchberger
    widths = []

    def counted(dicts, order, char, p):
        widths.append(order.width)
        return buchberger(dicts, order, char, p)

    monkeypatch.setattr(groebner, "_buchberger", counted)
    I = _ideal(ring, "x - y^100", "y - z^100")
    lex = TermOrder.lex(3)
    assert I.groebner_basis(lex) == (poly(ring, "x - z^10000"), poly(ring, "y - z^100"))
    assert widths == [groebner._FIRST_WIDTH]
    assert I._basis(lex)[0].width == 2 * groebner._FIRST_WIDTH
    assert I.contains((0, 0, 10000), lex) is False
    assert I.normal_form(poly(ring, "x*y"), lex) == poly(ring, "z^10100")


def _saturation_by_sympy(I, mexp):
    """sympy's reduced grevlex basis of the saturation of I by x^mexp, as a
    set of frozensets of (exponent, coefficient): the elements free of t of
    the reduced basis of I + (1 - t*x^mexp) under grevlex on t, then grevlex."""
    sp = pytest.importorskip("sympy")
    from sympy.polys.groebnertools import groebner as sp_groebner
    from sympy.polys.orderings import ProductOrder, grevlex

    char = I.ring.field.characteristic
    dom = sp.QQ if char == 0 else sp.GF(char)
    order = ProductOrder((grevlex, lambda e: e[:1]), (grevlex, lambda e: e[1:]))
    R, t, *_ = sp.ring(",".join(("t",) + I.ring.variables), dom, order)
    gens = [R.from_dict({(0, *e): dom(c) for e, c in g.coeffs.items()}) for g in I.gens]
    gens.append(R.one - t * R.from_dict({(0, *mexp): dom(1)}))

    def coeff(c):
        return int(c) % char if char else Fraction(int(c.numerator), int(c.denominator))

    return {
        frozenset((e[1:], coeff(c)) for e, c in g.terms())
        for g in sp_groebner(gens, R)
        if not g.degree(t)
    }


@pytest.mark.parametrize("char", [0, 32003])
def test_widening_after_the_first_pass(char, monkeypatch):
    # Both inputs fit 8-bit fields through the first Bayer pass, and a later
    # build outgrows them.  Saturating I by x*y*z, pass 2 overflows and is
    # redone at 16 bits, pass 3 starts at the width pass 2 ended on, and the
    # tail reduction of the unpacked result starts again from 8 bits.  J has
    # one companion, so one pass; the final elimination build overflows,
    # since mono(J)'s generator x^12*y^3*z^7*w^17 weighs 2*12 + 5*27 = 159
    # (x weighs 2, y, z and w weigh 5).  The last build is the verifier's.
    calls = _recorded_builds(monkeypatch)
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    I = _ideal(ring, "x^21*y^14*z^15 - x^16*y^16*z^18", "x^2*y^45*z^4 - x^42*z^9")
    S = I.saturate(poly(ring, "x*y*z"))
    assert [(pk.width, G is not None) for _, pk, G in calls] == [
        (8, True), (8, False), (16, True), (16, True), (8, True)
    ]
    assert S.gens == (poly(ring, "y^29 - z^29"), poly(ring, "x^5 - y^2*z^3"))
    field = ring.field
    ours = {frozenset((e, field.of(c)) for e, c in g.coeffs.items()) for g in S.gens}
    assert ours == _saturation_by_sympy(I, (1, 1, 1))

    calls.clear()
    J = _ideal(
        RingContext(FieldSpec(char), ("x", "y", "z", "w")),
        "x^15", "y^4", "z^15", "w^18", "x^12*y^3*z^7 - x^2*y*z^10*w",
    )
    assert mono_via_gb(J) == mono_oracle(J)
    assert [(pk.width, G is not None) for _, pk, G in calls] == [
        (8, True), (8, False), (16, True), (8, True)
    ]
