"""Combinatorial monomial-ideal operations and their Groebner cross-checks."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoideal import (
    FieldSpec,
    Ideal,
    InternalCheckError,
    MonomialIdeal,
    PreconditionError,
    RingContext,
    mono_subideal_criterion,
    socle_matrix,
    socle_matrix_test,
)
from monoideal.cli import main
from monoideal.monomial import SocleMatrix, _degree_exponents, standard_pieces
from monoideal.orders import TermOrder

from conftest import poly


def mi(ring, *gens):
    return MonomialIdeal(ring, [poly(ring, g) for g in gens])


def names(ring, exps):
    return [str(ring.monomial(e)) for e in exps]


# ---------------------------------------------------------------- colon


def test_colon_by_x_gives_max_ideal(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    assert M.colon(poly(qq_xyz, "x")) == MonomialIdeal.maximal(qq_xyz)


def test_colon_by_y(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    assert M.colon(poly(qq_xyz, "y")) == mi(qq_xyz, "x", "y", "z^2")


def test_colon_by_one(qq_xyz):
    M = mi(qq_xyz, "x^2", "y^2")
    assert M.colon(qq_xyz.one()) == M


# ---------------------------------------------------------------- intersect / radical


def test_intersect_principal(qq_xy):
    assert mi(qq_xy, "x^2").intersect(mi(qq_xy, "y")) == mi(qq_xy, "x^2*y")


def test_radical_principal(qq_xy):
    assert mi(qq_xy, "x^2*y").radical() == mi(qq_xy, "x*y")


def test_radical_of_square(qq_xy):
    assert mi(qq_xy, "x^2", "x*y", "y^3").radical() == mi(qq_xy, "x", "y")


def test_intersect_two_irreducibles(qq_xy):
    got = mi(qq_xy, "x^2", "y").intersect(mi(qq_xy, "x", "y^2"))
    assert got == mi(qq_xy, "x^2", "x*y", "y^2")


def test_radical_idempotent_and_distributes(qq_xyz):
    rng = random.Random(2)
    for _ in range(30):
        gens1 = [
            tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 4))
        ]
        gens2 = [
            tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 4))
        ]
        A = MonomialIdeal(qq_xyz, [g for g in gens1 if any(g)])
        B = MonomialIdeal(qq_xyz, [g for g in gens2 if any(g)])
        assert A.radical().radical() == A.radical()
        assert A.intersect(B).radical() == A.radical().intersect(B.radical())


def test_combinatorial_ops_agree_with_groebner(qq_xyz):
    rng = random.Random(41)
    for trial in range(100):
        gens1 = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        gens2 = [tuple(rng.randint(0, 3) for _ in range(3)) for _ in range(rng.randint(1, 4))]
        gens1 = [g for g in gens1 if any(g)] or [(1, 0, 0)]
        gens2 = [g for g in gens2 if any(g)] or [(0, 1, 0)]
        A = MonomialIdeal(qq_xyz, gens1)
        B = MonomialIdeal(qq_xyz, gens2)
        u = tuple(rng.randint(0, 2) for _ in range(3))

        meet_g = A.to_ideal().intersect(B.to_ideal())
        assert A.intersect(B).to_ideal().equals(meet_g)

        colon_g = A.to_ideal().colon(qq_xyz.monomial(u))
        assert A.colon(u).to_ideal().equals(colon_g)

        if trial % 7 == 0:
            full_g = A.to_ideal().colon_ideal(B.to_ideal())
            assert A.colon_ideal(B).to_ideal().equals(full_g)


def test_colon_ideal_example(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    N = mi(qq_xyz, "x", "y")
    assert M.colon_ideal(N) == M.colon(poly(qq_xyz, "x")).intersect(
        M.colon(poly(qq_xyz, "y"))
    )


# ---------------------------------------------------------------- Artinian structure


def test_power_gap_two_vars(qq_xy):
    M = mi(qq_xy, "x^2", "y^3")
    assert M.is_artinian()
    assert M.power_gap() == 4  # x*y^2 has degree 3 and is standard


def test_not_artinian(qq_xy):
    assert not mi(qq_xy, "x").is_artinian()
    with pytest.raises(PreconditionError):
        mi(qq_xy, "x").socle_monomials()


def test_max_ideal_gap_one(qq_xy):
    assert MonomialIdeal.maximal(qq_xy).power_gap() == 1


def test_standard_monomials_square_of_max(qq_xy):
    M = mi(qq_xy, "x^2", "x*y", "y^2")
    assert names(qq_xy, M.standard_monomials(1)) == ["x", "y"]
    assert M.hilbert_function(3) == [1, 2, 0, 0]


def test_hilbert_function_symmetric_example(qq_xyz):
    N = mi(qq_xyz, "x^3", "x^2*y", "x^2*z", "x*y^2", "y^3", "y^2*z", "z^3")
    assert N.hilbert_function() == [1, 3, 6, 3, 1]


def test_standard_monomials_of_max_ideal_empty(qq_xyz):
    M = MonomialIdeal.maximal(qq_xyz)
    for d in (1, 2, 5):
        assert M.standard_monomials(d) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_negative_degrees_have_no_standard_monomials(n):
    ring = RingContext(FieldSpec(0), ("x", "y", "z")[:n])
    for M in (MonomialIdeal.zero(ring), MonomialIdeal.maximal(ring)):
        for d in (-1, -2, -5):
            assert M.standard_monomials(d) == []
        assert M.hilbert_function(-1) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_exponent_vectors_of_negative_degree(n):
    for d in (-1, -2, -5):
        assert list(_degree_exponents(n, d)) == []


def _brute_standard(M, d):
    """Degree-d monomials outside M, by filtering all of them, grevlex descending."""
    order = TermOrder.grevlex(M.ring.n)
    std = [e for e in _degree_exponents(M.ring.n, d) if not M.contains_exp(e)]
    return sorted(std, key=order.key, reverse=True)


@st.composite
def _monomial_ideals(draw):
    """Monomial ideals in 1-5 variables: pure powers of a random subset of
    the variables (all of them for Artinian input) plus a few extra
    generators, or the zero or the unit ideal."""
    n = draw(st.integers(min_value=1, max_value=5))
    ring = RingContext(FieldSpec(0), ("a", "b", "c", "d", "e")[:n])
    kind = draw(st.sampled_from(["artinian", "artinian", "free", "zero", "unit"]))
    if kind == "zero":
        return MonomialIdeal.zero(ring)
    if kind == "unit":
        return MonomialIdeal(ring, [(0,) * n])
    top = 4 if n <= 3 else 3
    powered = range(n)
    if kind == "free":
        powered = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n - 1))
    gens = []
    for i in powered:
        e = [0] * n
        e[i] = draw(st.integers(min_value=1, max_value=top))
        gens.append(tuple(e))
    vectors = st.tuples(*[st.integers(min_value=0, max_value=2)] * n)
    gens.extend(draw(st.lists(vectors.filter(any), max_size=3)))
    return MonomialIdeal(ring, gens)


@settings(max_examples=80, deadline=None)
@given(_monomial_ideals())
def test_sweep_matches_brute_force(M):
    n = M.ring.n
    cap = 6 if n <= 3 else 4
    brute = [_brute_standard(M, d) for d in range(cap + 1)]
    for d in range(cap + 1):
        assert M.standard_monomials(d) == brute[d]
    assert M.hilbert_function(cap) == [len(std) for std in brute]
    if not M.is_artinian():
        for uncapped in (M.power_gap, M.hilbert_function, M.socle_monomials):
            with pytest.raises(PreconditionError):
                uncapped()
        return
    # every monomial of degree sum(b_i - 1) + 1 has an exponent past its bound
    last = sum(b - 1 for b in M.pure_power_bounds()) + 1
    brute = [_brute_standard(M, d) for d in range(max(last, 0) + 1)]
    hf = [len(std) for std in brute]
    while hf and not hf[-1]:
        hf.pop()
    assert M.hilbert_function() == hf
    assert M.power_gap() == len(hf)
    mx = MonomialIdeal.maximal(M.ring)
    socle = [u for std in brute for u in std if M.colon(u) == mx]
    order = TermOrder.grevlex(n)
    assert M.socle_monomials() == sorted(socle, key=order.key, reverse=True)


@pytest.mark.parametrize("char", [0, 2])
def test_sweep_data_past_eight_bit_fields(char):
    # x^130 passes the 127 an 8-bit field holds, so the sweep widens
    ring = RingContext(FieldSpec(char), ("x", "y"))
    M = MonomialIdeal(ring, [(130, 0), (0, 2)])
    brute = [_brute_standard(M, d) for d in range(132)]
    assert brute[131] == []
    assert M.hilbert_function() == [len(std) for std in brute[:131]]
    for d in (0, 126, 127, 128, 129, 130, 131):
        assert M.standard_monomials(d) == brute[d]
    mx = MonomialIdeal.maximal(ring)
    assert M.socle_monomials() == [u for std in brute for u in std if M.colon(u) == mx]
    assert M.socle_monomials() == [(129, 1)]
    assert M.is_gorenstein()
    assert M.irreducible_decomposition() == [(130, 2)]
    # socle monomials on both sides of the widening: y, then x^129
    M = MonomialIdeal(ring, [(130, 0), (0, 2), (1, 1)])
    assert M.socle_monomials() == [(129, 0), (0, 1)]
    assert M.irreducible_decomposition() == [(130, 1), (1, 2)]


@pytest.mark.parametrize("char", [0, 2])
def test_unbounded_sweep_widens_past_eight_bit_fields(char):
    # (x*y, z^2) is not Artinian, so its sweep does not end; read past
    # degree 127 it moves to 16-bit fields instead of overflowing
    ring = RingContext(FieldSpec(char), ("x", "y", "z"))
    M = MonomialIdeal(ring, [(1, 1, 0), (0, 0, 2)])
    widths = [pk.width for pk, _ in itertools.islice(standard_pieces(M._tester), 140)]
    assert widths == [8] * 128 + [16] * 12
    pieces = list(itertools.islice(M._pieces(), 140))
    assert [len(piece) for piece in pieces] == [1, 3] + [4] * 138
    for d in (0, 1, 2, 126, 127, 128, 129, 139):
        assert sorted(pieces[d].values()) == list(range(len(pieces[d])))
        assert sorted(pieces[d]) == sorted(_brute_standard(M, d))


# ---------------------------------------------------------------- socle


def test_socle_two_elements(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    assert names(qq_xyz, M.socle_monomials()) == ["y*z", "x"]


def test_socle_pure_powers_unique():
    ring = RingContext(FieldSpec(0), ("x", "y", "z", "w"))
    M = MonomialIdeal.pure_powers(ring, (2, 2, 3, 3))
    assert names(ring, M.socle_monomials()) == ["x*y*z^2*w^2"]


def test_socle_of_max_ideal(qq_xy):
    M = MonomialIdeal.maximal(qq_xy)
    assert M.socle_monomials() == [(0, 0)]


def test_socle_iff_colon_is_max(qq_xyz):
    rng = random.Random(9)
    for _ in range(20):
        b = [rng.randint(2, 4) for _ in range(3)]
        gens = [MonomialIdeal.pure_powers(qq_xyz, b).min_gens]
        M = MonomialIdeal(qq_xyz, set().union(*gens))
        extra = tuple(rng.randint(0, 2) for _ in range(3))
        if any(extra):
            M = M.plus(MonomialIdeal(qq_xyz, [extra]))
        mx = MonomialIdeal.maximal(qq_xyz)
        socle = set(M.socle_monomials())
        box = itertools.product(*(range(b) for b in M.pure_power_bounds()))
        for u in (e for e in box if not M.contains_exp(e)):
            assert (u in socle) == (M.colon(u) == mx)


# ---------------------------------------------------------------- decomposition


def test_decomposition_square_of_max(qq_xy):
    M = mi(qq_xy, "x^2", "x*y", "y^2")
    comps = set(M.irreducible_decomposition())
    assert comps == {(2, 1), (1, 2)}


def test_decomposition_irreducible_fixed_point(qq_xy):
    M = MonomialIdeal.pure_powers(qq_xy, (3, 2))
    assert M.irreducible_decomposition() == [(3, 2)]


def test_decomposition_socle_pair(qq_xyz):
    # socle {x, yz} shifts to the components (x^2, y, z) and (x, y^2, z^2);
    # the second is forced by the intersection check (y is not in M)
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    comps = set(M.irreducible_decomposition())
    assert comps == {(2, 1, 1), (1, 2, 2)}
    meet = MonomialIdeal.pure_powers(qq_xyz, (2, 1, 1)).intersect(
        MonomialIdeal.pure_powers(qq_xyz, (1, 2, 2))
    )
    assert meet == M


def test_decomposition_soundness_random(qq_xyz):
    rng = random.Random(31)
    for _ in range(25):
        b = [rng.randint(2, 4) for _ in range(3)]
        M = MonomialIdeal.pure_powers(qq_xyz, b)
        extra = tuple(rng.randint(0, 3) for _ in range(3))
        if any(extra):
            M = M.plus(MonomialIdeal(qq_xyz, [extra]))
        M.irreducible_decomposition()  # raises InternalCheckError if unsound


# ---------------------------------------------------------------- predicates


def test_gorenstein_pure_powers(qq_xy):
    assert MonomialIdeal.pure_powers(qq_xy, (2, 3)).is_gorenstein()


def test_not_gorenstein_square_of_max(qq_xy):
    assert not mi(qq_xy, "x^2", "x*y", "y^2").is_gorenstein()


def test_primary_and_prime(qq_xyz):
    assert not mi(qq_xyz, "x^2", "x*y").is_primary()
    assert mi(qq_xyz, "x", "z").is_prime()
    assert mi(qq_xyz, "x^2", "x*y", "y^3").is_primary()
    assert not mi(qq_xyz, "x^2").is_prime()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unit_ideal_is_neither_prime_nor_primary(n):
    ring = RingContext(FieldSpec(0), ("x", "y", "z")[:n])
    unit, zero = MonomialIdeal(ring, [(0,) * n]), MonomialIdeal.zero(ring)
    assert not unit.is_prime() and not unit.is_primary()
    assert zero.is_prime() and zero.is_primary()


@st.composite
def _small_monomial_ideals(draw):
    """Monomial ideals in 1-3 variables with exponents up to 4, pure powers
    drawn often, or the zero or the unit ideal."""
    n = draw(st.integers(min_value=1, max_value=3))
    ring = RingContext(FieldSpec(0), ("x", "y", "z")[:n])
    kind = draw(st.sampled_from(["zero", "unit", "drawn", "drawn", "drawn"]))
    if kind != "drawn":
        return MonomialIdeal(ring, [] if kind == "zero" else [(0,) * n])
    exponent = st.integers(min_value=0, max_value=4)
    pure = st.builds(
        lambda i, a: tuple(a if j == i else 0 for j in range(n)),
        st.integers(min_value=0, max_value=n - 1),
        exponent.filter(bool),
    )
    vectors = st.one_of(pure, st.tuples(*[exponent] * n))
    return MonomialIdeal(ring, draw(st.lists(vectors, min_size=1, max_size=5)))


def _least_power_by_scan(M, i):
    """Least a <= 4 with x_i^a in M, or None."""
    n = M.ring.n
    powers = (tuple(a if j == i else 0 for j in range(n)) for a in range(5))
    return next((e[i] for e in powers if M.contains_exp(e)), None)


@settings(max_examples=300, deadline=None)
@given(_small_monomial_ideals())
def test_pure_power_predicates_match_references(M):
    """The pure-power predicates against scans that share no code with them."""
    n = M.ring.n
    least = [_least_power_by_scan(M, i) for i in range(n)]
    artinian = None not in least
    assert M.pure_power_bounds() == (least if artinian else None)
    assert M.is_artinian() == artinian
    proper = not M.contains_exp((0,) * n)
    touched = {i for g in M.min_gens for i in range(n) if g[i]}
    assert M.is_primary() == (proper and all(least[i] is not None for i in touched))
    if not artinian:
        with pytest.raises(PreconditionError):
            M.is_gorenstein()
        return
    # a socle monomial lies below every pure power, so below the largest exponents
    box = itertools.product(*(range(max(g[i] for g in M.min_gens)) for i in range(n)))
    socle = [
        u
        for u in box
        if not M.contains_exp(u)
        and all(M.contains_exp(u[:i] + (u[i] + 1,) + u[i + 1 :]) for i in range(n))
    ]
    assert M.is_gorenstein() == (len(socle) == 1)


# ---------------------------------------------------------------- witnesses


def test_no_witnesses_for_pure_powers(qq_xyz):
    rng = random.Random(13)
    for _ in range(20):
        n = rng.choice((2, 3, 4))
        ring = RingContext(FieldSpec(0), ("x", "y", "z", "w")[:n])
        b = [rng.randint(1, 4) for _ in range(n)]
        M = MonomialIdeal.pure_powers(ring, b)
        assert M.equal_colon_witnesses() == []


def test_no_witnesses_socle_pair_example(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    assert M.equal_colon_witnesses() == []


def test_witness_pair_square_of_max(qq_xy):
    M = mi(qq_xy, "x^2", "x*y", "y^2")
    assert M.equal_colon_witnesses() == [((1, 0), (0, 1))]


def test_witness_classes_include_degree(qq_xyz):
    N = mi(qq_xyz, "x^3", "x^2*y", "x^2*z", "x*y^2", "y^3", "y^2*z", "z^3")
    classes = N.equal_colon_classes()
    assert classes  # x^2 and y^2 share a colon
    degrees = [d for d, _ in classes]
    assert 2 in degrees
    top = [m for d, m in classes if d == 4]
    assert top == []  # the single top-degree standard monomial has no partner


def test_witness_cap_past_top_degree_changes_nothing(qq_xyz):
    N = mi(qq_xyz, "x^3", "x^2*y", "x^2*z", "x*y^2", "y^3", "y^2*z", "z^3")
    classes = N.equal_colon_classes()
    assert N.equal_colon_classes(max_degree=100000000) == classes
    assert N.equal_colon_classes(max_degree=1) == [c for c in classes if c[0] <= 1]


def test_witness_cap_on_non_artinian_input(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "y^2")  # z is free
    classes = M.equal_colon_classes(max_degree=3)
    assert [(d, names(qq_xyz, m)) for d, m in classes] == [
        (1, ["x", "y"]), (2, ["x*z", "y*z"]), (3, ["x*z^2", "y*z^2"]),
    ]
    with pytest.raises(PreconditionError):
        M.equal_colon_classes()


# ---------------------------------------------------------------- socle matrix


def test_socle_matrix_identity_rejected(qq_xy):
    M = mi(qq_xy, "x^2", "x*y", "y^2")
    socle = M.socle_monomials()
    S = SocleMatrix(M, socle, [[1, 0], [0, 1]])
    assert socle_matrix_test(S) is False


def test_socle_matrix_diagonal_sum_accepted(qq_xy):
    M = mi(qq_xy, "x^2", "x*y", "y^2")
    S = SocleMatrix(M, M.socle_monomials(), [[1, 1]])
    assert socle_matrix_test(S) is True


def test_socle_matrix_ones_row_minus_identity():
    # 4 socle monomials, 3 columns of the shape (1, -1, 0, 0) etc.
    ring = RingContext(FieldSpec(0), ("x", "y", "z", "w"))
    M = MonomialIdeal.pure_powers(ring, (2, 2, 3, 3)).plus(
        MonomialIdeal(ring, [(1, 1, 2, 2)])
    )
    socle = M.socle_monomials()
    assert len(socle) == 4
    cols = [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]]
    assert socle_matrix_test(SocleMatrix(M, socle, cols)) is True


def test_socle_matrix_from_polys(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    f = poly(qq_xyz, "x + y*z")
    S = socle_matrix(M, [f])
    assert socle_matrix_test(S) is True


def test_socle_matrix_rejects_non_socle_support(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    with pytest.raises(PreconditionError):
        socle_matrix(M, [poly(qq_xyz, "y + z")])


# ---------------------------------------------------------------- subideal criterion


def test_criterion_accepts_true_subideal(qq_xyz):
    M = mi(qq_xyz, "x^2", "x*y", "x*z", "y^2", "z^2")
    I = M.to_ideal().plus([poly(qq_xyz, "x + y*z")])
    assert mono_subideal_criterion(I, M) is True


def test_criterion_rejects_smaller_subideal(qq_xy):
    M = mi(qq_xy, "x^2", "x*y", "y^2")
    I = M.to_ideal().plus([poly(qq_xy, "x")])
    assert mono_subideal_criterion(I, M) is False


def test_criterion_requires_containment(qq_xy):
    M = mi(qq_xy, "x", "y^2")
    I = Ideal(qq_xy, [poly(qq_xy, "y^2")])
    with pytest.raises(PreconditionError):
        mono_subideal_criterion(I, M)


# ---------------------------------------------------------------- edge cases


def test_pure_powers_need_positive_exponents(qq_xy):
    with pytest.raises(ValueError, match="positive"):
        MonomialIdeal.pure_powers(qq_xy, (2, 0))


def test_equal_ideals_hash_alike(qq_xy):
    a = mi(qq_xy, "x^2", "x*y", "x^3*y")
    b = mi(qq_xy, "x*y", "x^2")
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_zero_ideal_prints_and_colons(qq_xy):
    zero = MonomialIdeal.zero(qq_xy)
    assert str(zero) == "(0)"
    M = mi(qq_xy, "x^2", "y")
    assert M.colon_ideal(zero) == MonomialIdeal(qq_xy, [(0, 0)])
    assert zero.colon_ideal(zero).is_unit()


def test_socle_matrix_rejects_a_zero_column(qq_xy):
    M = mi(qq_xy, "x^2", "y")
    with pytest.raises(PreconditionError, match="zero column"):
        socle_matrix(M, [poly(qq_xy, "x"), qq_xy.zero()])


_GATED = {
    "hilbert_function": lambda M: M.hilbert_function(),
    "equal_colon_classes": lambda M: M.equal_colon_classes(),
    "socle_monomials": lambda M: M.socle_monomials(),
    "irreducible_decomposition": lambda M: M.irreducible_decomposition(),
    "is_gorenstein": lambda M: M.is_gorenstein(),
    "mono_subideal_criterion": lambda M: mono_subideal_criterion(M.to_ideal(), M),
}


@pytest.mark.parametrize(
    "call", [*_GATED, "witness", "witness --max-degree 3"], ids=lambda c: c.replace(" ", "")
)
def test_artinian_gate(qq_xy, capsys, tmp_path, call):
    """Every Artinian-only operation on (x^2, x*y) fails with the gate's message;
    the CLI witness verb does so whatever the cap, in one stderr line."""
    if call in _GATED:
        with pytest.raises(PreconditionError) as info:
            _GATED[call](mi(qq_xy, "x^2", "x*y"))
        assert str(info.value).endswith("requires an Artinian monomial ideal")
        return
    f = tmp_path / "nonartinian.ideal"
    f.write_text("ring QQ[x,y];\nI = ideal(x^2, x*y);\n")
    verb, *cap = call.split()
    code = main([verb, "--in", str(f), "--ideal", "I", *cap])
    err = "error: witness search requires an Artinian monomial ideal\n"
    assert (code, *capsys.readouterr()) == (2, "", err)


def test_criterion_requires_an_artinian_monomial_ideal(qq_xy):
    M = mi(qq_xy, "x")
    I = Ideal(qq_xy, [poly(qq_xy, "x"), poly(qq_xy, "x*y - y")])
    with pytest.raises(PreconditionError, match="Artinian"):
        mono_subideal_criterion(I, M)
