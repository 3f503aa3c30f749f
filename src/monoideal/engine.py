"""Largest monomial subideal of an ideal, by three routes, plus the smallest
monomial over-ideal and a characteristic scanner.

Each route returns the ``MonomialIdeal`` it computes.  The saturation route
works for arbitrary ideals on one path: multi-homogenize the generators in
the pivot coordinates of their exponent differences, weigh them by
x_i -> x_i^a_i, y_i -> y_i^b_i into standard-homogeneous ones, saturate by
the product of the companions y_i with Bayer's passes, and read the answer,
exponents divided by a, off the companion-free leads of the minimal basis
under the companions-first order (``groebner._companion_free_leads``), so no
homogenizing variable is added and no saturated ideal is built.
The colon-formula route applies to unmixed ideals carrying a monomial regular
sequence, and the brute-force route is an independent degree-by-degree
membership sweep for Artinian input: ``monomial.standard_pieces`` walks the
non-members of I, the standard monomials of its largest monomial subideal,
and carries only them from each degree to the next; it and the colon route's
default regular sequence start from one search, ``_least_pure_powers``.  The
saturation and colon routes re-verify each generator as a member before
returning, and the colon route must agree with the saturation route.  No
polynomial is built to test a monomial: the member checks and the
pure-power search hand its exponent vector to ``Ideal.contains``, and the
sweep hands its packed int to ``Ideal._monomial_member``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from math import gcd
from operator import floordiv, mul

from .errors import InternalCheckError, PreconditionError
from .fields import FieldSpec
from .groebner import Ideal, _companion_free_leads
from .monomial import MonomialIdeal, _descending, standard_pieces
from .poly import Polynomial, RingContext, ev_support, fresh_names, multi_homogenize

DEFAULT_DEGREE_CEILING = 30


def _verify_members(I, M, method):
    for e in M.sorted_gens():
        if not I.contains(e):
            raise InternalCheckError(
                f"method {method} produced a non-member generator"
            )


def _pivot_coordinates(gens, n):
    """The echelon rows (pivot, row), in increasing order of pivot, of the
    differences of exponent vectors within each generator, by fraction-free
    integer elimination; n rows, pivots 0 to n - 1, as soon as the rank
    reaches n.

    Each difference is reduced by the rows found so far, in increasing
    order of their pivots, so it ends with zeros at every pivot; its first
    nonzero entry, if any, is a new pivot.  The rows sorted by pivot are then
    an echelon form of the lattice L the differences span, so the pivots do
    not depend on the order of the generators or their terms, and L projects
    injectively onto the pivot coordinates.
    """
    rows = []  # (pivot, row), in increasing order of pivot
    for g in gens:
        terms = iter(g.coeffs)
        first = next(terms, None)
        for e in terms:
            v = [x - y for x, y in zip(e, first)]
            for c, row in rows:
                a = v[c]
                if a:
                    r = row[c]
                    v = [r * x - a * y for x, y in zip(v, row)]
            for c, x in enumerate(v):
                if x:
                    k = gcd(*v)
                    insort(rows, (c, [y // k for y in v]))
                    if len(rows) == n:
                        return rows
                    break
    return rows


def _weights(rows, n):
    """Positive weights, one per variable x_1..x_n and then one per
    companion y_i, i in S, the pivots of the echelon ``rows``, that make
    every generator multi-homogenized in S homogeneous; all 1 at full rank.

    c is the primitive integer vector orthogonal to L that is one positive
    number off S (0 at full rank): from c = 1, at each pivot p, last first,
    with s = sum_(j>p) row_j c_j, c is scaled by k = |row_p| / gcd(s, row_p)
    and c_p set to -s k / row_p, which keeps c primitive and positive off S.
    y_i weighs b_i = max(1, 1 - c_i) and x_i weighs c_i + b_i on S, c_i off S.
    """
    c = [1] * n
    for p, row in reversed(rows):
        s = sum(map(mul, row[p + 1 :], c[p + 1 :]))
        k = abs(row[p]) // gcd(s, row[p])
        c = [x * k for x in c]
        c[p] = -s * k // row[p]
    b = {p: max(1, 1 - c[p]) for p, _ in rows}
    return tuple(x + b.get(i, 0) for i, x in enumerate(c)) + tuple(b.values())


def mono_via_gb(I):
    """Largest monomial subideal via saturation and elimination.

    Works for any ideal.  Let L in Z^n be the lattice spanned by the
    differences of exponent vectors within each generator, and S the pivot
    coordinates of those differences (``_pivot_coordinates``), so rank(L) =
    |S| and no nonzero l in L vanishes on S.  Each generator is
    multi-homogenized with one companion variable y_i per i in S, the ideal
    is saturated by the product of the companions, and the companions are
    eliminated under a companions-first block order.  This is the
    Saito-Sturmfels-Takayama algorithm for the subtorus on S ("Groebner
    Deformations of Hypergeometric Differential Equations", Springer 2000):
    it gives the largest subideal J of I that is homogeneous for the grading
    e -> e_S.  J is mono(I):

    - Every generator is homogeneous for the grading by Z^n/L, so I is
      graded by it.  The Z^n/L-components of an e_S-homogeneous element of J
      lie in I and are e_S-homogeneous, so they lie in J by maximality, and
      J is Z^n/L-graded too.
    - Two monomials of the same degree in both gradings differ by some l in
      L with l_S = 0, so l = 0.  Each part of J of one degree in both
      gradings is spanned by one monomial, so J is a monomial ideal in I.
    - mono(I) is e_S-homogeneous, so it lies in J by maximality; and J, a
      monomial ideal in I, lies in mono(I).

    J is read off the minimal basis G of the saturated ideal under the
    companions-first order, with no tail reduction and no elimination
    built (the elimination theorem, Cox, Little and O'Shea, "Ideals,
    Varieties, and Algorithms", ch. 3 section 1):

    - The elements of G whose leads are free of the y are free of them, and
      they form a Groebner basis of J, the saturated ideal intersected with
      k[x].  Their leads generate in(J), which is J itself because J is a
      monomial ideal.
    - No lead of G divides another, so these leads are J's minimal
      generators.  The same holds for the weighted image below, whose J is
      monomial too.

    Bayer's passes (``groebner._saturated``, keyed throughout) need
    homogeneous input, and the multi-homogenized generators are homogeneous
    for a positive grading (Sturmfels, "Groebner Bases and Convex Polytopes",
    AMS 1996, ch. 12), so the passes need no homogenizing variable:

    - Take c orthogonal to L with c_j = d > 0 for every j outside S
      (``_weights``); c = 0 when S is all n.  Weigh y_i by
      b_i = max(1, 1 - c_i), x_i by a_i = c_i + b_i for i in S and x_j by
      a_j = c_j off S; every weight is at least 1, and all are 1 when S is
      all n or empty.  A term x^e y^(t - e_S) of a generator with top
      degrees t in S weighs c.e + b.t, and c.e is one number on the
      generator, since its exponent differences lie in L.
    - The substitution x_i -> x_i^a_i, y_i -> y_i^b_i maps each generator
      to a standard-homogeneous one.  The polynomial ring is free over the
      image of this map, with the monomials x^r y^s, 0 <= r < a, 0 <= s < b,
      as a basis, so extending an ideal along it commutes with saturation
      by the y_i^b_i, which has the y_i's radical, and with elimination of
      the y.  The saturated and eliminated image is therefore the extension
      of mono(I)'s image, a monomial ideal whose minimal generators are
      the images x^(a e) of mono(I)'s minimal generators x^e: dividing their
      exponents by a is exact.

    With S empty every generator is a monomial, or there is none, and the
    passes do nothing.  The answer's generators are re-verified as members.
    """
    ring = I.ring
    n = ring.n
    rows = _pivot_coordinates(I.gens, n)
    S = [p for p, _ in rows]
    w = _weights(rows, n)
    ext = ring.extended(fresh_names(ring, [f"y{i + 1}" for i in S]))
    dicts = [
        {tuple(map(mul, e, w)): c for e, c in multi_homogenize(g, ext, S).coeffs.items()}
        for g in I.gens
    ]
    leads = _companion_free_leads(dicts, n, ext.n, ring.field.characteristic)
    M = MonomialIdeal(ring, [tuple(map(floordiv, e, w)) for e in leads])
    _verify_members(I, M, "gb")
    return M


def mono_upper(I):
    """Smallest monomial ideal containing I: all terms of the generators."""
    return MonomialIdeal(I.ring, [e for g in I.gens for e in g.coeffs])


def _least_pure_powers(I, ceiling):
    """The smallest a_i >= 1 with x_i^a_i in I, for each variable x_i in turn.

    Tests x_i, x_i^2, ... and stops at the first member, so no power is
    tested twice.  Past ``ceiling`` it raises PreconditionError.
    """
    ring = I.ring
    powers = []
    for i, var in enumerate(ring.variables):
        e = [0] * ring.n
        for a in range(1, ceiling + 1):
            e[i] = a
            if I.contains(e):
                powers.append(a)
                break
        else:
            raise PreconditionError(f"no pure power of {var} up to degree {ceiling}")
    return powers


def mono_via_puv(I, beta=None, ceiling=DEFAULT_DEGREE_CEILING):
    """Largest monomial subideal via the colon formula.

    Requires an unmixed ideal with a regular sequence ``beta`` of monomials
    in I, one per codimension.  For Artinian input beta defaults to the least
    pure powers of the variables found in I.  The result is cross-checked
    against the saturation route and must agree exactly.

    Unmixedness is not checked.  On a mixed ideal the formula can give a
    generator outside I, and then the member check raises InternalCheckError:
    (x^2, x*y + y*z, y^2) with beta = (x^2, y^2), whose embedded prime is
    (x, y, z), ends there.
    """
    ring = I.ring
    if beta is None:
        powers = _least_pure_powers(I, ceiling)
        beta = MonomialIdeal.pure_powers(ring, powers).sorted_gens()
    else:
        beta = [ring._exponent(b) for b in beta]
        for e in beta:
            if not I.contains(e):
                raise PreconditionError(f"beta element x^{e} is not in the ideal")
        supports = [ev_support(e) for e in beta]
        if len(set().union(*supports)) != sum(map(len, supports)):
            raise PreconditionError(
                "beta is not a monomial regular sequence (variable supports overlap)"
            )
    B = Ideal(ring, [ring.monomial(e) for e in beta])
    quotient = B.colon_ideal(I)
    upper = mono_upper(quotient)
    Bm = MonomialIdeal(ring, beta)
    M = Bm.colon_ideal(upper)
    _verify_members(I, M, "puv")
    if mono_via_gb(I) != M:
        raise InternalCheckError(
            "colon-formula route disagrees with the saturation route"
        )
    return M


def mono_oracle(I, ceiling=DEFAULT_DEGREE_CEILING):
    """Brute-force largest monomial subideal for Artinian ideals.

    Sweeps the non-members of I with ``standard_pieces`` until one degree
    has none.  Before the sweep, 1 is tested once, and then the least pure
    power of each variable is found by ``_least_pure_powers``, the search
    that also gives the colon route its default beta.  A monomial is a
    member when one of its one-step divisors is, since I is an ideal, so the
    sweep asks only about products whose one-step divisors are all
    non-members, up to degree 1 + sum(a_i - 1) at most, where every monomial
    has some exponent past its pure power a_i.  It runs on the packed ints
    of ``Ideal._monomial_member``'s packing for the degrees it reaches.  The
    search settles 1 and the pure powers, held as packed ints; every other
    product is tested by the member function, a lead scan and a normal form
    on the cached basis.  The members found are the minimal generators, and
    only they are unpacked.  Entirely membership-driven, so it is
    independent of the saturation and colon routes.
    """
    ring = I.ring
    n = ring.n
    if I.contains((0,) * n):
        return MonomialIdeal(ring, [(0,) * n])
    powers = _least_pure_powers(I, ceiling)
    gens = []

    def tester(degree):
        pk, test = I._monomial_member(degree)
        # the pure powers that pk holds: x_i^a_i is a member, those below not
        pure = {
            a << s: a == b
            for b, s in zip(powers, pk.shifts)
            for a in range(min(b, pk.limit) + 1)
        }

        def member(v):
            found = pure.get(v)
            if found is None:
                found = test(v)
            if found:
                gens.append(pk.unpack(v))
            return found

        return pk, member

    # degree `bound` forces some exponent past its pure power
    bound = 1 + sum(a - 1 for a in powers)
    for _, piece in standard_pieces(tester, bound):
        pass
    if piece:
        raise InternalCheckError("membership sweep missed the guaranteed degree")
    return MonomialIdeal(ring, gens)


# ------------------------------------------------------------------ char scan


@dataclass
class CharScanResult:
    """Minimal generators of the largest monomial subideal per ground field."""

    fields: list
    generators: dict  # FieldSpec -> tuple of exponent vectors (sorted)
    variables: tuple

    def field_dependent(self):
        """(exponent, fields-that-have-it) for every non-universal generator,
        grevlex descending."""
        have = {}
        for f in self.fields:
            for e in self.generators[f]:
                have.setdefault(e, []).append(f)
        return [
            (e, have[e])
            for e in _descending(have, len(self.variables))
            if len(have[e]) < len(self.fields)
        ]


def char_scan(I, primes, include_char_zero=True):
    """Largest monomial subideal of an integer-coefficient ideal over QQ,
    recomputed over several prime fields (and optionally QQ itself), with a
    difference report.  Each generator maps into GF(p) coefficient-wise.
    """
    fields = []
    if include_char_zero:
        fields.append(FieldSpec(0))
    for p in sorted(set(primes)):
        try:
            fields.append(FieldSpec(p))
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
    if not fields:
        raise PreconditionError("no fields requested")
    if I.ring.field.characteristic:
        raise PreconditionError("characteristic scan needs an ideal over QQ")
    for g in I.gens:
        if any(c.denominator != 1 for c in g.coeffs.values()):
            raise PreconditionError(
                "characteristic scan requires integer coefficients"
            )

    variables = I.ring.variables
    generators = {}
    for f in fields:
        ring = RingContext(f, variables)
        J = Ideal(ring, [Polynomial(ring, g.coeffs) for g in I.gens])
        generators[f] = tuple(mono_via_gb(J).sorted_gens())
    return CharScanResult(fields, generators, variables)
