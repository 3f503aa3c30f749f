"""Purely combinatorial operations on monomial ideals.

Everything here works on minimal generating sets of exponent vectors:
colons, intersections, radicals, Hilbert data, socles, irreducible
decomposition, the Gorenstein/primary/prime predicates, equal-colon witness
searches, and the socle-coefficient matrix test.

One sweep, ``standard_pieces``, enumerates the monomials outside an ideal
degree by degree, as packed ints of a grevlex ``groebner._Packing``: x_l*u
is one add, and the fields widen when a degree needs it.  The brute-force
route runs it on the packing of its membership test, and a monomial ideal on
its packed minimal generators (``MonomialIdeal._tester``).  Socles read the
packed pieces; ``MonomialIdeal._pieces`` unpacks them for the Hilbert data
and equal-colon classes here and for the Betti tables.
``_pure_powers`` reads the pure-power generators, ``_require_artinian`` is
the one Artinian gate and ``_descending`` the one listing order (grevlex
descending).  The unit ideal is neither prime nor primary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import InternalCheckError, PreconditionError
from .groebner import _FIRST_WIDTH, Ideal, _holding, _packing
from .linalg import rank
from .orders import TermOrder
from .poly import (
    ev_add,
    ev_degree,
    ev_divides,
    ev_lcm,
    ev_squarefree,
    ev_sub,
    ev_support,
)


def _minimalize(exps):
    """Antichain of divisibility-minimal exponent vectors."""
    out = []
    for e in sorted(set(exps), key=lambda e: (sum(e), e)):
        if not any(ev_divides(k, e) for k in out):
            out.append(e)
    return frozenset(out)


def _descending(exps, n):
    """Exponent vectors in n variables, grevlex descending."""
    return sorted(exps, key=TermOrder.grevlex(n).key, reverse=True)


def _degree_exponents(n, d):
    """All exponent vectors of length n and total degree d."""
    if n == 1:
        if d >= 0:
            yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _degree_exponents(n - 1, d - first):
            yield (first,) + rest


def standard_pieces(tester, max_degree=None):
    """The monomials outside an ideal, one degree at a time, packed.

    ``tester(d)`` returns (pk, is_member): a grevlex ``groebner._Packing``
    whose fields hold every monomial of degree d or less, and a membership
    test of its packed monomials.  Yields, from degree 0 up to ``max_degree``
    (unbounded if None), (pk, piece): the list of packed monomials of the
    degree outside the ideal, and stops after the first empty piece.  A piece
    lists the products x_l*u = u + (1 << pk.shifts[l]) of the previous piece
    in the order found, u first, then l.  They form an order ideal, so a
    product is outside exactly when all its one-step divisors are and
    ``is_member`` says no; only such products are asked about, each once.
    On a monomial ideal, ``is_member`` need only test for a minimal
    generator.  The sweep asks ``tester`` for degree 0, and again whenever
    the next degree would leave pk's fields; it then repacks the last piece
    it yielded, in place, into the new packing.
    """
    if max_degree is not None and max_degree < 0:
        return
    pk, is_member = tester(0)
    piece = [] if is_member(0) else [0]
    degree = 0
    yield pk, piece
    while piece and degree != max_degree:
        if degree == pk.limit:
            wide, is_member = tester(degree + 1)
            piece[:] = [wide.pack(pk.unpack(u)) for u in piece]
            pk = wide
        steps = [1 << s for s in pk.shifts]
        H = pk.guard
        low = H >> pk.width - 1  # the lowest bit of each field
        # product -> how many of its one-step divisors are in the piece below
        counts = {}
        for u in piece:
            for step in steps:
                v = u + step
                counts[v] = counts.get(v, 0) + 1
        piece = []
        for v, k in counts.items():
            # v has one one-step divisor per nonzero field, and a field below
            # the guard is nonzero when its guard survives the field's low bit
            if k == ((v | H) - low & H).bit_count() and not is_member(v):
                piece.append(v)
        degree += 1
        yield pk, piece


class MonomialIdeal:
    """A monomial ideal held as its unique minimal generating set.

    The generators are given as exponent vectors or monomials of ``ring``
    (``RingContext._exponent``).  The other ideal of ``contains``,
    ``colon_ideal``, ``intersect``, ``plus`` and ``times`` must belong to
    ``ring`` (``RingContext._own``).
    """

    __slots__ = ("ring", "min_gens")

    def __init__(self, ring, exponents):
        self.ring = ring
        self.min_gens = _minimalize([ring._exponent(e) for e in exponents])

    # -- constructors -----------------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, [])

    @classmethod
    def maximal(cls, ring):
        return cls.pure_powers(ring, (1,) * ring.n)

    @classmethod
    def pure_powers(cls, ring, b):
        """The ideal generated by x_i^{b_i} for every i (all b_i >= 1)."""
        b = ring._exponent(b)
        if 0 in b:
            raise ValueError("pure-power exponents must all be positive")
        one = (0,) * ring.n
        return cls(ring, [one[:i] + (v,) + one[i + 1 :] for i, v in enumerate(b)])

    # -- basic structure -----------------------------------------------------------

    def is_zero(self):
        return not self.min_gens

    def is_unit(self):
        return (0,) * self.ring.n in self.min_gens

    def contains_exp(self, e):
        e = self.ring._exponent(e)
        return any(ev_divides(g, e) for g in self.min_gens)

    def contains(self, other):
        """Containment of another monomial ideal."""
        return all(self.contains_exp(g) for g in self.ring._own(other).min_gens)

    def sorted_gens(self):
        return _descending(self.min_gens, self.ring.n)

    def generators(self):
        """Minimal generators as Polynomial values."""
        return [self.ring.monomial(e) for e in self.sorted_gens()]

    def to_ideal(self):
        return Ideal(self.ring, self.generators())

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.ring == other.ring
            and self.min_gens == other.min_gens
        )

    def __hash__(self):
        return hash((self.ring, self.min_gens))

    def __str__(self):
        if self.is_zero():
            return "(0)"
        from .poly import _monomial_str

        return "(" + ", ".join(
            _monomial_str(self.ring, e) or "1" for e in self.sorted_gens()
        ) + ")"

    __repr__ = __str__

    # -- lattice operations -----------------------------------------------------------

    def colon(self, u):
        """The colon by a single monomial u."""
        u = self.ring._exponent(u)
        return MonomialIdeal(
            self.ring, [ev_sub(ev_lcm(g, u), u) for g in self.min_gens]
        )

    def colon_ideal(self, other):
        """The colon by another monomial ideal."""
        if self.ring._own(other).is_zero():
            return MonomialIdeal(self.ring, [(0,) * self.ring.n])
        out = None
        for u in other.sorted_gens():
            q = self.colon(u)
            out = q if out is None else out.intersect(q)
        return out

    def intersect(self, other):
        other = self.ring._own(other).min_gens
        return MonomialIdeal(self.ring, [ev_lcm(a, b) for a in self.min_gens for b in other])

    def plus(self, other):
        return MonomialIdeal(self.ring, self.min_gens | self.ring._own(other).min_gens)

    def times(self, other):
        other = self.ring._own(other).min_gens
        return MonomialIdeal(self.ring, [ev_add(a, b) for a in self.min_gens for b in other])

    def scaled(self, u):
        """Multiply every generator by the monomial u."""
        u = self.ring._exponent(u)
        return MonomialIdeal(self.ring, [ev_add(g, u) for g in self.min_gens])

    def radical(self):
        return MonomialIdeal(self.ring, [ev_squarefree(g) for g in self.min_gens])

    # -- Artinian structure -----------------------------------------------------------

    def _pure_powers(self):
        """{i: a} for each minimal generator x_i^a (at most one per variable)."""
        # g is x_i^a exactly when its nonzero i-th exponent is its whole degree
        return {i: a for g in self.min_gens for i, a in enumerate(g) if 0 < a == sum(g)}

    def _tester(self, degree):
        """``standard_pieces``'s (pk, is_member) for this ideal: the narrowest
        grevlex packing that holds degree ``degree``, and membership among
        the minimal generators it holds."""
        pk = _holding(_packing(TermOrder.grevlex(self.ring.n), _FIRST_WIDTH), degree)
        gens = {pk.pack(g) for g in self.min_gens if sum(g) <= pk.limit}
        return pk, gens.__contains__

    def _pieces(self, max_degree=None):
        """``standard_pieces`` of this ideal, each piece a dict, exponent
        vector -> position."""
        for pk, piece in standard_pieces(self._tester, max_degree):
            yield {e: i for i, e in enumerate(map(pk.unpack, piece))}

    def pure_power_bounds(self):
        """Least pure power of each variable, or None when a variable has none."""
        powers = self._pure_powers()  # none in the unit ideal, whose bounds are 0
        if self.is_unit() or len(powers) == self.ring.n:
            return [powers.get(i, 0) for i in range(self.ring.n)]
        return None

    def is_artinian(self):
        return self.pure_power_bounds() is not None

    def _require_artinian(self, what):
        if not self.is_artinian():
            raise PreconditionError(f"{what} requires an Artinian monomial ideal")

    def power_gap(self):
        """Least s with every degree-s monomial in the ideal."""
        return len(self.hilbert_function())

    def standard_monomials(self, d):
        """Degree-d monomials outside the ideal, grevlex descending."""
        # the sweep ends at degree d or, with every later piece empty, before
        piece = {}
        for piece in self._pieces(d):
            pass
        return _descending(piece, self.ring.n)

    def hilbert_function(self, max_degree=None):
        """Counts of standard monomials per degree, 0..max_degree.

        With no bound (Artinian only) the list covers every nonzero value.
        """
        if max_degree is None:
            self._require_artinian("a Hilbert function without a degree bound")
        counts = [len(piece) for _, piece in standard_pieces(self._tester, max_degree)]
        if max_degree is None:
            return counts[:-1]  # the sweep ended on an empty piece
        return counts + [0] * (max_degree + 1 - len(counts))

    def socle_monomials(self):
        """Standard monomials killed by every variable, grevlex descending."""
        self._require_artinian("socle")
        out, below = [], []
        # The sweep ends on an empty piece, so every piece is seen as `below`;
        # widening repacks `below`, the piece it yielded last, in place.
        for pk, piece in standard_pieces(self._tester):
            above = set(piece)
            for step in [1 << s for s in pk.shifts]:
                below = [u for u in below if u + step not in above]
            out += map(pk.unpack, below)
            below = piece
        return _descending(out, self.ring.n)

    def irreducible_decomposition(self):
        """Exponents c of the irreducible components (x_1^{c_1}, .., x_n^{c_n}).

        Components correspond to socle monomials shifted by one; the result
        is re-intersected and checked against the ideal.
        """
        comps = [
            tuple(v + 1 for v in b) for b in self.socle_monomials()
        ]
        meet = MonomialIdeal(self.ring, [(0,) * self.ring.n])
        for c in comps:
            meet = meet.intersect(MonomialIdeal.pure_powers(self.ring, c))
        if meet != self:
            raise InternalCheckError("irreducible components do not intersect back")
        return comps

    # -- predicates -----------------------------------------------------------

    def is_gorenstein(self):
        """One-dimensional socle; must agree with the pure-power-form test."""
        via_socle = len(self.socle_monomials()) == 1
        # n minimal generators, each the pure power of a different variable
        via_shape = len(self.min_gens) == len(self._pure_powers()) == self.ring.n
        if via_socle != via_shape:
            raise InternalCheckError(
                "socle count and pure-power form disagree on Gorenstein-ness"
            )
        return via_socle

    def is_primary(self):
        """Proper, and every variable touching a generator has a pure power."""
        touched = set().union(*map(ev_support, self.min_gens))
        return not self.is_unit() and touched <= self._pure_powers().keys()

    def is_prime(self):
        return all(ev_degree(g) == 1 for g in self.min_gens)

    # -- equal-colon searches -----------------------------------------------------------

    def equal_colon_classes(self, max_degree=None):
        """Classes of same-degree standard monomials with identical colons.

        Only classes of size >= 2 are returned, as (degree, members) pairs
        with members grevlex descending.  The search stops at the top
        standard degree on Artinian input, whatever the cap; otherwise a cap
        is required.
        """
        if max_degree is None:
            self._require_artinian("an equal-colon search without a degree bound")
        out = []
        for d, piece in enumerate(self._pieces(max_degree)):
            groups = {}
            for u in _descending(piece, self.ring.n):
                groups.setdefault(self.colon(u).min_gens, []).append(u)
            for members in groups.values():
                if len(members) > 1:
                    out.append((d, members))
        return out

    def equal_colon_witnesses(self, max_degree=None):
        """All unordered same-degree standard pairs with equal colons."""
        pairs = []
        for _, members in self.equal_colon_classes(max_degree):
            pairs.extend(itertools.combinations(members, 2))
        return pairs


# ------------------------------------------------------------------ socle matrices


@dataclass
class SocleMatrix:
    """Coefficients of polynomials supported on the socle monomials.

    ``columns[j][i]`` is the coefficient of the i-th socle monomial in the
    j-th polynomial.
    """

    ideal: MonomialIdeal
    socle: list
    columns: list = dc_field(default_factory=list)


def socle_matrix(M, polys):
    """Express polynomials in socle-monomial coordinates.

    Every polynomial must belong to M's ring (``RingContext._own``) and be a
    nonzero combination of socle monomials of M.
    """
    socle = M.socle_monomials()
    index = {u: i for i, u in enumerate(socle)}
    cols = []
    for f in map(M.ring._own, polys):
        if f.is_zero():
            raise PreconditionError("zero column in socle matrix")
        col = [0] * len(socle)
        for e, c in f.coeffs.items():
            if e not in index:
                raise PreconditionError(
                    f"{f} is not supported on the socle monomials"
                )
            col[index[e]] = c
        cols.append(col)
    return SocleMatrix(M, socle, cols)


def socle_matrix_test(S):
    """True when no coordinate vector lies in the column span.

    Equivalently: adjoining the socle combinations to the ideal adds no new
    monomials.  Decided by exact rank comparisons.
    """
    r = len(S.socle)
    s = len(S.columns)
    field = S.ideal.ring.field
    rows = [{j: S.columns[j][i] for j in range(s)} for i in range(r)]
    base = rank(rows, field)
    for i in range(r):
        aug = rows[:i] + [{**rows[i], s: 1}] + rows[i + 1 :]
        if rank(aug, field) == base:
            return False
    return True


def mono_subideal_criterion(I, M):
    """Is the Artinian monomial subideal M the largest monomial subideal of I?

    Uses the socle test: the answer is yes exactly when I contains no socle
    monomial of M.  M must be an ideal of I's ring (``RingContext._own``)
    contained in I.
    """
    I.ring._own(M)._require_artinian("criterion")
    for g in M.sorted_gens():
        if not I.contains(g):
            raise PreconditionError("monomial ideal is not contained in the ideal")
    return not any(I.contains(u) for u in M.socle_monomials())
