"""Purely combinatorial operations on monomial ideals.

Everything here works on minimal generating sets of exponent vectors:
colons, intersections, radicals, Hilbert data, socles, irreducible
decomposition, the Gorenstein/primary/prime predicates, equal-colon witness
searches, and the socle-coefficient matrix test.

One sweep, ``standard_pieces``, enumerates the monomials outside an ideal
degree by degree; the Hilbert data, socles and equal-colon classes here, the
Betti tables and the brute-force route all read its pieces, and
``MonomialIdeal._pieces`` runs it on a monomial ideal.  ``_pure_powers`` reads
the pure-power generators, ``_require_artinian`` is the one Artinian gate and
``_descending`` the one listing order (grevlex descending).  The unit ideal is
neither prime nor primary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .errors import InternalCheckError, PreconditionError
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


def standard_pieces(n, is_member, max_degree=None):
    """The monomials outside an ideal in n variables, one degree at a time.

    Yields, from degree 0 up to ``max_degree`` (unbounded if None), a dict
    mapping each monomial of the degree outside the ideal to its position,
    and stops after the first empty piece.  A piece lists the products x_l*u
    of the previous piece in the order found, u first, then l.  They form an
    order ideal, so a product is outside exactly when all its one-step
    divisors are and ``is_member`` says no; only such products are asked
    about, each once.  On a monomial ideal, ``is_member`` need only test for
    a minimal generator.
    """
    if max_degree is not None and max_degree < 0:
        return
    one = (0,) * n
    piece = {} if is_member(one) else {one: 0}
    degree = 0
    yield piece
    while piece and degree != max_degree:
        # product -> how many of its one-step divisors are in the piece below
        counts = {}
        for u in piece:
            for l in range(n):
                v = u[:l] + (u[l] + 1,) + u[l + 1 :]
                counts[v] = counts.get(v, 0) + 1
        piece = {}
        for v, k in counts.items():
            # v has one one-step divisor per variable in its support
            if k == n - v.count(0) and not is_member(v):
                piece[v] = len(piece)
        degree += 1
        yield piece


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
        from .groebner import Ideal

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

    def _pieces(self, max_degree=None):
        """``standard_pieces`` of this ideal, asking only about minimal generators."""
        return standard_pieces(self.ring.n, self.min_gens.__contains__, max_degree)

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
        counts = [len(piece) for piece in self._pieces(max_degree)]
        if max_degree is None:
            return counts[:-1]  # the sweep ended on an empty piece
        return counts + [0] * (max_degree + 1 - len(counts))

    def socle_monomials(self):
        """Standard monomials killed by every variable, grevlex descending."""
        self._require_artinian("socle")
        n = self.ring.n
        std = set().union(*self._pieces())
        out = [
            u
            for u in std
            if not any(u[:i] + (u[i] + 1,) + u[i + 1 :] in std for i in range(n))
        ]
        return _descending(out, n)

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
