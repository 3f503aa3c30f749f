"""Groebner engine: division with remainder, Buchberger's algorithm,
elimination, saturation, intersection, and ideal quotients.

Coefficient arithmetic is exact everywhere.  One reduction loop, ``_nf``,
serves S-pair reduction, tail reduction, normal forms and membership: over
the rationals it runs fraction-free on integer-cleared polynomials, dividing
by content after each reduction; over a prime field everything stays
reduced mod p.  ``_buchberger`` returns a minimal basis (no lead divides
another, tails unreduced); ``_autoreduce`` tail-reduces it only where a
basis is returned or cached.  One routine, ``Ideal.eliminate``, contracts
to a subring and caches the contraction's reduced basis, read off the
elimination basis.
``Ideal.saturate`` homogenizes non-homogeneous input by one extra variable
and divides out one variable of the monomial at a time (Bayer's trick), on
raw dicts, each pass handing the next a minimal basis; ``intersect``
eliminates a tag variable.
Pair pruning uses the coprime-lead and chain criteria in the standard
Gebauer-Moeller bookkeeping, with the normal (smallest lcm first) selection
strategy, so recomputations are bit-for-bit deterministic.

Each critical pair carries the lcm of its leads and that lcm's order key,
computed once when the pair is created.  Pruning reads the stored lcm, and
selection pops a heap of (lcm key, j, i) entries, skipping pairs pruned
since they were queued; ties on the lcm key go to the smaller (j, i).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd
from operator import le

from .errors import InternalCheckError, PreconditionError
from .monomial import as_exponent
from .orders import TermOrder
from .poly import (
    Polynomial,
    embed,
    ev_add,
    ev_divides,
    ev_lcm,
    ev_sub,
    fresh_names,
)

# ------------------------------------------------------------- raw machinery
#
# Inside this module a polynomial is a plain dict {exponent tuple: int}.
# Char 0 basis elements are primitive: integer coefficients, content 1,
# positive leading coefficient.  Char p basis elements are monic mod p.


class _BP:
    __slots__ = ("coeffs", "lead", "lc", "tail")

    def __init__(self, coeffs, lead):
        self.coeffs = coeffs
        self.lead = lead
        self.lc = coeffs[lead]
        self.tail = [(e, c) for e, c in coeffs.items() if e != lead]


def _clear_denominators(coeffs):
    """Scale a char-0 coefficient dict to ints; returns (dict, multiplier)."""
    den = 1
    for c in coeffs.values():
        if isinstance(c, Fraction):
            den = den * c.denominator // gcd(den, c.denominator)
    if den == 1:
        return {e: int(c) for e, c in coeffs.items()}, 1
    return {e: int(c * den) for e, c in coeffs.items()}, den


def _normalized(coeffs, lead, p):
    """Primitive (p = 0) or monic (p prime) copy of a nonzero raw dict."""
    if not p:
        g = 0
        for c in coeffs.values():
            g = gcd(g, c)
        if coeffs[lead] < 0:
            g = -g
        if g != 1:
            coeffs = {e: c // g for e, c in coeffs.items()}
        return coeffs
    m = pow(coeffs[lead], -1, p)
    if m != 1:
        coeffs = {e: c * m % p for e, c in coeffs.items()}
    return coeffs


def _nf(coeffs, basis, order, p, negkeys=None):
    """Fraction-free remainder of ``coeffs`` against ``basis``.

    Returns (remainder, lam) with lam * input == remainder modulo the ideal
    generated by the basis; lam is a positive int (always 1 in char p).  The
    remainder has no term divisible by any basis lead, and its terms come in
    descending order, so its first key is its lead.
    """
    if not coeffs:
        return {}, 1
    if negkeys is None:
        negkeys = {}
    key = order.key
    work = dict(coeffs)
    heap = []
    for e in work:
        nk = negkeys.get(e)
        if nk is None:
            nk = negkeys[e] = tuple(-v for v in key(e))
        heap.append((nk, e))
    heapq.heapify(heap)
    push = heapq.heappush
    r = {}
    lam = 1
    while heap:
        _, u = heapq.heappop(heap)
        c = work.pop(u, 0)
        if not c:
            continue
        red = None
        for b in basis:
            if all(map(le, b.lead, u)):
                red = b
                break
        if red is None:
            r[u] = c
            continue
        delta = ev_sub(u, red.lead)
        m = c
        if not p:
            g = gcd(red.lc, c)
            s = red.lc // g
            if s != 1:
                lam *= s
                for k in work:
                    work[k] *= s
                for k in r:
                    r[k] *= s
            m = c // g
        for e, ce in red.tail:
            v = ev_add(e, delta)
            old = work.get(v)
            if old is None:
                nv = -m * ce
                if p:
                    nv %= p
                if nv:
                    work[v] = nv
                    nk = negkeys.get(v)
                    if nk is None:
                        nk = negkeys[v] = tuple(-x for x in key(v))
                    push(heap, (nk, v))
            else:
                nv = old - m * ce
                if p:
                    nv %= p
                if nv:
                    work[v] = nv
                else:
                    del work[v]
    return r, lam


def _spoly(b1, b2, l, p):
    """S-polynomial of two basis elements whose leads have lcm ``l``."""
    d1 = ev_sub(l, b1.lead)
    d2 = ev_sub(l, b2.lead)
    g = gcd(b1.lc, b2.lc)  # 1 over GF(p), where both leads are monic
    m1 = b2.lc // g
    m2 = b1.lc // g
    s = {}
    for e, c in b1.coeffs.items():
        s[ev_add(e, d1)] = m1 * c
    for e, c in b2.coeffs.items():
        v = ev_add(e, d2)
        nv = s.get(v, 0) - m2 * c
        if p:
            nv %= p
        if nv:
            s[v] = nv
        else:
            s.pop(v, None)
    return s


def _update(G, P, f, order):
    """Gebauer-Moeller pair update (chain + coprime-lead pruning).

    ``P`` maps each live pair (i, j), i < j, to (order key of its lcm, lcm).
    Returns the basis with ``f`` appended and the retained pairs, the new
    pairs (i, len(G) - 1) inserted last.
    """
    lmf = f.lead
    m = len(G)
    lf = [ev_lcm(b.lead, lmf) for b in G]
    retained = {}
    for ij, kl in P.items():
        lij = kl[1]
        if not all(map(le, lmf, lij)) or lij == lf[ij[0]] or lij == lf[ij[1]]:
            retained[ij] = kl
    groups = {}
    for i, L in enumerate(lf):
        groups.setdefault(L, []).append(i)
    # A proper divisor has lower degree, so sorting by degree visits the
    # divisors of an lcm before it, as sorting by the order would.
    minimal = []
    for L in sorted(groups, key=sum):
        for Lk in minimal:
            if all(map(le, Lk, L)):
                break
        else:
            minimal.append(L)
    key = order.key
    for L in minimal:
        members = groups[L]
        if not any(L == ev_add(G[i].lead, lmf) for i in members):
            retained[min(members), m] = (key(L), L)
    G.append(f)
    return G, retained


def _autoreduce(G, order, p):
    """The reduced basis of a minimal basis: reduce tails, sort descending."""
    out = []
    for i, b in enumerate(G):
        # no other lead divides b's, so the remainder keeps b's lead
        r, _ = _nf(dict(b.coeffs), G[:i] + G[i + 1 :], order, p)
        out.append(_BP(_normalized(r, b.lead, p), b.lead))
    out.sort(key=lambda b: order.key(b.lead), reverse=True)
    return out


def _buchberger(dicts, order, char, p):
    """Minimal basis of raw dicts over GF(p), or QQ if p is 0; char == p."""
    negkeys = {}
    seed = []
    for d in dicts:
        if d:
            lead = max(d, key=order.key)
            seed.append(_BP(_normalized(d, lead, p), lead))
    seed.sort(key=lambda b: (order.key(b.lead), sorted(b.coeffs.items())))
    # P holds the live pairs; the heap holds (lcm key, j, i) for every pair
    # ever created and pops them in normal-strategy order.  A pruned pair
    # stays in the heap until popped and is then skipped: pairs are only
    # created with j the newest index, so it never comes back to life.
    G, P, heap = [], {}, []
    for b in seed:
        G, P = _update(G, P, b, order)
        _push_new_pairs(heap, P, len(G) - 1)
    while heap:
        _, j, i = heapq.heappop(heap)
        kl = P.pop((i, j), None)
        if kl is None:
            continue
        s = _spoly(G[i], G[j], kl[1], p)
        if not s:
            continue
        r, _ = _nf(s, G, order, p, negkeys)
        if r:
            lead = next(iter(r))
            G, P = _update(G, P, _BP(_normalized(r, lead, p), lead), order)
            _push_new_pairs(heap, P, len(G) - 1)
    mins = []
    for b in sorted(G, key=lambda b: order.key(b.lead)):
        if not any(ev_divides(k.lead, b.lead) for k in mins):
            mins.append(b)
    return mins


def _push_new_pairs(heap, P, j):
    """Queue the pairs (i, j) that ``_update`` just inserted at the end of P."""
    for (i, jj), (k, _) in reversed(P.items()):
        if jj != j:
            break
        heapq.heappush(heap, (k, j, i))


class _Basis:
    """A cached reduced Groebner basis, in both monic and primitive form."""

    __slots__ = ("order", "bps", "polys")

    def __init__(self, ring, order, bps):
        self.order = order
        self.bps = bps
        field = ring.field
        polys = []
        for b in bps:
            if field.characteristic == 0 and b.lc != 1:
                lc = b.lc
                polys.append(
                    Polynomial._raw(ring, {e: field.of(c, lc) for e, c in b.coeffs.items()})
                )
            else:
                polys.append(Polynomial._raw(ring, dict(b.coeffs)))
        self.polys = tuple(polys)


def _order_for(ring, order):
    """``order``, grevlex if None; raises ValueError if its arity is not the ring's."""
    order = order or TermOrder.grevlex(ring.n)
    if order.arity != ring.n:
        raise ValueError(f"{order!r} does not order the {ring.n} variables of {ring}")
    return order


# ------------------------------------------------------------------ division


def divide(f, divisors, order=None):
    """Multivariate division: f = sum q_i * divisors_i + r.

    No term of r is divisible by the lead of any divisor.  Exact field
    arithmetic throughout; returns (quotients, remainder).
    """
    ring = f.ring
    order = _order_for(ring, order)
    field = ring.field
    leads = [d.lead(order) for d in divisors]
    qs = [ring.zero() for _ in divisors]
    r = ring.zero()
    while not f.is_zero():
        u, c = f.lead(order)
        for i, (lead, lc) in enumerate(leads):
            if ev_divides(lead, u):
                t = ring.monomial(ev_sub(u, lead), field.of(c, lc))
                qs[i] = qs[i] + t
                f = f - t * divisors[i]
                break
        else:
            t = ring.monomial(u, c)
            r = r + t
            f = f - t
    # Polynomial() turns the integral Fractions that QQ sums leave into ints
    return [Polynomial(ring, q.coeffs) for q in qs], Polynomial(ring, r.coeffs)


def exact_quotient(f, g, order=None):
    """f / g when the division is exact; raises otherwise."""
    qs, r = divide(f, [g], order)
    if not r.is_zero():
        raise InternalCheckError(f"inexact division of {f} by {g}")
    return qs[0]


# ------------------------------------------------------------------ the ideal


class Ideal:
    """An ideal given by generators, with cached reduced Groebner bases."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if not g.is_zero())
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator outside the ambient ring")
        self._cache = {}

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"

    # -- bases ------------------------------------------------------------------

    def _basis(self, order=None):
        order = _order_for(self.ring, order)
        b = self._cache.get(order)
        if b is None:
            p = self.ring.field.characteristic
            dicts = [_clear_denominators(g.coeffs)[0] for g in self.gens]
            bps = _autoreduce(_buchberger(dicts, order, p, p), order, p)
            b = self._cache[order] = _Basis(self.ring, order, bps)
        return b

    def groebner_basis(self, order=None):
        """The reduced Groebner basis: monic, tail-reduced, sorted descending."""
        return self._basis(order).polys

    def leading_exponents(self, order=None):
        return tuple(b.lead for b in self._basis(order).bps)

    # -- membership ---------------------------------------------------------------

    def _remainder(self, f, order):
        """(r, s): the raw remainder r of f against the reduced basis and a
        scale s such that r / s is f's normal form; s is 1 over GF(p)."""
        if f.ring != self.ring:
            raise ValueError("polynomial outside the ideal's ring")
        basis = self._basis(order)
        p = self.ring.field.characteristic
        ints, den = _clear_denominators(f.coeffs)
        r, lam = _nf(ints, basis.bps, basis.order, p)
        return r, den * lam

    def normal_form(self, f, order=None):
        """Remainder of f against the reduced basis; zero iff f is a member."""
        r, scale = self._remainder(f, order)
        field = self.ring.field
        return Polynomial._raw(self.ring, {e: field.of(c, scale) for e, c in r.items()})

    def contains(self, f, order=None):
        return not self._remainder(f, order)[0]

    def is_zero(self):
        return not self.gens

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def equals(self, other):
        """Ideal equality via reduced-basis comparison."""
        if self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    def plus(self, extra):
        return Ideal(self.ring, self.gens + tuple(extra))

    # -- elimination-based operations ------------------------------------------------

    def eliminate(self, drop, order=None):
        """Generators of the contraction to the subring without ``drop``.

        ``drop`` may contain names or indices; the result lives in the ring
        on the remaining variables.  ``order`` must have the ``drop``
        variables as its first block (default: ``TermOrder.elimination``).
        The result's generators are its reduced basis for the order's
        remaining blocks, and that basis is cached.
        """
        ring = self.ring
        drop_ix = sorted(
            {ring.var_index(d) if isinstance(d, str) else d for d in drop}
        )
        if not drop_ix:
            return Ideal(ring, self.gens)
        order = _order_for(ring, order or TermOrder.elimination(drop_ix, ring.n))
        if sorted(order.blocks[0][0]) != drop_ix:
            raise ValueError("the order's first block must be the dropped variables")
        keep = [i for i in range(ring.n) if i not in drop_ix]
        new_ring = ring.dropped(drop_ix)
        at = {i: k for k, i in enumerate(keep)}
        new_order = TermOrder(
            new_ring.n,
            [(tuple(at[i] for i in ix), kind) for ix, kind in order.blocks[1:]],
        )
        # The order eliminates, so an element is free of the dropped
        # variables exactly when its lead is.
        def cut(e):
            return tuple(e[i] for i in keep)

        bps = [
            _BP({cut(e): c for e, c in b.coeffs.items()}, cut(b.lead))
            for b in self._basis(order).bps
            if not any(b.lead[i] for i in drop_ix)
        ]
        basis = _Basis(new_ring, new_order, bps)
        result = Ideal(new_ring, basis.polys)
        result._cache[new_order] = basis
        return result

    def saturate(self, m, order=None):
        """The saturation of the ideal by the monomial m (colon by all powers).

        ``m`` is a monomial or its exponent vector.  A non-homogeneous ideal
        is homogenized by a last variable h, later set to 1.  Then it is
        saturated by each variable x_i of m in turn (Bayer's trick): under a
        grevlex order with m's other variables first and x_i last, dividing
        each element of a Groebner basis by its largest x_i power gives a
        basis of the colon by x_i^inf.  Each pass hands the next its minimal
        basis, tails unreduced; one ``_autoreduce`` runs, on the basis under
        ``order``.  The elements stay homogeneous, so h = 1 merges no terms.
        The result's generators are its cached reduced basis for ``order``.
        """
        ring = self.ring
        mexp = as_exponent(m)
        ring.monomial(mexp)  # raises ValueError on a bad exponent vector
        order = _order_for(ring, order)
        p = ring.field.characteristic
        dicts = [_clear_denominators(g.coeffs)[0] for g in self.gens]
        homogeneous = self.is_homogeneous()
        if not homogeneous:
            tops = [max(map(sum, d)) for d in dicts]
            dicts = [
                {e + (top - sum(e),): c for e, c in d.items()} for d, top in zip(dicts, tops)
            ]
            mexp += (0,)
        n = len(mexp)
        support = [i for i in range(n) if mexp[i]]
        rest = [i for i in range(n) if not mexp[i]]
        for i in support:
            ahead = [k for k in support if k != i] + rest
            bayer = TermOrder(n, [(ahead + [i], "grevlex")])
            dicts = [_divide_out(b.coeffs, i) for b in _buchberger(dicts, bayer, p, p)]
        if not homogeneous:
            dicts = [{e[:-1]: c for e, c in d.items()} for d in dicts]
        bps = _autoreduce(_buchberger(dicts, order, p, p), order, p)
        basis = _Basis(ring, order, bps)
        result = Ideal(ring, basis.polys)
        result._cache[order] = basis
        return result

    def intersect(self, other):
        """Intersection via a homotopy variable: t*I + (1-t)*J, eliminate t."""
        if other.ring != self.ring:
            raise ValueError("intersection requires a common ring")
        (tname,) = fresh_names(self.ring, ["t"])
        big = self.ring.extended([tname])
        t = big.variable(big.n - 1)
        gens = [t * embed(g, big) for g in self.gens]
        one_minus_t = big.one() - t
        gens += [one_minus_t * embed(g, big) for g in other.gens]
        return Ideal(big, gens).eliminate([big.n - 1])

    def colon(self, g):
        """The exact ideal quotient by a single nonzero polynomial."""
        if not isinstance(g, Polynomial):
            g = self.ring.constant(g)
        if g.is_zero():
            raise PreconditionError("colon by the zero polynomial")
        meet = self.intersect(Ideal(self.ring, [g]))
        return Ideal(self.ring, [exact_quotient(h, g) for h in meet.gens])

    def colon_ideal(self, other):
        """Quotient by an ideal: intersect the quotients by its generators."""
        if other.ring != self.ring:
            raise ValueError("colon requires a common ring")
        if other.is_zero():
            return Ideal(self.ring, [self.ring.one()])
        out = None
        for g in other.gens:
            q = self.colon(g)
            out = q if out is None else out.intersect(q)
        return out

    def product(self, other):
        if other.ring != self.ring:
            raise ValueError("product requires a common ring")
        return Ideal(
            self.ring, [a * b for a in self.gens for b in other.gens]
        )


def _divide_out(coeffs, i):
    """A raw dict divided by the largest power of variable i that divides it."""
    k = min(e[i] for e in coeffs)
    if not k:
        return coeffs
    return {e[:i] + (e[i] - k,) + e[i + 1 :]: c for e, c in coeffs.items()}
