"""Groebner engine: division with remainder, Buchberger's algorithm,
elimination, saturation, intersection, and ideal quotients.

Coefficient arithmetic is exact everywhere.  One reduction loop, ``_nf``,
serves S-pair reduction, tail reduction, normal forms and membership: over
the rationals it runs fraction-free on integer-cleared polynomials, dividing
by content after each reduction; over a prime field everything stays
reduced mod p.  ``_buchberger`` returns a minimal basis (no lead divides
another, tails unreduced); ``_autoreduce`` tail-reduces it only where a
basis is returned or cached.  One routine, ``Ideal.eliminate``, contracts
to a subring and caches the contraction's reduced basis: the elements of the
elimination basis free of the dropped variables, kept as they are keyed.
Bayer's passes live in ``_saturated``: on homogeneous raw dicts, each
divides out one variable of the monomial (Bayer's trick) and hands the next
its minimal basis, still keyed.  ``Ideal.saturate`` homogenizes every input
by one extra variable h around them and tail-reduces only the final basis;
``_companion_free_leads`` runs them for ``engine.mono_via_gb`` and returns
only leads, so that route builds no saturated ideal.
``intersect`` eliminates a tag variable.
Pair pruning uses the coprime-lead and chain criteria in the standard
Gebauer-Moeller bookkeeping, with the normal (smallest lcm first) selection
strategy, so recomputations are bit-for-bit deterministic.  Seeds go in
inter-minimal: one whose lead an inserted lead divides goes in as its
remainder, if that is nonzero, so no pair is made for a redundant seed.

Inside the raw engine a term is held by its order key (``_Packing``): one
int, W bits a field with the top bit of each field a guard, that sorts as
the term order does; a product is a sum of keys.  A key is unkeyed to its
packed monomial only to test divisibility, one subtraction and mask, or to
take an lcm, so a basis element keeps its lead in both forms.  An ``Ideal``
caches a basis in this form only, as the pair (packing, elements).  Exponent
tuples appear only where polynomials and leads enter and leave (``_packed``,
``_polys``, ``Ideal``'s ``_remainder``, ``_monomial_remainder``, ``contains``
and ``saturate``, ``_companion_free_leads``); keyed dicts change packing in
``_moved`` alone.  ``Ideal._monomial_member`` takes no tuple at all: it
tests packed monomials of a grevlex packing wide enough for a given degree,
which is what the standard-monomial sweep of ``monomial.py`` runs on.
Packings come from ``_packing``, one per (order, width) among the last 64
used, so a layout's key closures are compiled once and a dict keyed by it
needs no move; ``_holding`` widens one to hold a degree.
A term whose key overflows its fields raises ``_Overflow``, and ``_fitted``
redoes the computation with fields twice as wide.  Every basis comes from
``_minimal_basis``, the one caller of ``_buchberger``, from its input's
width up (8 bits at first); a reduction that overflows runs on a wider copy.

Each critical pair carries the packed lcm of its leads and that lcm's key,
computed once when the pair is created.  Pruning reads the stored lcm, and
selection pops a heap of (lcm key, j, i) entries, skipping pairs pruned
since they were queued; ties on the lcm key go to the smaller (j, i).
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import lshift

from .errors import InternalCheckError, PreconditionError
from .orders import TermOrder
from .poly import Polynomial, embed, ev_divides, ev_sub, fresh_names

# ------------------------------------------------------------- packed monomials


class _Overflow(Exception):
    """A monomial's key does not fit the packing's fields."""


class _Packing:
    """Exponent vectors of one term order as ints with ``width``-bit fields.

    Field q is bits W*q to W*q + W - 1, and its top bit is the guard.  The
    blocks of the order fill the fields from the top down, so the first
    block is the most significant; a lex block puts its first variable
    highest, a grevlex block its first variable lowest.  A lex block's key
    is its own bits.  A grevlex block's key is the block times
    sum_j 2^(W*j), masked to the block: field j then holds
    e_1 + ... + e_(j+1), so the key's fields read (deg, e_1 + ... + e_(k-1),
    ..., e_1) from the top, which sorts as ``TermOrder.key``.

    A monomial is legal when every field of its key is below the guard.  The
    fields of a sum of two legal monomials then stay below 2^W, so nothing
    carries from one field into the next: its key is the sum of their keys,
    and a set guard bit of the key shows that it overflows.  Every monomial
    the engine makes is at most such a sum: a product in ``_nf``, a term
    e + lcm(a, b) - a of an S-polynomial (lcm(a, b) - a divides b), an lcm.
    So ``_nf`` checks each term's key as it pops it, and nothing else
    needs a check.
    """

    __slots__ = ("order", "width", "limit", "shifts", "guard", "key", "unkey", "unpack")

    def __init__(self, order, width):
        W = width
        pos = [0] * order.arity
        lex_mask = 0
        grevlex = []  # (block mask, multiplier) of each grevlex block
        at = 0
        for ix, kind in reversed(order.blocks):
            k = len(ix)
            for q, i in enumerate(ix if kind == "grevlex" else reversed(ix)):
                pos[i] = at + q
            mask = ((1 << W * k) - 1) << W * at
            if kind == "grevlex" and k > 1:
                grevlex.append((mask, sum(1 << W * q for q in range(k))))
            else:
                lex_mask |= mask
            at += k
        self.order = order
        self.width = W
        self.limit = (1 << W - 1) - 1
        self.shifts = tuple(W * q for q in pos)
        self.guard = sum(1 << W * q + W - 1 for q in range(at))
        self.key, self.unkey = _compile_key(W, lex_mask, grevlex)
        self.unpack = _compile_unpack(W, self.shifts)

    def pack(self, exp):
        """The packed int of an exponent tuple; raises ``_Overflow`` unless legal."""
        if exp and max(exp) > self.limit:
            raise _Overflow
        e = sum(map(lshift, exp, self.shifts))
        # Partial sums grow by at most the limit a field, so the first one
        # past the limit is still below 2^W and shows in its guard bit.
        if self.key(e) & self.guard:
            raise _Overflow
        return e

    def packed(self, coeffs):
        """The {order key: c} dict of an {exponent tuple: c} dict."""
        return {self.key(self.pack(e)): c for e, c in coeffs.items()}

    def unpacked(self, coeffs):
        """The {exponent tuple: c} dict of an {order key: c} dict."""
        return {self.unpack(self.unkey(k)): c for k, c in coeffs.items()}

    def lcm(self, a, b):
        """The lcm of two legal monomials: per field, a's where a >= b, else b's."""
        H = self.guard
        t = ((a | H) - b) & H
        return b ^ ((a ^ b) & (t - (t >> self.width - 1)))


def _compile_key(W, lex_mask, grevlex):
    """(key, unkey) of a layout; unkey inverts key on legal keys."""
    if len(grevlex) == 1 and not lex_mask:
        ((M, S),) = grevlex
        return (lambda e: e * S & M), (lambda k: k - (k << W & M))

    def key(e):
        out = e & lex_mask
        for M, S in grevlex:
            out |= (e & M) * S & M
        return out

    def unkey(k):
        out = k & lex_mask
        for M, _ in grevlex:
            s = k & M
            out |= s - (s << W & M)
        return out

    return key, unkey


def _compile_unpack(W, shifts):
    """The exponent tuple of a legal packed monomial of a layout."""
    k = len(shifts)
    if W == 8 and shifts == tuple(range(0, 8 * k, 8)):
        # variable i in byte i, as one grevlex block lays them out
        return lambda e: tuple(e.to_bytes(k, "little"))
    mask = (1 << W) - 1
    return lambda e: tuple(e >> s & mask for s in shifts)


_FIRST_WIDTH = 8


# _packing(order, width) is the engine's one source of packings, so a layout
# among the last 64 used is one object: its key closures are compiled once,
# and ``_moved`` and ``_rekeyed`` find it to be their source.
_packing = lru_cache(maxsize=64)(_Packing)


def _holding(pk, degree):
    """pk, or the packing of its order at the least doubled width whose fields
    hold every monomial of degree ``degree`` or less."""
    while degree > pk.limit:
        pk = _packing(pk.order, 2 * pk.width)
    return pk


def _fitted(pk, run):
    """``run(pk)``, redone with fields twice as wide while it overflows."""
    while True:
        try:
            return run(pk)
        except _Overflow:
            pk = _packing(pk.order, 2 * pk.width)


# ------------------------------------------------------------- raw machinery
#
# Inside this module a polynomial is a plain dict {order key: int}.
# Char 0 basis elements are primitive: integer coefficients, content 1,
# positive leading coefficient.  Char p basis elements are monic mod p.


class _BP:
    """A basis element.  ``coeffs`` is keyed by order key, ``klead`` is its
    largest key and ``lead`` that key unkeyed, the packed monomial that
    divisibility tests read.  ``tail`` holds (key, coefficient) of every
    term but the lead, the form in which ``_nf`` adds multiples of it."""

    __slots__ = ("coeffs", "lead", "lc", "klead", "tail")

    def __init__(self, coeffs, klead, order):
        self.coeffs = coeffs
        self.klead = klead
        self.lead = order.unkey(klead)
        self.lc = coeffs[klead]
        self.tail = [(k, c) for k, c in coeffs.items() if k != klead]


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


def _nf(work, basis, order, p):
    """Fraction-free remainder of the keyed dict ``work`` against ``basis``.

    ``work`` is consumed: it holds the pending terms, so a caller passes a
    dict of its own.  Returns (remainder, lam) with lam * input ==
    remainder modulo the ideal generated by the basis; lam is a positive
    int (always 1 in char p).  The remainder is keyed too, has no term
    divisible by any basis lead, and its terms come in descending order, so
    its first key is its lead.  ``order`` is the ``_Packing`` of every key
    involved.

    Keys add as monomials multiply: reducing the term at key k by an
    element adds k - klead to the key of each of its tail terms.  Each term
    is checked for overflow as it is popped.
    """
    unkey = order.unkey
    H = order.guard
    heap = [-k for k in work]
    heapq.heapify(heap)
    pop = heapq.heappop
    push = heapq.heappush
    r = {}
    lam = 1
    while heap:
        k = -pop(heap)
        c = work.pop(k, 0)
        if not c:
            continue
        if k & H:
            raise _Overflow
        u = unkey(k)
        for red in basis:
            if not (u - red.lead) & H:
                break
        else:
            r[k] = c
            continue
        kd = k - red.klead
        m = c
        if not p:
            g = gcd(red.lc, c)
            s = red.lc // g
            if s != 1:
                lam *= s
                for kw in work:
                    work[kw] *= s
                for kr in r:
                    r[kr] *= s
            m = c // g
        for ke, ce in red.tail:
            v = ke + kd
            old = work.get(v)
            if old is None:
                nv = -m * ce
                if p:
                    nv %= p
                if nv:
                    work[v] = nv
                    push(heap, -v)
            else:
                nv = old - m * ce
                if p:
                    nv %= p
                if nv:
                    work[v] = nv
                else:
                    del work[v]
    return r, lam


def _spoly(b1, b2, kl, p):
    """S-polynomial of two basis elements whose leads' lcm has key ``kl``.
    The leads cancel (m1 * lc1 == m2 * lc2), so it is built from the tails;
    each term's key is the sum of two legal keys, which ``_nf`` checks."""
    d1 = kl - b1.klead
    d2 = kl - b2.klead
    g = gcd(b1.lc, b2.lc)  # 1 over GF(p), where both leads are monic
    m1 = b2.lc // g
    m2 = b1.lc // g
    s = {k + d1: m1 * c for k, c in b1.tail}
    for k, c in b2.tail:
        v = k + d2
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

    ``P`` maps each live pair (i, j), i < j, to (order key, packed monomial)
    of its leads' lcm under ``order``.  Appends ``f`` to the basis and prunes
    ``P`` in place: the pairs the chain test kills are deleted, the others
    keep their order, and the new pairs (i, len(G) - 1) are inserted last.
    Returns (G, P).  The lcm row is ``_Packing.lcm`` written out, in the
    loop that groups it.
    """
    H = order.guard
    w = order.width - 1
    lmf = f.lead
    m = len(G)
    lf = []
    first = {}
    coprime = set()
    for i, b in enumerate(G):
        a = b.lead
        t = ((a | H) - lmf) & H
        L = lmf ^ ((a ^ lmf) & (t - (t >> w)))
        lf.append(L)
        if L not in first:
            first[L] = i
        if L == a + lmf:
            coprime.add(L)
    if P:
        dead = [
            ij
            for ij, (_, lij) in P.items()
            if not (lij - lmf) & H and lij != lf[ij[0]] and lij != lf[ij[1]]
        ]
        for ij in dead:
            del P[ij]
    # Of the new pairs with one lcm, only the first may survive, and none
    # does if any of them has coprime leads.  A proper divisor is a smaller
    # packed int, so sorting the ints visits the divisors of an lcm before
    # it, as sorting by the order would.
    minimal = []
    for L in sorted(first):
        for Lk in minimal:
            if not (L - Lk) & H:
                break
        else:
            minimal.append(L)
    key = order.key
    for L in minimal:
        if L not in coprime:
            P[first[L], m] = (key(L), L)
    G.append(f)
    return G, P


def _autoreduce(G, order, p):
    """The reduced basis of a minimal basis: reduce tails, sort descending."""
    out = []
    for i, b in enumerate(G):
        # no other lead divides b's, so the remainder keeps b's lead
        r, _ = _nf(dict(b.coeffs), G[:i] + G[i + 1 :], order, p)
        out.append(_BP(_normalized(r, b.klead, p), b.klead, order))
    out.sort(key=lambda b: b.klead, reverse=True)
    return out


def _buchberger(dicts, order, char, p):
    """Minimal basis of raw dicts over GF(p), or QQ if p is 0; char == p.

    ``order`` is the ``_Packing`` that keys the dicts; ``_nf`` raises
    ``_Overflow`` when a monomial leaves its fields.  Seeds go in by
    ascending lead; one whose lead an inserted lead divides is replaced by
    its remainder against the basis so far, if that is nonzero.  Each
    insertion runs ``_update`` and queues the pairs it made.
    """
    H = order.guard
    seed = []
    for d in dicts:
        if d:
            lead = max(d)
            seed.append(_BP(_normalized(d, lead, p), lead, order))
    # Ties on the lead go by the sorted terms.  Keys sort as the term order
    # does at every width, so the run does not depend on the width.
    seed.sort(key=lambda b: (b.klead, sorted(b.coeffs.items())))
    # P holds the live pairs; the heap holds (lcm key, j, i) for every pair
    # ever created and pops them in normal-strategy order.  A pruned pair
    # stays in the heap until popped and is then skipped: pairs are only
    # created with j the newest index, so it never comes back to life.
    G, P, heap = [], {}, []
    push = heapq.heappush

    def insert(b):
        _update(G, P, b, order)
        j = len(G) - 1
        for (i, jj), (k, _) in reversed(P.items()):
            if jj != j:
                break
            push(heap, (k, j, i))

    def insert_remainder(work):
        r, _ = _nf(work, G, order, p)
        if r:
            lead = next(iter(r))  # a remainder's terms come in descending order
            insert(_BP(_normalized(r, lead, p), lead, order))

    for b in seed:
        u = b.lead
        for a in G:
            if not (u - a.lead) & H:
                insert_remainder(dict(b.coeffs))
                break
        else:
            insert(b)
    while heap:
        _, j, i = heapq.heappop(heap)
        kl = P.pop((i, j), None)
        if kl is None:
            continue
        s = _spoly(G[i], G[j], kl[0], p)
        if s:
            insert_remainder(s)
    mins = []
    for b in sorted(G, key=lambda b: b.klead):
        u = b.lead
        for a in mins:
            if not (u - a.lead) & H:
                break
        else:
            mins.append(b)
    return mins


def _moved(dicts, src, dst):
    """Dicts keyed by ``src`` keyed by ``dst``, a packing of src's arity at
    least as wide (as they are if dst is src): unkey, move the fields whose
    shifts differ, key.  A key outside dst's fields raises ``_Overflow``; no
    key of one grevlex block does, as its top field, the degree, bounds all."""
    if dst is src:
        return dicts
    mask = (1 << src.width) - 1
    moves = [(s, (1 << t) - (1 << s)) for s, t in zip(src.shifts, dst.shifts) if s != t]
    unkey, key = src.unkey, dst.key

    def move(k):
        e = u = unkey(k)
        for s, step in moves:
            e += (u >> s & mask) * step
        return key(e)

    out = [{move(k): c for k, c in d.items()} for d in dicts]
    if any(k & dst.guard for d in out for k in d):
        raise _Overflow
    return out


def _rekeyed(bps, pk, wide):
    """Basis elements keyed by ``pk`` rekeyed by ``wide``; as they are if it is pk."""
    if wide is pk:
        return bps
    return [_BP(d, max(d), wide) for d in _moved([b.coeffs for b in bps], pk, wide)]


def _packed(dicts, order):
    """(keyed, pk): tuple dicts keyed by the narrowest packing of ``order`` that holds them."""
    return _fitted(_packing(order, _FIRST_WIDTH), lambda pk: ([pk.packed(d) for d in dicts], pk))


def _minimal_basis(dicts, src, order, p):
    """(G, pk): the minimal basis under ``order`` over GF(p), or QQ if p is 0,
    of integer dicts keyed by ``src``, keyed by the narrowest packing from
    src's width up that fits its run; the one call of ``_buchberger``."""
    pk = _packing(order, src.width)
    return _fitted(pk, lambda w: (_buchberger(_moved(dicts, src, w), w, p, p), w))


def _reduced(order, dicts, p):
    """(pk, bps): the reduced basis of integer tuple dicts under ``order`` over
    GF(p), or QQ if p is 0, keyed by ``pk``; the form an ``Ideal`` caches.  A
    tail reduction that overflows runs on a wider copy of the minimal basis."""
    G, pk = _minimal_basis(*_packed(dicts, order), order, p)
    return _fitted(pk, lambda w: (w, _autoreduce(_rekeyed(G, pk, w), w, p)))


def _saturated(dicts, mexp, p):
    """(keyed, pk): integer dicts keyed by ``pk`` that generate the saturation
    by x^mexp of the ideal the homogeneous integer tuple ``dicts`` generate,
    over GF(p), or QQ if p is 0.  One Bayer pass per variable x_i of mexp,
    under a grevlex order with x_i last: the minimal basis, each element
    divided by its largest x_i power, goes on keyed at the width the pass
    ended on.  Every element is homogeneous, so its lead carries its least
    x_i power, the one to divide by; x_i's exponent is the top field (the
    degree) less the next, so dividing subtracts from the top field alone."""
    n = len(mexp)
    support = [i for i in range(n) if mexp[i]]
    rest = [i for i in range(n) if not mexp[i]]
    dicts, pk = _packed(dicts, TermOrder.grevlex(n))
    for i in support:
        ahead = [k for k in support if k != i] + rest + [i]
        G, pk = _minimal_basis(dicts, pk, TermOrder(n, [(ahead, "grevlex")]), p)
        W, top = pk.width, pk.width * (n - 1)
        cut = [(b.klead >> top) - (b.klead >> top - W) % (1 << W) << top for b in G]
        dicts = [{k - a: c for k, c in b.coeffs.items()} if a else b.coeffs for b, a in zip(G, cut)]
    return dicts, pk


def _companion_free_leads(dicts, n, m, p):
    """The leads free of the companions y_(n+1)..y_m, cut to the first n
    variables, of the minimal basis under the companions-first elimination
    order of the saturation by y_(n+1)...y_m of the ideal that the
    homogeneous tuple ``dicts`` over m variables generate, over GF(p), or QQ
    if p is 0; a lead is free of them when its key lies below their fields."""
    mexp = (0,) * n + (1,) * (m - n)
    dicts, pk = _saturated([_clear_denominators(d)[0] for d in dicts], mexp, p)
    G, pk = _minimal_basis(dicts, pk, TermOrder.elimination(range(n, m), m), p)
    return [pk.unpack(b.lead)[:n] for b in G if b.klead < 1 << pk.width * n]


def _polys(ring, basis):
    """The monic polynomials of a cached basis (pk, bps), in its order."""
    pk, bps = basis
    field = ring.field
    polys = []
    for b in bps:
        coeffs = pk.unpacked(b.coeffs)
        if b.lc != 1:  # only over QQ: a basis over GF(p) is monic
            coeffs = {e: field.of(c, b.lc) for e, c in coeffs.items()}
        polys.append(Polynomial._raw(ring, coeffs))
    return tuple(polys)


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
    """An ideal given by generators, with cached reduced Groebner bases.

    The generators, and the other ideal of ``intersect``, ``colon_ideal``
    and ``product``, must belong to ``ring`` (``RingContext._own``).
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in map(ring._own, gens) if not g.is_zero())
        self._cache = {}
        self._grevlex = TermOrder.grevlex(ring.n)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"

    # -- bases ------------------------------------------------------------------

    def _basis(self, order=None):
        """The cached basis (pk, bps) under ``order`` (grevlex if None), built
        on a miss.  Only a miss checks the order's arity: an order of the
        wrong arity is never cached, so it still raises ValueError."""
        b = self._cache.get(order or self._grevlex)
        if b is None:
            order = _order_for(self.ring, order)
            dicts = [_clear_denominators(g.coeffs)[0] for g in self.gens]
            p = self.ring.field.characteristic
            b = self._cache[order] = _reduced(order, dicts, p)
        return b

    def groebner_basis(self, order=None):
        """The reduced Groebner basis: monic, tail-reduced, sorted descending."""
        return _polys(self.ring, self._basis(order))

    def leading_exponents(self, order=None):
        pk, bps = self._basis(order)
        return tuple(pk.unpack(b.lead) for b in bps)

    # -- membership ---------------------------------------------------------------

    def _cleared(self, f):
        """(ints, den): f's coefficients times den, all ints; f must be in the ring."""
        return _clear_denominators(self.ring._own(f).coeffs)

    def _remainder(self, ints, order):
        """(r, lam): the remainder r of the integer tuple dict ints against
        the reduced basis, an integer tuple dict in descending order, and a
        positive int lam with r == lam * ints modulo the ideal; lam is 1 over
        GF(p).  ``_nf`` runs on the cached basis; an overflow reruns it on a
        wider copy, so the cached basis keeps its width."""
        pk, bps = self._basis(order)
        p = self.ring.field.characteristic

        def run(w):
            r, lam = _nf(w.packed(ints), _rekeyed(bps, pk, w), w, p)
            return w.unpacked(r), lam

        return _fitted(pk, run)

    def _monomial_remainder(self, order):
        """The function e -> ``self._remainder({e: 1}, order)`` on exponent
        tuples, bound to the cached basis: it packs e once and runs ``_nf``
        on that basis, and an overflow goes to ``_remainder``, which widens."""
        pk, bps = self._basis(order)
        p = self.ring.field.characteristic

        def remainder(e):
            try:
                r, lam = _nf({pk.key(pk.pack(e)): 1}, bps, pk, p)
            except _Overflow:
                return self._remainder({e: 1}, order)
            return pk.unpacked(r), lam

        return remainder

    def _monomial_member(self, degree):
        """(pk, member): a grevlex packing whose fields hold every monomial of
        degree ``degree`` or less, and the function v -> ``self.contains(e)``
        on the packed monomials v = ``pk.pack(e)``.  ``member`` scans the
        leads as ``contains`` does and reduces by ``_nf`` on the cached basis,
        rekeyed by pk if pk is wider, so the cache keeps its width.  A grevlex
        reduction never raises a term's degree, so no term overflows."""
        pk, bps = self._basis()
        wide = _holding(pk, degree)
        bps = _rekeyed(bps, pk, wide)
        H, key = wide.guard, wide.key
        p = self.ring.field.characteristic

        def member(v):
            for b in bps:
                if not (v - b.lead) & H:
                    return not _nf({key(v): 1}, bps, wide, p)[0]
            return False

        return wide, member

    def normal_form(self, f, order=None):
        """Remainder of f against the reduced basis; zero iff f is a member."""
        ints, den = self._cleared(f)
        r, lam = self._remainder(ints, order)
        scale = den * lam
        field = self.ring.field
        return Polynomial._raw(self.ring, {e: field.of(c, scale) for e, c in r.items()})

    def contains(self, f, order=None):
        """Whether f lies in the ideal.

        ``f`` is a polynomial of the ideal's ring or the exponent vector of a
        monomial.  A vector is packed once and scanned against the basis
        leads: a monomial that no lead divides is its own nonzero normal
        form, so it is not a member and no reduction runs.  Otherwise it is
        reduced as it is, with no polynomial built; a vector that overflows
        the basis's packing goes to ``_remainder``.  A polynomial of another
        ring, or a vector of the wrong length or with a negative or non-int
        number, raises ``ValueError``.
        """
        if isinstance(f, Polynomial):
            return not self._remainder(self._cleared(f)[0], order)[0]
        e = self.ring._exponent(f)
        pk, bps = self._basis(order)
        p = self.ring.field.characteristic
        try:
            u = pk.pack(e)
            H = pk.guard
            for b in bps:
                if not (u - b.lead) & H:
                    break
            else:
                return False
            return not _nf({pk.key(u): 1}, bps, pk, p)[0]
        except _Overflow:
            return not self._remainder({e: 1}, order)[0]

    def is_zero(self):
        return not self.gens

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def equals(self, other):
        """Ideal equality via reduced-basis comparison; False for anything
        that is not an ideal of the same ring."""
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return False
        return self.groebner_basis() == other.groebner_basis()

    def plus(self, extra):
        return Ideal(self.ring, self.gens + tuple(extra))

    # -- elimination-based operations ------------------------------------------------

    def eliminate(self, drop, order=None):
        """Generators of the contraction to the subring without ``drop``.

        ``drop`` holds variable names or indices (``RingContext._index``),
        not every variable of the ring (``ValueError``); the result lives in
        the ring on the remaining variables.  ``order`` must have the ``drop``
        variables as its first block (default: ``TermOrder.elimination``).
        The result's generators are its reduced basis for the order's
        remaining blocks, and that basis is cached: the elements of the
        elimination basis free of ``drop``, kept as they are keyed.
        """
        ring = self.ring
        drop_ix = sorted(set(map(ring._index, drop)))
        if not drop_ix:
            return Ideal(ring, self.gens)
        if len(drop_ix) == ring.n:
            raise ValueError(f"cannot eliminate every variable of {ring}")
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
        # _Packing lays the first block out in the top fields, so an element
        # is free of the dropped variables (and, the order eliminating, so
        # is each term) exactly when its lead key lies below them; the other
        # blocks keep their fields at the width, so it is keyed for new_order.
        old_pk, old_bps = self._basis(order)
        top = 1 << old_pk.width * len(keep)
        pk = _packing(new_order, old_pk.width)
        return _seeded(new_ring, new_order, (pk, [b for b in old_bps if b.klead < top]))

    def saturate(self, m, order=None):
        """The saturation of the ideal by the monomial m (colon by all powers).

        ``m`` is a monomial or its exponent vector.  Every input is
        homogenized by a last variable h, later set to 1; no term of a
        homogeneous input carries h, so the passes compare its terms as they
        would without it.  Then it is saturated by each variable of m in turn
        (Bayer's trick, ``_saturated``); only the last pass's divided basis
        is unpacked and h dropped, and one ``_autoreduce`` runs, on the basis
        under ``order``.  The elements stay homogeneous, so h = 1 merges no
        terms.  The result's generators are its cached reduced basis for
        ``order``.  No route of the package calls this method: ``mono_via_gb``
        runs the passes on homogeneous input (``_companion_free_leads``).
        """
        ring = self.ring
        mexp = ring._exponent(m)
        order = _order_for(ring, order)
        p = ring.field.characteristic
        dicts = [_clear_denominators(g.coeffs)[0] for g in self.gens]
        tops = [max(map(sum, d)) for d in dicts]
        dicts = [{e + (t - sum(e),): c for e, c in d.items()} for d, t in zip(dicts, tops)]
        keyed, pk = _saturated(dicts, mexp + (0,), p)
        dicts = [{e[:-1]: c for e, c in pk.unpacked(d).items()} for d in keyed]
        return _seeded(ring, order, _reduced(order, dicts, p))

    def intersect(self, other):
        """Intersection via a homotopy variable: t*I + (1-t)*J, eliminate t."""
        self.ring._own(other)
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
        if self.ring._own(other).is_zero():
            return Ideal(self.ring, [self.ring.one()])
        out = None
        for g in other.gens:
            q = self.colon(g)
            out = q if out is None else out.intersect(q)
        return out

    def product(self, other):
        other = self.ring._own(other).gens
        return Ideal(self.ring, [a * b for a in self.gens for b in other])


def _seeded(ring, order, basis):
    """The ideal that the basis (pk, bps) generates, with it cached under ``order``."""
    result = Ideal(ring, _polys(ring, basis))
    result._cache[order] = basis
    return result
