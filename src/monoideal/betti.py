"""Graded Betti tables of cyclic quotients by exact Koszul strand homology.

For a homogeneous ideal, the (i, j) Betti number of the quotient is the
dimension of the degree-j strand homology of the Koszul complex on the
variables tensored with the quotient.  Graded pieces of the quotient are
coordinatized by the standard monomials of the initial ideal (grevlex);
multiplication maps come from normal forms against the reduced basis, and
homology dimensions reduce to exact matrix ranks.

Strand differentials are assembled directly as sparse ``{column: value}``
rows for ``linalg.rank``.  On monomial input they split by multidegree into
small +-1 blocks, which the sparse elimination never mixes.
"""

from __future__ import annotations

import itertools

from .errors import PreconditionError
from .groebner import Ideal
from .linalg import rank
from .monomial import MonomialIdeal
from .orders import TermOrder


class BettiTable:
    """Nonzero graded Betti numbers of a cyclic quotient R/I."""

    __slots__ = ("entries", "n_vars")

    def __init__(self, entries, n_vars):
        self.entries = {k: v for k, v in entries.items() if v}
        self.n_vars = n_vars

    def beta(self, i, j):
        return self.entries.get((i, j), 0)

    def total(self, i):
        return sum(v for (k, _), v in self.entries.items() if k == i)

    def totals(self):
        return [self.total(i) for i in range(self.projective_dimension() + 1)]

    def projective_dimension(self):
        return max((i for i, _ in self.entries), default=0)

    def regularity(self):
        return max((j - i for i, j in self.entries), default=0)

    def socle_degrees(self):
        """Degrees of top-column contributions, shifted back; with multiplicity."""
        n = self.n_vars
        out = []
        for (i, j), v in sorted(self.entries.items()):
            if i == n:
                out.extend([j - n] * v)
        return out

    def is_level(self):
        degs = {j for i, j in self.entries if i == self.n_vars}
        return len(degs) == 1

    def __eq__(self, other):
        return (
            isinstance(other, BettiTable)
            and self.entries == other.entries
            and self.n_vars == other.n_vars
        )

    def __str__(self):
        return format_table(self)


def graded_betti(I, max_degree=None):
    """Betti table of R/I for a homogeneous ideal I.

    For Artinian input the table is complete; otherwise ``max_degree`` caps
    the internal degree j and is required.
    """
    ring = I.ring
    n = ring.n
    for g in I.gens:
        if not g.is_homogeneous():
            raise PreconditionError(f"non-homogeneous generator {g}")
    order = TermOrder.grevlex(n)
    basis = I.groebner_basis(order)
    if basis and basis[0].is_constant():
        raise PreconditionError("the quotient by the unit ideal is zero")
    initial = MonomialIdeal(ring, [g.lead(order)[0] for g in basis])
    monomial_input = all(g.is_monomial() for g in basis)
    if initial.is_artinian():
        # every beta_ij with j > top + n is zero
        top = initial.power_gap() - 1
        max_degree = top + n if max_degree is None else min(max_degree, top + n)
    elif max_degree is None:
        raise PreconditionError(
            "a degree bound is required for non-Artinian input"
        )

    # graded pieces: standard monomials of the initial ideal per degree; they
    # form an order ideal, so every degree above an empty one is empty too
    std = []
    for d in range(max_degree + 1):
        std.append(initial.standard_monomials(d) if d == 0 or std[-1] else [])
    index = [{e: k for k, e in enumerate(mons)} for mons in std]

    # multiplication by x_l from degree d to d+1, as sparse columns
    def mult_column(l, d, k):
        e = std[d][k]
        up = e[:l] + (e[l] + 1,) + e[l + 1 :]
        tgt = index[d + 1]
        if up in tgt:
            return {tgt[up]: 1}
        if monomial_input:
            return {}
        nf = I.normal_form(ring.monomial(up), order)
        return {tgt[m]: c for m, c in nf.coeffs.items()}

    mult = {}

    def mult_map(l, d):
        got = mult.get((l, d))
        if got is None:
            got = mult[(l, d)] = [mult_column(l, d, k) for k in range(len(std[d]))]
        return got

    # rank of the strand differential (K_i)_j -> (K_{i-1})_j
    subsets = {i: list(itertools.combinations(range(n), i)) for i in range(n + 1)}
    rank_cache = {}

    def strand_rank(i, j):
        got = rank_cache.get((i, j))
        if got is not None:
            return got
        d = j - i
        if i < 1 or i > n or d < 0 or d >= max_degree or not std[d] or not std[d + 1]:
            return rank_cache.setdefault((i, j), 0)
        width = len(std[d + 1])
        # row of target (T, tk) is offset[T] + tk; column of source (S, k) is
        # its position in subsets[i] x std[d].  The faces of S differ and a
        # multiplication column has distinct targets, so no entry is hit twice.
        offset = {T: t * width for t, T in enumerate(subsets[i - 1])}
        rows = [{} for _ in range(len(offset) * width)]
        height = len(std[d])
        for s, S in enumerate(subsets[i]):
            faces = [
                (offset[S[:pos] + S[pos + 1 :]], -1 if pos % 2 else 1, mult_map(l, d))
                for pos, l in enumerate(S)
            ]
            for k in range(height):
                for base, sign, mult_l in faces:
                    for tk, c in mult_l[k].items():
                        rows[base + tk][s * height + k] = sign * c
        r = rank(rows, ring.field)
        return rank_cache.setdefault((i, j), r)

    entries = {}
    for j in range(max_degree + 1):
        for i in range(n + 1):
            d = j - i
            if d < 0 or d > max_degree:
                continue
            dim = len(subsets[i]) * len(std[d])
            if dim == 0:
                continue
            b = dim - strand_rank(i, j) - strand_rank(i + 1, j)
            if b:
                entries[(i, j)] = b
    return BettiTable(entries, n)


# ------------------------------------------------------------------ rendering


def format_table(t):
    """Text layout: column indices, a total row, then one row per shift.

    Zero cells print as '.', columns are right-aligned and single-space
    separated.
    """
    pd = t.projective_dimension()
    reg = t.regularity()
    cols = list(range(pd + 1))
    body = [[str(t.total(i)) for i in cols]]
    for d in range(reg + 1):
        body.append(
            [str(t.beta(i, i + d)) if t.beta(i, i + d) else "." for i in cols]
        )
    labels = ["total:"] + [f"{d}:" for d in range(reg + 1)]
    widths = [
        max(len(str(cols[i])), max(len(row[i]) for row in body))
        for i in range(len(cols))
    ]
    lw = max(len(s) for s in labels)
    lines = [
        " " * lw + " " + " ".join(str(c).rjust(widths[i]) for i, c in enumerate(cols))
    ]
    for label, row in zip(labels, body):
        lines.append(
            label.rjust(lw) + " " + " ".join(v.rjust(widths[i]) for i, v in enumerate(row))
        )
    return "\n".join(lines)


def machine_records(t):
    """One 'i j count' line per nonzero entry, sorted."""
    return [f"{i} {j} {v}" for (i, j), v in sorted(t.entries.items())]
