"""Graded Betti tables of cyclic quotients by exact Koszul strand homology.

For a homogeneous ideal, the (i, j) Betti number of the quotient is the
dimension of the degree-j strand homology of the Koszul complex on the
variables tensored with the quotient.  Graded pieces of the quotient are
coordinatized by the standard monomials of the initial ideal (grevlex), and
homology dimensions reduce to exact matrix ranks.

One sweep up the degrees, ``monomial.standard_pieces`` over the initial
ideal, builds everything the ranks need: its pieces are the standard
monomials of each degree, and they give the top degree and every unit
column of the multiplication maps x_l*u.  A product that is not standard
needs a normal form against the reduced basis, and only on non-monomial
input in a degree that has standard monomials; one remainder function,
bound to the cached basis once per table, takes them all.  Columns hold
integers: over QQ the n columns of one source monomial share one positive
scale that clears their denominators, a change of source basis that moves
no rank.

The quotient is generated in degree 0, so d_1 maps onto every graded piece
of positive degree and its rank in degree j is the number of standard
monomials of degree j; no d_1 is eliminated.  Every other strand
differential is assembled as sparse ``{column: value}`` rows, one row per
source, in the working form of ``linalg.rank``, which takes them as given.
On monomial input they split by multidegree into small +-1 blocks, which
the sparse elimination never mixes.
"""

from __future__ import annotations

import itertools
from math import lcm

from .errors import PreconditionError
from .linalg import rank
from .monomial import MonomialIdeal
from .orders import TermOrder


class BettiTable:
    """Nonzero graded Betti numbers of a cyclic quotient R/I; ``cut`` says that
    a degree cap fell below the last degree where an entry may lie (not compared)."""

    __slots__ = ("entries", "n_vars", "cut")

    def __init__(self, entries, n_vars, cut=False):
        self.entries = {k: v for k, v in entries.items() if v}
        self.n_vars = n_vars
        self.cut = cut

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

    No entry lies past D, the degree of the lcm of in(I)'s minimal generators:
    by Taylor's resolution none of R/in(I) does, and beta_ij(R/I) <=
    beta_ij(R/in(I)).  The sweep stops at D, so the table is whole with no
    cap, Artinian or not.  ``max_degree`` is an optional cap on the internal
    degree j on every input; a cap below the last degree where an entry may
    lie sets ``cut``.
    """
    ring = I.ring
    n = ring.n
    for g in I.gens:
        if not g.is_homogeneous():
            raise PreconditionError(f"non-homogeneous generator {g}")
    order = TermOrder.grevlex(n)
    initial = MonomialIdeal(ring, I.leading_exponents(order))
    if initial.is_unit():
        raise PreconditionError("the quotient by the unit ideal is zero")
    # I is monomial exactly when it lies in its initial ideal, which holds
    # when every term of every generator does
    monomial_input = all(initial.contains_exp(e) for g in I.gens for e in g.coeffs)

    # The sweep.  std[d] lists the standard monomials of degree d, and
    # mult[d][k][l] is the image of std[d][k] under x_l in the coordinates
    # of std[d+1], as (position, value) pairs, and mult[d][k][n + l] its
    # negative.  Normal forms vanish on monomial input and in degrees past
    # the top.
    D = sum(map(max, zip(*initial.min_gens)))  # 0 for the zero ideal
    cap = D if max_degree is None else min(max_degree, D)
    pieces = initial._pieces(cap)
    std = [list(next(pieces, ()))]  # no piece when cap < 0
    mult = []
    remainder = None if monomial_input else I._monomial_remainder(order)
    p = ring.field.characteristic
    for index in pieces:
        rem = remainder if index else None
        mult.append([_columns(u, index, rem, p) for u in std[-1]])
        std.append(list(index))
    # past an empty degree, every beta_ij with j > top + n is zero
    last = len(std) - 2 + n if not std[-1] else D
    cut = max_degree is not None and max_degree < last
    max_degree = min(cap, last)
    # every degree above an empty one is empty too
    std.extend([] for _ in range(max_degree + 1 - len(std)))

    # ranks[(i, j)] is the rank of the strand differential (K_i)_j ->
    # (K_{i-1})_j.  It is zero unless 1 <= i <= n and the degrees d = j - i
    # and d + 1 both have standard monomials, so only those strands with
    # j <= max_degree are filled; the entries below read the rest as 0.
    subsets = {i: list(itertools.combinations(range(n), i)) for i in range(n + 1)}
    ranks = {}
    for d in range(max_degree):
        if not std[d] or not std[d + 1]:
            continue
        width = len(std[d + 1])
        # R/I is generated in degree 0, so d_1 maps onto (R/I)_j for j > 0
        ranks[(1, d + 1)] = width
        for i in range(2, min(n, max_degree - d) + 1):
            # one row per source (S, k), the image of e_S tensor std[d][k];
            # the target (T, tk) is column offset[T] + tk.  The faces of S
            # differ and a multiplication column has distinct targets, so no
            # entry is hit twice.  The rows are in rank's working form.
            offset = {T: t * width for t, T in enumerate(subsets[i - 1])}
            rows = []
            for S in subsets[i]:
                faces = [
                    (offset[S[:pos] + S[pos + 1 :]], n * (pos % 2) + l)
                    for pos, l in enumerate(S)
                ]
                for col_k in mult[d]:
                    rows.append(
                        {base + tk: v for base, l in faces for tk, v in col_k[l]}
                    )
            ranks[(i, i + d)] = rank(rows, ring.field)

    entries = {}
    for j in range(max_degree + 1):
        for i in range(n + 1):
            d = j - i
            if d < 0:
                continue
            dim = len(subsets[i]) * len(std[d])
            if dim == 0:
                continue
            b = dim - ranks.get((i, j), 0) - ranks.get((i + 1, j), 0)
            if b:
                entries[(i, j)] = b
    return BettiTable(entries, n, cut)


def _columns(u, index, remainder, p):
    """Images of one source monomial u under each x_l, then their negatives.

    ``index`` gives the position of each standard monomial one degree above
    u.  A standard product x_l*u is a unit vector; any other is its normal
    form from ``remainder`` (``Ideal._monomial_remainder``), or empty when
    that is None because the normal form vanishes.  All the images share one
    positive scale, which over QQ clears their denominators and over GF(p)
    is 1.  Every value is in ``linalg.rank``'s working form: a nonzero int
    over QQ, in 1..p-1 over GF(p).  The negative of v is p - v, which is -v
    over QQ, where p is 0.
    """
    ups = [u[:l] + (u[l] + 1,) + u[l + 1 :] for l in range(len(u))]
    nfs = [remainder(v) for v in ups if v not in index] if remainder else []
    scale = lcm(*(lam for _, lam in nfs))
    nfs = iter(nfs)
    out, neg = [], []
    for v in ups:
        t = index.get(v)
        if t is not None:
            out.append(((t, scale),))
            neg.append(((t, p - scale),))
        elif not remainder:
            out.append(())
            neg.append(())
        else:
            r, lam = next(nfs)
            f = scale // lam
            col = [(index[e], c * f) for e, c in r.items()]
            out.append(col)
            neg.append([(t, p - c) for t, c in col])
    return out + neg


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
