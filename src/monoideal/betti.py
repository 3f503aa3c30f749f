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
monomials of degree j; no d_1 is eliminated.  Every other strand is cut
down before it is assembled, by algebraic discrete Morse theory (Skoldberg,
Trans. AMS 358, 2006; Jollenbeck-Welker, Mem. AMS 197, 2009).  With low(u)
the first variable dividing u (n for u = 1) and e_S*u for e_S tensor u, the
matching pairs e_S*u with e_{S+m}*(u/x_m), where m is the first variable of
S and supp u together; their entry is the unit x_m*(u/x_m) = u.  It is
acyclic on K(x; R/I) in the grevlex standard-monomial basis, because every
normal-form term of a product is grevlex-smaller than the product.  Three
exact rules follow for strand (i, d), the map from the sources e_S*u with
|S| = i, deg u = d:

(a) rows: a source with S[0] > low(u) is skipped.  d_{i+1} of its partner
    e_{S+low(u)}*(u/x_low(u)) hits it with a unit and otherwise only faces
    that contain low(u) or grevlex-smaller monomials, so, as d_i d_{i+1} = 0,
    its row lies in the span of the kept rows.
(b) columns: a target column (T, w) with T[0] <= low(w) and x_{T[0]}*w
    standard is dropped.  The same triangularity makes d_{i-1} injective on
    the span of such columns, so the projection off them is injective on
    im d_i, which lies in ker d_{i-1}.
(c) counted rows: a kept source whose partner x_{S[0]}*u is standard and
    outside the support of every normal-form column of degree d counts 1
    and is not assembled, since after (a) and (b) no other row has an entry
    in the partner's column (S - S[0], x_{S[0]}*u).

The rank of d_i is that count plus the rank of the rows left, over every
field and on one code path.  On monomial input there are no normal forms,
so (c) takes every matched row and only the unmatched cells are ranked;
their rows split by multidegree into small +-1 blocks, which the sparse
elimination never mixes.  The rows left are sparse ``{column: value}`` rows
in the working form of ``linalg.rank``, which takes them as given.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, lcm

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
    # cells[d][k] = (low, units, cols) describes u = std[d][k]: low is the
    # first variable dividing u (n for u = 1), bit l of units says that x_l*u
    # is standard, and cols[l] is the image of u under x_l in the coordinates
    # of std[d+1], as (position, value) pairs, and cols[n + l] its negative.
    # support[d] holds the positions of std[d+1] that some normal-form column
    # of degree d has an entry at.  Normal forms vanish on monomial input and
    # in degrees past the top.
    D = sum(map(max, zip(*initial.min_gens)))  # 0 for the zero ideal
    cap = D if max_degree is None else min(max_degree, D)
    pieces = initial._pieces(cap)
    std = [list(next(pieces, ()))]  # no piece when cap < 0
    cells, support = [], []
    remainder = None if monomial_input else I._monomial_remainder(order)
    p = ring.field.characteristic
    for index in pieces:
        rem = remainder if index else None
        support.append(set())
        cells.append([_columns(u, index, rem, p, support[-1]) for u in std[-1]])
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
    subsets, faces = _koszul_faces(n)
    ranks = {}
    for d in range(max_degree):
        if not std[d] or not std[d + 1]:
            continue
        width = len(std[d + 1])
        # R/I is generated in degree 0, so d_1 maps onto (R/I)_j for j > 0
        ranks[(1, d + 1)] = width
        top = min(n, max_degree - d)
        if top < 2:
            continue
        # a strand with i >= 2 ends at j <= max_degree, so std[d + 2] was swept
        counted, rest = _critical(cells[d], support[d], cells[d + 1], n)
        for i in range(2, top + 1):
            # one row per source (S, k) that rules (a) and (c) leave, the image
            # of e_S tensor std[d][k] on the columns rule (b) leaves; the
            # target (T, tk) is column t * width + tk, T = subsets[i - 1][t].
            # The faces of S differ and a multiplication column has distinct
            # targets, so no entry is hit twice.  The rows are in rank's
            # working form.
            rows = []
            for S in subsets[i]:
                left = rest[S[0]]
                if not left:
                    continue
                fs = [(t * width, key) for t, key in faces[S]]
                for c in left:
                    rows.append({base + tk: v for base, key in fs for tk, v in c[key]})
            # C(n - 1 - m, i - 1) sources S have S[0] = m
            done = sum(comb(n - 1 - m, i - 1) * k for m, k in enumerate(counted))
            ranks[(i, i + d)] = done + rank(rows, ring.field)

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


@functools.cache
def _koszul_faces(n):
    """``subsets[i]``, the i-subsets S of range(n) in order, and for each S
    with i >= 2 the faces of e_S: (t, key) for the face subsets[i - 1][t]
    and the key of its column in a ``_critical`` cell.  Face 0 drops S[0],
    so rule (b) reads its column at T[0] = S[1]; face pos > 0 drops S[pos]
    with sign (-1)^pos."""
    subsets = {i: list(itertools.combinations(range(n), i)) for i in range(n + 1)}
    position = {T: t for i in subsets for t, T in enumerate(subsets[i])}
    faces = {
        S: [
            (position[S[:pos] + S[pos + 1 :]], n * (pos % 2) + l if pos else 2 * n + S[1])
            for pos, l in enumerate(S)
        ]
        for i in range(2, n + 1)
        for S in subsets[i]
    }
    return subsets, faces


def _columns(u, index, remainder, p, support):
    """``(low, units, cols)`` for one source monomial u: the first variable
    dividing u (n for u = 1), the bitmask of the l with x_l*u standard, and
    the images of u under each x_l, then their negatives.

    ``index`` gives the position of each standard monomial one degree above
    u.  A standard product x_l*u is a unit vector; any other is its normal
    form from ``remainder`` (``Ideal._monomial_remainder``), or empty when
    that is None because the normal form vanishes.  All the images share one
    positive scale, which over QQ clears their denominators and over GF(p)
    is 1.  Every value is in ``linalg.rank``'s working form: a nonzero int
    over QQ, in 1..p-1 over GF(p).  The negative of v is p - v, which is -v
    over QQ, where p is 0.  The positions a normal form has an entry at
    are added to ``support``.
    """
    n = len(u)
    ups = [u[:l] + (u[l] + 1,) + u[l + 1 :] for l in range(n)]
    nfs = [remainder(v) for v in ups if v not in index] if remainder else []
    scale = lcm(*(lam for _, lam in nfs))
    nfs = iter(nfs)
    out, neg = [], []
    units = 0
    for l, v in enumerate(ups):
        t = index.get(v)
        if t is not None:
            units |= 1 << l
            out.append(((t, scale),))
            neg.append(((t, p - scale),))
        elif not remainder:
            out.append(())
            neg.append(())
        else:
            r, lam = next(nfs)
            f = scale // lam
            col = [(index[e], c * f) for e, c in r.items()]
            support.update(t for t, _ in col)
            out.append(col)
            neg.append([(t, p - c) for t, c in col])
    for low, a in enumerate(u):
        if a:
            break
    else:
        low = n
    return low, units, out + neg


def _critical(sources, support, targets, n):
    """What the Morse matching leaves of the strands from degree d sources.

    ``sources`` and ``targets`` are the cells of degrees d and d + 1, and
    ``support`` the normal-form support of degree d.  A source e_S tensor u
    with S[0] = m is kept (rule a) when m <= low(u).  Returns ``counted[m]``,
    how many kept sources with S[0] = m rule (c) counts for each S: x_m*u is
    standard and outside ``support``.  ``rest[m]`` lists the other kept
    sources with a nonzero image, as column lists c restricted by rule (b):
    c[l] and c[n + l] are the image of x_l*u and its negative on the columns
    (T, w) with T[0] = m that rule (b) keeps, and c[2n + t] the image of
    x_m*u on those with T[0] = t.  Rule (b) drops (T, w) when T[0] <= low(w)
    and x_{T[0]}*w is standard.
    """
    # bit t of drop[tk]: rule (b) drops the column of std[d + 1][tk] under T[0] = t
    drop = [units & ((2 << low) - 1) for low, units, _ in targets]
    counted = [0] * n
    rest = [[] for _ in range(n)]
    for low, units, cols in sources:
        # no S with i >= 2 starts at n - 1
        for m in range(min(low + 1, n - 1)):
            if units >> m & 1 and cols[m][0][0] not in support:
                counted[m] += 1
                continue
            c = [()] * (3 * n)
            for l in range(m + 1, n):
                # a unit column x_l*u stays or goes whole; copy only what is cut
                if units >> l & 1 and not drop[cols[l][0][0]] >> m & 1:
                    c[l], c[n + l] = cols[l], cols[n + l]
                elif cols[l]:
                    c[l] = [e for e in cols[l] if not drop[e[0]] >> m & 1]
                    c[n + l] = [e for e in cols[n + l] if not drop[e[0]] >> m & 1]
                if cols[m]:
                    c[2 * n + l] = [e for e in cols[m] if not drop[e[0]] >> l & 1]
            if any(c):
                rest[m].append(c)
    return counted, rest


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
