"""Exact ranks of sparse matrices, given as lists of ``{column: value}`` rows.

``rank(rows, field)`` takes rows whose values are any field elements: ints
or Fractions over the rationals, ints over GF(p), explicit zeros included.
It leaves the rows unchanged, also when several rows share one dict.  The
elimination works on rows in working form, nonzero ints over the rationals
and ints in 1..p-1 over GF(p).  One check over all the entries, made with
builtins, tells whether the matrix is in that form.  If it is, the rows go
to the elimination as given, and each is copied the first time it would be
written to; otherwise every row is copied into working form first.

One sparse elimination serves every field: modular over GF(p) with monic
pivot rows; fraction-free over the rationals, where a row scaled during
elimination is divided by its content, so the entries stay small exact
integers.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm


def _integral(row, p):
    """A copy of ``row`` in working form: its nonzero entries mod p, or over
    QQ scaled to integers."""
    if p:
        return {c: w for c, v in row.items() if (w := v % p)}
    dens = [v.denominator for v in row.values() if type(v) is not int]
    if not dens:
        return {c: v for c, v in row.items() if v}
    den = lcm(*dens)
    return {c: int(v * den) for c, v in row.items() if v}


def rank(rows, field):
    """Exact rank over ``field`` of sparse dict rows, which are left unchanged.

    Rows in working form are used as given and copied on first write, so a
    pivot row never written to is the caller's dict, only read.  Rows are
    taken sparsest first.  Each is reduced against the pivot rows found so
    far, as ``a*row - b*pivot`` with coprime ``a``, ``b``; what remains
    nonzero becomes a new pivot row, pivoting on a +-1 entry where there is
    one.
    """
    p = field.characteristic
    vals = list(chain.from_iterable(map(dict.values, rows)))
    given = vals and type(sum(vals)) is int and (
        0 < min(vals) and max(vals) < p if p else 0 not in vals
    )
    if not given:
        rows = [_integral(r, p) for r in rows]
    size = (lambda v: min(v, p - v)) if p else abs
    minus_one = p - 1 if p else -1
    # pivot k is zero in the columns of pivots 0..k-1, so reducing by pivots
    # in increasing k never brings back a column already cleared
    pivots = []
    index = {}  # pivot column -> k
    for row in sorted(filter(None, rows), key=len):
        caller = row if given else None
        todo = [index[c] for c in row if c in index]
        heapify(todo)
        while todo:
            col, piv = pivots[heappop(todo)]
            b = row.get(col)
            if b is None:
                continue
            g = gcd(piv[col], b)  # 1 over GF(p), where pivots are monic
            a, b = piv[col] // g, b // g
            if a != 1:
                row = {c: a * v for c, v in row.items()}
            elif row is caller:
                row = dict(row)
            for c, v in piv.items():
                if c not in row and c in index:
                    heappush(todo, index[c])
                w = row.get(c, 0) - b * v
                row[c] = w % p if p else w
                if not row[c]:
                    del row[c]
            if a != 1 and row:
                g = gcd(*row.values())
                row = {c: v // g for c, v in row.items()}
        if row:
            # the first entry of least size, found without sizing when it is +-1
            for col, v in row.items():
                if v == 1 or v == minus_one:
                    break
            else:
                col = min(row, key=lambda c: size(row[c]))
            s = pow(row[col], -1, p) if p else (-1 if row[col] < 0 else 1)
            if s != 1:
                row = {c: v * s % p if p else -v for c, v in row.items()}
            index[col] = len(pivots)
            pivots.append((col, row))
    return len(pivots)
