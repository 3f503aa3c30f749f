"""Monomial orders realized as integer sort keys.

A TermOrder is an ordered sequence of blocks; each block covers a subset of
the variable indices and compares its sub-vector by grevlex or lex.  Earlier
blocks dominate, so multi-block orders are elimination orders: any monomial
involving a front-block variable beats every monomial in later blocks only.

``order.key(exp)`` returns a flat tuple of ints; comparing keys with Python's
tuple comparison realizes the order.  Keys are additive in the exponent
vector, which makes every order here multiplicative (a > b implies ac > bc).
The key only sorts exponent tuples for output and checks; the Groebner engine
keys its terms by packed ints (``groebner._Packing``) that sort the same way.
"""

from __future__ import annotations

from functools import lru_cache

_KINDS = ("lex", "grevlex")


class TermOrder:
    """A total, multiplicative order on exponent vectors of fixed arity."""

    __slots__ = ("arity", "blocks", "_hash")

    def __init__(self, arity, blocks):
        if type(arity) is not int or arity < 1:
            raise ValueError(f"an order's arity must be an int >= 1, not {arity!r}")
        blocks = tuple((tuple(ix), kind) for ix, kind in blocks)
        seen = []
        for ix, kind in blocks:
            if kind not in _KINDS:
                raise ValueError(f"unknown block order kind {kind!r}")
            seen.extend(ix)
        # 0.0 or True would sort, compare and hash as 0 or 1
        if any(type(i) is not int for i in seen) or sorted(seen) != list(range(arity)):
            raise ValueError("blocks must partition the variable indices")
        self.arity = arity
        self.blocks = blocks
        # Orders key every basis cache; hashing the nested blocks once spares
        # each lookup the walk.
        self._hash = hash((arity, blocks))

    # -- constructors ----------------------------------------------------------

    @classmethod
    def lex(cls, arity):
        return cls(arity, [(range(arity), "lex")])

    # One shared instance per int arity (typed: True is not 1); orders are never
    # mutated, and every contains/normal_form/basis call without one asks for it.
    @classmethod
    @lru_cache(maxsize=None, typed=True)
    def grevlex(cls, arity):
        return cls(arity, [(range(arity), "grevlex")])

    @classmethod
    def elimination(cls, front, arity):
        """Grevlex block order eliminating the ``front`` indices (they come first)."""
        front = tuple(sorted(front))
        rest = tuple(i for i in range(arity) if i not in set(front))
        blocks = [(b, "grevlex") for b in (front, rest) if b]
        return cls(arity, blocks)

    # -- behaviour -------------------------------------------------------------

    def key(self, exp):
        """Per block: a lex block's entries in order; a grevlex block's
        degree, then its entries negated from the last variable back."""
        out = []
        for ix, kind in self.blocks:
            if kind == "grevlex":
                out.append(sum([exp[i] for i in ix]))
                out += [-exp[i] for i in reversed(ix)]
            else:
                out += [exp[i] for i in ix]
        return tuple(out)

    @property
    def kind(self):
        return "block" if len(self.blocks) > 1 else self.blocks[0][1]

    def compare(self, a, b):
        """-1, 0, or 1 as a <, =, > b.  Raises on arity mismatch."""
        if len(a) != self.arity or len(b) != self.arity:
            raise ValueError(
                f"exponent length mismatch: order arity {self.arity}, "
                f"got {len(a)} and {len(b)}"
            )
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and self.arity == other.arity
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if len(self.blocks) == 1:
            return f"TermOrder.{self.kind}({self.arity})"
        parts = " | ".join(
            f"{kind}{list(ix)}" for ix, kind in self.blocks
        )
        return f"TermOrder({self.arity}, {parts})"
