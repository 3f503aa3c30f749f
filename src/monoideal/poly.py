"""Sparse multivariate polynomials with exact coefficients.

Exponent vectors are plain tuples of nonnegative ints, one entry per ring
variable; a polynomial maps exponent vectors to nonzero coefficients.  All
values are immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, le, sub

from .errors import PreconditionError
from .fields import FieldSpec
from .orders import TermOrder

# ---------------------------------------------------------------- exponents


def ev_add(a, b):
    return tuple(map(add, a, b))


def ev_sub(a, b):
    return tuple(map(sub, a, b))


def ev_divides(a, b):
    """True when x^a divides x^b."""
    return all(map(le, a, b))


def ev_lcm(a, b):
    return tuple([x if x > y else y for x, y in zip(a, b)])


def ev_degree(a):
    return sum(a)


def ev_support(a):
    return tuple(i for i, e in enumerate(a) if e)


def ev_squarefree(a):
    return tuple(1 if e else 0 for e in a)


# ---------------------------------------------------------------- ring


@dataclass(frozen=True)
class RingContext:
    """A polynomial ring: coefficient field plus ordered variable names."""

    field: FieldSpec
    variables: tuple

    def __post_init__(self):
        names = tuple(self.variables)
        object.__setattr__(self, "variables", names)
        if not isinstance(self.field, FieldSpec):
            raise ValueError(f"a ring's field must be a FieldSpec, not {self.field!r}")
        ok = names and all(type(v) is str and v for v in names)
        if not ok or len(set(names)) != len(names):
            raise ValueError(f"a ring needs distinct non-empty variable names, not {names!r}")

    @property
    def n(self):
        return len(self.variables)

    def zero(self):
        return Polynomial._raw(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.field.of(c)
        return Polynomial._raw(self, {(0,) * self.n: c} if c else {})

    def _own(self, x):
        """``x`` when it is a polynomial, ideal or monomial ideal of this ring;
        raises ValueError for anything else.  The only ring-membership test."""
        ring = getattr(x, "ring", "no ring")
        if ring is not self and ring != self:
            raise ValueError(f"{x} of {ring} does not belong to {self}")
        return x

    def _index(self, i):
        """The index of variable ``i``, a name or an int 0 <= i < n; raises
        ValueError otherwise."""
        if isinstance(i, str):
            try:
                return self.variables.index(i)
            except ValueError:
                raise ValueError(f"unknown variable {i!r}") from None
        if type(i) is int and 0 <= i < self.n:
            return i
        raise ValueError(f"no variable of index {i} in {self}")

    def variable(self, i):
        """x_i, for a name or an index 0 <= i < n; raises ValueError otherwise."""
        e = [0] * self.n
        e[self._index(i)] = 1
        return Polynomial._raw(self, {tuple(e): self.field.of(1)})

    def monomial(self, exp, coeff=1):
        exp = self._exponent(exp)
        c = self.field.of(coeff)
        return Polynomial._raw(self, {exp: c} if c else {})

    def _exponent(self, exp):
        """The exponent tuple of ``exp``, an exponent vector of this ring (one
        int >= 0 per variable, so the sum is an int) or a monomial of it.
        Raises PreconditionError for any other polynomial of this ring, and
        ValueError for a polynomial of another ring or a bad vector."""
        try:
            exp = tuple(exp)
            bad = len(exp) != self.n or min(exp) < 0 or type(sum(exp)) is not int
        except TypeError:  # a polynomial, not a sequence, or a non-number entry
            bad = True
        if bad:
            if not isinstance(exp, Polynomial):
                raise ValueError(f"bad exponent vector {exp} for {self}")
            if not self._own(exp).is_monomial():
                raise PreconditionError(f"{exp} is not a monomial")
            (exp,) = exp.coeffs
        return exp

    def extended(self, extra_names):
        return RingContext(self.field, self.variables + tuple(extra_names))

    def dropped(self, indices):
        drop = set(map(self._index, indices))
        keep = [v for i, v in enumerate(self.variables) if i not in drop]
        return RingContext(self.field, tuple(keep))

    def __str__(self):
        return f"{self.field}[{','.join(self.variables)}]"


def fresh_names(ring, bases):
    """Names derived from ``bases`` guaranteed not to clash with ring variables."""
    used = set(ring.variables)
    out = []
    for b in bases:
        name = b
        while name in used:
            name = "_" + name
        used.add(name)
        out.append(name)
    return out


# ---------------------------------------------------------------- polynomial


def _monomial_str(ring, exp):
    parts = []
    for name, e in zip(ring.variables, exp):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


class Polynomial:
    """Immutable sparse polynomial over a RingContext.

    ``coeffs`` maps exponent tuples to nonzero field elements; the empty dict
    is the zero polynomial.  The dict must not be mutated.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=None):
        self.ring = ring
        out = {}
        for e, c in (coeffs or {}).items():
            e = ring._exponent(e)
            c = ring.field.of(c)
            if c:
                out[e] = c
        self.coeffs = out

    @classmethod
    def _raw(cls, ring, coeffs):
        p = object.__new__(cls)
        p.ring = ring
        p.coeffs = coeffs
        return p

    # -- queries --------------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def is_monomial(self):
        """Single power product (the unit coefficient is ignored)."""
        return len(self.coeffs) == 1

    def is_constant(self):
        return all(not any(e) for e in self.coeffs)

    def degree_in(self, i):
        i = self.ring._index(i)
        return max((e[i] for e in self.coeffs), default=0)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.coeffs}
        return len(degs) <= 1

    def terms(self, order=None):
        """Terms as (exponent, coefficient) pairs, descending in ``order``."""
        order = order or TermOrder.grevlex(self.ring.n)
        return sorted(self.coeffs.items(), key=lambda t: order.key(t[0]), reverse=True)

    def lead(self, order=None):
        """Leading (exponent, coefficient) under ``order`` (grevlex default)."""
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading term")
        order = order or TermOrder.grevlex(self.ring.n)
        e = max(self.coeffs, key=order.key)
        return e, self.coeffs[e]

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return self.ring._own(other)
        return self.ring.constant(other)

    def __add__(self, other):
        other = self._coerce(other)
        p = self.ring.field.characteristic
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if p:
                v %= p
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Polynomial._raw(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.characteristic
        if p:
            return Polynomial._raw(self.ring, {e: -c % p for e, c in self.coeffs.items()})
        return Polynomial._raw(self.ring, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        p = self.ring.field.characteristic
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = ev_add(e1, e2)
                v = out.get(e, 0) + c1 * c2
                if p:
                    v %= p
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Polynomial._raw(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if type(k) is not int or k < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        if k and len(self.coeffs) == 1:
            ((e, c),) = self.coeffs.items()
            p = self.ring.field.characteristic
            c = pow(c, k, p) if p else c**k
            return Polynomial._raw(self.ring, {tuple(k * a for a in e): c})
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in self.terms():
            mon = _monomial_str(self.ring, e)
            neg = self.ring.field.characteristic == 0 and c < 0
            mag = -c if neg else c
            if mon and mag == 1:
                body = mon
            elif mon:
                body = f"{mag}*{mon}"
            else:
                body = str(mag)
            if not bits:
                bits.append(f"-{body}" if neg else body)
            else:
                bits.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(bits)

    def __repr__(self):
        return f"<{self} over {self.ring}>"


# ---------------------------------------------------------------- maps


def multi_homogenize(f, ext_ring, coords=None):
    """Pad each term with companion-variable factors so each original
    variable x_i, i in ``coords``, has constant combined degree across all
    terms.

    ``coords`` are variable names or indices, all of them in order if None.
    ``ext_ring`` must be f's ring extended (``RingContext.extended``) by one
    fresh companion variable per index of ``coords``, in the same order, so
    over the same field; ValueError otherwise.
    """
    n = f.ring.n
    _extension(f, ext_ring)
    coords = range(n) if coords is None else tuple(map(f.ring._index, coords))
    if ext_ring.n != n + len(coords):
        raise ValueError("extension ring must append one companion per coordinate")
    d = [f.degree_in(i) for i in coords]
    out = {e + tuple(di - e[i] for di, i in zip(d, coords)): c for e, c in f.coeffs.items()}
    return Polynomial._raw(ext_ring, out)


def embed(f, big_ring):
    """View f inside ``big_ring``, which must be f's ring extended at the end
    (``RingContext.extended``); ValueError otherwise."""
    pad = (0,) * (_extension(f, big_ring).n - f.ring.n)
    return Polynomial._raw(big_ring, {e + pad: c for e, c in f.coeffs.items()})


def _extension(f, target):
    """``target`` when it is a ring whose field and first variables are those
    of f's ring; otherwise the ownership ValueError of ``RingContext._own``,
    naming that prefix of target, or target itself when it is no ring."""
    base = target
    if isinstance(target, RingContext):
        base = RingContext(target.field, target.variables[: f.ring.n])
    # _own compares by value, so a target that is no ring owns nothing
    RingContext._own(base, f)
    return target
