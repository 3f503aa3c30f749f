"""Exact coefficient fields: arbitrary-precision rationals and prime fields.

Characteristic-0 elements are Python ints or ``Fraction``s (ints whenever the
value is integral); prime-field elements are ints reduced into ``[0, p)``.
No floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

MAX_CHARACTERISTIC = 2**31


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


@dataclass(frozen=True)
class FieldSpec:
    """A ground field: characteristic 0 means QQ, a prime p means GF(p)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if type(p) is not int or p and not (2 <= p < MAX_CHARACTERISTIC and is_prime(p)):
            raise ValueError(
                f"characteristic must be 0 or a prime below 2^31, got {p!r}"
            )

    def __str__(self):
        return "QQ" if self.characteristic == 0 else f"ZZ/{self.characteristic}"

    # -- element construction ------------------------------------------------

    def of(self, numerator, denominator=1):
        """Image of numerator/denominator in the field.

        Each is an int or a Fraction, tested by type, so a bool, a float or a
        string raises ValueError.  Raises ZeroDivisionError when the
        denominator vanishes in the field.
        """
        if type(numerator) not in (int, Fraction) or type(denominator) not in (int, Fraction):
            raise ValueError(
                f"{numerator!r}/{denominator!r} is not a ratio of ints or Fractions"
            )
        if type(numerator) is Fraction:
            numerator, denominator = numerator.numerator, numerator.denominator * denominator
        if type(denominator) is Fraction:
            numerator, denominator = numerator * denominator.denominator, denominator.numerator
        p = self.characteristic
        if p == 0:
            v = Fraction(numerator, denominator)
            return v.numerator if v.denominator == 1 else v
        d = denominator % p
        if d == 0:
            raise ZeroDivisionError(f"denominator {denominator} vanishes mod {p}")
        return numerator % p * pow(d, -1, p) % p
