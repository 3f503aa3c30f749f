import pathlib
from fractions import Fraction

import pytest
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from monoideal import FieldSpec, Ideal, RingContext, parse_polynomial

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def qq_xy():
    return RingContext(FieldSpec(0), ("x", "y"))


@pytest.fixture
def qq_xyz():
    return RingContext(FieldSpec(0), ("x", "y", "z"))


def fixture_text(name):
    return (FIXTURES / name).read_text()


def poly(ring, text):
    return parse_polynomial(text, ring)


def sympy_rank(rows, field):
    """Reference rank: sympy's sparse DomainMatrix over QQ or GF(p)."""
    p = field.characteristic
    K = GF(p) if p else QQ
    entries = {}
    for i, row in enumerate(rows):
        converted = {}
        for c, v in row.items():
            v = Fraction(v)
            x = K(v.numerator) / K(v.denominator)
            if x:
                converted[c] = x
        if converted:
            entries[i] = converted
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    return DomainMatrix(entries, (len(rows), ncols), K).rank()


def random_binomial_ideal(ring, rng):
    """Pure powers plus two same-degree binomials with random coefficients."""
    names = ring.variables
    gens = [f"{v}^{rng.randint(2, 3)}" for v in names]
    for _ in range(2):
        deg = rng.randint(2, 3)
        a = b = ""
        while a == b:
            a, b = ("*".join(sorted(rng.choices(names, k=deg))) for _ in range(2))
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4))
        gens.append(f"{a} - ({c})*{b}")
    return Ideal(ring, [poly(ring, g) for g in gens])
