"""Monomial companions of polynomial ideals.

Compute the largest monomial subideal and the smallest monomial over-ideal
of an ideal in a polynomial ring over the rationals or a prime field, graded
Betti tables of the quotients, and the combinatorial structure (socles,
irreducible decomposition, equal-colon witnesses) of monomial ideals.
"""

from .betti import BettiTable, format_table, graded_betti
from .engine import (
    CharScanResult,
    char_scan,
    mono_oracle,
    mono_upper,
    mono_via_gb,
    mono_via_puv,
)
from .errors import InternalCheckError, MonoError, ParseError, PreconditionError
from .fields import FieldSpec
from .groebner import Ideal, divide, exact_quotient
from .monomial import (
    MonomialIdeal,
    SocleMatrix,
    mono_subideal_criterion,
    socle_matrix,
    socle_matrix_test,
)
from .orders import TermOrder
from .parse import parse_polynomial, parse_source
from .poly import Polynomial, RingContext, multi_homogenize

__all__ = [
    "BettiTable",
    "CharScanResult",
    "FieldSpec",
    "Ideal",
    "InternalCheckError",
    "MonoError",
    "MonomialIdeal",
    "ParseError",
    "Polynomial",
    "PreconditionError",
    "RingContext",
    "SocleMatrix",
    "TermOrder",
    "char_scan",
    "divide",
    "exact_quotient",
    "format_table",
    "graded_betti",
    "mono_oracle",
    "mono_subideal_criterion",
    "mono_upper",
    "mono_via_gb",
    "mono_via_puv",
    "multi_homogenize",
    "parse_polynomial",
    "parse_source",
    "socle_matrix",
    "socle_matrix_test",
]

__version__ = "0.1.0"
