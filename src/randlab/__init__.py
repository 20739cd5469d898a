"""randlab: a desk-scale lab for exact interval tests, cylinder measures,
certified function evaluation, and betting strategies.

Everything on the contract path is a stdlib Fraction; no floats.
"""

__version__ = "0.1.0"

from .intervals import (
    IntervalUnion,
    RationalInterval,
    dyadic_cylinder,
    format_rational,
    normalize_union,
    parse_interval,
    parse_rational,
)
from .cauchy import CauchyName, Comparison, ModulusFunction, const_name, scripted_name

__all__ = [
    "__version__",
    "IntervalUnion",
    "RationalInterval",
    "dyadic_cylinder",
    "format_rational",
    "normalize_union",
    "parse_interval",
    "parse_rational",
    "CauchyName",
    "Comparison",
    "ModulusFunction",
    "const_name",
    "scripted_name",
]
