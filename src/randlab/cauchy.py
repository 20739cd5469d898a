"""Computable reals as query-able Cauchy-name oracles.

A name is a total map n -> rational with the contract
|approx(k) - approx(n)| <= 2^{-n} for all k >= n.  Names are oracles, not
finite objects, so the same type carries scripted (non-computable) test
fixtures.  Comparison at finite precision is three-valued: INDISTINGUISHABLE
is a first-class verdict, never an error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .intervals import RationalInterval


class Comparison(enum.Enum):
    LESS = "LESS"
    GREATER = "GREATER"
    INDISTINGUISHABLE = "INDISTINGUISHABLE"


@dataclass(frozen=True)
class CauchyName:
    """A computable real presented by its approximation oracle.

    `exact` records a known rational value when the name has one; membership
    and boundary queries then become decidable (open endpoints matter).
    """

    approx: Callable[[int], Fraction]
    provenance: str = ""
    exact: Optional[Fraction] = None
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def at(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError(f"precision index {n} < 0")
        if n not in self._cache:
            self._cache[n] = self.approx(n)
        return self._cache[n]

    def window(self, n: int) -> RationalInterval:
        """The closed certified window [approx(n) - 2^{-n}, approx(n) + 2^{-n}]."""
        q = self.at(n)
        eps = Fraction(1, 2**n)
        return RationalInterval(q - eps, q + eps)


@dataclass(frozen=True)
class ModulusFunction:
    """Modulus of uniform continuity: |x-y| <= theta(eps) implies |f(x)-f(y)| <= eps."""

    theta: Callable[[Fraction], Fraction]

    def __call__(self, eps: Fraction) -> Fraction:
        val = self.theta(eps)
        if val <= 0:
            raise ValueError("modulus must be positive")
        return val


def const_name(q: Fraction) -> CauchyName:
    """The constant name of a rational."""
    return CauchyName(approx=lambda n: q, provenance=f"const({q})", exact=q)


def scripted_name(
    values: Sequence[Fraction],
    provenance: str = "scripted",
    exact: Optional[Fraction] = None,
) -> CauchyName:
    """A name from a finite script; past the declared bound the last value repeats."""
    vals = tuple(values)
    if not vals:
        raise ValueError("script must be non-empty")
    return CauchyName(
        approx=lambda n: vals[min(n, len(vals) - 1)],
        provenance=provenance,
        exact=exact,
    )


def add(x: CauchyName, y: CauchyName) -> CauchyName:
    """Sum name: result(n) = x(n+1) + y(n+1), restoring the 2^{-n} contract."""
    exact = x.exact + y.exact if x.exact is not None and y.exact is not None else None
    return CauchyName(
        approx=lambda n: x.at(n + 1) + y.at(n + 1),
        provenance=f"({x.provenance} + {y.provenance})",
        exact=exact,
    )


def sub(x: CauchyName, y: CauchyName) -> CauchyName:
    exact = x.exact - y.exact if x.exact is not None and y.exact is not None else None
    return CauchyName(
        approx=lambda n: x.at(n + 1) - y.at(n + 1),
        provenance=f"({x.provenance} - {y.provenance})",
        exact=exact,
    )


def ceil_log2(c: Fraction) -> int:
    """The least t >= 0 with 2^t >= c, for c > 0."""
    return (math.ceil(c) - 1).bit_length()


def mul(x: CauchyName, y: CauchyName) -> CauchyName:
    """Product name; precision is re-centered using approx(0)-based magnitude bounds.

    With C = |x(0)| + |y(0)| + 3 we have |x(m)y(m) - xy| <= C 2^{-m}, so
    querying both factors at m = n + 1 + ceil(log2 C) restores the contract.
    """
    shift = 1 + ceil_log2(abs(x.at(0)) + abs(y.at(0)) + 3)
    exact = x.exact * y.exact if x.exact is not None and y.exact is not None else None
    return CauchyName(
        approx=lambda n: x.at(n + shift) * y.at(n + shift),
        provenance=f"({x.provenance} * {y.provenance})",
        exact=exact,
    )


def compare_at(x: CauchyName, y: CauchyName, n: int) -> Comparison:
    """Three-valued comparison at precision n.

    LESS iff the 2^{-n} windows are separated with x below; GREATER
    symmetrically; INDISTINGUISHABLE when the windows overlap (equality of
    reals is undecidable, so equal names never separate).
    """
    xa, ya = x.at(n), y.at(n)  # each refuses a negative n
    eps = Fraction(1, 2**n)
    if xa + eps < ya - eps:
        return Comparison.LESS
    if ya + eps < xa - eps:
        return Comparison.GREATER
    return Comparison.INDISTINGUISHABLE
