"""Slopes, finite-scale pseudo-derivative estimates, Denjoy-alternative classifier.

The limsup/liminf of slopes over rational pairs straddling a point is
truncated to a single reported scale h over a dyadic grid; shrinking h on the
same grid family can only tighten the estimate.  The true limits are
uncomputable, so UNRESOLVED is an honest verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cauchy import CauchyName
from .errors import BudgetExceeded, DegeneratePair
from .markov import MarkovFunction

BLOWUP_THRESHOLD = Fraction(2**16)
GRID_DENOMINATOR_BUDGET = 14
PSEUDO_DERIVATIVE_PAIR_BUDGET = 2**16


def slope(f: MarkovFunction, a: Fraction, b: Fraction) -> Fraction:
    """S_f(a,b) = (f(a) - f(b)) / (a - b), exactly."""
    if a == b:
        raise DegeneratePair(f"a == b == {a}")
    if not (0 <= a <= 1 and 0 <= b <= 1):
        raise ValueError("slope endpoints must lie in [0,1]")
    return (f(a) - f(b)) / (a - b)


@dataclass(frozen=True)
class PseudoDerivativeEstimate:
    upper: Optional[Fraction]  # None iff upper_infinite
    lower: Optional[Fraction]  # None iff lower_infinite
    upper_infinite: bool
    lower_infinite: bool
    scale: Fraction
    grid_denominator: int


class DenjoyVerdict(enum.Enum):
    DIFFERENTIABLE = "DIFFERENTIABLE"
    FULL_OSCILLATION = "FULL_OSCILLATION"
    NEITHER = "NEITHER"
    UNRESOLVED = "UNRESOLVED"


def pseudo_derivative(
    f: MarkovFunction,
    z: CauchyName,
    h: Fraction,
    grid_denominator: int,
) -> PseudoDerivativeEstimate:
    """Max/min slope over dyadic grid pairs a <= z <= b with 0 < b - a <= h.

    The point is known only through its certified window at the grid's
    precision, so "a <= z <= b" means the pair straddles that window.
    """
    if grid_denominator > GRID_DENOMINATOR_BUDGET:
        raise ValueError(f"grid_denominator > {GRID_DENOMINATOR_BUDGET}")
    d = grid_denominator
    if h < Fraction(1, 2 ** (d + 2)):
        raise ValueError(
            f"scale h = {h} is below 2^-{d + 2}, a quarter step of the grid k/2^{d}"
        )
    step = Fraction(1, 2**d)
    w = z.window(d)
    lo_lim = max(Fraction(0), w.lo - h)
    hi_lim = min(Fraction(1), w.hi)

    best_hi: Optional[Fraction] = None
    best_lo: Optional[Fraction] = None
    a_first, a_last = math.ceil(lo_lim * 2**d), math.floor(hi_lim * 2**d)
    # b lies right of the window and within h of a
    b_min, b_span = math.ceil(w.lo * 2**d), math.floor(h * 2**d)
    # at most b_span partners per left point: bound the pairs before any f call
    pairs = max(0, a_last - a_first + 1) * b_span
    if pairs > PSEUDO_DERIVATIVE_PAIR_BUDGET:
        raise BudgetExceeded(
            f"up to {pairs} grid pairs > PSEUDO_DERIVATIVE_PAIR_BUDGET "
            f"({PSEUDO_DERIVATIVE_PAIR_BUDGET})"
        )
    fvals: dict[int, Fraction] = {}

    def fv(k: int) -> Fraction:
        if k not in fvals:
            fvals[k] = f(Fraction(k, 2**d))
        return fvals[k]

    for ka in range(a_first, a_last + 1):
        for kb in range(max(ka + 1, b_min), min(ka + b_span, 2**d) + 1):
            s = (fv(kb) - fv(ka)) / ((kb - ka) * step)
            if best_hi is None or s > best_hi:
                best_hi = s
            if best_lo is None or s < best_lo:
                best_lo = s
    if best_hi is None or best_lo is None:
        raise ValueError(
            f"no pair of points of the grid k/2^{d} at most h = {h} apart "
            "straddles the point"
        )

    up_inf = best_hi > BLOWUP_THRESHOLD
    lo_inf = best_lo < -BLOWUP_THRESHOLD
    return PseudoDerivativeEstimate(
        upper=None if up_inf else best_hi,
        lower=None if lo_inf else best_lo,
        upper_infinite=up_inf,
        lower_infinite=lo_inf,
        scale=h,
        grid_denominator=d,
    )


def classify_denjoy(e: PseudoDerivativeEstimate, tol: Fraction) -> DenjoyVerdict:
    """Denjoy-alternative classification at this scale.

    DIFFERENTIABLE: finite upper/lower within tol.  FULL_OSCILLATION: both
    flagged infinite.  NEITHER: exactly one infinite flag, or a finite
    opposite-sign spread (corner).  UNRESOLVED: finite same-sign spread wider
    than tol — the scale is too coarse to decide.
    """
    if e.upper_infinite and e.lower_infinite:
        return DenjoyVerdict.FULL_OSCILLATION
    if e.upper_infinite != e.lower_infinite:
        return DenjoyVerdict.NEITHER
    assert e.upper is not None and e.lower is not None
    if e.upper - e.lower <= tol:
        return DenjoyVerdict.DIFFERENTIABLE
    if e.upper > 0 > e.lower:
        return DenjoyVerdict.NEITHER
    return DenjoyVerdict.UNRESOLVED
