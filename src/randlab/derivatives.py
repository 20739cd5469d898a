"""Slopes, finite-scale pseudo-derivative estimates, Denjoy-alternative classifier.

The limsup/liminf of slopes over rational pairs straddling a point is
truncated to a single reported scale h over a dyadic grid; shrinking h on the
same grid family can only tighten the estimate.  The true limits are
uncomputable, so UNRESOLVED is an honest verdict.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cauchy import CauchyName
from .errors import DegeneratePair, check_budget
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

    f is read through `MarkovFunction.grid` at each grid point some pair
    reads, as ints over one denominator (from its native runs, or one call
    per point); slopes are compared as (rise, gap) pairs of ints, one gap at
    a time, and only the two extremes become Fractions.
    """
    d = grid_denominator
    check_budget(d, "grid_denominator {}", "GRID_DENOMINATOR_BUDGET", GRID_DENOMINATOR_BUDGET)
    if h < Fraction(1, 2 ** (d + 2)):
        raise ValueError(
            f"scale h = {h} is below 2^-{d + 2}, a quarter step of the grid k/2^{d}"
        )
    size = 2**d
    w = z.window(d)
    lo_lim = max(Fraction(0), w.lo - h)
    hi_lim = min(Fraction(1), w.hi)

    a_first, a_last = math.ceil(lo_lim * size), math.floor(hi_lim * size)
    # b lies right of the window and within h of a
    b_min, b_span = math.ceil(w.lo * size), math.floor(h * size)
    # at most b_span partners per left point: bound the pairs before any f call
    pairs = max(0, a_last - a_first + 1) * b_span
    check_budget(
        pairs, "up to {} grid pairs", "PSEUDO_DERIVATIVE_PAIR_BUDGET", PSEUDO_DERIVATIVE_PAIR_BUDGET
    )
    # per gap g (in grid steps): the left ends a_first <= ka <= a_last whose
    # partner ka + g lies right of the window (>= b_min) and on the grid.
    # A partner is at most size and ka >= a_first >= 0, so no gap past
    # size - a_first has one: at most 2^d gaps are looked at, however large
    # h is
    spans = [
        (g, lo, hi)
        for g in range(1, min(b_span, size - a_first) + 1)
        for lo, hi in [(max(a_first, b_min - g), min(a_last, size - g))]
        if lo <= hi
    ]
    if not spans:
        raise ValueError(
            f"no pair of points of the grid k/2^{d} at most h = {h} apart "
            "straddles the point"
        )
    # a pair exists, so b_min <= a_last + 1: the pairs read every index from
    # the least left end to the greatest right end, with no gap
    first = min(lo for _, lo, _ in spans)
    last = max(g + hi for g, _, hi in spans)
    F, den = f.grid(size, range(first, last + 1))

    # a slope is a pair (rise over den, gap in grid steps); gaps are >= 0, so
    # two slopes compare by cross-multiplying ints, and (-1, 0) and (1, 0)
    # stand for -inf and +inf
    (hi_rise, hi_gap), (lo_rise, lo_gap) = (-1, 0), (1, 0)
    for g, lo, hi in spans:
        lo, hi = lo - first, hi - first + 1
        rises = list(map(operator.sub, F[lo + g : hi + g], F[lo:hi]))
        top, bottom = max(rises), min(rises)
        if top * hi_gap > hi_rise * g:
            hi_rise, hi_gap = top, g
        if bottom * lo_gap < lo_rise * g:
            lo_rise, lo_gap = bottom, g
    best_hi = Fraction(hi_rise * size, hi_gap * den)
    best_lo = Fraction(lo_rise * size, lo_gap * den)

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
