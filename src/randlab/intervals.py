"""Exact rational intervals, finite unions, and Lebesgue measure.

Endpoints are `fractions.Fraction`s; there is no rounding anywhere in this
module.  Open/closed endpoint flags are carried explicitly: measure ignores
endpoints, membership queries must not.  The hot order checks compare ints,
not Fractions: an interval's lo <= hi and `normalize_union`'s canonical check
cross-multiply numerators and denominators, and `parse_interval` builds both
endpoints from the integers that one pattern matched.  A canonical union is
sorted and disjoint, so its membership queries (`contains`,
`witness_containing`, `disjoint_from_interval`) bisect its parts by their
left ends in place of scanning them.

The Cantor-space helpers list {0,1}^n and {0,1}^{<=d} in one order each
(`bit_strings`, `tree_strings`) and write rationals as ints over one
denominator (`over_lcm`); `_product_level` is the native level of a product
form, read through `CylinderMeasure.level` and `Martingale.level`, and
`_unbalanced` compares two such levels for additivity or fairness.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, repeat
from operator import add, attrgetter, itemgetter, mul, ne
from typing import Any, Iterable, NoReturn, Optional, Sequence

from .errors import ParseError

Rational = Fraction

_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")
# a whole "[p/q,r/s)" string: the brackets and the four integers (q and s
# may be absent); \s and \d match what str.strip and int read
_INTERVAL = re.compile(
    rf"\s*([\[(])\s*{_RATIONAL.pattern}\s*,\s*{_RATIONAL.pattern}\s*([\])])\s*"
)
_LO = attrgetter("lo")
_INDEX_TEXT = re.compile(r"-?[0-9]+")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer) into a Fraction; no decimal forms.

    Each integer is read once, by `int`, which accepts the same Unicode
    decimal digits that the pattern's digit class matches."""
    if not isinstance(text, str):
        raise ParseError(f'bad rational {text!r}: expected a "p/q" string')
    m = _RATIONAL.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad rational {text!r}: expected p/q")
    p, q = m.groups()
    try:
        return Fraction(int(p), int(q or 1))
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {text!r}: zero denominator") from exc


def _as_index(value: Any) -> Optional[int]:
    """`value` as an int when it is an int (not a bool) or a string of ASCII
    digits with at most a leading minus, else None."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INDEX_TEXT.fullmatch(value):
        return int(value)
    return None


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q" in lowest terms (denominator always present)."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True, order=False)
class RationalInterval:
    """An interval with exact rational endpoints and explicit openness flags.

    lo <= hi always; lo == hi (a point) is allowed only when both endpoints
    are closed.
    """

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        d = _cross(self.lo, self.hi)
        if d > 0:
            raise ValueError(f"lo > hi: {self.lo} > {self.hi}")
        if d == 0 and (self.lo_open or self.hi_open):
            raise ValueError("degenerate interval must be closed on both ends")

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction) -> bool:
        if q == self.lo:
            return not self.lo_open
        if q == self.hi:
            return not self.hi_open
        return self.lo < q < self.hi

    def contains_interval(self, other: "RationalInterval") -> bool:
        """Whether every point of `other` lies in `self`."""
        lo_ok = self.lo < other.lo or (
            self.lo == other.lo and (not self.lo_open or other.lo_open)
        )
        hi_ok = other.hi < self.hi or (
            other.hi == self.hi and (not self.hi_open or other.hi_open)
        )
        return lo_ok and hi_ok

    def disjoint_from(self, other: "RationalInterval") -> bool:
        """Whether the two intervals share no point."""
        if self.hi < other.lo or other.hi < self.lo:
            return True
        if self.hi == other.lo:
            return self.hi_open or other.lo_open
        if other.hi == self.lo:
            return other.hi_open or self.lo_open
        return False

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{format_rational(self.lo)},{format_rational(self.hi)}{rb}"


def _cross(x: Fraction, y: Fraction) -> int:
    """An int with the sign of x - y, by cross-multiplication."""
    return x.numerator * y.denominator - y.numerator * x.denominator


def parse_interval(text: str) -> RationalInterval:
    """Parse "[lo,hi)" style interval strings; brackets encode openness.

    One pattern reads the whole string, and each endpoint is built from the
    integers it matched."""
    m = _INTERVAL.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        _refuse_interval(text)
    lb, p, q, r, s, rb = m.groups()
    q, s = int(q or 1), int(s or 1)
    if not (q and s):
        _refuse_interval(text)
    return RationalInterval(Fraction(int(p), q), Fraction(int(r), s), lb == "(", rb == ")")


def _refuse_interval(text: Any) -> NoReturn:
    """Raise the ParseError that says what is wrong with a value that
    `parse_interval` refuses: not a string, no brackets or not one comma
    between them, or the first endpoint that `parse_rational` refuses."""
    if not isinstance(text, str):
        raise ParseError(f'bad interval {text!r}: expected a "[lo,hi)" string')
    s = text.strip()
    body = s[1:-1].split(",")
    if len(s) < 2 or s[0] not in "[(" or s[-1] not in ")]" or len(body) != 2:
        raise ParseError(f"bad interval {text!r}")
    for part in body:
        parse_rational(part)  # raises for the first endpoint it refuses
    raise ParseError(f"bad interval {text!r}")


def format_interval(iv: RationalInterval) -> str:
    return str(iv)


@dataclass(frozen=True)
class IntervalUnion:
    """A canonical finite union: parts sorted, pairwise disjoint, non-touching."""

    parts: tuple[RationalInterval, ...]

    @property
    def measure(self) -> Fraction:
        ends, den = over_lcm(q for p in self.parts for q in (p.lo, p.hi))
        return Fraction(sum(ends[1::2]) - sum(ends[::2]), den)

    @property
    def is_empty(self) -> bool:
        return not self.parts

    # The parts' left ends strictly increase, and a part ends before the
    # next one starts or at an end both leave open.  So the last part that
    # starts at or left of a point is the only part that can hold it, and
    # the parts that meet an interval are that part for its left end and
    # those after it that start at or left of its right end.

    def _last_starting_by(self, x: Fraction) -> int:
        """The index of the last part whose lo is <= x; -1 for none."""
        return bisect_right(self.parts, x, key=_LO) - 1

    def contains(self, q: Fraction) -> bool:
        i = self._last_starting_by(q)
        return i >= 0 and self.parts[i].contains(q)

    def witness_containing(self, iv: RationalInterval) -> RationalInterval | None:
        """The part (if any) containing every point of `iv`."""
        i = self._last_starting_by(iv.lo)
        if i >= 0 and self.parts[i].contains_interval(iv):
            return self.parts[i]
        return None

    def disjoint_from_interval(self, iv: RationalInterval) -> bool:
        first = max(self._last_starting_by(iv.lo), 0)
        end = self._last_starting_by(iv.hi) + 1
        return all(p.disjoint_from(iv) for p in self.parts[first:end])

    def __str__(self) -> str:
        return " ∪ ".join(str(p) for p in self.parts) if self.parts else "∅"


EMPTY_UNION = IntervalUnion(parts=())


def normalize_union(intervals: Iterable[RationalInterval]) -> IntervalUnion:
    """Canonical disjoint sorted form covering exactly the same points.

    Idempotent and order-insensitive; touching intervals are merged whenever
    their set union is itself an interval.  Parts that are already canonical
    come back unchanged after one linear check.
    """
    parts = tuple(intervals)
    for a, b in zip(parts, parts[1:]):
        d = _cross(a.hi, b.lo)
        if d > 0 or d == 0 and not (a.hi_open and b.lo_open):
            return _components(parts, 1)
    return IntervalUnion(parts)


def dyadic_value(sigma: str) -> Fraction:
    """0.sigma as an exact rational (empty string -> 0)."""
    _check_bits(sigma)
    return Fraction(int(sigma, 2) if sigma else 0, 2 ** len(sigma))


def _check_bits(sigma: str) -> None:
    """Raise ParseError unless every character of sigma is 0 or 1."""
    if sigma.strip("01"):
        raise ParseError(f"bad bit string {sigma!r}")


def dyadic_cylinder(sigma: str) -> RationalInterval:
    """The half-open interval [0.sigma, 0.sigma + 2^{-|sigma|})."""
    lo = dyadic_value(sigma)
    return RationalInterval(lo, lo + Fraction(1, 2 ** len(sigma)), hi_open=True)


def bit_strings(n: int) -> list[str]:
    """{0,1}^n in lexicographic order, which is the left-to-right order of
    the length-n cylinders; [""] at n = 0."""
    return [format(i, f"0{n}b") for i in range(2**n)] if n else [""]


def bit_string(k: int, i: int) -> str:
    """The i-th string of bit_strings(k)."""
    return format(i, f"0{k}b") if k else ""


def tree_strings(depth: int) -> list[str]:
    """{0,1}^{<=depth} in heap order, bit_strings(0) + ... + bit_strings(depth):
    node h is bin(h + 1)[3:], its children are nodes 2h + 1 and 2h + 2 and
    its parent is node (h - 1) // 2; [] for a negative depth."""
    return [bin(h)[3:] for h in range(1, 2 ** (depth + 1))] if depth >= 0 else []


def over_lcm(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rationals as (ints, den): value i is ints[i]/den, where den is the
    lcm of their denominators (1 for no values)."""
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*{d for _, d in pairs})
    return [n * (den // d) for n, d in pairs], den


def _product_level(f0: int, f1: int, q: int, root: Fraction = Fraction(1)):
    """The native level of the product form σ ↦ root · f0^#0 · f1^#1 / q^|σ|
    (see `CylinderMeasure.level`): level k as (ints, den) in bit_strings(k)
    order, each child its parent's int times f0 or f1."""
    n, d = root.as_integer_ratio()

    def level(k: int) -> tuple[list[int], int]:
        if f0 == f1:
            return [n * f0**k] * 2**k, d * q**k
        ints = [n]
        for _ in range(k):
            children = [0] * (2 * len(ints))
            children[::2] = [x * f0 for x in ints]
            children[1::2] = [x * f1 for x in ints]
            ints = children
        return ints, d * q**k

    return level


def _unbalanced(
    parents: list[int], parent_den: int, children: list[int], den: int, factor: int = 1
) -> list[int]:
    """The indices i, in order, of the nodes of one level at which
    factor·parents[i]/parent_den differs from the sum of its two children,
    children[2i]/den + children[2i + 1]/den: for levels k and k + 1 as
    `level` gives them, the nodes where additivity (factor 1) or fairness
    (factor 2) fails, each compared in ints by cross-multiplying."""
    sums = map(add, children[::2], children[1::2])
    lhs = map(mul, parents, repeat(factor * den))
    return list(compress(count(), map(ne, lhs, map(mul, sums, repeat(parent_den)))))


def _with_level(read, level):
    """The cylinder function `read` carrying its native level (see
    `CylinderMeasure.level`)."""
    read.level = level
    return read


def coverage_at_least(
    unions: Sequence[IntervalUnion], threshold: int
) -> IntervalUnion:
    """Points lying in at least `threshold` of the given unions.

    One endpoint sweep, O(P log P) for P parts in all.  Parts are counted in
    place of unions, so each union is canonicalised first.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if threshold > len(unions):
        return EMPTY_UNION
    return _components(
        [p for u in unions for p in normalize_union(u.parts).parts], threshold
    )


def _components(parts: Sequence[RationalInterval], threshold: int) -> IntervalUnion:
    """The points lying in at least `threshold` of `parts`, as maximal runs.

    Coverage is constant on each open segment between consecutive endpoints
    and changes only by the parts that start or end at an endpoint; the
    endpoint itself is counted apart, so open/closed flags come out right.
    A run opens where the count reaches the threshold and closes where it
    drops, so the runs come out sorted, disjoint and non-touching.
    """
    # (scaled x, x, change of the count at x, change of the count right of
    # x), both changes measured from the count just left of x; x is scaled
    # to an integer over one common denominator, so the sort and the
    # grouping compare ints, not Fractions
    events: list[tuple[int, Fraction, int, int]] = []
    ends = over_lcm(q for p in parts for q in (p.lo, p.hi))[0]
    for p, lo, hi in zip(parts, ends[::2], ends[1::2]):
        if lo == hi:
            events.append((lo, p.lo, 1, 0))
        else:
            events.append((lo, p.lo, 0 if p.lo_open else 1, 1))
            events.append((hi, p.hi, -1 if p.hi_open else 0, -1))
    events.sort(key=itemgetter(0))
    runs: list[RationalInterval] = []
    run: tuple[Fraction, bool] | None = None  # (lo, lo_open) of the open run
    seg = 0
    i, n = 0, len(events)
    while i < n:
        key, x = events[i][:2]
        at = seg
        while i < n and events[i][0] == key:
            at += events[i][2]
            seg += events[i][3]
            i += 1
        if at >= threshold:
            run = run or (x, False)
            if seg < threshold:
                runs.append(RationalInterval(run[0], x, run[1], False))
                run = None
        else:
            if run:
                runs.append(RationalInterval(run[0], x, run[1], True))
            run = (x, True) if seg >= threshold else None
    return IntervalUnion(tuple(runs))
