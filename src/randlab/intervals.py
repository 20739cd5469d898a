"""Exact rational intervals, finite unions, and Lebesgue measure.

There is no rounding anywhere in this module.  Open/closed endpoint flags
are carried explicitly: measure ignores endpoints, membership queries must
not.  A `RationalInterval` has `Fraction` endpoints; an `IntervalUnion`
is always canonical and holds its ends as ints over their least common
denominator; `normalize_union`, `parse_union` and `coverage_at_least` build
it.  One pattern reads "[p/q,r/s)" into ints for the union decoder
`parse_union`, and `parse_interval` returns the one part of a one-string
union.  The canonical check, `measure`, the coverage sweep and the string
forms read those ints, and membership bisects them and cross-multiplies
them with the query; Fractions are built only where a value leaves a
union: `parts`, a witness, a measure.

The Cantor-space helpers list {0,1}^n in cylinder order (`bit_strings`) and
write rationals as ints over one denominator (`over_lcm`); `_product`
builds each product form, per-string read and native level, from its
factors, `_table` reads a table of masses or capitals, `_level` reads a
whole level of either, for `CylinderMeasure.level` and `Martingale.level`,
and `_unbalanced` compares two levels for additivity or fairness.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, count, groupby, repeat
from operator import add, itemgetter, mul, ne
from typing import Any, Iterable, NoReturn, Optional, Sequence

from .errors import ParseError

_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")
# a whole "[p/q,r/s)" string: the brackets and the four integers (q and s
# may be absent); \s and \d match what str.strip and int read
_INTERVAL = re.compile(
    rf"\s*([\[(])\s*{_RATIONAL.pattern}\s*,\s*{_RATIONAL.pattern}\s*([\])])\s*"
)
_INDEX_TEXT = re.compile(r"-?[0-9]+")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a plain integer) into a Fraction; no decimal forms.

    Each integer is read once, by `_int`, whose `int` accepts the same Unicode
    decimal digits that the pattern's digit class matches."""
    if not isinstance(text, str):
        raise ParseError(f'bad rational {text!r}: expected a "p/q" string')
    m = _RATIONAL.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad rational {text!r}: expected p/q")
    p, q = m.groups()
    try:
        return Fraction(_int(p, "bad rational"), _int(q or "1", "bad rational"))
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {text!r}: zero denominator") from exc


def _int(digits: str, name: str) -> int:
    """int(digits), or a ParseError naming `name` and int's digit limit."""
    try:
        return int(digits)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"{name}: an integer of more than {limit} digits") from exc


def _as_index(value: Any, name: str) -> Optional[int]:
    """`value` as an int when it is an int (not a bool) or a string of ASCII
    digits with at most a leading minus (read by `_int`), else None."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INDEX_TEXT.fullmatch(value):
        return _int(value, name)
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
        lo, hi = self.lo.as_integer_ratio(), self.hi.as_integer_ratio()
        _check_order(self.lo_open, *lo, *hi, self.hi_open)

    @property
    def length(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Fraction) -> bool:
        if q == self.lo:
            return not self.lo_open
        if q == self.hi:
            return not self.hi_open
        return self.lo < q < self.hi

    def __str__(self) -> str:
        lb = "(" if self.lo_open else "["
        rb = ")" if self.hi_open else "]"
        return f"{lb}{format_rational(self.lo)},{format_rational(self.hi)}{rb}"


def parse_interval(text: str) -> RationalInterval:
    """Parse "[lo,hi)" style interval strings; brackets encode openness: the
    one part of `parse_union([text])`."""
    (part,) = parse_union([text]).parts
    return part


def _interval_ints(text: Any) -> Optional[tuple[bool, int, int, int, int, bool]]:
    """A "[p/q,r/s)" string as (lo_open, p, q, r, s, hi_open), read by one
    pattern (q, s > 0; an absent one reads as 1); None for any other value."""
    m = _INTERVAL.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        return None
    lb, p, q, r, s, rb = m.groups()
    try:
        p, q, r, s = int(p), int(q or 1), int(r), int(s or 1)
    except ValueError:  # past int's digit limit, which _refuse_interval names
        return None
    return (lb == "(", p, q, r, s, rb == ")") if q and s else None


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


def over_lcm(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rationals as (ints, den): value i is ints[i]/den, where den is the
    lcm of their denominators (1 for no values)."""
    pairs = [v.as_integer_ratio() for v in values]
    den = math.lcm(*{d for _, d in pairs})
    return [n * (den // d) for n, d in pairs], den


@dataclass(frozen=True, repr=False, slots=True, kw_only=True)
class IntervalUnion:
    """A canonical finite union of intervals, held as ints over one
    denominator: parts sorted, pairwise disjoint, non-touching.

    `ends` lists lo₀, hi₀, lo₁, hi₁, … as ints over `den`, the least common
    denominator of the endpoints, and `opens` the open flag of each end, so
    equal sets give equal fields.  `normalize_union`, `parse_union` and
    `coverage_at_least` build it; the fields are kept as given, so a union
    built from them must already be canonical.  `parts` builds the
    `RationalInterval`s on demand.
    """

    ends: tuple[int, ...] = ()
    den: int = 1
    opens: tuple[bool, ...] = ()

    @property
    def parts(self) -> tuple[RationalInterval, ...]:
        return tuple(map(self._part, range(0, len(self.ends), 2)))

    def _part(self, j: int) -> RationalInterval:
        """The part whose lo is ends[j]."""
        e, o = self.ends, self.opens
        return RationalInterval(Fraction(e[j], self.den), Fraction(e[j + 1], self.den), o[j], o[j + 1])

    @property
    def measure(self) -> Fraction:
        return Fraction(sum(self.ends[1::2]) - sum(self.ends[::2]), self.den)

    @property
    def is_empty(self) -> bool:
        return not self.ends

    # In a canonical union the ends never decrease, and a part ends before
    # the next one starts or at an end both leave open.  So the last part
    # that starts at or left of a point is the only part that can hold it,
    # and the parts that meet an interval are that part for its left end and
    # those after it that start at or left of its right end.  An end e is
    # compared with a point n/d as e·d with n·den.

    def _scaled(self, q: Fraction) -> tuple[int, int]:
        """(n·den, d) for q = n/d."""
        n, d = q.as_integer_ratio()
        return n * self.den, d

    def _start_by(self, x: int, d: int) -> int:
        """The index in `ends` of the lo of the last part that starts at or
        left of x/(d·den), -2 for none."""
        return (bisect_right(self.ends, x, key=d.__mul__) - 1) // 2 * 2

    def contains(self, q: Fraction) -> bool:
        return self.witness_containing(RationalInterval(q, q)) is not None

    def witness_containing(self, iv: RationalInterval) -> RationalInterval | None:
        """The part (if any) containing every point of `iv`."""
        (a, b), (c, d) = self._scaled(iv.lo), self._scaled(iv.hi)
        j, e, o = self._start_by(a, b), self.ends, self.opens
        if j < 0:
            return None
        lo, hi = e[j] * b - a, e[j + 1] * d - c
        lo_ok = lo < 0 or not o[j] or iv.lo_open
        hi_ok = hi > 0 or hi == 0 and (not o[j + 1] or iv.hi_open)
        return self._part(j) if lo_ok and hi_ok else None

    def disjoint_from_interval(self, iv: RationalInterval) -> bool:
        (a, b), (c, d) = self._scaled(iv.lo), self._scaled(iv.hi)
        e, o = self.ends, self.opens
        for j in range(max(self._start_by(a, b), 0), self._start_by(c, d) + 2, 2):
            # part j meets iv where its hi reaches iv.lo and iv.hi reaches its lo
            hi, lo = e[j + 1] * b - a, c - e[j] * d
            if (hi > 0 or hi == 0 and not (o[j + 1] or iv.lo_open)) and (
                lo > 0 or lo == 0 and not (iv.hi_open or o[j])
            ):
                return False
        return True

    def strings(self) -> list[str]:
        """Each part as its "[p/q,r/s)" string, endpoints in lowest terms."""
        e, o, den = self.ends, self.opens, self.den
        return [f'{"[("[o[j]]}{_ratio(e[j], den)},{_ratio(e[j + 1], den)}{"])"[o[j + 1]]}'
                for j in range(0, len(e), 2)]

    def __str__(self) -> str:
        return " ∪ ".join(self.strings()) if self.ends else "∅"

    def __repr__(self) -> str:
        return f"IntervalUnion(parts={self.parts!r})"


def _ratio(n: int, den: int) -> str:
    """n/den as "p/q" in lowest terms."""
    g = math.gcd(n, den)
    return f"{n // g}/{den // g}"


EMPTY_UNION = IntervalUnion()


def normalize_union(intervals: Iterable[RationalInterval]) -> IntervalUnion:
    """Canonical disjoint sorted form covering exactly the same points.

    Idempotent and order-insensitive; touching intervals are merged whenever
    their set union is itself an interval.  Parts that are already canonical
    come back unchanged after one linear check.
    """
    parts = tuple(intervals)
    ends, den = over_lcm(q for p in parts for q in (p.lo, p.hi))
    return _canonical(ends, den, [f for p in parts for f in (p.lo_open, p.hi_open)])


def parse_union(texts: Iterable[Any]) -> IntervalUnion:
    """The canonical union of the intervals "[p/q,r/s)" that the strings
    write, read as ints.

    Each string is read by `_interval_ints`, and a string it refuses raises
    the ParseError of `_refuse_interval`.  Its lo <= hi is checked by
    cross-multiplying, with the ValueError of `RationalInterval` (the same
    `_check_order`).  The ends are scaled to the lcm of the denominators as
    written and reduced by one gcd; no Fraction is built."""
    nums, dens, opens = [], [], []
    for text in texts:
        v = _interval_ints(text)
        if v is None:
            _refuse_interval(text)
        _check_order(*v)
        lo_open, p, q, r, s, hi_open = v
        nums += p, r
        dens += q, s
        opens += lo_open, hi_open
    den = math.lcm(*set(dens))
    ends = [n * (den // d) for n, d in zip(nums, dens)]
    g = math.gcd(den, *ends)
    return _canonical([e // g for e in ends], den // g, opens)


def _check_order(lo_open: bool, p: int, q: int, r: int, s: int, hi_open: bool) -> None:
    """Raise ValueError where p/q > r/s, or p/q == r/s with an open end
    (q, s > 0)."""
    d = p * s - r * q
    if d > 0:
        raise ValueError(f"lo > hi: {Fraction(p, q)} > {Fraction(r, s)}")
    if d == 0 and (lo_open or hi_open):
        raise ValueError("degenerate interval must be closed on both ends")


def _canonical(ends: Sequence[int], den: int, opens: Sequence[bool]) -> IntervalUnion:
    """The canonical union of the parts with this int form: the parts as
    they are when each ends before the next starts (or both leave the end
    they share open), else their maximal runs."""
    for i in range(1, len(ends) - 1, 2):
        if ends[i] > ends[i + 1] or ends[i] == ends[i + 1] and not (opens[i] and opens[i + 1]):
            return _components(ends, den, opens, 1)
    return IntervalUnion(ends=tuple(ends), den=den, opens=tuple(opens))


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
    if n < 0:
        raise ValueError(f"string length {n} < 0")
    return [format(i, f"0{n}b") for i in range(2**n)] if n else [""]


def bit_string(k: int, i: int) -> str:
    """The i-th string of bit_strings(k)."""
    return format(i, f"0{k}b") if k else ""


def _product(f0: int, f1: int, q: int, root: Any = 1, counted: str = "1"):
    """The product form σ ↦ root · f0^#0 · f1^#1 / q^|σ|, root anything
    `Fraction` takes: a read counts the `counted` characters of σ (any other
    is the other bit) and builds one Fraction from ints once per count and
    length; its native level (see `_level`) is level k as (ints, den) in
    bit_strings(k) order, each child its parent's int times f0 or f1."""
    n, d = Fraction(root).as_integer_ratio()
    fc, fo = (f1, f0) if counted == "1" else (f0, f1)
    value = cache(lambda c, m: Fraction(n * fc**c * fo ** (m - c), d * q**m))

    def read(sigma: str) -> Fraction:
        return value(sigma.count(counted), len(sigma))

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

    return _with_level(read, level)


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
    """The cylinder function `read` carrying its native level (see `_level`)."""
    read.level = level
    return read


def _level(read, k: int, step: int = 1) -> tuple[list[int], int]:
    """Level k of the cylinder function `read` (a mass or a capital): its
    values at bit_strings(k)[::step] as (ints, den), the i-th ints[i]/den.

    The native level is the `level` attribute of `read` when there is one,
    so a `dataclasses.replace` copy reads its own callable's; it is sliced
    only for step > 1, so it must return a list no cache keeps.  Any other
    callable is called once per string, in order."""
    if k < 0:
        raise ValueError(f"level {k} < 0")
    native = getattr(read, "level", None)
    if native is None:
        # bit_strings(k)[::step] from their indices, formatted here: a
        # public helper called per string would be one traced span each
        strings = (format(i, f"0{k}b") for i in range(0, 2**k, step)) if k else [""]
        return over_lcm(map(read, strings))
    ints, den = native(k)
    return (ints[::step] if step > 1 else ints), den


def _table(table: dict[str, Any], missing: str):
    """The cylinder function that reads `table`: a string it lacks raises
    ParseError(f"{missing} {sigma!r}")."""

    def read(sigma: str) -> Any:
        if sigma in table:
            return table[sigma]
        raise ParseError(f"{missing} {sigma!r}")

    return read


def coverage_at_least(
    unions: Sequence[IntervalUnion], threshold: int
) -> IntervalUnion:
    """Points lying in at least `threshold` of the given unions.

    One endpoint sweep, O(P log P) for P parts in all.  Parts are counted in
    place of unions, which is the same count because each union is
    canonical: its parts are disjoint.  At threshold 1 this is the union of
    the unions, and parts that come in order and apart, as `_canonical`
    checks in one linear pass, are returned as they are, with no sweep.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if threshold > len(unions):
        return EMPTY_UNION
    den = math.lcm(*(u.den for u in unions))
    ends = [e * (den // u.den) for u in unions for e in u.ends]
    opens = [f for u in unions for f in u.opens]
    if threshold == 1:
        return _canonical(ends, den, opens)
    return _components(ends, den, opens, threshold)


def _components(ends: Sequence[int], den: int, opens: Sequence[bool], threshold: int) -> IntervalUnion:
    """The points lying in at least `threshold` of the parts with this int
    form, as maximal runs.

    Coverage is constant on each open segment between consecutive endpoints
    and changes only by the parts that start or end at an endpoint; the
    endpoint itself is counted apart, so open/closed flags come out right.
    A run opens where the count reaches the threshold and closes where it
    drops, so the runs come out sorted, disjoint and non-touching.
    """
    # (end, change of the count at the end, change of the count right of
    # it), both changes measured from the count just left of the end
    events: list[tuple[int, int, int]] = []
    for lo, hi, lo_open, hi_open in zip(ends[::2], ends[1::2], opens[::2], opens[1::2]):
        if lo == hi:
            events.append((lo, 1, 0))
        else:
            events.append((lo, 0 if lo_open else 1, 1))
            events.append((hi, -1 if hi_open else 0, -1))
    events.sort()
    runs: list[int] = []  # the runs' ends, and their open flags
    flags: list[bool] = []
    seg = 0
    for x, group in groupby(events, itemgetter(0)):
        left = seg >= threshold
        at = seg
        for _, at_x, right_of_x in group:
            at += at_x
            seg += right_of_x
        # a run ends or starts at x where x's cover differs from the cover
        # just left of x, and again where it differs from the cover right of
        # x; x is in the run exactly when x is covered
        covered = at >= threshold
        edges = (left != covered) + ((seg >= threshold) != covered)
        runs += [x] * edges
        flags += [not covered] * edges
    g = math.gcd(den, *runs)
    return IntervalUnion(ends=tuple(x // g for x in runs), den=den // g, opens=tuple(flags))
