"""Computable martingales with exact fairness and the savings transform.

A martingale at desk scale is an exact rational table on all bit strings
within a depth budget, satisfying 2M(σ) = M(σ0) + M(σ1).

The savings transform, the violation search and the growth constants read
whole levels of capitals through `Martingale.level`, as ints over one
denominator; a savings result keeps its levels as int rows.

`check_fairness` reads whole levels too where `value_at` carries a native
`level` (the product forms of `intervals._product` and savings results),
comparing each level with the next in ints.  Any other callable is
walked depth first, 1-child first, three capital reads per node, stopping at
the first failure.  Both report the first failure in that walk's preorder;
they differ only on a negative capital (see `check_fairness`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Optional

from .errors import InvariantViolation, check_budget
from .intervals import _level, _product, _table, _unbalanced, _with_level, bit_string

FAIRNESS_DEPTH_BUDGET = 16


@dataclass(frozen=True)
class Martingale:
    name: str
    value_at: Callable[[str], Fraction]
    depth_budget: int = FAIRNESS_DEPTH_BUDGET

    def value(self, sigma: str) -> Fraction:
        if len(sigma) > self.depth_budget:
            # guarded here: value runs once per string
            check_budget(len(sigma), "|sigma| {}", "depth_budget", self.depth_budget)
        v = self.value_at(sigma)
        if v.numerator < 0:
            raise InvariantViolation(f"negative capital at {sigma!r}")
        return v

    def level(self, k: int) -> tuple[list[int], int]:
        """The capitals of bit_strings(k) as (ints, den), read by
        `intervals._level` from `value_at`, with the checks of `value`: k
        past the depth budget raises before any read, and a negative
        capital, at the first in level order, once the level is read."""
        check_budget(k, "|sigma| {}", "depth_budget", self.depth_budget)
        ints, den = _level(self.value_at, k)
        if min(ints) < 0:
            s = bit_string(k, next(i for i, v in enumerate(ints) if v < 0))
            raise InvariantViolation(f"negative capital at {s!r}")
        return ints, den

    @property
    def initial_capital(self) -> Fraction:
        return self.value("")


def constant_martingale(capital: Fraction = Fraction(1)) -> Martingale:
    return Martingale("constant", _product(1, 1, 1, capital))


def all_in_on_0() -> Martingale:
    """Bets everything on the next bit being 0; busts on the first 1:
    the capital is 2^#0 · 0^#1; any character other than "1" counts as a 0."""
    return Martingale("all_in_on_0", _product(2, 0, 1))


def split_bet(p: Fraction) -> Martingale:
    """Stakes fraction: M(σ0) = 2p·M(σ), M(σ1) = 2(1-p)·M(σ).

    For p = a/b the capital is the closed form (2a)^#0 · (2(b-a))^#1 / b^|σ|;
    any character other than "0" counts as a 1.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0,1]")
    win, lose, b = 2 * p.numerator, 2 * (p.denominator - p.numerator), p.denominator
    return Martingale(f"split_bet({p})", _product(win, lose, b, counted="0"))


def table_martingale(table: dict[str, Fraction], name: str = "table") -> Martingale:
    return Martingale(name, _table(table, f"table martingale {name!r} has no capital for"))


@dataclass(frozen=True)
class FairnessReport:
    ok: bool
    violation: Optional[str] = None


def check_fairness(m: Martingale, depth: int) -> FairnessReport:
    """2M(σ) = M(σ0) + M(σ1) exactly, for every σ with |σ| < depth; the
    report names the first σ that fails in the depth-first preorder that
    visits the 1-child before the 0-child.

    A martingale whose `value_at` has a native `level` is checked level by
    level (`_fairness_by_levels`); any other is walked depth first, three
    capital reads per node, stopping at the first failure.  On malformed
    input the two can differ: the level pass reads every capital to the
    depth, so a negative capital raises `InvariantViolation` (at the first
    in level order) where the walk may have returned a failure that it met
    before reading it.
    """
    check_budget(depth, "depth {}", "FAIRNESS_DEPTH_BUDGET", FAIRNESS_DEPTH_BUDGET)
    if depth <= 0:
        return FairnessReport(True)
    if hasattr(m.value_at, "level"):
        return _fairness_by_levels(m, depth)
    stack = [""]
    while stack:
        s = stack.pop()
        v, v0, v1 = m.value(s), m.value(s + "0"), m.value(s + "1")
        # 2·v = v0 + v1 over the product of the denominators, in ints
        (n, d), (n0, d0), (n1, d1) = (
            v.as_integer_ratio(), v0.as_integer_ratio(), v1.as_integer_ratio()
        )
        if 2 * n * d0 * d1 != (n0 * d1 + n1 * d0) * d:
            return _unfair(s, v, v0, v1)
        if len(s) + 1 < depth:
            stack.extend((s + "0", s + "1"))
    return FairnessReport(True)


def _unfair(s: str, v: Fraction, v0: Fraction, v1: Fraction) -> FairnessReport:
    return FairnessReport(False, f"fairness fails at {s!r}: 2·{v} != {v0} + {v1}")


_ONE_FIRST = str.maketrans("01", "10")


def _fairness_by_levels(m: Martingale, depth: int) -> FairnessReport:
    """`check_fairness` for depth >= 1 from levels 0..depth of m, two at a
    time.  The walk's first failure is the failing σ least by the key
    σ.translate(01→10): on one level the last failing node, across levels
    the least of those.  Past m's depth budget the walk reads the child of
    "1"·budget after checking only that node's ancestors, so it raises
    there unless one of them fails."""
    reach = min(depth, m.depth_budget)
    parents, parent_den = m.level(0)
    first = None  # (key, report) of the first failure so far
    for k in range(1, reach + 1):
        ints, den = m.level(k)
        bad = _unbalanced(parents, parent_den, ints, den, 2)
        if bad:
            i = bad[-1]
            s = bit_string(k - 1, i)
            key = s.translate(_ONE_FIRST)
            if first is None or key < first[0]:
                v0, v1 = Fraction(ints[2 * i], den), Fraction(ints[2 * i + 1], den)
                first = key, _unfair(s, Fraction(parents[i], parent_den), v0, v1)
        parents, parent_den = ints, den
    if reach < depth and (first is None or "1" in first[0]):
        m.value("1" * reach + "0")  # past the depth budget: raises
    return FairnessReport(True) if first is None else first[1]


@dataclass(frozen=True)
class CapitalTrace:
    capitals: tuple[Fraction, ...]
    running_max: tuple[Fraction, ...]


def capital_trace(m: Martingale, prefix: str) -> CapitalTrace:
    """Exact capital at each prefix length plus the running supremum."""
    caps = [m.value(prefix[:i]) for i in range(len(prefix) + 1)]
    run: list[Fraction] = []
    best = caps[0]
    for c in caps:
        best = max(best, c)
        run.append(best)
    return CapitalTrace(tuple(caps), tuple(run))


def savings_transform(m: Martingale, depth: int) -> Martingale:
    """Bank/side-account transform yielding the savings property.

    Working capital follows the base martingale's proportional bets; whenever
    it reaches twice the initial capital, half is moved to the bank, which
    never shrinks.  The result is fair and satisfies
    M'(τ) >= M'(σ) - 2·M(ε) for all τ ⊒ σ within depth.  Each level of the
    base is read whole, by `m.level(k)`.
    """
    base, base_den = m.level(0)
    rn, rd = base[0], base_den  # the initial capital ref = rn/rd
    rows = [(base, base_den)]  # the result's levels, as (ints, den)
    # At each node of the current level: the number j of banking events on
    # the path, and the bank as an int over bank_den.  The working capital
    # follows the bets, w = v/2^j for the base capital v, until it first
    # reaches 0; zero working capital is absorbing (j is None), even where a
    # later base capital is not 0.
    js, bank, bank_den = [0 if rn else None], [0], 1
    for k in range(1, depth + 1):
        base, base_den = m.level(k)
        # w = v/2^j is an int over w_den = base_den·2^k, as j <= k
        w_den = base_den << k
        den = math.lcm(bank_den, w_den)
        to_den, w_to_den = den // bank_den, den // w_den
        double = (rn * w_den) << 1  # w >= 2·ref iff w·rd >= double
        nj, nbank, out = [None] * len(base), [0] * len(base), [0] * len(base)
        for i, v in enumerate(base):
            j, b = js[i >> 1], bank[i >> 1] * to_den
            if j is not None and v:
                w = v << (k - j)
                if w * rd >= double:
                    # half of w moves to the bank
                    j += 1
                    w >>= 1
                    b += w * w_to_den
                nj[i] = j
                out[i] = w * w_to_den + b
            else:
                out[i] = b
            nbank[i] = b
        js, bank, bank_den = nj, nbank, den
        rows.append((out, den))

    def value_at(s: str) -> Fraction:
        if len(s) > depth or s.strip("01"):
            raise KeyError(s)
        ints, den = rows[len(s)]
        return Fraction(ints[int(s, 2) if s else 0], den)

    def level(k: int) -> tuple[list[int], int]:
        ints, den = rows[k]
        return ints.copy(), den

    return Martingale(f"savings({m.name})", _with_level(value_at, level), depth_budget=depth)


def _levels_over_lcm(depth: int, *ms: Martingale) -> tuple[list[list[list[int]]], int]:
    """Levels 0..depth of each martingale, read level by level (level k of
    each in turn), as int rows over one denominator: rows[j][k] is level k
    of ms[j]."""
    levels = [m.level(k) for k in range(depth + 1) for m in ms]
    den = math.lcm(*(d for _, d in levels))
    rows = []
    for ints, d in levels:
        scale = den // d
        rows.append([x * scale for x in ints])
    return [rows[j :: len(ms)] for j in range(len(ms))], den


def savings_violation_search(
    m: Martingale, depth: int, drop: Fraction = Fraction(2)
) -> Optional[tuple[str, str]]:
    """First pair σ ⊑ τ (|τ| <= depth) with M(τ) < M(σ) - drop, if any.

    σ is the first in (length, lexicographic) order with a violation below
    it; τ is the first violation in the depth-first preorder under σ that
    visits the 1-child before the 0-child.
    """
    (rows,), den = _levels_over_lcm(depth, m)
    # low[k][i]: the least capital in the subtree of node i of level k, from the leaves up
    low = rows[-1:]
    for row in reversed(rows[:-1]):
        below = low[-1]
        low.append(list(map(min, row, below[::2], below[1::2])))
    low.reverse()
    # M(τ) < M(σ) - drop iff v[σ] - v[τ] > drop·den, an int difference, so
    # iff it exceeds ⌊drop·den⌋
    gap = drop.numerator * den // drop.denominator
    for k, (row, lows) in enumerate(zip(rows, low)):
        i = next((i for i, fall in enumerate(map(sub, row, lows)) if fall > gap), None)
        if i is not None:
            break
    else:
        return None
    top = row[i]
    kt, it = k, i
    while top - rows[kt][it] <= gap:
        kt, it = kt + 1, 2 * it + 1 if top - low[kt + 1][2 * it + 1] > gap else 2 * it
    return bit_string(k, i), bit_string(kt, it)


def savings_growth_constants(
    base: Martingale, transformed: Martingale, depth: int
) -> tuple[Fraction, Fraction]:
    """Achieved (c, const) with max M' >= c·log2(max M) - const over all paths.

    c is fixed at the initial capital (one banking event per doubling); const
    is the smallest value making the inequality hold on every depth-bounded
    path.
    """
    c = base.initial_capital
    # a negative depth reads the root alone, as depth 0 does
    trees, den = _levels_over_lcm(max(depth, 0), base, transformed)
    # the running maxima of each capital along the path to every leaf, from
    # the root down
    peaks = []
    for rows in trees:
        peak = rows[0]
        for row in rows[1:]:
            peak = list(map(max, row, (p for p in peak for _ in "01")))
        peaks.append(peak)
    # the worst c·log2 - max M' over the leaves, with ⌊log2 max M⌋ read as
    # the bit length of max M's reduced numerator, less 1 (right only for an
    # integer max M; the frozen digests hold this reading)
    cn = c.numerator * (den // c.denominator)
    worst = max(
        0,
        *(
            cn * ((n // math.gcd(n, den)).bit_length() - 1 if n >= den else 0) - top
            for n, top in zip(*peaks)
        ),
    )
    return c, Fraction(worst, den)
