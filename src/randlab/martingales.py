"""Computable martingales with exact fairness and the savings transform.

A martingale at desk scale is an exact rational table on all bit strings
within a depth budget, satisfying 2M(σ) = M(σ0) + M(σ1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Callable, Optional

from .errors import InvariantViolation, ParseError, over_budget
from .intervals import bit_strings, over_lcm, tree_strings

FAIRNESS_DEPTH_BUDGET = 16


@dataclass(frozen=True)
class Martingale:
    name: str
    value_at: Callable[[str], Fraction]
    depth_budget: int = FAIRNESS_DEPTH_BUDGET

    def value(self, sigma: str) -> Fraction:
        if len(sigma) > self.depth_budget:
            raise over_budget(f"|sigma| {len(sigma)}", "depth_budget", self.depth_budget)
        v = self.value_at(sigma)
        if v.numerator < 0:
            raise InvariantViolation(f"negative capital at {sigma!r}")
        return v

    @property
    def initial_capital(self) -> Fraction:
        return self.value("")


def constant_martingale(capital: Fraction = Fraction(1)) -> Martingale:
    return Martingale("constant", lambda s: capital)


def all_in_on_0() -> Martingale:
    """Bets everything on the next bit being 0; busts on the first 1."""

    def v(s: str) -> Fraction:
        return Fraction(2 ** len(s)) if "1" not in s else Fraction(0)

    return Martingale("all_in_on_0", v)


def split_bet(p: Fraction) -> Martingale:
    """Stakes fraction: M(σ0) = 2p·M(σ), M(σ1) = 2(1-p)·M(σ).

    For p = a/b the capital is the closed form (2a)^#0 · (2(b-a))^#1 / b^|σ|;
    any character other than "0" counts as a 1.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0,1]")
    win, lose, b = 2 * p.numerator, 2 * (p.denominator - p.numerator), p.denominator

    def v(s: str) -> Fraction:
        zeros = s.count("0")
        return Fraction(win**zeros * lose ** (len(s) - zeros), b ** len(s))

    return Martingale(f"split_bet({p})", v)


def table_martingale(table: dict[str, Fraction], name: str = "table") -> Martingale:
    def v(s: str) -> Fraction:
        if s in table:
            return table[s]
        raise ParseError(f"table martingale {name!r} has no capital for {s!r}")

    return Martingale(name, v)


@dataclass(frozen=True)
class FairnessReport:
    ok: bool
    violation: Optional[str] = None


def check_fairness(m: Martingale, depth: int) -> FairnessReport:
    """2M(σ) = M(σ0) + M(σ1) exactly, for every σ with |σ| < depth."""
    if depth > FAIRNESS_DEPTH_BUDGET:
        raise over_budget(f"depth {depth}", "FAIRNESS_DEPTH_BUDGET", FAIRNESS_DEPTH_BUDGET)
    stack = [""] if depth > 0 else []
    while stack:
        s = stack.pop()
        v, v0, v1 = m.value(s), m.value(s + "0"), m.value(s + "1")
        # 2·v = v0 + v1 over the product of the denominators, in ints
        (n, d), (n0, d0), (n1, d1) = (
            v.as_integer_ratio(), v0.as_integer_ratio(), v1.as_integer_ratio()
        )
        if 2 * n * d0 * d1 != (n0 * d1 + n1 * d0) * d:
            return FairnessReport(
                False, f"fairness fails at {s!r}: 2·{v} != {v0} + {v1}"
            )
        if len(s) + 1 < depth:
            stack.extend((s + "0", s + "1"))
    return FairnessReport(True)


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
    M'(τ) >= M'(σ) - 2·M(ε) for all τ ⊒ σ within depth.
    """
    ref = m.initial_capital
    rn, rd = ref.as_integer_ratio()
    table: dict[str, Fraction] = {"": ref}
    # At each node of the current level: the base capital v, the number j of
    # banking events on the path, and the bank bn/bd.  The working capital
    # follows the bets, w = v/2^j, until it first reaches 0; zero working
    # capital is absorbing (j is None), even where a later base capital is not 0.
    level = [(ref, 0 if rn else None, 0, 1)]
    for k in range(1, depth + 1):
        nxt = []
        for i, s in enumerate(bit_strings(k)):
            base, j, bn, bd = level[i >> 1]
            # a zero capital places no bet: at the last level its children go unread
            v = m.value(s) if base or k < depth else None
            if j is not None and v:
                vn, vd = v.as_integer_ratio()
                wd = vd << j
                if rn and vn * rd >= (rn * wd) << 1:
                    # w >= 2·ref: half of w moves to the bank
                    wd <<= 1
                    j += 1
                    bn, bd = bn * wd + vn * bd, bd * wd
                    g = math.gcd(bn, bd)
                    bn, bd = bn // g, bd // g
                table[s] = Fraction(vn * bd + bn * wd, wd * bd)
            else:
                j = None
                table[s] = Fraction(bn, bd)
            nxt.append((v, j, bn, bd))
        level = nxt
    return Martingale(f"savings({m.name})", lambda s: table[s], depth_budget=depth)


def savings_violation_search(
    m: Martingale, depth: int, drop: Fraction = Fraction(2)
) -> Optional[tuple[str, str]]:
    """First pair σ ⊑ τ (|τ| <= depth) with M(τ) < M(σ) - drop, if any.

    σ is the first in (length, lexicographic) order with a violation below
    it; τ is the first violation in the depth-first preorder under σ that
    visits the 1-child before the 0-child.
    """
    nodes = tree_strings(depth)
    v, den = over_lcm(map(m.value, nodes))
    # low[h]: the least capital in the subtree of node h, from the leaves up
    low = v.copy()
    for k in reversed(range(depth)):
        a, b = 2**k - 1, 2 ** (k + 1) - 1
        low[a:b] = map(min, low[a:b], low[2 * a + 1 : 2 * b : 2], low[2 * a + 2 : 2 * b + 1 : 2])
    # M(τ) < M(σ) - drop iff v[σ] - v[τ] > drop·den, an int difference, so
    # iff it exceeds ⌊drop·den⌋
    gap = drop.numerator * den // drop.denominator
    h = next((h for h, fall in enumerate(map(sub, v, low)) if fall > gap), None)
    if h is None:
        return None
    i = h
    while v[h] - v[i] <= gap:
        i = 2 * i + 2 if v[h] - low[2 * i + 2] > gap else 2 * i + 1
    return nodes[h], nodes[i]


def savings_growth_constants(
    base: Martingale, transformed: Martingale, depth: int
) -> tuple[Fraction, Fraction]:
    """Achieved (c, const) with max M' >= c·log2(max M) - const over all paths.

    c is fixed at the initial capital (one banking event per doubling); const
    is the smallest value making the inequality hold on every depth-bounded
    path.
    """
    c = base.initial_capital
    # both capitals at every node, in tree order, over one denominator
    reads = [c, transformed.initial_capital]
    for s in tree_strings(depth)[1:]:
        reads += base.value(s), transformed.value(s)
    ints, den = over_lcm(reads)
    # the running maxima of each capital along the path to every node, from the root down
    peaks = ints[::2], ints[1::2]
    for k in range(1, depth + 1):
        a, b = 2**k - 1, 2 ** (k + 1) - 1
        for p in peaks:
            up = p[(a - 1) // 2 : a]
            p[a:b:2] = map(max, p[a:b:2], up)
            p[a + 1 : b : 2] = map(max, p[a + 1 : b : 2], up)
    # the worst c·log2 - max M' over the leaves, with ⌊log2 max M⌋ read as
    # the bit length of max M's reduced numerator, less 1 (right only for an
    # integer max M; the frozen digests hold this reading)
    leaf = len(peaks[0]) // 2
    worst = max(
        0,
        *(
            ints[0] * ((n // math.gcd(n, den)).bit_length() - 1 if n >= den else 0) - top
            for n, top in zip(peaks[0][leaf:], peaks[1][leaf:])
        ),
    )
    return c, Fraction(worst, den)
