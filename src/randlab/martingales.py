"""Computable martingales with exact fairness and the savings transform.

A martingale at desk scale is an exact rational table on all bit strings
within a depth budget, satisfying 2M(σ) = M(σ0) + M(σ1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .errors import BudgetExceeded, InvariantViolation, ParseError
from .intervals import bit_strings

FAIRNESS_DEPTH_BUDGET = 16


@dataclass(frozen=True)
class Martingale:
    name: str
    value_at: Callable[[str], Fraction]
    depth_budget: int = FAIRNESS_DEPTH_BUDGET

    def value(self, sigma: str) -> Fraction:
        if len(sigma) > self.depth_budget:
            raise BudgetExceeded(f"|sigma| > {self.depth_budget}")
        v = self.value_at(sigma)
        if v < 0:
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
        raise BudgetExceeded(f"depth > {FAIRNESS_DEPTH_BUDGET}")
    stack = [""]
    while stack:
        s = stack.pop()
        if len(s) >= depth:
            continue
        v, v0, v1 = m.value(s), m.value(s + "0"), m.value(s + "1")
        if 2 * v != v0 + v1:
            return FairnessReport(
                False, f"fairness fails at {s!r}: 2·{v} != {v0} + {v1}"
            )
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
    table: dict[str, Fraction] = {"": ref}
    # (base capital, working, bank) at each node of the current level
    level = [(ref, ref, Fraction(0))]
    for k in range(1, depth + 1):
        strings = bit_strings(k)
        nxt = []
        for i, s in enumerate(strings):
            base, w, b = level[i // 2]
            # a zero capital places no bet: at the last level its children go unread
            v = m.value(s) if base != 0 or k < depth else None
            if base != 0:
                w = w * (v / base)
            if ref > 0 and w >= 2 * ref:
                b += w / 2
                w = w / 2
            nxt.append((v, w, b))
        table.update(zip(strings, (w + b for _, w, b in nxt)))
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
    values = [[m.value(s) for s in bit_strings(k)] for k in range(depth + 1)]
    lows = values[-1:]  # lows[k][i]: the least capital below node i of level k
    for level in reversed(values[:-1]):
        lows.insert(0, [min(v, *lows[0][2 * i : 2 * i + 2]) for i, v in enumerate(level)])
    for k, level in enumerate(values):
        for i, v in enumerate(level):
            bar = v - drop
            if lows[k][i] < bar:
                sigma = tau = bit_strings(k)[i]
                while values[len(tau)][i] >= bar:
                    bit = int(lows[len(tau) + 1][2 * i + 1] < bar)
                    i, tau = 2 * i + bit, tau + str(bit)
                return sigma, tau
    return None


def savings_growth_constants(
    base: Martingale, transformed: Martingale, depth: int
) -> tuple[Fraction, Fraction]:
    """Achieved (c, const) with max M' >= c·log2(max M) - const over all paths.

    c is fixed at the initial capital (one banking event per doubling); const
    is the smallest value making the inequality hold on every depth-bounded
    path.
    """
    c = base.initial_capital
    # running maxima of both capitals along the path to each node of a level
    peaks = [(c, transformed.initial_capital)]
    for k in range(1, depth + 1):
        peaks = [
            (max(peaks[i // 2][0], base.value(s)), max(peaks[i // 2][1], transformed.value(s)))
            for i, s in enumerate(bit_strings(k))
        ]
    worst = Fraction(0)
    for mx_base, mx_tr in peaks:
        log2_floor = max(0, mx_base.numerator.bit_length() - 1) if mx_base >= 1 else 0
        worst = max(worst, c * log2_floor - mx_tr)
    return c, worst
