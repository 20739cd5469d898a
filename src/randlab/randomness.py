"""Finite-stage randomness tests: eight formalisms, one representation.

Effectively open sets become staged IntervalUnion scripts, so every measure
bound is checked by exact comparison.  Passing conventions at finite depth
are surrogates for the infinitary definitions and are labeled as such; the
artifact never asserts randomness of an infinite object.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator, Optional, Sequence

from .cauchy import CauchyName
from .errors import (
    BudgetExceeded,
    InvariantViolation,
    MeasureBoundViolation,
    NotPrefixFree,
    check_budget,
)
from .intervals import (
    EMPTY_UNION,
    IntervalUnion,
    RationalInterval,
    coverage_at_least,
    dyadic_cylinder,
    format_rational,
    normalize_union,
)

EVALUATE_MAX_PRECISION = 48
# largest |m| of a component, update or interval-sequence block index, and
# the most PI1 C sets: 2^-m and the conversion depth grow with it
COMPONENT_INDEX_BUDGET = 1024


class TestKind(enum.Enum):
    ML = "ML"
    SCHNORR = "SCHNORR"
    SOLOVAY = "SOLOVAY"
    FINITELY_BOUNDED = "FINITELY_BOUNDED"
    INTERVAL_SEQUENCE = "INTERVAL_SEQUENCE"
    PI1 = "PI1"
    DEMUTH = "DEMUTH"
    WEAK_DEMUTH = "WEAK_DEMUTH"


# Kinds whose m-th component obeys measure <= 2^{-m}, every version.
GEOMETRIC_BOUND_KINDS = {
    TestKind.ML,
    TestKind.SCHNORR,
    TestKind.FINITELY_BOUNDED,
    TestKind.DEMUTH,
    TestKind.WEAK_DEMUTH,
}


@dataclass(frozen=True)
class TestFamily:
    """A tagged finite-stage randomness test.

    components maps index m to the version history of the m-th open set
    (a single-element list except for DEMUTH/WEAK_DEMUTH).  kind_data is the
    record that `serialize.FIELDS["kind_data:<KIND>"]` reads: declared
    measures and `relativized` (SCHNORR), total bound (SOLOVAY), (q, C)
    data (PI1), change budgets (DEMUTH/WEAK_DEMUTH), and for
    INTERVAL_SEQUENCE `blocks`, a list of records {m, r, table, excluded}:
    the table Q^m_r maps k to Q^m_r(k), one interval held as the one-part
    IntervalUnion it denotes, and excluded is the set E^m_r of the indices
    k it excises.
    """

    kind: TestKind
    components: dict[int, list[IntervalUnion]] = field(default_factory=dict)
    kind_data: dict = field(default_factory=dict)
    label: str = ""

    def final(self, m: int) -> IntervalUnion:
        versions = self.components.get(m)
        return versions[-1] if versions else EMPTY_UNION

    def indices(self) -> list[int]:
        return sorted(self.components)


@dataclass(frozen=True)
class CheckRecord:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    records: tuple[CheckRecord, ...]

    def first_failure(self) -> Optional[CheckRecord]:
        return next((r for r in self.records if not r.passed), None)


def _bound_check(m: int, version: int, u: IntervalUnion) -> CheckRecord:
    bound = Fraction(2) ** -m
    mu = u.measure
    return CheckRecord(
        name=f"measure[m={m},v={version}]",
        passed=mu <= bound,
        detail=f"measure {format_rational(mu)} vs bound {format_rational(bound)}",
    )


def _live_blocks(t: TestFamily) -> Iterator[tuple[int, int, list[IntervalUnion]]]:
    """Each block (m, r) of an interval-sequence test, in (m, r) order, with
    its entries Q^m_r(k), one-part unions, in k order, less the indices
    excised by E^m_r; `coverage_at_least(entries, 1)` is their union."""
    for b in sorted(t.kind_data["blocks"], key=lambda b: (b["m"], b["r"])):
        excl = b["excluded"]
        yield b["m"], b["r"], [u for k, u in sorted(b["table"].items()) if k not in excl]


def validate(t: TestFamily) -> ValidationReport:
    """Exact per-kind invariant checks; PASS or the first violated bound."""
    records: list[CheckRecord] = []

    if t.kind in GEOMETRIC_BOUND_KINDS:
        for m in t.indices():
            for v, u in enumerate(t.components[m]):
                records.append(_bound_check(m, v, u))

    if t.kind is TestKind.SCHNORR:
        # an index declared with no component has the empty union, measure 0
        declared: dict[int, Fraction] = t.kind_data.get("declared_measures", {})
        for m in sorted(t.components.keys() | declared.keys()):
            actual = t.final(m).measure
            dec = declared.get(m)
            records.append(
                CheckRecord(
                    name=f"declared[m={m}]",
                    passed=dec == actual,
                    detail=f"declared {dec if dec is None else format_rational(dec)} vs actual "
                    f"{format_rational(actual)}",
                )
            )

    if t.kind is TestKind.SOLOVAY:
        bound: Fraction = t.kind_data["total_bound"]
        running = Fraction(0)
        for m in t.indices():
            running += t.final(m).measure
            records.append(
                CheckRecord(
                    name=f"running_sum[m={m}]",
                    passed=running <= bound,
                    detail=f"sum {format_rational(running)} vs bound "
                    f"{format_rational(bound)}",
                )
            )

    if t.kind is TestKind.INTERVAL_SEQUENCE:
        per_m: dict[int, list[IntervalUnion]] = {}
        for m, r, live in _live_blocks(t):
            u = coverage_at_least(live, 1)
            bound = Fraction(1, 2 ** (m + r))
            records.append(
                CheckRecord(
                    name=f"block_bound[m={m},r={r}]",
                    passed=u.measure <= bound,
                    detail=f"measure {format_rational(u.measure)} vs "
                    f"{format_rational(bound)}",
                )
            )
            per_m.setdefault(m, []).append(u)
        for m, unions in sorted(per_m.items()):
            u = coverage_at_least(unions, 1)
            bound = Fraction(1, 2**m)
            records.append(
                CheckRecord(
                    name=f"aggregate_bound[m={m}]",
                    passed=u.measure <= bound,
                    detail=f"aggregate measure {format_rational(u.measure)} vs "
                    f"{format_rational(bound)}",
                )
            )

    if t.kind is TestKind.PI1:
        q: Sequence[Fraction] = t.kind_data["q"]
        C: Sequence[frozenset[int]] = t.kind_data["C"]
        for m, cm in enumerate(C):
            ivs = [
                RationalInterval(min(q[n], q[n + 1]), max(q[n], q[n + 1]))
                for n in range(1, len(q) - 1)
                if n not in cm
            ]
            mu = normalize_union(ivs).measure
            bound = Fraction(1, 2**m)
            records.append(
                CheckRecord(
                    name=f"pi1[m={m}]",
                    passed=mu < bound,
                    detail=f"residual measure {format_rational(mu)} vs < "
                    f"{format_rational(bound)}",
                )
            )

    if t.kind in (TestKind.DEMUTH, TestKind.WEAK_DEMUTH):
        budgets: dict[int, int] = t.kind_data.get("budgets", {})
        for m in t.indices():
            b = budgets.get(m)
            n_versions = len(t.components[m])
            records.append(
                CheckRecord(
                    name=f"budget[m={m}]",
                    passed=b is None or n_versions <= b,
                    detail=f"{n_versions} versions vs budget {b}",
                )
            )

    return ValidationReport(all(r.passed for r in records), tuple(records))


def _checked(t: TestFamily) -> TestFamily:
    """`t`, or InvariantViolation with the detail of the first check of
    `validate(t)` that fails."""
    failed = validate(t).first_failure()
    if failed is not None:
        raise InvariantViolation(failed.detail)
    return t


class VerdictResult(enum.Enum):
    CAPTURED = "CAPTURED"
    ESCAPED = "ESCAPED"
    UNDECIDED_AT_DEPTH = "UNDECIDED_AT_DEPTH"


@dataclass(frozen=True)
class Verdict:
    """`witness`: when CAPTURED, the first part of the union that holds the
    point's window (an exact name's window is its point); else None."""

    result: VerdictResult
    witness: Optional[RationalInterval] = None


@dataclass(frozen=True)
class EvaluationSummary:
    per_component: dict[int, Verdict]
    captured: tuple[int, ...]
    escaped: tuple[int, ...]
    undecided: tuple[int, ...]
    convention: str
    note: str = "finite-depth surrogate; no infinite-level verdict is asserted"


def _membership(u: IntervalUnion, window: Callable[[int], RationalInterval]) -> Verdict:
    """The verdict on u of the name whose window at precision p is
    window(p), read at p = 4, 5, ... until one decides."""
    for p in range(4, EVALUATE_MAX_PRECISION + 1):
        w = window(p)
        hit = u.witness_containing(w)
        if hit is not None:
            return Verdict(VerdictResult.CAPTURED, hit)
        if u.disjoint_from_interval(w):
            return Verdict(VerdictResult.ESCAPED)
    return Verdict(VerdictResult.UNDECIDED_AT_DEPTH)


def evaluate(t: TestFamily, z: CauchyName, depth: int) -> EvaluationSummary:
    """Per-component membership of z (final versions), plus the kind's
    finite-depth passing convention.

    A kind with no convention of its own says z escapes only when some
    component shows it escaped, names the undecided components when none
    did, says z is in the intersection only when every materialized
    component captured it, and says when no component was materialized."""
    idx = [m for m in t.indices() if m <= depth]
    # each precision's window is built once, for every component; an exact
    # name's window is its point at every precision: the first pass finds the
    # first part holding it, or finds no part does
    point = None if z.exact is None else RationalInterval(z.exact, z.exact)
    window = cache(z.window) if point is None else lambda p: point
    per: dict[int, Verdict] = {m: _membership(t.final(m), window) for m in idx}
    captured = tuple(m for m in idx if per[m].result is VerdictResult.CAPTURED)
    escaped = tuple(m for m in idx if per[m].result is VerdictResult.ESCAPED)
    undecided = tuple(
        m for m in idx if per[m].result is VerdictResult.UNDECIDED_AT_DEPTH
    )
    if t.kind is TestKind.SOLOVAY:
        convention = f"hit count among materialized components: {len(captured)}"
    elif t.kind is TestKind.DEMUTH:
        convention = (
            f"hits among final versions: {len(captured)}; "
            f"escapes: {len(escaped)} (passing = escaping almost every m)"
        )
    elif t.kind is TestKind.WEAK_DEMUTH:
        convention = (
            f"passing witness m={escaped[0]}" if escaped else "no escape found"
        )
    elif escaped:
        convention = "escapes the intersection at materialized depth"
    elif undecided:
        convention = f"no escape found; undecided at m={','.join(map(str, undecided))}"
    elif idx:
        convention = "in intersection up to depth"
    else:
        convention = "no component materialized up to depth"
    return EvaluationSummary(per, captured, escaped, undecided, convention)


def convert_solovay_to_ml(t: TestFamily, depth: int) -> TestFamily:
    """Threshold construction: component k = points in >= ceil(c)·2^k of the
    materialized Solovay components (Markov inequality gives the 2^{-k} bound,
    checked exactly)."""
    if t.kind is not TestKind.SOLOVAY:
        raise ValueError("source must be a Solovay test")
    check_budget(depth, "depth {}", "COMPONENT_INDEX_BUDGET", COMPONENT_INDEX_BUDGET)
    bound: Fraction = t.kind_data["total_bound"]
    if bound <= 0:
        raise InvariantViolation(
            f"Solovay total bound {format_rational(bound)} is not positive"
        )
    ceil_c = math.ceil(bound)
    unions = [t.final(m) for m in t.indices()]
    comps = {k: [coverage_at_least(unions, ceil_c * 2**k)] for k in range(depth + 1)}
    return _checked(TestFamily(TestKind.ML, comps, label=f"solovay_to_ml({t.label})"))


def build_pi1_ml_test(
    q: Sequence[Fraction], C: Sequence[frozenset[int]], depth: int
) -> TestFamily:
    """The B_m construction from Π₁ data (q_n, C_m).

    B_m is the union over materialized n >= 1 of the open intervals
    (q_n - 2^{-m-1-k(n)}, q_n + 2^{-m-1-k(n)}) with k(n) = #{j <= n : j in
    C_{m+1}}; indices start at 1 (the n = 0 term would break the exact
    2^{-m} bound).  Measure is checked exactly for every m.
    """
    _checked(TestFamily(TestKind.PI1, kind_data={"q": list(q), "C": list(C)}))
    comps: dict[int, list[IntervalUnion]] = {}
    n_max = min(depth, len(q) - 1)
    for m in range(len(C) - 1):
        cm1 = C[m + 1]
        ivs: list[RationalInterval] = []
        k = int(0 in cm1)
        for n in range(1, n_max + 1):
            if n in cm1:
                k += 1
            radius = Fraction(1, 2 ** (m + 1 + k))
            ivs.append(
                RationalInterval(q[n] - radius, q[n] + radius, True, True)
            )
        comps[m] = [normalize_union(ivs)]
    return _checked(TestFamily(TestKind.ML, comps, label="pi1_to_ml"))


def _contiguous(sigma: str, tau: str) -> bool:
    a = dyadic_cylinder(sigma)
    b = dyadic_cylinder(tau)
    return a.hi == b.lo or b.hi == a.lo


def check_prefix_free(v: Sequence[str]) -> None:
    for s in v:
        for u in v:
            if s != u and u.startswith(s):
                raise NotPrefixFree(f"{s!r} is a prefix of {u!r}")


def build_hop_sets(
    q: Sequence[Fraction], V: Sequence[Sequence[str]], depth: int
) -> list[set[int]]:
    """C_m = indices n with a hop: q_n and q_{n+1} in cylinders of two
    distinct, non-contiguous strings of the prefix-free set V_m."""
    out: list[set[int]] = []
    for vm in V:
        check_prefix_free(vm)
        cm: set[int] = set()
        n_last = min(depth, len(q) - 2)
        for n in range(n_last + 1):
            sig = next((s for s in vm if dyadic_cylinder(s).contains(q[n])), None)
            tau = next((s for s in vm if dyadic_cylinder(s).contains(q[n + 1])), None)
            if sig is None or tau is None or sig == tau:
                continue
            if not _contiguous(sig, tau):
                cm.add(n)
        out.append(cm)
    return out


def demuth_update(t: TestFamily, m: int, new_version: IntervalUnion) -> TestFamily:
    """Append a new version of component m under the ω-c.e. change budget."""
    if t.kind not in (TestKind.DEMUTH, TestKind.WEAK_DEMUTH):
        raise ValueError("updates apply to Demuth-style tests only")
    budget = t.kind_data.get("budgets", {}).get(m)
    versions = list(t.components.get(m, []))
    if budget is not None and len(versions) >= budget:
        raise BudgetExceeded(
            f"component {m} already has {len(versions)} versions, budget {budget}"
        )
    bound = Fraction(2) ** -m
    if new_version.measure > bound:
        raise MeasureBoundViolation(
            f"proposed measure {format_rational(new_version.measure)} exceeds "
            f"{format_rational(bound)} at m={m}"
        )
    comps = {k: list(v) for k, v in t.components.items()}
    comps.setdefault(m, []).append(new_version)
    return replace(t, components=comps)


def interval_sequence_to_schnorr(t: TestFamily, depth: int) -> TestFamily:
    """Forward direction of the uniform equivalence: G_m is the union of all
    non-excised blocks Q^m_r(k) over materialized r <= depth, with the exact
    measure recorded as the declared (relativized) Schnorr measure."""
    if t.kind is not TestKind.INTERVAL_SEQUENCE:
        raise ValueError("source must be an interval-sequence test")
    check_budget(depth, "depth {}", "COMPONENT_INDEX_BUDGET", COMPONENT_INDEX_BUDGET)
    per_m: dict[int, list[IntervalUnion]] = {}
    for m, r, live in _live_blocks(_checked(t)):
        if r <= depth:
            per_m.setdefault(m, []).extend(live)
    comps = {m: [coverage_at_least(entries, 1)] for m, entries in per_m.items()}
    declared = {m: comps[m][0].measure for m in comps}
    return TestFamily(
        TestKind.SCHNORR,
        comps,
        {"declared_measures": declared, "relativized": True},
        label=f"is_to_schnorr({t.label})",
    )


def schnorr_to_interval_sequence(
    t: TestFamily, oracle, depth: int
) -> TestFamily:
    """Reverse direction, consuming a LimitOracle mind-change script.

    The oracle, queried at ("block", m, r) and stage s, returns the current
    guess for the r-th block group of G_m as a tuple of intervals, each
    stored in the table as its one-part union.  Each mind change excises
    all previously emitted indices for (m, r) via E^m_r; the final stage's
    groups must satisfy the per-block measure bound.  Each
    query's stages 0..depth are read once, by `oracle.guesses`; a query with
    more mind changes than `oracle.budget` raises BudgetExceeded.
    """
    if t.kind is not TestKind.SCHNORR:
        raise ValueError("source must be a Schnorr test")
    check_budget(depth, "depth {}", "COMPONENT_INDEX_BUDGET", COMPONENT_INDEX_BUDGET)
    blocks: list[dict] = []
    for m in t.indices():
        if m > depth:
            continue
        for r in range(1, depth + 1):
            query = ("block", m, r)
            guesses = oracle.guesses(query, depth)
            if len(guesses) - 1 > oracle.budget:
                raise BudgetExceeded(
                    f"oracle query {query} changes its guess "
                    f"{len(guesses) - 1} times up to stage {depth} "
                    f"> its budget ({oracle.budget})"
                )
            table: dict[int, IntervalUnion] = {}
            excl: set[int] = set()
            for guess in guesses:
                excl.update(table)
                table.update(enumerate((normalize_union([iv]) for iv in guess), len(table)))
            if table:
                blocks.append({"m": m, "r": r, "table": table, "excluded": frozenset(excl)})
    return _checked(TestFamily(
        TestKind.INTERVAL_SEQUENCE, kind_data={"blocks": blocks},
        label=f"schnorr_to_is({t.label})",
    ))
