"""Acceptance gate: one pass/fail line per criterion, exact arithmetic only."""

import os
import time
from fractions import Fraction

from randlab.cauchy import const_name, scripted_name
from randlab.cli import main
from randlab.derivatives import DenjoyVerdict, classify_denjoy, pseudo_derivative
from randlab.errors import BudgetExceeded, MeasureBoundViolation
from randlab.intervals import RationalInterval, normalize_union
from randlab.markov import StagedCover, canonical_nonuc, identity_fn, oscillation_tree, slope_bounds_check, square_fn, truncate, abs_offset_fn
from randlab.martingales import (
    all_in_on_0,
    check_fairness,
    constant_martingale,
    savings_transform,
    savings_violation_search,
    split_bet,
)
from randlab.randomness import (
    TestFamily,
    TestKind,
    build_pi1_ml_test,
    demuth_update,
    evaluate,
    validate,
)
from randlab.serialize import load_fixture
from randlab.serialize import test_family_from_json as family_from_json
from randlab.ttmeasures import (
    LimitOracle,
    bernoulli_measure,
    bit_flip_tt,
    identity_tt,
    induced_measure_of_cylinder,
    materialize_measure,
    pairwise_or_tt,
    transport,
    transport_pushforward_check,
    uniform_measure,
    validate_measure,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def _line(capsys, n: int, desc: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {desc}")
    assert ok, f"criterion {n}: {desc}"


def _fixture_families():
    for fname in sorted(os.listdir(FIXTURES)):
        doc = load_fixture(os.path.join(FIXTURES, fname))
        if doc.get("type") == "test_family":
            yield fname, family_from_json(doc)


def test_criterion_01_measure_bounds(capsys):
    started = time.monotonic()
    geometric_kinds = {
        TestKind.ML,
        TestKind.SCHNORR,
        TestKind.DEMUTH,
        TestKind.WEAK_DEMUTH,
    }
    ok = True
    for fname, t in _fixture_families():
        if t.kind in geometric_kinds:
            ok &= validate(t).passed
            ok &= all(
                u.measure <= Fraction(1, 2**m)
                for m in t.indices()
                if m <= 8
                for u in t.components[m]
            )
        elif t.kind is TestKind.INTERVAL_SEQUENCE:
            ok &= validate(t).passed  # per-block and aggregate bounds
    elapsed = time.monotonic() - started
    ok &= elapsed < 10
    _line(capsys, 1, f"exact measure bounds on shipped fixtures ({elapsed:.2f}s)", ok)


def test_criterion_02_pi1_to_ml(capsys):
    q = [Fraction(1, 2) - Fraction(1, 2**n) for n in range(66)]
    C = [frozenset(range(m + 1)) for m in range(8)]
    t = build_pi1_ml_test(q, C, 64)
    ok = all(t.final(m).measure <= Fraction(1, 2**m) for m in range(7))
    z = scripted_name(
        [Fraction(1, 2) - Fraction(1, 2 ** (p + 1)) for p in range(50)], "limit"
    )
    summary = evaluate(t, z, 6)
    ok &= summary.captured == tuple(range(7))
    _line(capsys, 2, "built components bounded and the limit name captured", ok)


def test_criterion_03_induced_measures(capsys):
    ok = True
    for phi in (identity_tt(), pairwise_or_tt(), bit_flip_tt()):
        checks = validate_measure(materialize_measure(phi), 9)
        ok &= all(c.passed for c in checks)
    phi = pairwise_or_tt()
    ok &= induced_measure_of_cylinder(phi, "1") == Fraction(3, 4)
    ok &= induced_measure_of_cylinder(phi, "11") == Fraction(9, 16)
    # independent recount without the tally cache
    hits = sum(
        1
        for block in range(16)
        if (block >> 3 | block >> 2) & 1 and (block >> 1 | block) & 1
    )
    ok &= Fraction(hits, 16) == Fraction(9, 16)
    _line(capsys, 3, "induced-measure additivity and pairwise-OR values", ok)


def test_criterion_04_transport(capsys):
    started = time.monotonic()
    uni, ber = uniform_measure(), bernoulli_measure(Fraction(3, 4))
    ok = all(
        transport(uni, format(i, f"0{L}b")).c_prefix == format(i, f"0{L}b")
        for L in range(1, 8)
        for i in range(2**L)
    )
    r = transport(ber, "111")
    ok &= r.c_prefix.startswith("1") and (r.image_lo, r.image_hi) == (
        Fraction(37, 64),
        Fraction(1),
    )
    r = transport(ber, "00")
    ok &= r.c_prefix == "0000" and (r.image_lo, r.image_hi) == (
        Fraction(0),
        Fraction(1, 16),
    )
    outputs = []
    for i in range(2**10):
        a = format(i, "010b")
        c = transport(ber, a).c_prefix
        parent = transport(ber, a[:5]).c_prefix
        ok &= c.startswith(parent) or parent.startswith(c)
        outputs.append(c)
    for c1, c2 in zip(outputs, outputs[1:]):
        n = min(len(c1), len(c2))
        ok &= c1[:n] <= c2[:n]
    for mu in (uni, ber):
        for L in range(1, 4):
            for i in range(2**L):
                ok &= transport_pushforward_check(mu, format(i, f"0{L}b"), 10).passed
    elapsed = time.monotonic() - started
    ok &= elapsed < 60
    _line(capsys, 4, f"transport identity/images/order/bracketing ({elapsed:.2f}s)", ok)


def test_criterion_05_derivatives(capsys):
    h, tol = Fraction(1, 2**10), Fraction(1, 2**4)
    est = pseudo_derivative(square_fn(), const_name(Fraction(1, 3)), h, 14)
    ok = abs(est.upper - Fraction(2, 3)) <= Fraction(1, 2**6)
    ok &= abs(est.lower - Fraction(2, 3)) <= Fraction(1, 2**6)
    ok &= classify_denjoy(est, tol) is DenjoyVerdict.DIFFERENTIABLE
    corner = pseudo_derivative(abs_offset_fn(), const_name(Fraction(1, 2)), h, 14)
    ok &= classify_denjoy(corner, tol) is DenjoyVerdict.NEITHER
    flat = pseudo_derivative(identity_fn(), const_name(Fraction(1, 3)), h, 14)
    ok &= (flat.upper, flat.lower) == (Fraction(1), Fraction(1))
    _line(capsys, 5, "pseudo-derivative estimates and Denjoy verdicts", ok)


def test_criterion_06_nonuc_and_trees(capsys):
    f = canonical_nonuc(20)
    ok = True
    for n in range(20):
        lo = 1 - Fraction(1, 2**n)
        hi = 1 - Fraction(3, 2 ** (n + 2))
        ok &= f((lo + hi) / 2) == n and f(lo) == 0 and f(hi) == 0
    for depth in range(1, 13):
        tree = oscillation_tree(f, 0, depth)
        ok &= bool(tree)
        ok &= all(s[:-1] in tree for s in tree if s)
    ident = identity_fn()
    for depth in range(3, 13):
        ok &= all(len(s) < 3 for s in oscillation_tree(ident, 3, depth))
    _line(capsys, 6, "tent values, oscillation trees, identity cutoff", ok)


def test_criterion_07_truncation(capsys):
    cover = StagedCover(
        stages=((RationalInterval(Fraction(0), Fraction(1, 2)),),),
        size_bound=(0,),
    )
    g = truncate(square_fn(), cover)
    ok = g(Fraction(1, 4)) == Fraction(1, 8)
    for k in range(2**10 + 1):
        x = Fraction(k, 2**10)
        if x > Fraction(1, 2):
            ok &= g(x) == x * x
    v = slope_bounds_check(square_fn(), cover, Fraction(1, 4), Fraction(2), 10)
    ok &= v.passed
    _line(capsys, 7, "exact truncation values and slope-bound clauses", ok)


def test_criterion_08_martingales(capsys):
    builtins = [constant_martingale(Fraction(1)), all_in_on_0(), split_bet(Fraction(3, 4))]
    ok = True
    for m in builtins:
        ok &= check_fairness(m, 12).ok
        for n in (0, 5, 12):
            total = sum(
                (m.value(format(i, f"0{n}b") if n else "") for i in range(2**n)),
                Fraction(0),
            )
            ok &= total == 2**n * m.initial_capital
        t = savings_transform(m, 12)
        ok &= savings_violation_search(t, 12, drop=2 * m.initial_capital) is None
    _line(capsys, 8, "fairness, level sums, and the savings property", ok)


def test_criterion_09_protocols(capsys):
    t = TestFamily(TestKind.DEMUTH, {3: [normalize_union([
        RationalInterval(Fraction(0), Fraction(1, 8), True, True)])]},
        {"budgets": {3: 4}})
    small = normalize_union([RationalInterval(Fraction(0), Fraction(1, 16), True, True)])
    for _ in range(3):
        t = demuth_update(t, 3, small)
    ok = len(t.components[3]) == 4
    try:
        demuth_update(t, 3, small)
        ok = False
    except BudgetExceeded:
        pass
    try:
        demuth_update(
            TestFamily(TestKind.DEMUTH, {3: [small]}, {"budgets": {3: 4}}),
            3,
            normalize_union([RationalInterval(Fraction(0), Fraction(1, 4), True, True)]),
        )
        ok = False
    except MeasureBoundViolation:
        pass
    oracle = LimitOracle(lambda q, s: min(s, 3), budget=3)
    ok &= oracle.validate_budget("any", 20)
    ok &= not LimitOracle(lambda q, s: s, budget=3).validate_budget("any", 20)
    _line(capsys, 9, "update budgets, measure bounds, change counting", ok)


def test_criterion_10_determinism(capsys, tmp_path):
    reports = []
    for i, workers in enumerate(("1", "1", "2", "4")):
        out = tmp_path / f"report_{i}.json"
        code = main(
            [
                "--out",
                str(out),
                "report",
                "--fixture-dir",
                FIXTURES,
                "--workers",
                workers,
            ]
        )
        assert code == 0
        reports.append(out.read_bytes())
    ok = all(r == reports[0] for r in reports)
    _line(capsys, 10, "byte-identical reports across runs and workers", ok)
