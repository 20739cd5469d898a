import dataclasses
import json
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as ref
from oracles import outcome

from randlab.cauchy import const_name, scripted_name
from randlab.errors import (
    BudgetExceeded,
    InvariantViolation,
    MeasureBoundViolation,
    NotPrefixFree,
    ParseError,
    RandlabError,
)
from randlab.intervals import RationalInterval, format_rational, normalize_union
from randlab.randomness import (
    TestFamily,
    TestKind,
    Verdict,
    VerdictResult,
    build_hop_sets,
    build_pi1_ml_test,
    convert_solovay_to_ml,
    demuth_update,
    evaluate,
    interval_sequence_to_schnorr,
    schnorr_to_interval_sequence,
    validate,
)
from randlab import cli, randomness, serialize
from randlab.ttmeasures import LimitOracle

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def geometric(m: int):
    return normalize_union([RationalInterval(Fraction(0), Fraction(1, 2**m), True, True)])


def ml_geometric(max_m: int = 8) -> TestFamily:
    return TestFamily(TestKind.ML, {m: [geometric(m)] for m in range(max_m + 1)})


def test_validate_ml_geometric_passes():
    rep = validate(ml_geometric())
    assert rep.passed


def test_validate_catches_fat_component():
    t = TestFamily(TestKind.ML, {3: [geometric(1)]})
    rep = validate(t)
    assert not rep.passed
    fail = rep.first_failure()
    assert "1/2" in fail.detail and "1/8" in fail.detail


def test_every_schnorr_test_is_an_ml_test():
    t = TestFamily(
        TestKind.SCHNORR,
        {m: [geometric(m)] for m in range(9)},
        {"declared_measures": {m: Fraction(1, 2**m) for m in range(9)}},
    )
    assert validate(t).passed
    assert validate(dataclasses.replace(t, kind=TestKind.ML)).passed


def test_schnorr_declared_mismatch_fails():
    t = TestFamily(
        TestKind.SCHNORR,
        {1: [geometric(1)]},
        {"declared_measures": {1: Fraction(1, 4)}},
    )
    rep = validate(t)
    assert not rep.passed
    assert "1/4" in rep.first_failure().detail


def test_schnorr_declared_index_without_component_is_checked(tmp_path, capsys):
    # index 9 has no component, so its actual measure is 0; a declared 0 is
    # written as p/q too
    with open(os.path.join(FIXTURES, "schnorr_geometric.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    path = tmp_path / "schnorr_extra.json"
    for dec, shown, status in (("1/2", "1/2", "FAIL"), ("0", "0/1", "PASS")):
        doc["kind_data"]["declared_measures"]["9"] = dec
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", "--fixture", str(path)]) == (status == "FAIL")
        records = json.loads(capsys.readouterr().out)["records"]
        nine = {"name": "schnorr_extra.json:declared[m=9]", "status": status,
                "detail": f"declared {shown} vs actual 0/1"}
        # m = 9 fails, or passes, alone
        assert [r for r in records if r["status"] == "FAIL" or r["name"] == nine["name"]] == [nine]
        # declared indices are checked in sorted order with the components'
        declared = [r["name"] for r in records if ":declared[" in r["name"]]
        assert declared == [f"schnorr_extra.json:declared[m={m}]" for m in range(10)]


def test_solovay_running_sum_bound():
    t = TestFamily(
        TestKind.SOLOVAY,
        {m: [geometric(m)] for m in range(1, 9)},
        {"total_bound": Fraction(1)},
    )
    assert validate(t).passed
    tight = TestFamily(
        TestKind.SOLOVAY,
        {m: [geometric(0)] for m in range(1, 3)},
        {"total_bound": Fraction(1)},
    )
    assert not validate(tight).passed


def test_exact_membership_fast_path():
    t = ml_geometric()
    inside = evaluate(t, const_name(Fraction(1, 2**10)), 6)
    assert inside.captured == tuple(range(7))
    outside = evaluate(t, const_name(Fraction(3, 4)), 6)
    assert outside.captured == (0,)
    assert outside.escaped == tuple(range(1, 7))


def test_open_endpoint_escapes_exactly():
    # 2^-m is the open right endpoint of (0, 2^-m)
    t = ml_geometric()
    s = evaluate(t, const_name(Fraction(1, 4)), 6)
    assert 1 in s.captured and 2 in s.escaped


def test_window_refinement_capture():
    t = ml_geometric()
    z = scripted_name([Fraction(1, 2**10) + Fraction(1, 2 ** (p + 3)) for p in range(48)], "drift")
    s = evaluate(t, z, 6)
    assert s.captured == tuple(range(7))


def test_undecidable_boundary_point_stays_undecided():
    # a name sitting exactly on the boundary 2^-2 with no exact tag
    t = ml_geometric()
    z = scripted_name([Fraction(1, 4)] * 50, "boundary")
    s = evaluate(t, z, 4)
    assert 2 in s.undecided


def test_convert_solovay_to_ml_bounds_and_membership():
    t = TestFamily(
        TestKind.SOLOVAY,
        {m: [geometric(m)] for m in range(1, 9)},
        {"total_bound": Fraction(1)},
    )
    ml = convert_solovay_to_ml(t, 6)
    assert validate(ml).passed
    # 2^-9 lies in all eight source components, so it survives every threshold
    s = evaluate(ml, const_name(Fraction(1, 2**9)), 3)
    assert s.captured == (0, 1, 2, 3)


@pytest.mark.parametrize("bound", [Fraction(0), Fraction(-1)])
def test_non_positive_solovay_bound_is_rejected(bound):
    t = TestFamily(
        TestKind.SOLOVAY, {1: [geometric(1)]}, {"total_bound": bound}
    )
    with pytest.raises(InvariantViolation):
        convert_solovay_to_ml(t, 3)
    doc = serialize.test_family_to_json(t)
    with pytest.raises(ParseError):
        serialize.test_family_from_json(doc)


def test_build_pi1_ml_test_bounds():
    q = [Fraction(1, 2) - Fraction(1, 2**n) for n in range(66)]
    C = [frozenset(range(m + 1)) for m in range(8)]
    t = build_pi1_ml_test(q, C, 64)
    for m in t.indices():
        assert t.final(m).measure <= Fraction(1, 2**m)


def test_build_pi1_ml_test_captures_limit_point():
    q = [Fraction(1, 2) - Fraction(1, 2**n) for n in range(66)]
    C = [frozenset(range(m + 1)) for m in range(8)]
    t = build_pi1_ml_test(q, C, 64)
    z = scripted_name(
        [Fraction(1, 2) - Fraction(1, 2 ** (p + 1)) for p in range(50)], "limit"
    )
    s = evaluate(t, z, 6)
    assert s.captured == tuple(range(7))


def test_build_hop_sets_counts_jumps():
    # the walk alternates between the two halves, every step is a hop
    q = [Fraction(1, 4), Fraction(3, 4), Fraction(1, 4), Fraction(3, 4)]
    V = [["0", "1"]]
    with pytest.raises(NotPrefixFree):
        build_hop_sets(q, [["0", "01"]], 3)
    # cylinders [0) and [1) are contiguous, so no hop is recorded
    assert build_hop_sets(q, V, 3) == [set()]
    # separate the halves by a buffer: [00) and [11) are non-contiguous
    V2 = [["00", "11"]]
    q2 = [Fraction(1, 8), Fraction(7, 8), Fraction(1, 8)]
    assert build_hop_sets(q2, V2, 3) == [{0, 1}]


def test_hop_requires_distinct_cylinders():
    # both points inside [00): same sigma, not a hop
    q = [Fraction(1, 8), Fraction(1, 16)]
    assert build_hop_sets(q, [["00", "11"]], 3) == [set()]


def demuth_family() -> TestFamily:
    return TestFamily(
        TestKind.DEMUTH,
        {3: [geometric(3)]},
        {"budgets": {3: 4}},
    )


def test_demuth_update_appends_version():
    t = demuth_family()
    t2 = demuth_update(t, 3, geometric(4))
    assert len(t2.components[3]) == 2
    assert len(t.components[3]) == 1  # original untouched


def test_demuth_update_budget_enforced():
    t = demuth_family()
    for _ in range(3):
        t = demuth_update(t, 3, geometric(4))
    assert len(t.components[3]) == 4
    with pytest.raises(BudgetExceeded):
        demuth_update(t, 3, geometric(5))


def test_demuth_update_measure_enforced():
    with pytest.raises(MeasureBoundViolation):
        demuth_update(demuth_family(), 3, geometric(2))


def test_demuth_update_at_negative_index_bounds_by_two():
    # component m = -1 has bound 2^1, as validate reads it
    def span(hi):
        return normalize_union([RationalInterval(Fraction(0), hi, True, True)])

    t = TestFamily(TestKind.DEMUTH, {-1: [span(Fraction(1))]}, {"budgets": {-1: 3}})
    assert validate(t).passed
    t2 = demuth_update(t, -1, span(Fraction(2)))
    assert len(t2.components[-1]) == 2 and validate(t2).passed
    with pytest.raises(MeasureBoundViolation, match="exceeds 2/1 at m=-1"):
        demuth_update(t, -1, span(Fraction(5, 2)))


def iseq_family() -> TestFamily:
    blocks = []
    for m in range(1, 4):
        for r in range(1, 4):
            w = Fraction(1, 2 ** (m + r + 1))
            table = {
                0: normalize_union([RationalInterval(Fraction(0), w, True, True)]),
                1: normalize_union([RationalInterval(Fraction(1, 2), Fraction(1, 2) + w, True, True)]),
            }
            blocks.append({"m": m, "r": r, "table": table, "excluded": frozenset({1})})
    return TestFamily(TestKind.INTERVAL_SEQUENCE, {}, {"blocks": blocks})


def test_interval_sequence_bounds():
    assert validate(iseq_family()).passed


def test_excised_blocks_do_not_count():
    t = iseq_family()
    # un-excising index 1 doubles every block measure but stays within the per-block bound
    t2 = TestFamily(
        TestKind.INTERVAL_SEQUENCE,
        {},
        {"blocks": [{**b, "excluded": frozenset()} for b in t.kind_data["blocks"]]},
    )
    assert validate(t2).passed


def test_blocks_are_checked_in_m_r_order():
    t = iseq_family()
    reversed_blocks = TestFamily(t.kind, {}, {"blocks": t.kind_data["blocks"][::-1]})
    assert validate(reversed_blocks) == validate(t)


def test_interval_sequence_to_schnorr_round():
    sch = interval_sequence_to_schnorr(iseq_family(), 4)
    assert sch.kind is TestKind.SCHNORR
    assert validate(sch).passed
    assert sch.kind_data["relativized"] is True


def test_schnorr_to_interval_sequence_with_mind_changes():
    sch = interval_sequence_to_schnorr(iseq_family(), 4)

    def script(query, stage):
        _, m, r = query
        w = Fraction(1, 2 ** (m + r + 2))
        early = (RationalInterval(Fraction(1, 4), Fraction(1, 4) + w, True, True),)
        late = (RationalInterval(Fraction(0), w, True, True),)
        return early if stage < 2 else late

    oracle = LimitOracle(script, budget=4)
    t = schnorr_to_interval_sequence(sch, oracle, 3)
    assert t.kind is TestKind.INTERVAL_SEQUENCE
    assert validate(t).passed
    # each mind change excised the previously emitted block index
    assert all(b["excluded"] for b in t.kind_data["blocks"])


def three_mind_changes(query, stage):
    """A guess per block query that changes at stages 1, 2 and 3."""
    _, m, r = query
    w = Fraction(1, 2 ** (m + r + 4))
    return (RationalInterval(Fraction(min(stage, 3), 4), Fraction(min(stage, 3), 4) + w, True, True),)


@pytest.mark.parametrize("budget", [0, 2])
def test_schnorr_to_interval_sequence_enforces_the_mind_change_budget(budget):
    sch = interval_sequence_to_schnorr(iseq_family(), 4)
    oracle = LimitOracle(three_mind_changes, budget=budget)
    assert not oracle.validate_budget(("block", 1, 1), 3)
    with pytest.raises(BudgetExceeded) as info:
        schnorr_to_interval_sequence(sch, oracle, 3)
    assert str(info.value) == (
        "oracle query ('block', 1, 1) changes its guess 3 times up to stage 3 "
        f"> its budget ({budget})"
    )


def test_schnorr_to_interval_sequence_accepts_a_budget_equal_to_the_changes():
    sch = interval_sequence_to_schnorr(iseq_family(), 4)
    oracle = LimitOracle(three_mind_changes, budget=3)
    assert oracle.changes(("block", 1, 1), 3) == 3 and oracle.validate_budget(("block", 1, 1), 3)
    t = schnorr_to_interval_sequence(sch, oracle, 3)
    assert validate(t).passed
    # three changes excise the first three emitted indices of every block
    assert all(b["excluded"] == {0, 1, 2} for b in t.kind_data["blocks"])


def test_schnorr_to_interval_sequence_reads_each_stage_once():
    sch = interval_sequence_to_schnorr(iseq_family(), 4)
    calls = []

    def script(query, stage):
        calls.append((query, stage))
        return three_mind_changes(query, stage)

    t = schnorr_to_interval_sequence(sch, LimitOracle(script, budget=3), 3)
    # 9 block queries (m, r in 1..3), stages 0..3 each, every call distinct
    queries = [("block", m, r) for m in (1, 2, 3) for r in (1, 2, 3)]
    assert sorted(calls) == sorted((q, s) for q in queries for s in range(4))
    # the blocks are the guesses at stages 0..3, each change excising the last
    assert t.kind_data["blocks"] == [
        {"m": q[1], "r": q[2],
         "table": dict(enumerate(normalize_union(three_mind_changes(q, s)) for s in range(4))),
         "excluded": {0, 1, 2}}
        for q in queries
    ]


# every conversion checks the test it builds (and an interval-sequence or
# PI1 input) through `randomness._checked`; these bounds hold on valid
# input, so each check is forced by a builder whose unions are all of [0, 1]
FULL = normalize_union([RationalInterval(Fraction(0), Fraction(1))])


def test_convert_solovay_to_ml_checks_what_it_builds(monkeypatch):
    monkeypatch.setattr(randomness, "coverage_at_least", lambda unions, n: FULL)
    t = TestFamily(TestKind.SOLOVAY, {1: [geometric(1)]}, {"total_bound": Fraction(1)})
    with pytest.raises(InvariantViolation) as info:
        convert_solovay_to_ml(t, 3)
    # component 0 holds; component 1 is the first record that fails
    assert str(info.value) == "measure 1/1 vs bound 1/2"


def test_build_pi1_ml_test_checks_what_it_builds(monkeypatch):
    # every q_n is in every C set, so the input's residual unions are empty
    # and hold; every B_m, a union of intervals, is [0, 1]
    monkeypatch.setattr(randomness, "normalize_union", lambda ivs: FULL if ivs else normalize_union(ivs))
    q = [Fraction(k, 4) for k in range(4)]
    with pytest.raises(InvariantViolation) as info:
        build_pi1_ml_test(q, [frozenset({1, 2})] * 3, 3)
    assert str(info.value) == "measure 1/1 vs bound 1/2"


def test_build_pi1_ml_test_checks_its_input_first(monkeypatch):
    calls = []
    monkeypatch.setattr(randomness, "normalize_union", lambda ivs: calls.append(ivs) or normalize_union(ivs))
    q = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
    with pytest.raises(InvariantViolation) as info:
        build_pi1_ml_test(q, [frozenset()] * 3, 3)
    assert str(info.value) == "residual measure 1/1 vs < 1/1"
    # one union per C set, all of them the input's residuals: no B_m was built
    assert len(calls) == 3 and all(not iv.lo_open for ivs in calls for iv in ivs)


def test_interval_sequence_to_schnorr_checks_its_input():
    block = {"m": 1, "r": 1, "table": {0: FULL}, "excluded": frozenset()}
    t = TestFamily(TestKind.INTERVAL_SEQUENCE, {}, {"blocks": [block]})
    with pytest.raises(InvariantViolation) as info:
        interval_sequence_to_schnorr(t, 4)
    assert str(info.value) == "measure 1/1 vs 1/4"


def test_schnorr_to_interval_sequence_checks_what_it_builds(monkeypatch):
    sch = interval_sequence_to_schnorr(iseq_family(), 4)
    monkeypatch.setattr(randomness, "normalize_union", lambda ivs: FULL)
    with pytest.raises(InvariantViolation) as info:
        schnorr_to_interval_sequence(sch, LimitOracle(three_mind_changes, budget=3), 3)
    # block (1, 1), the first in (m, r) order, is bounded by 2^-2
    assert str(info.value) == "measure 1/1 vs 1/4"


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 6),
    st.lists(
        st.tuples(
            st.fractions(min_value=0, max_value=1, max_denominator=64),
            st.fractions(min_value=0, max_value=1, max_denominator=64),
        ),
        max_size=5,
    ),
)
def test_validate_agrees_with_direct_measure_check(m, raw):
    u = normalize_union(
        RationalInterval(min(a, b), max(a, b), True, True) for a, b in raw if a != b
    )
    t = TestFamily(TestKind.ML, {m: [u]})
    assert validate(t).passed == (u.measure <= Fraction(1, 2**m))


def _interval(a, b, lo_open, hi_open):
    lo, hi = min(a, b), max(a, b)
    return RationalInterval(lo, hi, lo_open and lo < hi, hi_open and lo < hi)


eighths = st.integers(0, 8).map(lambda k: Fraction(k, 8))
canonical_unions = st.lists(
    st.builds(_interval, eighths, eighths, st.booleans(), st.booleans()), max_size=5
).map(normalize_union)
# on the parts' ends and between them, inside [0, 1] and past it
points = st.one_of(
    st.integers(-1, 17).map(lambda k: Fraction(k, 16)),
    st.fractions(min_value=-1, max_value=2, max_denominator=64),
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), canonical_unions, points)
def test_exact_name_is_captured_by_the_first_part_holding_it(m, u, q):
    verdict = evaluate(TestFamily(TestKind.ML, {m: [u]}), const_name(q), m).per_component[m]
    first = next((part for part in u.parts if part.contains(q)), None)
    if first is None:
        assert verdict == Verdict(VerdictResult.ESCAPED)
    else:
        assert verdict == Verdict(VerdictResult.CAPTURED, first)


def is_doc(*blocks):
    """An interval-sequence fixture document of blocks (m, r, table, excluded)."""
    return {"type": "test_family", "kind": "INTERVAL_SEQUENCE", "kind_data": {"blocks": [
        {"m": m, "r": r, "table": table, "excluded": excluded} for m, r, table, excluded in blocks
    ]}}


@st.composite
def is_docs(draw):
    """Up to five blocks (m, r), each with up to four entries on the
    sixteenths of [0, 2^-(m+r)] (so that its bound holds) or of [0, 1], keys
    in any order, and excised indices that may or may not be keys."""
    blocks = []
    for m, r in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4)), max_size=5, unique=True)):
        scale = Fraction(1, 2 ** (m + r)) if draw(st.booleans()) else Fraction(1)
        ends = st.integers(0, 16).map(lambda k: scale * Fraction(k, 16))
        entry = st.builds(_interval, ends, ends, st.booleans(), st.booleans()).map(str)
        table = draw(st.dictionaries(st.integers(0, 9).map(str), entry, max_size=4))
        blocks.append((m, r, table, draw(st.lists(st.integers(0, 9), max_size=3, unique=True))))
    return is_doc(*blocks)


@settings(max_examples=150, deadline=None)
@given(is_docs())
# entries that overlap, that touch at an end one of them holds, that touch at
# an end both leave open, and points, one of them inside another entry
@example(is_doc((1, 1, {"0": "[0/1,1/8]", "1": "(1/16,3/16)", "2": "[3/16,1/4)",
                        "3": "(1/4,3/8)", "4": "[1/2,1/2]", "5": "[5/16,5/16]"}, [])))
# keys out of order, excised indices among and past them, and a block whose
# every entry is excised
@example(is_doc((2, 1, {"7": "(1/16,1/8)", "2": "[0/1,1/32]", "5": "[1/2,1/1]"}, [5, 9]),
                (0, 3, {"1": "[0/1,1/1]"}, [1]),
                (2, 0, {"0": "(1/8,1/4)"}, []),
                (1, 2, {}, [])))
def test_interval_sequence_blocks_match_the_sort_and_merge(doc):
    t = serialize.test_family_from_json(doc)
    assert serialize.test_family_from_json(serialize.test_family_to_json(t)) == t
    for depth in range(6):
        assert outcome(interval_sequence_to_schnorr, t, depth, catch=RandlabError) == outcome(
            ref.interval_sequence_to_schnorr, t, depth, catch=RandlabError)
    # each block's live entries, and each m's, merged by the oracle
    expected, per_m = [], {}
    for b in sorted(t.kind_data["blocks"], key=lambda b: (b["m"], b["r"])):
        m, r = b["m"], b["r"]
        parts = [u.parts[0] for k, u in b["table"].items() if k not in b["excluded"]]
        per_m.setdefault(m, []).extend(parts)
        mu, bound = ref.normalize_union(parts).measure, Fraction(1, 2 ** (m + r))
        expected.append((f"block_bound[m={m},r={r}]", mu <= bound,
                         f"measure {format_rational(mu)} vs {format_rational(bound)}"))
    for m, parts in sorted(per_m.items()):
        mu, bound = ref.normalize_union(parts).measure, Fraction(1, 2**m)
        expected.append((f"aggregate_bound[m={m}]", mu <= bound,
                         f"aggregate measure {format_rational(mu)} vs {format_rational(bound)}"))
    assert [(c.name, c.passed, c.detail) for c in validate(t).records] == expected


def shown_convention(kind, captured, escaped, undecided) -> str:
    """The convention text of a `kind` test whose components captured,
    escaped or left undecided the name, as tuples of their indices."""
    if kind is TestKind.SOLOVAY:
        return f"hit count among materialized components: {len(captured)}"
    if kind is TestKind.DEMUTH:
        return (f"hits among final versions: {len(captured)}; "
                f"escapes: {len(escaped)} (passing = escaping almost every m)")
    if kind is TestKind.WEAK_DEMUTH:
        return f"passing witness m={escaped[0]}" if escaped else "no escape found"
    if escaped:
        return "escapes the intersection at materialized depth"
    if undecided:
        return f"no escape found; undecided at m={','.join(map(str, undecided))}"
    return "in intersection up to depth" if captured else "no component materialized up to depth"


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(TestKind),
    st.dictionaries(st.integers(0, 4), canonical_unions, max_size=4),
    st.integers(0, 16).map(lambda k: Fraction(k, 16)),
    st.booleans(),
    st.integers(0, 4),
)
# the one component leaves the name's only value, 1/2, open: undecided
@example(TestKind.ML, {1: normalize_union([RationalInterval(Fraction(0), Fraction(1, 2), hi_open=True)])},
         Fraction(1, 2), False, 4)
# no component at all
@example(TestKind.INTERVAL_SEQUENCE, {}, Fraction(1, 2), True, 4)
def test_conventions_claim_only_what_the_components_show(kind, unions, q, exact, depth):
    t = TestFamily(kind, {m: [u] for m, u in unions.items()})
    # a name without an exact tag whose values all sit at q stays undecided
    # wherever q is an end of a part
    z = const_name(q) if exact else scripted_name([q] * 50, "still")
    s = evaluate(t, z, depth)
    shown = [tuple(m for m, v in sorted(s.per_component.items()) if v.result is res)
             for res in VerdictResult]
    assert [s.captured, s.escaped, s.undecided] == shown
    assert s.convention == shown_convention(kind, *shown)
    for m, u in unions.items():
        if m <= depth and not exact and q in {Fraction(e, u.den) for e in u.ends}:
            assert s.per_component[m].result is VerdictResult.UNDECIDED_AT_DEPTH
