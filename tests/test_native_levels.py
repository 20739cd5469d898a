"""Native levels against the per-node reads they replace.

A product form (uniform, Bernoulli, split_bet, constant, all_in_on_0), an
induced measure and a savings result carry a native `level` on their mass
or capital callable; `CylinderMeasure.level` and `Martingale.level` read it,
and read any other callable once per string, through one reader,
`intervals._level`.  Each property checks that a level equals `ref.level`,
one read per string, as rationals, and that the six level consumers give on
these objects what their oracles give.  The properties of test_levels.py draw
only tables, which take the per-node path.
"""

import dataclasses
import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as ref
from oracles import outcome, recorded_outcome
from randlab.errors import BudgetExceeded, InvariantViolation, ParseError
from randlab.intervals import _level, _with_level, bit_strings
from randlab.markov import half_fn, square_fn
from randlab.martingales import (
    FairnessReport,
    Martingale,
    all_in_on_0,
    check_fairness,
    constant_martingale,
    savings_growth_constants,
    savings_transform,
    savings_violation_search,
    split_bet,
    table_martingale,
)
from randlab.ttmeasures import (
    MonotoneCDF,
    bernoulli_measure,
    identity_tt,
    materialize_measure,
    pairwise_or_tt,
    table_measure,
    tt_from_ucf,
    uniform_measure,
    validate_measure,
)

MAX_DEPTH = 7

biases = st.fractions(0, 1, max_denominator=12).filter(lambda p: 0 < p < 1)
stakes = st.fractions(0, 1, max_denominator=12)
capitals = st.fractions(0, 4, max_denominator=6)
FUNCTIONALS = {
    "identity": identity_tt,
    "pairwise_or": pairwise_or_tt,
    "tt(square)": lambda: tt_from_ucf(square_fn(), 8),
    "tt(half)": lambda: tt_from_ucf(half_fn(), 8),
}

product_measures = st.just(uniform_measure()) | biases.map(bernoulli_measure)
induced_measures = st.sampled_from(sorted(FUNCTIONALS)).map(
    lambda name: materialize_measure(FUNCTIONALS[name]())
)
product_martingales = (
    stakes.map(split_bet) | capitals.map(constant_martingale) | st.just(all_in_on_0())
)


def with_native_level(m, depth_budget=None):
    """m, its capitals also given as a native level read per string, on a
    callable of its own: m.value_at keeps no level."""
    read = functools.partial(m.value_at)
    level = functools.partial(_level, m.value_at)
    budget = m.depth_budget if depth_budget is None else depth_budget
    return Martingale("native", _with_level(read, level), budget)


def rationals(level):
    ints, den = level
    return [Fraction(x, den) for x in ints]


@settings(max_examples=100, deadline=None)
@given(product_measures | induced_measures, st.integers(0, MAX_DEPTH))
def test_native_measure_level_is_the_per_node_reads(mu, k):
    assert hasattr(mu.mass, "level")
    masses = ref.level(mu, k)
    assert rationals(mu.level(k)) == masses
    assert rationals(mu.level(k, 2)) == masses[::2]


@settings(max_examples=100, deadline=None)
@given(product_martingales, st.integers(0, MAX_DEPTH))
@example(split_bet(Fraction(0)), 3)
@example(split_bet(Fraction(1)), 3)
@example(constant_martingale(Fraction(0)), 2)
# a capital given as an int or a float reads as a Fraction
@example(constant_martingale(2), 2)
@example(constant_martingale(0.5), 2)
def test_native_martingale_level_is_the_per_node_reads(m, k):
    assert hasattr(m.value_at, "level")
    reads = ref.level(m, k)
    assert rationals(m.level(k)) == reads
    assert all(type(v) is Fraction for v in reads)


@settings(max_examples=100, deadline=None)
@given(product_martingales, st.integers(0, MAX_DEPTH), st.integers(0, MAX_DEPTH))
@example(split_bet(Fraction(0)), 3, 3)
@example(split_bet(Fraction(1)), 3, 3)
def test_savings_level_is_the_per_node_reads(m, depth, k):
    saved = savings_transform(m, depth)
    k = min(k, depth)
    assert rationals(saved.level(k)) == ref.level(saved, k)
    # the level is a copy: a consumer may change it
    saved.level(k)[0].append(1)
    assert rationals(saved.level(k)) == ref.level(saved, k)


@st.composite
def level_cases(draw):
    """(a measure or a martingale, k, step): a product form, an induced
    measure, a savings result, or a table of every string of length k, of
    masses or of non-negative capitals; a measure may be a
    `dataclasses.replace` copy whose mass is opaque, and is read at step 1
    or 2, a martingale at step 1."""
    k = draw(st.integers(0, MAX_DEPTH))
    values = st.lists(capitals, min_size=2**k, max_size=2**k).map(
        lambda vs: dict(zip(bit_strings(k), vs))
    )
    measures = product_measures | induced_measures | values.map(
        lambda table: table_measure("t", table)
    )
    martingales = product_martingales | values.map(table_martingale) | st.builds(
        savings_transform, product_martingales, st.integers(k, MAX_DEPTH)
    )
    if draw(st.booleans()):
        mu = draw(measures)
        if draw(st.booleans()):
            mu = dataclasses.replace(mu, mass=functools.partial(mu.mass))
        return mu, k, draw(st.sampled_from([1, 2]))
    return draw(martingales), k, 1


@settings(max_examples=150, deadline=None)
@given(level_cases())
def test_every_level_is_the_per_string_reads_and_a_copy(case):
    obj, k, step = case
    read = functools.partial(obj.level, *((k,) if step == 1 else (k, step)))
    ints, den = read()
    assert all(type(x) is int for x in ints) and type(den) is int
    assert rationals((ints, den)) == ref.level(obj, k)[::step]
    # a consumer may change what it was handed; the next read is unchanged
    ints.append(1)
    ints[0] += 1
    assert rationals(read()) == ref.level(obj, k)[::step]


def test_a_negative_capital_then_a_hole_raises_alike_on_both_paths():
    # every level is read whole before a negative capital is refused, so
    # "11", missing, is met after "00" is read, on the per-string path too
    table = {"": Fraction(1), "0": Fraction(1), "1": Fraction(1), "00": Fraction(-1),
             "01": Fraction(3), "10": Fraction(0)}
    opaque = table_martingale(table, "t")
    got = outcome(opaque.level, 2, catch=(ParseError, InvariantViolation))
    assert got == hole("11", "martingale")
    assert got == outcome(with_native_level(opaque).level, 2,
                          catch=(ParseError, InvariantViolation))


@settings(max_examples=60, deadline=None)
@given(product_measures | induced_measures, st.integers(0, MAX_DEPTH))
def test_validate_measure_and_knots_match_their_oracles(mu, d):
    assert validate_measure(mu, d) == ref.validate_measure(mu, d)
    assert MonotoneCDF(mu, d).knots() == ref.knots(mu, d)


@settings(max_examples=60, deadline=None)
@given(product_martingales, st.integers(0, MAX_DEPTH),
       st.fractions(-1, 4, max_denominator=4))
@example(split_bet(Fraction(0)), 4, Fraction(2))
@example(split_bet(Fraction(1)), 4, Fraction(1, 2))
@example(all_in_on_0(), 5, Fraction(0))
@example(constant_martingale(Fraction(0)), 3, Fraction(-1))
def test_savings_consumers_match_their_oracles(m, d, drop):
    saved, expected = savings_transform(m, d), ref.savings_transform(m, d)
    nodes = [s for k in range(d + 1) for s in bit_strings(k)]
    assert [saved.value(s) for s in nodes] == [expected.value(s) for s in nodes]
    for mart in (m, saved):
        assert savings_violation_search(mart, d, drop) == ref.savings_violation_search(mart, d, drop)
    assert savings_growth_constants(m, saved, d) == ref.savings_growth_constants(m, saved, d)
    assert savings_growth_constants(m, m, d) == ref.savings_growth_constants(m, m, d)


def test_level_past_the_depth_budget_raises_as_value():
    for m in (
        split_bet(Fraction(3, 4)),
        savings_transform(split_bet(Fraction(3, 4)), 3),
        table_martingale({s: Fraction(1) for k in range(5) for s in bit_strings(k)}),
    ):
        m = dataclasses.replace(m, depth_budget=3)
        got = outcome(m.level, 4, catch=BudgetExceeded)
        assert got == outcome(m.value, "0000", catch=BudgetExceeded)
        assert got[1] == "|sigma| 4 > depth_budget (3)"


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.data())
def test_negative_capital_raises_at_the_first_in_level_order(k, data):
    capitals_ = data.draw(st.lists(st.integers(-2, 3), min_size=2**k, max_size=2**k))
    table = dict(zip(bit_strings(k), map(Fraction, capitals_)))
    opaque = table_martingale(table)
    native = with_native_level(opaque)
    got = outcome(native.level, k, catch=InvariantViolation)
    assert got == outcome(opaque.level, k, catch=InvariantViolation)
    first = next((s for s in bit_strings(k) if table[s] < 0), None)
    if first is not None:
        assert got == (InvariantViolation, f"negative capital at {first!r}")
        assert got == outcome(ref.level, opaque, k, catch=InvariantViolation)


def test_negative_constant_raises_at_the_root():
    m = constant_martingale(Fraction(-1, 2))
    assert outcome(m.level, 2, catch=InvariantViolation) == (
        InvariantViolation, "negative capital at '00'"
    )
    assert outcome(m.level, 0, catch=InvariantViolation) == outcome(
        m.value, "", catch=InvariantViolation
    )


def test_knots_read_only_left_children_and_the_root():
    # no "1", "01" or "11": g at every i/4 reads "0", "00", "10" and ""
    mu = table_measure("left", {"": Fraction(1), "0": Fraction(1, 2),
                                "00": Fraction(1, 4), "10": Fraction(1, 4)})
    assert MonotoneCDF(mu, 2).knots() == ref.knots(mu, 2)
    assert [g for _, g in MonotoneCDF(mu, 2).knots()] == [0, Fraction(1, 4), Fraction(1, 2),
                                                         Fraction(3, 4), 1]


def hole(name, kind="measure"):
    what = "no mass for cylinder" if kind == "measure" else "no capital for"
    return ParseError, f"table {kind} 't' has {what} {name!r}"


def test_which_hole_a_parse_error_names():
    # several strings missing: each consumer names the first it reads
    full = {s: Fraction(1, 2 ** len(s)) for k in range(3) for s in bit_strings(k)}
    mu = table_measure("t", {s: v for s, v in full.items() if s not in ("0", "00")})
    # knots read level by level; the per-point tabulation met "00" first
    assert outcome(MonotoneCDF(mu, 2).knots, catch=ParseError) == hole("0")
    assert outcome(ref.knots, mu, 2, catch=ParseError) == hole("00")
    # validate_measure reads level by level, as it did
    got = outcome(validate_measure, mu, 2, catch=ParseError)
    assert got == outcome(ref.validate_measure, mu, 2, catch=ParseError) == hole("0")

    caps = {s: Fraction(1) for k in range(3) for s in bit_strings(k)}
    m = table_martingale({s: v for s, v in caps.items() if s not in ("01", "10")}, "t")
    # the transform and the search read level by level, as they did
    assert outcome(savings_transform, m, 2, catch=ParseError) == hole("01", "martingale")
    assert outcome(savings_violation_search, m, 2, catch=ParseError) == hole("01", "martingale")
    # growth constants read the base's level, then the transformed one's;
    # the per-node reads alternated, so met the transformed one's hole first
    base = table_martingale({s: v for s, v in caps.items() if s != "1"}, "t")
    other = table_martingale({s: v for s, v in caps.items() if s != "0"}, "t")
    assert outcome(savings_growth_constants, base, other, 1, catch=ParseError) == hole(
        "1", "martingale"
    )
    assert outcome(ref.savings_growth_constants, base, other, 1, catch=ParseError) == hole(
        "0", "martingale"
    )


def test_opaque_savings_reads_the_children_of_a_zero_capital():
    # "1" is 0 and "10", "11" are missing: the last level is read whole, as
    # every earlier one is, so the transform names the first hole; the
    # per-node oracle places no bet on a zero capital and reads neither
    table = {"": Fraction(1), "0": Fraction(2), "1": Fraction(0),
             "00": Fraction(4), "01": Fraction(0)}
    m = table_martingale(table, "t")
    assert outcome(savings_transform, m, 2, catch=ParseError) == hole("10", "martingale")
    expected = ref.savings_transform(m, 2)
    assert [expected.value(s) for s in ("10", "11")] == [Fraction(0)] * 2


# --- fairness: the level pass against the depth-first walk

FAIRNESS_BUILTINS = [
    split_bet(Fraction(3, 4)),
    split_bet(Fraction(0)),
    split_bet(Fraction(1)),
    all_in_on_0(),
    constant_martingale(),
    constant_martingale(Fraction(0)),
]
FAIRNESS_SAVINGS = [savings_transform(m, d) for m in FAIRNESS_BUILTINS[::3] for d in (0, 5, 10)]


def tree(depth):
    """{0,1}^{<depth} in level order."""
    return [s for k in range(depth) for s in bit_strings(k)]


def preorder(depth):
    """{0,1}^{<depth} in the depth-first preorder that visits "1" first."""
    return sorted(tree(depth), key=lambda s: s.translate(str.maketrans("01", "10")))


@st.composite
def planted_tables(draw):
    """A fair table on {0,1}^{<=depth} with capitals raised at a few drawn
    strings of either subtree; whether it is given to its own depth as a
    native level's budget (else to 16); and a depth to check it to, at most
    one past the budget."""
    depth = draw(st.integers(1, 6))
    table = {"": draw(capitals)}
    for s in tree(depth + 1)[1:]:
        if s.endswith("0"):
            table[s] = 2 * table[s[:-1]] * draw(st.fractions(0, 1, max_denominator=4))
        else:
            table[s] = 2 * table[s[:-1]] - table[s[:-1] + "0"]
    for s in draw(st.lists(st.sampled_from(sorted(table)), max_size=4)):
        table[s] += draw(st.fractions(0, 2, max_denominator=3).filter(bool))
    at_budget = draw(st.booleans())
    return depth, table, at_budget, draw(st.integers(-1, depth + at_budget))


# failures at "0" and "10": the walk meets the deeper one under "1" first
UNDER_0_AND_10 = {s: Fraction(0) for s in bit_strings(3)}
UNDER_0_AND_10.update({"": Fraction(1), "0": Fraction(1), "1": Fraction(1), "00": Fraction(4),
                       "01": Fraction(0), "10": Fraction(1), "11": Fraction(1),
                       "110": Fraction(2)})


@settings(max_examples=200, deadline=None)
@given(planted_tables())
@example((3, UNDER_0_AND_10, False, 3))
@example((3, UNDER_0_AND_10, True, 4))
def test_fairness_level_pass_matches_the_dfs(case):
    depth, table, at_budget, d = case
    opaque = table_martingale(table)
    # given to its depth, a table reads past it as a budget error, on both
    # paths; given to 16, the depth asked stays within the table
    native = with_native_level(opaque, depth if at_budget else None)
    got = outcome(check_fairness, native, d, catch=BudgetExceeded)
    assert got == outcome(ref.check_fairness, native, d, catch=BudgetExceeded)
    if not at_budget:
        assert got == outcome(check_fairness, opaque, d)
    # a savings result of the table carries a native level, and its depth
    # as its budget, fair or not
    saved = savings_transform(opaque, depth)
    assert outcome(check_fairness, saved, d + 1, catch=BudgetExceeded) == outcome(
        ref.check_fairness, saved, d + 1, catch=BudgetExceeded
    )


def test_fairness_names_the_first_failure_in_one_first_preorder():
    native = with_native_level(table_martingale(UNDER_0_AND_10))
    assert check_fairness(native, 3).violation == "fairness fails at '10': 2·1 != 0 + 0"
    assert check_fairness(native, 2).violation == "fairness fails at '0': 2·1 != 4 + 0"


@pytest.mark.parametrize("m", FAIRNESS_BUILTINS + FAIRNESS_SAVINGS, ids=lambda m: m.name)
def test_fairness_level_pass_matches_the_dfs_on_builtins(m):
    for d in range(-1, 14):
        got = outcome(check_fairness, m, d, catch=BudgetExceeded)
        assert got == outcome(ref.check_fairness, m, d, catch=BudgetExceeded)


def test_fairness_past_a_savings_budget_raises_as_the_dfs():
    saved = savings_transform(split_bet(Fraction(3, 4)), 10)
    got = outcome(check_fairness, saved, 12, catch=BudgetExceeded)
    assert got == outcome(ref.check_fairness, saved, 12, catch=BudgetExceeded)
    assert got == (BudgetExceeded, "|sigma| 11 > depth_budget (10)")


@pytest.mark.parametrize("d", [1, 4, 12])
def test_fairness_path_without_a_native_level_is_the_dfs(d):
    # recorded_outcome wraps value_at, which hides the native level
    (_, rep), calls = recorded_outcome(check_fairness, split_bet(Fraction(3, 4)), d)
    assert rep.ok
    assert calls == [t for s in preorder(d) for t in (s, s + "0", s + "1")]
    assert len(calls) == 3 * (2**d - 1)


@pytest.mark.parametrize("d", [0, 1, 4, 12])
def test_fairness_path_with_a_native_level_reads_levels_only(d):
    m, reads = split_bet(Fraction(3, 4)), []

    def value_at(s):
        raise AssertionError(f"per-node read of {s!r}")

    value_at.level = lambda k: reads.append(k) or m.value_at.level(k)
    assert check_fairness(dataclasses.replace(m, value_at=value_at), d).ok
    assert reads == list(range(d + 1 if d else 0))


def test_fairness_level_pass_raises_at_a_negative_capital_the_dfs_skips():
    # the walk fails at "1" before it reads "00"; the level pass reads level
    # 2 whole and refuses the negative capital there
    table = {"": Fraction(1), "0": Fraction(1), "1": Fraction(1), "00": Fraction(-1),
             "01": Fraction(3), "10": Fraction(0), "11": Fraction(0)}
    opaque = table_martingale(table)
    expected = FairnessReport(False, "fairness fails at '1': 2·1 != 0 + 0")
    assert check_fairness(opaque, 2) == ref.check_fairness(opaque, 2) == expected
    assert outcome(check_fairness, with_native_level(opaque), 2, catch=InvariantViolation) == (
        InvariantViolation, "negative capital at '00'"
    )
