"""The level walks over {0,1}^{<=d} against brute-force references.

Each reference, in oracles.py, is the straightforward node-by-node (or
path-by-path) walk that the level versions replace; the property tests
assert exact equality on random non-negative tables up to depth 6.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as ref
from oracles import recorded_outcome
from randlab.errors import InvariantViolation
from randlab.cauchy import compare_at, const_name
from randlab.intervals import bit_strings, dyadic_value
from randlab.martingales import (
    check_fairness,
    constant_martingale,
    savings_growth_constants,
    savings_transform,
    savings_violation_search,
    table_martingale,
)
from randlab.ttmeasures import MonotoneCDF, table_measure, uniform_measure, validate_measure

MAX_DEPTH = 6


def _nodes(depth: int) -> list[str]:
    return [s for k in range(depth + 1) for s in bit_strings(k)]


weights = st.integers(0, 6).map(lambda n: Fraction(n, 6))
capitals = st.integers(0, 48).map(lambda n: Fraction(n, 6))


@st.composite
def tables(draw, fair: bool):
    """A table on {0,1}^{<=d}: fair splits of the root (2M(σ) = M(σ0) + M(σ1))
    or arbitrary non-negative entries."""
    depth = draw(st.integers(0, MAX_DEPTH))
    table = {"": draw(capitals)}
    for s in _nodes(depth)[1:]:
        if not fair:
            table[s] = draw(capitals)
        elif s.endswith("0"):
            table[s] = 2 * table[s[:-1]] * draw(weights)
        else:
            table[s] = 2 * table[s[:-1]] - table[s[:-1] + "0"]
    return depth, table


any_table = st.booleans().flatmap(tables)
# a table and a depth d at most its own
table_to_depth = any_table.flatmap(lambda dt: st.tuples(st.just(dt[1]), st.integers(0, dt[0])))

# levels whose denominators share no factor: thirds above halves, then
# thirds, sixths and quarters, so each level's lcm differs from the tree's
_THIRDS_OVER_HALVES = {
    "": Fraction(1),
    "0": Fraction(1, 3),
    "1": Fraction(2, 3),
    "00": Fraction(1, 2),
    "01": Fraction(0),
    "10": Fraction(1, 2),
    "11": Fraction(1, 2),
    "000": Fraction(1, 3),
    "001": Fraction(1, 6),
    **{s: Fraction(1, 4) for s in bit_strings(3)[2:]},
}
# the same levels made additive: each level has its own lcm (3, 6, 12)
_ADDITIVE_THIRDS = {
    "": Fraction(1),
    "0": Fraction(1, 3),
    "1": Fraction(2, 3),
    "00": Fraction(1, 6),
    "01": Fraction(1, 6),
    "10": Fraction(1, 2),
    "11": Fraction(1, 6),
    **{s + b: v * w for s, v in [("00", Fraction(1, 6)), ("01", Fraction(1, 6)),
                                 ("10", Fraction(1, 2)), ("11", Fraction(1, 6))]
       for b, w in [("0", Fraction(1, 4)), ("1", Fraction(3, 4))]},
}
# capitals that rise above the root's, in thirds, halves, then sixths and
# quarters, so growth constants and drops are not read at the root
_RISING_THIRDS = {
    "": Fraction(3, 2),
    "0": Fraction(7, 3),
    "1": Fraction(8, 3),
    "00": Fraction(9, 2),
    "01": Fraction(1, 2),
    "10": Fraction(11, 2),
    "11": Fraction(3, 2),
    **dict(zip(bit_strings(3), [Fraction(n, d) for n, d in [
        (13, 3), (2, 3), (17, 6), (25, 6), (1, 4), (9, 4), (7, 4), (3, 4)]])),
}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bit_strings(-1), "string length -1 < 0"),
        (lambda: uniform_measure().level(-1), "level -1 < 0"),
        (lambda: table_measure("t", {"": Fraction(1)}).level(-2), "level -2 < 0"),
        (lambda: constant_martingale().level(-1), "level -1 < 0"),
        (lambda: table_martingale({"": Fraction(1)}).level(-1), "level -1 < 0"),
        (lambda: const_name(Fraction(0)).at(-2), "precision index -2 < 0"),
        (lambda: compare_at(const_name(Fraction(0)), const_name(Fraction(1)), -1),
         "precision index -1 < 0"),
        (lambda: MonotoneCDF(uniform_measure(), -1).knots(), "cdf depth -1 < 0"),
        (lambda: MonotoneCDF(uniform_measure(), -3).is_monotone(), "cdf depth -3 < 0"),
    ],
    ids=["bit-strings", "native-level", "table-level", "native-capitals",
         "table-capitals", "name-at", "compare-at", "knots", "is-monotone"],
)
def test_a_negative_size_is_a_value_error_naming_it(call, message):
    assert ref.outcome(call) == (ValueError, message)


def test_bit_strings_are_the_cylinders_left_to_right():
    assert bit_strings(0) == [""]
    assert bit_strings(1) == ["0", "1"]
    for n in range(1, 7):
        level = bit_strings(n)
        assert level == ["".join(t) for t in product("01", repeat=n)]
        assert [dyadic_value(s) for s in level] == [Fraction(i, 2**n) for i in range(2**n)]


@settings(max_examples=150, deadline=None)
@given(table_to_depth, st.fractions(min_value=-1, max_value=4, max_denominator=4))
@example((_THIRDS_OVER_HALVES, 3), Fraction(1, 4))
@example((_THIRDS_OVER_HALVES, 2), Fraction(-1, 3))
@example((_ADDITIVE_THIRDS, 3), Fraction(1, 3))
@example((_RISING_THIRDS, 3), Fraction(1, 4))
def test_violation_search_matches_nested_dfs(td, drop):
    table, d = td
    m = table_martingale(table)
    assert savings_violation_search(m, d, drop) == ref.savings_violation_search(m, d, drop)
    saved = savings_transform(m, d)
    assert savings_violation_search(saved, d, drop) == ref.savings_violation_search(saved, d, drop)


@settings(max_examples=150, deadline=None)
@given(table_to_depth)
@example((_THIRDS_OVER_HALVES, 3))
@example((_ADDITIVE_THIRDS, 3))
@example((_RISING_THIRDS, 3))
def test_growth_constants_match_per_leaf_traces(td):
    table, d = td
    m = table_martingale(table)
    saved = savings_transform(m, d)
    assert savings_growth_constants(m, saved, d) == ref.savings_growth_constants(m, saved, d)
    assert savings_growth_constants(m, m, d) == ref.savings_growth_constants(m, m, d)


@settings(max_examples=150, deadline=None)
@given(table_to_depth)
@example((_THIRDS_OVER_HALVES, 3))
@example((_ADDITIVE_THIRDS, 3))
@example(({**_ADDITIVE_THIRDS, "01": Fraction(1, 2), "10": Fraction(1, 6)}, 3))
def test_validate_measure_matches_additivity_triples(td):
    table, d = td
    root = table[""] or Fraction(1)
    for mu in (
        # a fair table scaled by 2^-|σ| is additive
        table_measure("fair", {s: v / root / 2 ** len(s) for s, v in table.items()}),
        table_measure("raw", table),
    ):
        assert validate_measure(mu, d) == ref.validate_measure(mu, d)


@settings(max_examples=150, deadline=None)
@given(table_to_depth, st.integers(0, 8).map(lambda n: Fraction(n, 6)))
@example(({"": Fraction(1), "0": Fraction(2), "1": Fraction(0)}, 1), Fraction(0))
@example(({"": Fraction(1), "0": Fraction(1, 2), "1": Fraction(1, 2), "00": Fraction(-1),
           "01": Fraction(0), "10": Fraction(0), "11": Fraction(0)}, 2), Fraction(0))
def test_is_monotone_matches_fraction_knots(td, shift):
    # shifted down, masses go negative, so a knot can fall below the last
    table, d = td
    g = MonotoneCDF(table_measure("shifted", {s: v - shift for s, v in table.items()}), d)
    assert g.is_monotone() == ref.is_monotone(g)


@settings(max_examples=150, deadline=None)
@given(any_table, st.data())
def test_savings_table_matches_at_every_node(dt, data):
    depth, table = dt
    d = data.draw(st.integers(0, depth))
    m = table_martingale(table)
    saved = savings_transform(m, d)
    expected = ref.savings_transform(m, d)
    assert {s: saved.value(s) for s in _nodes(d)} == {s: expected.value(s) for s in _nodes(d)}


@settings(max_examples=300, deadline=None)
@given(any_table, st.data())
def test_check_fairness_matches_fraction_dfs(dt, data):
    # one bit past the table reads a hole; a negative entry is refused
    depth, table = dt
    d = data.draw(st.integers(-1, depth + 1))
    if data.draw(st.booleans()):
        s = data.draw(st.sampled_from(sorted(table)))
        table = {**table, s: -1 - table[s]}
    m = table_martingale(table)
    got = recorded_outcome(check_fairness, m, d)
    assert got == recorded_outcome(ref.check_fairness, m, d)


def test_zero_working_capital_is_absorbing():
    # below the bust at "0" the unfair table gives capital 3 again; the
    # working capital stays 0, so the savings table reads the bank (0) there
    table = {s: Fraction(3 if s.startswith("0") else 2) for s in _nodes(3)}
    table.update({"": Fraction(1), "0": Fraction(0)})
    m = table_martingale(table)
    saved = savings_transform(m, 3)
    expected = ref.savings_transform(m, 3)
    assert {s: saved.value(s) for s in _nodes(3)} == {s: expected.value(s) for s in _nodes(3)}
    assert [expected.value(s) for s in bit_strings(3)[:4]] == [0, 0, 0, 0]


def test_negative_capital_raises_where_nested_dfs_returned():
    # the nested search meets the violation at "1" before it reads the
    # negative capital at "0"; the one-pass search reads every capital first
    m = table_martingale({"": Fraction(4), "0": Fraction(-1), "1": Fraction(0)})
    assert ref.savings_violation_search(m, 1, Fraction(2)) == ("", "1")
    with pytest.raises(InvariantViolation):
        savings_violation_search(m, 1, Fraction(2))
    with pytest.raises(InvariantViolation):
        savings_growth_constants(m, m, 1)
