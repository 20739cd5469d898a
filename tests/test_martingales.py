from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles as ref
from randlab.errors import BudgetExceeded, InvariantViolation
from randlab.martingales import (
    FAIRNESS_DEPTH_BUDGET,
    all_in_on_0,
    capital_trace,
    check_fairness,
    constant_martingale,
    savings_growth_constants,
    savings_transform,
    savings_violation_search,
    split_bet,
    table_martingale,
)

BUILTINS = [
    constant_martingale(Fraction(1)),
    all_in_on_0(),
    split_bet(Fraction(3, 4)),
]

prefixes = st.text(alphabet="01", max_size=10)


@pytest.mark.parametrize("m", BUILTINS, ids=lambda m: m.name)
def test_builtins_are_fair_to_depth_12(m):
    assert check_fairness(m, 12).ok


@pytest.mark.parametrize("m", BUILTINS, ids=lambda m: m.name)
def test_level_sum_conservation(m):
    for n in (0, 3, 7, 10):
        total = sum(
            (m.value(format(i, f"0{n}b") if n else "") for i in range(2**n)),
            Fraction(0),
        )
        assert total == 2**n * m.initial_capital


def test_all_in_doubles_along_zeros():
    m = all_in_on_0()
    assert m.value("0000") == 16
    assert m.value("0001") == 0
    assert m.value("") == 1


@given(prefixes)
def test_split_bet_value_oracle(s):
    p = Fraction(3, 4)
    assert split_bet(p).value(s) == ref.split_bet_value(p, s)


@st.composite
def unit_rationals(draw):
    """p = a/b with b <= 64 and 0 <= p <= 1; 0 and 1 also as ints."""
    b = draw(st.integers(1, 64))
    p = Fraction(draw(st.integers(0, b)), b)
    return int(p) if p.denominator == 1 and draw(st.booleans()) else p


long_prefixes = st.text(alphabet="01", max_size=24) | st.text(alphabet="01x", max_size=8)


@settings(max_examples=400, deadline=None)
@given(unit_rationals(), long_prefixes)
def test_split_bet_closed_form_matches_products(p, s):
    # value_at: the capital itself, past the depth budget that value() enforces
    got, want = split_bet(p).value_at(s), ref.split_bet_value(p, s)
    assert got == want and type(got) is type(want) is Fraction


@given(prefixes)
def test_split_bet_float_bias_gives_exact_capitals(s):
    got = split_bet(0.75).value(s)
    assert got == ref.split_bet_value(Fraction(3, 4), s) and type(got) is Fraction


def test_negative_capital_rejected():
    m = table_martingale({"": Fraction(1), "0": Fraction(-1), "1": Fraction(3)})
    with pytest.raises(InvariantViolation):
        m.value("0")


def test_depth_budget_enforced():
    with pytest.raises(BudgetExceeded):
        check_fairness(constant_martingale(), 17)


def test_table_martingale_reads_to_the_fairness_budget():
    deep = FAIRNESS_DEPTH_BUDGET + 1
    m = table_martingale({"0" * k: Fraction(2**k) for k in range(deep + 1)})
    assert m.value("0" * FAIRNESS_DEPTH_BUDGET) == 2**FAIRNESS_DEPTH_BUDGET
    with pytest.raises(BudgetExceeded):
        m.value("0" * deep)


def test_unfair_table_detected():
    m = table_martingale({"": Fraction(1), "0": Fraction(1), "1": Fraction(3)})
    rep = check_fairness(m, 1)
    assert not rep.ok and "fairness" in rep.violation


def test_capital_trace_running_max():
    tr = capital_trace(all_in_on_0(), "0010")
    assert tr.capitals == (1, 2, 4, 0, 0)
    assert tr.running_max == (1, 2, 4, 4, 4)


@pytest.mark.parametrize("m", BUILTINS, ids=lambda m: m.name)
def test_savings_transform_is_fair(m):
    assert check_fairness(savings_transform(m, 10), 10).ok


@pytest.mark.parametrize("m", BUILTINS, ids=lambda m: m.name)
def test_savings_property_no_violation_to_depth_12(m):
    t = savings_transform(m, 12)
    assert savings_violation_search(t, 12, drop=2 * m.initial_capital) is None


def test_base_martingale_lacks_savings_property():
    # the all-in strategy loses everything on a 1, dropping by more than 2
    m = all_in_on_0()
    found = savings_violation_search(m, 4, drop=Fraction(2))
    assert found is not None
    sigma, tau = found
    assert tau.startswith(sigma)
    assert m.value(tau) < m.value(sigma) - 2


def test_savings_bank_never_forfeited():
    t = savings_transform(all_in_on_0(), 12)
    # capital peaked near 2^k along zeros; after a ruinous 1 the bank remains
    assert t.value("0000000001") >= t.value("0000000000") - 2


def test_savings_growth_constants():
    base = all_in_on_0()
    c, const = savings_growth_constants(base, savings_transform(base, 10), 10)
    assert c == base.initial_capital
    # along the all-zero path max M = 2^10 and max M' = 11, so const >= -1
    for leaf in range(2**6):
        path = format(leaf, "06b")
        mx = max(capital_trace(base, path).capitals)
        if mx >= 1:
            log2_floor = mx.numerator.bit_length() - 1
            mxt = max(capital_trace(savings_transform(base, 6), path).capitals)
            assert mxt >= c * log2_floor - const


def test_savings_growth_constants_at_depth_0():
    base = split_bet(Fraction(3, 4))
    assert savings_growth_constants(base, savings_transform(base, 0), 0) == (1, 0)
