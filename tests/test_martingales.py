from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from randlab.errors import BudgetExceeded, InvariantViolation
from randlab.martingales import (
    Martingale,
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
    # betting fraction p on 0: value = prod over bits of (2p on 0, 2(1-p) on 1)
    p = Fraction(3, 4)
    expected = Fraction(1)
    for b in s:
        expected *= 2 * p if b == "0" else 2 * (1 - p)
    assert split_bet(p).value(s) == expected


def test_negative_capital_rejected():
    m = table_martingale({"": Fraction(1), "0": Fraction(-1), "1": Fraction(3)})
    with pytest.raises(InvariantViolation):
        m.value("0")


def test_depth_budget_enforced():
    with pytest.raises(BudgetExceeded):
        check_fairness(constant_martingale(), 17)


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
