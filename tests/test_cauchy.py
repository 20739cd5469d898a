import math
from dataclasses import replace
from fractions import Fraction

from hypothesis import given, strategies as st

from randlab.cauchy import (
    CauchyName,
    Comparison,
    add,
    compare_at,
    const_name,
    mul,
    scripted_name,
    sub,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=2**12)


def sqrt2_name() -> CauchyName:
    # q_n = floor(sqrt(2 * 4^(n+2))) / 2^(n+2): error < 2^-(n+2) < 2^-n
    def approx(n: int) -> Fraction:
        return Fraction(math.isqrt(2 * 4 ** (n + 2)), 2 ** (n + 2))

    return CauchyName(approx, provenance="sqrt2")


@given(rationals, st.integers(0, 24))
def test_const_name_contract(q, n):
    z = const_name(q)
    assert z.at(n) == q
    assert z.exact == q


@given(st.integers(0, 20), st.integers(0, 20))
def test_sqrt2_cauchy_contract(n, k):
    z = sqrt2_name()
    lo, hi = min(n, k), max(n, k)
    assert abs(z.at(hi) - z.at(lo)) <= Fraction(1, 2**lo)


@given(st.integers(0, 20))
def test_sqrt2_window_brackets_value(n):
    z = sqrt2_name()
    w = z.window(n)
    # 2 sits between the squares of the window endpoints
    assert w.lo**2 <= 2 <= w.hi**2
    assert w.length == Fraction(2, 2**n)


def test_scripted_name_repeats_last_value():
    z = scripted_name([Fraction(0), Fraction(1, 4)], "script")
    assert z.at(1) == Fraction(1, 4)
    assert z.at(30) == Fraction(1, 4)


def test_a_replaced_name_reads_its_own_approximations():
    z = const_name(Fraction(1, 3))
    assert z.at(5) == Fraction(1, 3)
    w = replace(z, approx=lambda n: Fraction(0), exact=None)
    assert (w.at(5), w.at(6)) == (0, 0)
    assert z.at(6) == Fraction(1, 3)


@given(rationals, rationals, st.integers(0, 16))
def test_add_contract(a, b, n):
    z = add(const_name(a), const_name(b))
    assert abs(z.at(n) - (a + b)) <= Fraction(1, 2**n)


@given(rationals, rationals, st.integers(0, 16))
def test_sub_contract(a, b, n):
    z = sub(const_name(a), const_name(b))
    assert abs(z.at(n) - (a - b)) <= Fraction(1, 2**n)


@given(rationals, rationals, st.integers(0, 12))
def test_mul_contract(a, b, n):
    z = mul(const_name(a), const_name(b))
    assert abs(z.at(n) - a * b) <= Fraction(1, 2**n)


def test_mul_against_sqrt2_oracle():
    z = mul(sqrt2_name(), sqrt2_name())
    for n in range(12):
        assert abs(z.at(n) - 2) <= Fraction(1, 2**n)


@given(rationals, rationals, st.integers(0, 12))
def test_compare_at_soundness(a, b, n):
    verdict = compare_at(const_name(a), const_name(b), n)
    if verdict is Comparison.LESS:
        assert a < b
    elif verdict is Comparison.GREATER:
        assert a > b
    else:
        assert abs(a - b) <= Fraction(4, 2**n)


def test_compare_at_separates_distinct_rationals():
    a, b = const_name(Fraction(1, 3)), const_name(Fraction(1, 2))
    assert compare_at(a, b, 8) is Comparison.LESS
    assert compare_at(b, a, 8) is Comparison.GREATER


def test_compare_at_equal_is_indistinguishable():
    z = const_name(Fraction(2, 7))
    assert compare_at(z, z, 20) is Comparison.INDISTINGUISHABLE
