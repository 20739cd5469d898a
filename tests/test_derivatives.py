import dataclasses
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as ref
from oracles import outcome
from randlab.cauchy import const_name
from randlab.derivatives import (
    DenjoyVerdict,
    PseudoDerivativeEstimate,
    classify_denjoy,
    pseudo_derivative,
    slope,
)
from randlab.errors import BudgetExceeded, DegeneratePair
from randlab.markov import (
    BUILTIN_FUNCTIONS,
    abs_offset_fn,
    canonical_nonuc,
    const_fn,
    function_by_name,
    identity_fn,
    polygonal_fn,
    square_fn,
)
from strategies import polygons, rational

H = Fraction(1, 2**10)
TOL = Fraction(1, 16)


def test_slope_oracle():
    assert slope(square_fn(), Fraction(1, 4), Fraction(1, 2)) == Fraction(3, 4)


def test_slope_rejects_degenerate_pair():
    with pytest.raises(DegeneratePair):
        slope(square_fn(), Fraction(1, 3), Fraction(1, 3))


@given(st.fractions(min_value=Fraction(1, 8), max_value=Fraction(7, 8), max_denominator=2**8))
@settings(max_examples=15, deadline=None)
def test_square_derivative_brackets_2x(x0):
    est = pseudo_derivative(square_fn(), const_name(x0), H, 14)
    assert not est.upper_infinite and not est.lower_infinite
    # both one-sided slope extremes stay within h-resolution of 2x
    assert abs(est.upper - 2 * x0) <= 2 * H + Fraction(1, 2**13)
    assert abs(est.lower - 2 * x0) <= 2 * H + Fraction(1, 2**13)
    assert est.lower <= est.upper


def test_identity_derivative_is_exactly_one():
    est = pseudo_derivative(identity_fn(), const_name(Fraction(1, 3)), H, 14)
    assert (est.upper, est.lower) == (Fraction(1), Fraction(1))
    assert classify_denjoy(est, TOL) is DenjoyVerdict.DIFFERENTIABLE


def test_square_classifies_differentiable():
    est = pseudo_derivative(square_fn(), const_name(Fraction(1, 3)), H, 14)
    assert abs(est.upper - Fraction(2, 3)) <= Fraction(1, 64)
    assert abs(est.lower - Fraction(2, 3)) <= Fraction(1, 64)
    assert classify_denjoy(est, TOL) is DenjoyVerdict.DIFFERENTIABLE


def test_corner_classifies_neither():
    est = pseudo_derivative(abs_offset_fn(), const_name(Fraction(1, 2)), H, 14)
    assert (est.upper, est.lower) == (Fraction(1), Fraction(-1))
    assert classify_denjoy(est, TOL) is DenjoyVerdict.NEITHER


def test_steep_polygonal_trips_blowup_flag():
    # the first grid step already shows slope 8 * 2^14 = 2^17 > 2^16
    f = polygonal_fn(
        [
            (Fraction(0), Fraction(0)),
            (Fraction(1, 2**14), Fraction(8)),
            (Fraction(1), Fraction(8)),
        ]
    )
    est = pseudo_derivative(f, const_name(Fraction(0)), H, 14)
    assert est.upper_infinite


def test_full_oscillation_verdict():
    est = PseudoDerivativeEstimate(
        upper=Fraction(2**17),
        lower=Fraction(-(2**17)),
        upper_infinite=True,
        lower_infinite=True,
        scale=H,
        grid_denominator=14,
    )
    assert classify_denjoy(est, TOL) is DenjoyVerdict.FULL_OSCILLATION


def test_one_sided_blowup_is_neither():
    est = PseudoDerivativeEstimate(
        upper=Fraction(2**17),
        lower=Fraction(0),
        upper_infinite=True,
        lower_infinite=False,
        scale=H,
        grid_denominator=14,
    )
    assert classify_denjoy(est, TOL) is DenjoyVerdict.NEITHER


def test_finite_same_sign_spread_is_unresolved():
    est = PseudoDerivativeEstimate(
        upper=Fraction(3),
        lower=Fraction(1),
        upper_infinite=False,
        lower_infinite=False,
        scale=H,
        grid_denominator=14,
    )
    assert classify_denjoy(est, TOL) is DenjoyVerdict.UNRESOLVED


def test_finite_opposite_sign_spread_is_neither():
    est = PseudoDerivativeEstimate(
        upper=Fraction(1),
        lower=Fraction(-1),
        upper_infinite=False,
        lower_infinite=False,
        scale=H,
        grid_denominator=14,
    )
    assert classify_denjoy(est, TOL) is DenjoyVerdict.NEITHER


# the errors the properties compare; any other error fails the test
ESTIMATE_ERRORS = (ValueError, BudgetExceeded)

functions = (
    st.sampled_from(sorted(BUILTIN_FUNCTIONS)).map(function_by_name)
    | rational.map(const_fn)
    | st.integers(1, 12).map(canonical_nonuc)
    | polygons().map(polygonal_fn)
)


@st.composite
def estimate_inputs(draw):
    """(z, h, d) with d <= 10: points on the grid and off it, a little
    outside [0, 1] or far from it, and scales from below a quarter step
    (which raises) up to 2^40, far past the pair budget."""
    d = draw(st.integers(0, 10))
    on_grid = st.integers(-2, 2**d + 2).map(lambda k: Fraction(k, 2**d))
    near = st.fractions(min_value=-Fraction(1, 8), max_value=Fraction(9, 8), max_denominator=999)
    far = st.fractions(min_value=-4, max_value=4, max_denominator=99)
    z = draw(on_grid | near | far)
    h = Fraction(2) ** -draw(st.integers(0, d + 3) | st.integers(-40, -1))
    return const_name(z), h, d


# a first step of slope 2^17 trips both blow-up flags
STEEP = polygonal_fn([(0, 0), (Fraction(1, 2**10), 128), (Fraction(2, 2**10), 0), (1, 0)])


@settings(max_examples=300, deadline=None)
@given(functions, estimate_inputs())
@example(STEEP, (const_name(Fraction(1, 2**10)), Fraction(1, 2**3), 10))
def test_pseudo_derivative_equals_reference(f, inputs):
    got = outcome(pseudo_derivative, f, *inputs, catch=ESTIMATE_ERRORS)
    assert got == outcome(ref.pseudo_derivative, f, *inputs, catch=ESTIMATE_ERRORS)


@pytest.mark.parametrize(
    "z, h, d, error",
    [
        # left of [0, 1] no left end exists, however large h is
        (-1, 10**9, 14, ValueError),
        (-1, Fraction(10**9, 7), 10, ValueError),
        # right of [0, 1] no right end exists; a huge h trips the budget first
        (5, 4, 10, ValueError),
        (5, 10**9, 14, BudgetExceeded),
    ],
)
def test_pseudo_derivative_far_from_the_unit_interval(z, h, d, error):
    inputs = const_name(Fraction(z)), Fraction(h), d
    got = outcome(pseudo_derivative, square_fn(), *inputs, catch=ESTIMATE_ERRORS)
    assert got[0] is error
    assert got == outcome(ref.pseudo_derivative, square_fn(), *inputs, catch=ESTIMATE_ERRORS)


def counting(f):
    calls = []

    def ev(x):
        calls.append(x)
        return f(x)

    return dataclasses.replace(f, eval_at=ev), calls


@settings(max_examples=100, deadline=None)
@given(functions, estimate_inputs())
def test_pseudo_derivative_reads_f_where_the_reference_does(f, inputs):
    g, calls = counting(f)
    ref_g, ref_calls = counting(f)
    outcome(pseudo_derivative, g, *inputs, catch=ESTIMATE_ERRORS)
    outcome(ref.pseudo_derivative, ref_g, *inputs, catch=ESTIMATE_ERRORS)
    assert sorted(calls) == sorted(ref_calls)
    assert len(set(calls)) == len(calls)
