"""Every named budget, called from Python: one past it raises BudgetExceeded
worded "<subject> > NAME (limit)" with the size requested in the subject,
and, where that is cheap, a call at the limit goes through."""

import dataclasses
import os
from fractions import Fraction

import pytest

from randlab import serialize
from randlab.cauchy import ModulusFunction, const_name
from randlab.derivatives import (
    GRID_DENOMINATOR_BUDGET,
    PSEUDO_DERIVATIVE_PAIR_BUDGET,
    pseudo_derivative,
)
from randlab.errors import BudgetExceeded
from randlab.markov import (
    CANONICAL_NONUC_STAGE_BUDGET,
    EXTENSION_PRECISION_BUDGET,
    MODULUS_PRECISION_BUDGET,
    OSCILLATION_DEPTH_BUDGET,
    SLOPE_GRID_PAIR_BUDGET,
    StagedCover,
    canonical_nonuc,
    const_fn,
    eval_extension,
    identity_fn,
    oscillation_tree,
    slope_bounds_check,
    square_fn,
)
from randlab.martingales import FAIRNESS_DEPTH_BUDGET, check_fairness, constant_martingale
from randlab.randomness import (
    COMPONENT_INDEX_BUDGET,
    convert_solovay_to_ml,
    interval_sequence_to_schnorr,
    schnorr_to_interval_sequence,
)
from randlab.ttmeasures import (
    TRANSPORT_LENGTH_CAP,
    USE_BOUND_BUDGET,
    LimitOracle,
    identity_tt,
    induced_measure_of_cylinder,
    transport,
    tt_from_ucf,
    uniform_measure,
)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def family(name):
    return serialize.test_family_from_json(serialize.load_fixture(os.path.join(FIXTURES, name)))


def derive(at, scale, precision):
    return pseudo_derivative(square_fn(), const_name(Fraction(at)), Fraction(scale), precision)


def slope_check(grid):
    return slope_bounds_check(identity_fn(), StagedCover((), ()), Fraction(0), Fraction(2), grid)


def extension_with_modulus(delta):
    f = dataclasses.replace(identity_fn(), modulus=ModulusFunction(lambda eps: delta))
    return eval_extension(f, const_name(Fraction(1, 3)), 0)


def ucf_use_bound(bit):
    # theta(eps) = eps: bit n uses n + 2 input bits
    return tt_from_ucf(identity_fn(), 8).use_bound(bit)


def schnorr_to_is(depth):
    sch = interval_sequence_to_schnorr(family("interval_sequence_basic.json"), 8)
    return schnorr_to_interval_sequence(sch, LimitOracle(lambda query, stage: ()), depth)


# name, limit, the call one past it, the size it requests, and the call at
# the limit, or None where that is not cheap: a tally of 2^24 inputs, or
# 1024^2 oracle queries.  A count of grid pairs that no call hits exactly is
# tried just past and just under its budget
CASES = [
    ("GRID_DENOMINATOR_BUDGET", GRID_DENOMINATOR_BUDGET,
     lambda: derive(Fraction(1, 3), Fraction(1, 1024), 15), 15,
     lambda: derive(Fraction(1, 3), Fraction(1, 1024), 14)),
    ("PSEUDO_DERIVATIVE_PAIR_BUDGET", PSEUDO_DERIVATIVE_PAIR_BUDGET,
     lambda: derive(Fraction(1, 2), Fraction(255, 16384), 14), 65790,
     lambda: derive(Fraction(1, 2), Fraction(254, 16384), 14)),
    ("CANONICAL_NONUC_STAGE_BUDGET", CANONICAL_NONUC_STAGE_BUDGET,
     lambda: canonical_nonuc(65), 65, lambda: canonical_nonuc(64)),
    ("OSCILLATION_DEPTH_BUDGET", OSCILLATION_DEPTH_BUDGET,
     lambda: oscillation_tree(const_fn(Fraction(0)), 0, 17), 17,
     lambda: oscillation_tree(const_fn(Fraction(0)), 0, 16)),
    ("SLOPE_GRID_PAIR_BUDGET", SLOPE_GRID_PAIR_BUDGET,
     lambda: slope_check(91), 91 * 92 // 2, lambda: slope_check(90)),
    ("MODULUS_PRECISION_BUDGET", MODULUS_PRECISION_BUDGET,
     lambda: extension_with_modulus(Fraction(1, 2**4096)), 4097,
     lambda: extension_with_modulus(Fraction(1, 2**4095))),
    ("EXTENSION_PRECISION_BUDGET", EXTENSION_PRECISION_BUDGET,
     lambda: eval_extension(identity_fn(), const_name(Fraction(1, 3)), 21), 21,
     lambda: eval_extension(identity_fn(), const_name(Fraction(1, 3)), 20)),
    ("depth_budget", FAIRNESS_DEPTH_BUDGET,
     lambda: constant_martingale().value("0" * 17), 17,
     lambda: constant_martingale().value("0" * 16)),
    ("FAIRNESS_DEPTH_BUDGET", FAIRNESS_DEPTH_BUDGET,
     lambda: check_fairness(constant_martingale(), 17), 17,
     lambda: check_fairness(constant_martingale(), 16)),
    ("USE_BOUND_BUDGET", USE_BOUND_BUDGET,
     lambda: induced_measure_of_cylinder(identity_tt(), "0" * 25), 25, None),
    ("USE_BOUND_BUDGET", USE_BOUND_BUDGET,
     lambda: ucf_use_bound(23), 25, lambda: ucf_use_bound(22)),
    ("TRANSPORT_LENGTH_CAP", TRANSPORT_LENGTH_CAP,
     lambda: transport(uniform_measure(), "0" * 65), 65,
     lambda: transport(uniform_measure(), "0" * 64)),
    ("COMPONENT_INDEX_BUDGET", COMPONENT_INDEX_BUDGET,
     lambda: convert_solovay_to_ml(family("solovay_geometric.json"), 1025), 1025,
     lambda: convert_solovay_to_ml(family("solovay_geometric.json"), 1024)),
    ("COMPONENT_INDEX_BUDGET", COMPONENT_INDEX_BUDGET,
     lambda: interval_sequence_to_schnorr(family("interval_sequence_basic.json"), 1025), 1025,
     lambda: interval_sequence_to_schnorr(family("interval_sequence_basic.json"), 1024)),
    ("COMPONENT_INDEX_BUDGET", COMPONENT_INDEX_BUDGET, lambda: schnorr_to_is(1025), 1025, None),
]

IDS = [
    "grid-denominator", "derivative-pairs", "nonuc-stages", "tree-depth", "slope-pairs",
    "modulus-precision", "extension-precision", "martingale-depth", "fairness-depth",
    "tally-use-bound", "ucf-use-bound", "transport-cap", "solovay-to-ml-depth",
    "is-to-schnorr-depth", "schnorr-to-is-depth",
]


@pytest.mark.parametrize("name, limit, over, size, at_limit", CASES, ids=IDS)
def test_named_budget(name, limit, over, size, at_limit):
    with pytest.raises(BudgetExceeded) as info:
        over()
    message = str(info.value)
    assert message.endswith(f" > {name} ({limit})")
    assert str(size) in message.split(" > ")[0]
    if at_limit is not None:
        at_limit()
