"""Every named budget, called from Python: one past it raises BudgetExceeded
worded "<subject> > NAME (limit)" with the size requested in the subject,
given here in full, and, where that is cheap, a call at the limit goes
through.  A size of more than 20 digits is written by its leading digits
and its digit count.  Every budget name that `check_budget` is given in
`src/randlab` is named in README.md's labcli section and in a message below
(a stdlib `ast` scan)."""

import ast
import dataclasses
import glob
import os
from fractions import Fraction

import pytest

from randlab import serialize
from randlab.cauchy import ModulusFunction, const_name
from randlab.derivatives import pseudo_derivative
from randlab.errors import BudgetExceeded, format_size
from randlab.markov import (
    StagedCover,
    canonical_nonuc,
    const_fn,
    eval_extension,
    identity_fn,
    oscillation_tree,
    slope_bounds_check,
    square_fn,
)
from randlab.martingales import check_fairness, constant_martingale
from randlab.randomness import (
    convert_solovay_to_ml,
    interval_sequence_to_schnorr,
    schnorr_to_interval_sequence,
)
from randlab.intervals import _with_level
from randlab.ttmeasures import (
    CylinderMeasure,
    LimitOracle,
    bernoulli_measure,
    cdf,
    identity_tt,
    induced_measure_of_cylinder,
    transport,
    transport_pushforward_check,
    tt_from_ucf,
    uniform_measure,
    validate_measure,
)

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
FIXTURES = os.path.join(ROOT, "fixtures")


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


# the call one past the budget, its full message, and the call at the limit,
# or None where that is not cheap: a tally of 2^24 inputs, or 1024^2 oracle
# queries.  A count of grid pairs that no call hits exactly is tried just
# past and just under its budget
CASES = [
    (lambda: derive(Fraction(1, 3), Fraction(1, 1024), 15),
     "grid_denominator 15 > GRID_DENOMINATOR_BUDGET (14)",
     lambda: derive(Fraction(1, 3), Fraction(1, 1024), 14)),
    (lambda: derive(Fraction(1, 2), Fraction(255, 16384), 14),
     "up to 65790 grid pairs > PSEUDO_DERIVATIVE_PAIR_BUDGET (65536)",
     lambda: derive(Fraction(1, 2), Fraction(254, 16384), 14)),
    # a size past int's digit limit for text is still written
    (lambda: derive(Fraction(1, 3), Fraction(10**4299), 14),
     "up to 89505792000000000000... (4307 digits) grid pairs"
     " > PSEUDO_DERIVATIVE_PAIR_BUDGET (65536)", None),
    (lambda: canonical_nonuc(65),
     "stage_count 65 > CANONICAL_NONUC_STAGE_BUDGET (64)",
     lambda: canonical_nonuc(64)),
    (lambda: oscillation_tree(const_fn(Fraction(0)), 0, 17),
     "depth 17 > OSCILLATION_DEPTH_BUDGET (16)",
     lambda: oscillation_tree(const_fn(Fraction(0)), 0, 16)),
    (lambda: slope_check(91),
     "4186 grid pairs > SLOPE_GRID_PAIR_BUDGET (4096)",
     lambda: slope_check(90)),
    (lambda: extension_with_modulus(Fraction(1, 2**4096)),
     "precision 4097 > MODULUS_PRECISION_BUDGET (4096)",
     lambda: extension_with_modulus(Fraction(1, 2**4095))),
    (lambda: eval_extension(identity_fn(), const_name(Fraction(1, 3)), 21),
     "precision 21 > EXTENSION_PRECISION_BUDGET (20)",
     lambda: eval_extension(identity_fn(), const_name(Fraction(1, 3)), 20)),
    (lambda: constant_martingale().value("0" * 17),
     "|sigma| 17 > depth_budget (16)",
     lambda: constant_martingale().value("0" * 16)),
    (lambda: constant_martingale().level(17),
     "|sigma| 17 > depth_budget (16)",
     lambda: constant_martingale().level(16)),
    (lambda: check_fairness(constant_martingale(), 17),
     "depth 17 > FAIRNESS_DEPTH_BUDGET (16)",
     lambda: check_fairness(constant_martingale(), 16)),
    (lambda: induced_measure_of_cylinder(identity_tt(), "0" * 25),
     "use bound 25 at length 25 > USE_BOUND_BUDGET (24)", None),
    (lambda: ucf_use_bound(23),
     "use bound 25 at bit 23 > USE_BOUND_BUDGET (24)",
     lambda: ucf_use_bound(22)),
    (lambda: cdf(bernoulli_measure(Fraction(3, 4)), Fraction(2**65 - 1, 2**65)),
     "dyadic length 65 > CDF_LENGTH_BUDGET (64)",
     lambda: cdf(bernoulli_measure(Fraction(3, 4)), Fraction(2**64 - 1, 2**64))),
    (lambda: transport(uniform_measure(), "0" * 65),
     "prefix length 65 > TRANSPORT_LENGTH_CAP (64)",
     lambda: transport(uniform_measure(), "0" * 64)),
    (lambda: convert_solovay_to_ml(family("solovay_geometric.json"), 1025),
     "depth 1025 > COMPONENT_INDEX_BUDGET (1024)",
     lambda: convert_solovay_to_ml(family("solovay_geometric.json"), 1024)),
    (lambda: interval_sequence_to_schnorr(family("interval_sequence_basic.json"), 1025),
     "depth 1025 > COMPONENT_INDEX_BUDGET (1024)",
     lambda: interval_sequence_to_schnorr(family("interval_sequence_basic.json"), 1024)),
    (lambda: schnorr_to_is(1025), "depth 1025 > COMPONENT_INDEX_BUDGET (1024)", None),
    (lambda: uniform_measure().level(21),
     "level 21 > MEASURE_DEPTH_BUDGET (20)",
     lambda: uniform_measure().level(20)),
    (lambda: validate_measure(uniform_measure(), 21),
     "depth 21 > MEASURE_DEPTH_BUDGET (20)", None),
    (lambda: transport_pushforward_check(uniform_measure(), "", 21),
     "depth 21 > MEASURE_DEPTH_BUDGET (20)", None),
]

IDS = [
    "grid-denominator", "derivative-pairs", "derivative-pairs-past-digit-limit",
    "nonuc-stages", "tree-depth", "slope-pairs",
    "modulus-precision", "extension-precision", "martingale-depth", "martingale-level",
    "fairness-depth", "tally-use-bound", "ucf-use-bound", "cdf-length", "transport-cap",
    "solovay-to-ml-depth", "is-to-schnorr-depth", "schnorr-to-is-depth", "measure-level",
    "validate-measure-depth", "pushforward-depth",
]


@pytest.mark.parametrize("over, message, at_limit", CASES, ids=IDS)
def test_named_budget(over, message, at_limit):
    with pytest.raises(BudgetExceeded) as info:
        over()
    assert str(info.value) == message
    if at_limit is not None:
        at_limit()


def unread(*args):
    raise AssertionError(f"read {args!r}")


@pytest.mark.parametrize("check", [validate_measure,
                                   lambda mu, d: transport_pushforward_check(mu, "", d)])
def test_a_measure_depth_past_the_budget_raises_before_any_read(check):
    mu = CylinderMeasure("unread", _with_level(unread, unread))
    with pytest.raises(BudgetExceeded):
        check(mu, 21)


@pytest.mark.parametrize(
    "mass", [unread, _with_level(unread, unread, unread)], ids=["opaque", "native"]
)
def test_a_cdf_argument_past_the_budget_raises_before_any_read(mass):
    # 4,000 bits: the mass read took about 0.45 s before the budget
    d = Fraction(2**4000 - 1, 2**4000)
    with pytest.raises(BudgetExceeded) as info:
        cdf(CylinderMeasure("unread", mass), d)
    assert str(info.value) == "dyadic length 4000 > CDF_LENGTH_BUDGET (64)"


@pytest.mark.parametrize(
    "size, text",
    [
        (0, "0"),
        (-1025, "-1025"),
        (10**20 - 1, "9" * 20),
        (10**20, "10000000000000000000... (21 digits)"),
        (-(10**20), "-10000000000000000000... (21 digits)"),
        (int("1" * 4000), "11111111111111111111... (4000 digits)"),
        (10**4400 - 1, "99999999999999999999... (4400 digits)"),
    ],
    ids=["zero", "negative", "20-digits", "21-digits", "minus-21-digits", "4000-digits",
         "past-the-int-digit-limit"],
)
def test_format_size_writes_a_long_size_by_its_digit_count(size, text):
    assert format_size(size) == text


def budget_names(source: str) -> list[str]:
    """The budget name each `check_budget` call in `source` passes, in
    order: the string its third argument (or `name=`) is, or the code that
    computes it where that is no string constant."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)
        ) == "check_budget":
            arg = next((k.value for k in node.keywords if k.arg == "name"), None)
            arg = node.args[2] if arg is None else arg
            constant = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            names.append(arg.value if constant else ast.unparse(arg))
    return names


def test_budget_names_reads_each_check_budget_call():
    source = (
        "from .errors import check_budget\n"
        "def f(n, name):\n"
        "    check_budget(n, 'n {}', 'A_BUDGET', 3)\n"
        "    errors.check_budget(n, 'n {}', name=('B_' 'CAP'), limit=4)\n"
        "    check_budget(n, 'n {}', name, 5)\n"
        "    over_budget(n, 'n {}', 'C_BUDGET', 6)\n"
    )
    assert budget_names(source) == ["A_BUDGET", "B_CAP", "name"]


def test_every_budget_is_documented_and_tested():
    names = set()
    for path in glob.glob(os.path.join(ROOT, "src", "randlab", "*.py")):
        with open(path, encoding="utf-8") as fh:
            names.update(budget_names(fh.read()))
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        # the labcli section, whose exit-2 and budget paragraphs list them
        readme = fh.read().split("\n## labcli\n", 1)[1].split("\n## ", 1)[0]
    assert "MEASURE_DEPTH_BUDGET" in names
    assert sorted(n for n in names if f"`{n}`" not in readme) == []
    assert sorted(n for n in names if not any(f"> {n} (" in m for _, m, _ in CASES)) == []
