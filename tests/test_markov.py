import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as ref
from randlab.cauchy import ModulusFunction, const_name
from randlab.derivatives import DenjoyVerdict, classify_denjoy, pseudo_derivative
from randlab.errors import BudgetExceeded, CoverViolation, ExtensionUndefined
from randlab.intervals import RationalInterval
from randlab.markov import (
    BUILTIN_FUNCTIONS,
    CANONICAL_NONUC_STAGE_BUDGET,
    OSCILLATION_DEPTH_BUDGET,
    StagedCover,
    _modulus_precision,
    _by_piece,
    _node_extrema,
    _runs,
    _sample,
    abs_offset_fn,
    canonical_nonuc,
    check_H,
    const_fn,
    eval_extension,
    function_by_name,
    identity_fn,
    oscillation_tree,
    polygonal_fn,
    slope_bounds_check,
    square_fn,
    truncate,
)
from strategies import QUADRATICS, covers, polygons, rational, staged_covers

unit = st.fractions(min_value=0, max_value=1, max_denominator=2**10)

HALF_COVER = StagedCover(
    stages=((RationalInterval(Fraction(0), Fraction(1, 2)),),),
    size_bound=(0,),
)


def nonuc_tents(k: int) -> list[tuple[RationalInterval, Fraction]]:
    """The (interval, peak) pairs of canonical_nonuc(k): peak n on I_n."""
    return [(ref.tent_interval(n), Fraction(n)) for n in range(k)]


@given(unit)
def test_square_matches_oracle(x):
    assert square_fn()(x) == x * x


@given(unit)
def test_abs_offset_matches_oracle(x):
    assert abs_offset_fn()(x) == abs(x - Fraction(1, 2))


def test_polygonal_interpolates():
    f = polygonal_fn([(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))])
    assert f(Fraction(1, 4)) == Fraction(1, 2)
    assert f(Fraction(3, 4)) == Fraction(1, 2)
    assert f.range_on(Fraction(0), Fraction(1)) == (Fraction(0), Fraction(1))


def test_nonuc_tent_geometry():
    # covers have length 2^{-n-2} and approach 1 without reaching it
    f = canonical_nonuc(12)
    for n in range(12):
        iv = ref.tent_interval(n)
        assert iv.length == Fraction(1, 2 ** (n + 2))
        assert f(iv.lo) == 0 and f(iv.hi) == 0
        assert f((iv.lo + iv.hi) / 2) == n
    assert f(Fraction(1)) == 0


@given(st.integers(0, 11), unit)
def test_nonuc_vanishes_outside_covers(n, t):
    f = canonical_nonuc(12)
    covers = [ref.tent_interval(k) for k in range(12)]
    x = t
    if not any(c.contains(x) for c in covers):
        assert f(x) == 0


def test_nonuc_range_is_exact():
    f = canonical_nonuc(8)
    lo, hi = f.range_on(Fraction(0), Fraction(1))
    assert lo == 0 and hi == 7


def tent_cover(size_bound) -> StagedCover:
    """The tents of canonical_nonuc at its stage budget, one per stage: the
    tent in stage n has length 2^{-n-2}."""
    stages = tuple((iv,) for iv, _ in nonuc_tents(CANONICAL_NONUC_STAGE_BUDGET))
    return StagedCover(stages=stages, size_bound=tuple(size_bound))


def test_check_H_accepts_disjoint_tents():
    stages = tuple((iv,) for iv, _ in nonuc_tents(10))
    c = StagedCover(stages=stages, size_bound=tuple(range(len(stages))))
    assert check_H(c) is None
    assert check_H(tent_cover(range(CANONICAL_NONUC_STAGE_BUDGET))) is None
    # every k past the 10 entries reads the last, 9: stage 10 has length
    # 2^-12, which breaks the bound first at k = 12
    violation = check_H(tent_cover(range(10)))
    assert violation.startswith("size violation at k=12: stage 10 interval ")


@settings(max_examples=500, deadline=None)
@given(staged_covers())
@example(tent_cover(range(CANONICAL_NONUC_STAGE_BUDGET)))
@example(tent_cover(range(10)))
# a bound below -1 leaves every stage bound; the stage is named from 0
@example(StagedCover(stages=((), (RationalInterval(Fraction(0), Fraction(3, 4)),)), size_bound=(-3,)))
def test_check_H_equals_its_oracle(c):
    violation = check_H(c)
    assert violation == ref.check_H(c)
    if violation is None:
        return
    # the cover is refused, with the same text, before f is read
    calls = []
    base = dataclasses.replace(square_fn(), eval_at=cube_counting(calls))
    with pytest.raises(CoverViolation) as refused:
        truncate(base, c)
    assert str(refused.value) == violation
    with pytest.raises(CoverViolation) as refused:
        slope_bounds_check(base, c, Fraction(0), Fraction(2), 8)
    assert str(refused.value) == violation
    assert calls == []


def test_check_H_rejects_overlap():
    c = StagedCover(
        stages=(
            (RationalInterval(Fraction(0), Fraction(1, 2)),),
            (RationalInterval(Fraction(1, 4), Fraction(3, 4)),),
        ),
        size_bound=(0, 0),
    )
    violation = check_H(c)
    assert violation is not None and "overlap" in violation


def test_check_H_rejects_late_big_interval():
    c = StagedCover(
        stages=((), (RationalInterval(Fraction(0), Fraction(3, 4)),)),
        size_bound=(0, 0),
    )
    violation = check_H(c)
    assert violation is not None and "size violation at k=1" in violation


def test_cover_without_size_bound_is_a_cover_violation():
    c = StagedCover(stages=((RationalInterval(Fraction(0), Fraction(1, 4)),),), size_bound=())
    assert check_H(c) == "no size bound for a cover of 1 stages"
    with pytest.raises(CoverViolation, match="no size bound"):
        truncate(square_fn(), c)
    # the truncation checks the cover before the lower clause runs
    with pytest.raises(CoverViolation, match="no size bound"):
        slope_bounds_check(identity_fn(), c, Fraction(0), Fraction(2), 8)


@pytest.mark.parametrize("grid", [0, -3])
def test_slope_bounds_reject_an_empty_grid(grid):
    with pytest.raises(ValueError, match=r"requires grid >= 1"):
        slope_bounds_check(square_fn(), StagedCover((), ()), Fraction(0), Fraction(1), grid)


def test_truncation_linear_inside_cover():
    g = truncate(square_fn(), HALF_COVER)
    # chord from (0,0) to (1/2,1/4) has slope 1/2
    assert g(Fraction(1, 4)) == Fraction(1, 8)
    assert g(Fraction(1, 8)) == Fraction(1, 16)


@given(st.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=2**10))
def test_truncation_identity_outside_cover(x):
    g = truncate(square_fn(), HALF_COVER)
    assert g(x) == x * x


def test_truncation_rejects_bad_cover():
    c = StagedCover(
        stages=(
            (RationalInterval(Fraction(0), Fraction(1, 2)),),
            (RationalInterval(Fraction(1, 4), Fraction(3, 4)),),
        ),
        size_bound=(0, 0),
    )
    with pytest.raises(CoverViolation):
        truncate(square_fn(), c)


def test_slope_bounds_clauses():
    v = slope_bounds_check(square_fn(), HALF_COVER, Fraction(1, 4), Fraction(2), 10)
    assert v.passed and v.lower_clause_ok and v.upper_clause_ok
    # w = 1/2 makes the lower clause fail: (1/2)(1/2 - 0) is not < 1/4 - 0
    v2 = slope_bounds_check(square_fn(), HALF_COVER, Fraction(1, 2), Fraction(2), 10)
    assert not v2.lower_clause_ok
    # z = 1 bounds no slope near 1
    v3 = slope_bounds_check(square_fn(), HALF_COVER, Fraction(1, 4), Fraction(1), 10)
    assert not v3.upper_clause_ok


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 3), st.integers(2, 8))
def test_oscillation_tree_downward_closed(n, depth):
    tree = oscillation_tree(canonical_nonuc(12), n, depth)
    assert all(s[:-1] in tree for s in tree if s)


def test_oscillation_tree_identity_stops_at_resolution():
    # the identity moves by less than 2^-3 inside any cylinder of length 2^-3
    for depth in range(3, 10):
        tree = oscillation_tree(identity_fn(), 3, depth)
        assert all(len(s) < 3 for s in tree)


def test_oscillation_tree_nonuc_survives():
    tree = oscillation_tree(canonical_nonuc(20), 0, 12)
    assert any(len(s) == 12 for s in tree)


def test_eval_extension_certified_with_modulus():
    r = eval_extension(square_fn(), const_name(Fraction(1, 3)), 10)
    assert r.certified
    assert r.interval.contains(Fraction(1, 9))
    assert r.interval.length <= Fraction(4, 2**10)


def test_eval_extension_nonuc_defined_point():
    r = eval_extension(canonical_nonuc(20), const_name(Fraction(1, 3)), 8)
    assert r.interval.contains(Fraction(0))
    assert r.interval.length <= Fraction(4, 2**8)


def test_eval_extension_undefined_at_limit_point():
    with pytest.raises(ExtensionUndefined):
        eval_extension(canonical_nonuc(20), const_name(Fraction(1)), 8)


class Unread:
    """An argument that fails the test where any attribute of it is read."""

    def __getattr__(self, name):
        raise AssertionError(f"read {name}")


def test_eval_extension_refuses_a_negative_precision_before_reading_f_or_z():
    with pytest.raises(ValueError, match=re.escape("precision -1 < 0")):
        eval_extension(Unread(), Unread(), -1)
    # the budget is checked first
    with pytest.raises(BudgetExceeded):
        eval_extension(Unread(), Unread(), 21)


def test_function_registry():
    assert function_by_name("identity")(Fraction(1, 3)) == Fraction(1, 3)
    assert function_by_name("const:2/3")(Fraction(1, 5)) == Fraction(2, 3)
    assert function_by_name("canonical_nonuc:8")(Fraction(1)) == 0
    with pytest.raises(ValueError):
        function_by_name("no_such_function")


def test_canonical_nonuc_stage_budget():
    canonical_nonuc(CANONICAL_NONUC_STAGE_BUDGET)
    with pytest.raises(BudgetExceeded, match="CANONICAL_NONUC_STAGE_BUDGET") as info:
        canonical_nonuc(100000)
    assert "100000" in str(info.value)


def test_truncation_point_interval_sharing_a_left_end():
    # [1/4,1/4] listed after [1/4,1/2]: x = 3/8 still takes the chord
    q = Fraction(1, 4)
    c = StagedCover(
        stages=((RationalInterval(q, 2 * q), RationalInterval(q, q)),),
        size_bound=(0,),
    )
    assert truncate(square_fn(), c)(Fraction(3, 8)) == Fraction(5, 32)


builtin_fns = (
    st.sampled_from(sorted(BUILTIN_FUNCTIONS)).map(function_by_name) | rational.map(const_fn)
)


H = Fraction(1, 2)
VERTEX_SQUARE = QUADRATICS[0]
bases = builtin_fns | st.just(canonical_nonuc(6)) | st.sampled_from(QUADRATICS)
tree_sizes = st.tuples(st.integers(-80, 80), st.integers(0, 6))
grid_sizes = st.integers(1, 200) | st.sampled_from([2**d for d in range(11)])


@st.composite
def grid_reads(draw):
    """A grid size n and an ascending range of indices inside 0..n: all of
    0..n, or any start, stop and step, the stop often past n so that the
    range reaches k = n."""
    n = draw(grid_sizes)
    start = draw(st.integers(0, n))
    stop = draw(st.just(n + 1) | st.integers(start, n + 1))
    ks = draw(st.just(range(n + 1)) | st.builds(range, st.just(start), st.just(stop), st.integers(1, 3)))
    return n, ks


def interval_marks(ivs):
    """Every endpoint and midpoint of the intervals."""
    return [p for iv in ivs for p in (iv.lo, (iv.lo + iv.hi) / 2, iv.hi)]


def assert_tree_is_reference(f, n, depth):
    """The tree, and the node extrema it is folded from, equal the oracles'."""
    assert oscillation_tree(f, n, depth) == ref.oscillation_tree(f, n, depth)
    lo, hi, den = _node_extrema(f, depth)
    extrema = [(Fraction(a, den), Fraction(b, den)) for a, b in zip(lo, hi)]
    assert extrema == ref._node_extrema(f, depth)


# n = ±80 clamps the threshold at both ends; a constant has spread 0
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), tree_sizes)
@example(12, (80, 6))
@example(12, (-80, 6))
def test_tree_of_nonuc_equals_reference(k, size):
    f = canonical_nonuc(k)
    assert_tree_is_reference(f, *size)


@settings(max_examples=60, deadline=None)
@given(bases, covers(), tree_sizes)
@example(square_fn(), HALF_COVER, (80, 6))
@example(canonical_nonuc(6), HALF_COVER, (-80, 6))
def test_tree_of_truncation_equals_reference(base, cover, size):
    g = truncate(base, cover)
    assert_tree_is_reference(g, *size)


@settings(max_examples=60, deadline=None)
@given(polygons(), tree_sizes)
@example([(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(16)), (Fraction(1), Fraction(-16))], (80, 6))
@example([(Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(16)), (Fraction(1), Fraction(-16))], (-80, 6))
def test_tree_of_polygonal_equals_reference(breakpoints, size):
    f = polygonal_fn(breakpoints)
    assert_tree_is_reference(f, *size)


@settings(max_examples=60, deadline=None)
@given(builtin_fns, tree_sizes)
@example(square_fn(), (80, 6))
@example(square_fn(), (-80, 6))
@example(const_fn(Fraction(-3, 7)), (80, 6))
@example(const_fn(Fraction(-3, 7)), (-80, 6))
@example(const_fn(Fraction(5)), (0, 6))
def test_tree_of_builtin_equals_reference(f, size):
    assert_tree_is_reference(f, *size)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 20), st.lists(unit, max_size=20))
def test_nonuc_value_equals_reference(k, xs):
    f = canonical_nonuc(k)
    for x in xs + interval_marks(iv for iv, _ in nonuc_tents(k)) + [Fraction(1)]:
        assert f(x) == ref.nonuc_value(k, x)


def test_slope_bounds_on_empty_cover_equals_reference():
    # truncating across no interval leaves f: both verdicts occur below
    empty = StagedCover(stages=(), size_bound=())
    fs = [
        square_fn(),
        abs_offset_fn(),
        canonical_nonuc(5),
        polygonal_fn([(Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))]),
    ]
    sizes = [(0, 3, 8), (0, 2, 16), (-1, 1, 16), (0, 20, 32)]
    verdicts = []
    for f in fs:
        for w, z, grid in sizes:
            v = slope_bounds_check(f, empty, Fraction(w), Fraction(z), grid)
            assert v == ref.slope_bounds_check(f, empty, Fraction(w), Fraction(z), grid)
            verdicts.append(v.passed)
    assert verdicts.count(True) == 9 and verdicts.count(False) == 7


@st.composite
def slope_bounds_inputs(draw):
    """(f, cover, w, z, grid) whose lower clause holds, with z from a
    random rational, the slope of a grid pair of the truncation (a tie
    g_j = g_i), or the steepest grid slope with or without a margin (the
    steepest pairs tie, or every pair passes)."""
    f, cover = draw(bases | polygons().map(polygonal_fn)), draw(covers())
    # w·0 < 0 fails on a point interval, so the lower clause needs none
    cover = StagedCover(
        tuple(tuple(iv for iv in stage if iv.length) for stage in cover.stages), cover.size_bound
    )
    grid = draw(st.integers(1, 40))
    t = truncate(f, cover)
    tv = [t(Fraction(k, grid)) for k in range(grid + 1)]
    slopes = [
        (tv[j] - tv[i]) * grid / (j - i) for i in range(grid + 1) for j in range(i + 1, grid + 1)
    ]
    z = draw(
        rational
        | st.sampled_from(slopes)
        | st.just(max(slopes))
        | st.just(max(slopes) + Fraction(1, draw(st.integers(1, 2**20))))
    )
    # |slope| < 2^19 here (polygon corners are >= 1/(96·95) apart and at
    # most 32 apart in height), so this w passes every lower clause
    w = min(z, 0) - 2**20
    return f, cover, w, z, grid


@settings(max_examples=150, deadline=None)
@given(slope_bounds_inputs())
def test_slope_bounds_of_truncation_equal_reference(inputs):
    f, cover, w, z, grid = inputs
    v = slope_bounds_check(f, cover, w, z, grid)
    assert v.lower_clause_ok
    assert v == ref.slope_bounds_check(f, cover, w, z, grid)


def test_slope_bounds_report_the_first_of_tied_pairs():
    # identity under z = 1: every g_k is 0, so (0, 1/8) is the first failure
    empty = StagedCover((), ())
    v = slope_bounds_check(identity_fn(), empty, Fraction(0), Fraction(1), 8)
    assert v.counterexample == "upper clause fails at x=0, y=1/8: slope 1 >= 1"
    assert v == ref.slope_bounds_check(identity_fn(), empty, Fraction(0), Fraction(1), 8)


@settings(max_examples=100, deadline=None)
@given(bases, covers(), st.lists(unit, max_size=20))
def test_truncation_value_equals_reference(base, cover, xs):
    g = truncate(base, cover)
    ivs = cover.all_intervals()
    for x in xs + interval_marks(ivs) + [Fraction(0), Fraction(1)]:
        assert g(x) == ref.truncation_value(base, ivs, x)


@settings(max_examples=100, deadline=None)
@given(bases, covers(), unit, unit)
def test_truncation_range_equals_range_at_every_mark(base, cover, x, y):
    # the truncation's critical points, strictly ascending inside (0, 1),
    # give the range read at f's critical points and every interval end
    g = truncate(base, cover)
    crit = list(g.critical_points)
    assert crit == sorted(set(crit)) and all(0 < p < 1 for p in crit)
    ivs = cover.all_intervals()
    marks = {*base.critical_points, *(p for iv in ivs for p in (iv.lo, iv.hi))}
    lo, hi = min(x, y), max(x, y)
    vals = [g(p) for p in [lo, hi, *marks] if lo <= p <= hi]
    assert g.range_on(lo, hi) == (min(vals), max(vals))


@settings(max_examples=100, deadline=None)
@given(polygons(), st.lists(unit, max_size=20))
def test_polygonal_value_equals_reference(breakpoints, xs):
    f = polygonal_fn(breakpoints)
    marks = [x for x, _ in breakpoints]
    marks += [(a + b) / 2 for a, b in zip(marks, marks[1:])]
    for x in xs + marks:
        assert f(x) == ref.polygonal_value(breakpoints, x)


def assert_grid_is_per_point(f, read):
    n, ks = read
    ints, den = f.grid(n, ks)
    assert [Fraction(v, den) for v in ints] == ref.grid(f, n, ks)


@settings(max_examples=60, deadline=None)
@given(polygons(), grid_reads())
def test_polygonal_grid_equals_per_point(breakpoints, read):
    assert_grid_is_per_point(polygonal_fn(breakpoints), read)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, CANONICAL_NONUC_STAGE_BUDGET), grid_reads())
def test_nonuc_grid_equals_per_point(k, read):
    assert_grid_is_per_point(canonical_nonuc(k), read)


@settings(max_examples=60, deadline=None)
@given(builtin_fns, grid_reads())
def test_builtin_grid_equals_per_point(f, read):
    assert_grid_is_per_point(f, read)


grid_bases = (
    builtin_fns
    | st.sampled_from(QUADRATICS)
    | st.integers(1, CANONICAL_NONUC_STAGE_BUDGET).map(canonical_nonuc)
    | polygons().map(polygonal_fn)
)


def cover_of(*ends):
    """One stage of the closed intervals [ends[0], ends[1]], ..."""
    ivs = (RationalInterval(Fraction(a), Fraction(b)) for a, b in zip(ends[::2], ends[1::2]))
    return StagedCover(stages=(tuple(ivs),), size_bound=(1,))


# the polygon's last piece starts in ((n-1)/n, 1) for every n < 100; a
# chord over [1/2, 1] ends at x = 1, and one over [1/2, 99/100] ends short of
# it, so k = n lies past the chord for every n < 100
LATE_CORNER = polygonal_fn([(0, 0), (Fraction(99, 100), 0), (1, 1)])
EDGE_COVERS = [cover_of(0, Fraction(1, 3)), cover_of(Fraction(2, 3), 1), cover_of(0, 0, Fraction(1, 2), 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 90, 100, 101])
@pytest.mark.parametrize(
    "f",
    [LATE_CORNER, truncate(LATE_CORNER, cover_of(Fraction(1, 2), 1)),
     truncate(LATE_CORNER, cover_of(Fraction(1, 2), Fraction(99, 100)))],
    ids=["polygon", "truncation-to-one", "truncation-short-of-one"],
)
def test_grid_reads_the_piece_that_owns_x_one(f, n):
    assert_grid_is_per_point(f, (n, range(n + 1)))


# a truncation of a truncation too, with intervals ending at 0 or 1
@settings(max_examples=150, deadline=None)
@given(grid_bases | st.just(LATE_CORNER),
       st.lists(covers() | st.sampled_from(EDGE_COVERS), min_size=1, max_size=2), grid_reads())
@example(LATE_CORNER, EDGE_COVERS[:2], (90, range(91)))
@example(square_fn(), [EDGE_COVERS[2], EDGE_COVERS[1]], (64, range(60, 65)))
@example(canonical_nonuc(20), [cover_of(Fraction(1, 3), Fraction(7, 8))], (90, range(91)))
def test_truncation_grid_equals_per_point(base, cover_list, read):
    for cover in cover_list:
        base = truncate(base, cover)
    assert_grid_is_per_point(base, read)


@pytest.mark.parametrize("n, ks", [(0, range(1)), (4, range(6)), (4, range(-1, 2))])
def test_grid_rejects_indices_outside_the_grid(n, ks):
    with pytest.raises(ValueError, match="grid"):
        square_fn().grid(n, ks)


def test_lab_evaluators_carry_a_native_grid():
    fs = [f() for f in BUILTIN_FUNCTIONS.values()] + [
        const_fn(Fraction(1, 3)),
        canonical_nonuc(3),
        polygonal_fn([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(1))]),
        truncate(square_fn(), HALF_COVER),
        truncate(truncate(canonical_nonuc(3), HALF_COVER), cover_of(Fraction(3, 4), 1)),
        # a chord across several tents
        truncate(canonical_nonuc(20), cover_of(Fraction(1, 3), Fraction(7, 8))),
        *QUADRATICS,
    ]
    assert all(isinstance(getattr(f.eval_at, "pieces", None), tuple) for f in fs)


@given(unit)
@example(Fraction(0))
@example(H)
@example(Fraction(1))
def test_quadratic_pieces_evaluate_their_polynomials(x):
    assert [f(x) for f in QUADRATICS] == [(x - H) ** 2, 1 + x - x * x, (x - 2) ** 2]


@settings(max_examples=100, deadline=None)
@given(builtin_fns, unit)
@example(abs_offset_fn(), Fraction(1, 2))
@example(square_fn(), Fraction(1))
def test_closed_form_equals_evaluation_by_piece(f, x):
    assert ref.builtin_value(f, x) == f(x) == _by_piece(f.eval_at.pieces)(x)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 14: (x - 1/2)^2 has derivative 0 at 1/2, yet its verdict is NEITHER",
)
def test_vertex_square_is_no_corner_at_its_vertex():
    est = pseudo_derivative(VERTEX_SQUARE, const_name(H), Fraction(1, 16), 10)
    assert classify_denjoy(est, Fraction(1, 16)) != DenjoyVerdict.NEITHER


def cube_counting(calls):
    def g(x):
        calls.append(x)
        return x * x * x
    return g


def test_grid_of_replaced_evaluator_is_per_point():
    # the pieces of square belong to its evaluator, not to the function
    calls = []
    f = dataclasses.replace(square_fn(), eval_at=cube_counting(calls))
    ints, den = f.grid(64, range(64))
    assert calls == [Fraction(k, 64) for k in range(64)]
    assert [Fraction(v, den) for v in ints] == [Fraction(k, 64) ** 3 for k in range(64)]


def test_truncation_grid_over_replaced_base_reads_the_replacement():
    calls = []
    base = dataclasses.replace(square_fn(), eval_at=cube_counting(calls))
    t = truncate(base, HALF_COVER)
    ints, den = t.grid(16, range(16))
    # the chord's 2 ends, then the base at each grid point outside the
    # chord's interior (0, 1/2): k = 0 and k = 8..15
    assert len(calls) == 2 + 1 + 8
    vals = [Fraction(v, den) for v in ints]
    assert vals == ref.grid(t, 16, range(16))
    # the chord from (0,0) to (1/2,1/8) inside the cover, x^3 outside it
    assert vals[4] == Fraction(1, 16) and vals[12] == Fraction(27, 64)


def test_slope_check_of_replaced_base_reads_it_per_point_outside_the_chords():
    # a base without a native grid leaves the truncation without one: the
    # truncation reads the chord's ends, then the lower clause f(b) and
    # f(a), and the upper clause the base at each grid point outside the
    # chord's interior
    calls = []
    base = dataclasses.replace(square_fn(), eval_at=cube_counting(calls))
    v = slope_bounds_check(base, HALF_COVER, Fraction(-1), Fraction(8), 8)
    assert v.passed
    outside = [Fraction(k, 8) for k in [0, 4, 5, 6, 7, 8]]
    assert calls == [0, Fraction(1, 2), Fraction(1, 2), 0] + outside


TENT = polygonal_fn([(0, 0), (Fraction(1, 2), 1), (1, 0)])


# lo < 0 < hi, hi > 1, hi <= 0 and lo >= 1
@pytest.mark.parametrize(
    "lo, hi",
    [(Fraction(-1, 4), Fraction(1, 4)), (Fraction(3, 4), Fraction(5, 4)),
     (Fraction(-1, 2), Fraction(0)), (Fraction(1), Fraction(3, 2))],
)
def test_cover_outside_the_unit_interval_is_a_cover_violation(lo, hi):
    # the chord would read TENT outside [0, 1], where evaluation by piece
    # refuses x; the cover is refused first
    c = cover_of(lo, hi)
    assert check_H(c) == f"interval {RationalInterval(lo, hi)} lies outside [0, 1]"
    with pytest.raises(CoverViolation, match="outside"):
        truncate(TENT, c)
    # the cover is checked before the lower clause reads f
    calls = []
    base = dataclasses.replace(TENT, eval_at=cube_counting(calls))
    with pytest.raises(CoverViolation, match="outside"):
        slope_bounds_check(base, c, Fraction(-1), Fraction(8), 8)
    assert calls == []
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        TENT.range_on(lo, hi)
    # the ends of [0, 1] lie inside it
    assert TENT.range_on(Fraction(1), Fraction(1)) == TENT.range_on(Fraction(0), Fraction(0))


REFUSING = {
    "polygon": TENT,
    "canonical_nonuc(3)": canonical_nonuc(3),
    "truncation": truncate(TENT, cover_of(Fraction(1, 4), Fraction(3, 4))),
    **{name: function_by_name(name) for name in BUILTIN_FUNCTIONS},
    "const(1/3)": const_fn(Fraction(1, 3)),
}


@pytest.mark.parametrize("f", REFUSING.values(), ids=REFUSING.keys())
@pytest.mark.parametrize("x", [Fraction(-1), Fraction(-1, 7), Fraction(8, 7), 2], ids=str)
def test_evaluation_by_piece_refuses_x_outside_the_unit_interval(f, x):
    # at x = -1 the last piece of TENT, 2 - 2x, would read 4, and square
    # would read 4 at x = 2
    with pytest.raises(ValueError, match=re.escape(f"x = {x} outside [0, 1]")):
        f(x)
    oracle = ref._by_piece(f.eval_at.pieces)
    assert [f(Fraction(0)), f(Fraction(1))] == [oracle(Fraction(0)), oracle(Fraction(1))]


@st.composite
def grid_polygons(draw):
    """A polygon and a tree size (n, depth) whose inner corners sit on the
    tree's grid points k/2^(depth+4), one grid step either side of them or
    just off them, several of them inside one 16-point node."""
    n, depth = draw(tree_sizes)
    size = 2 ** (depth + 4)
    node = draw(st.integers(0, size // 16 - 1))
    ks = draw(st.lists(st.integers(16 * node, 16 * node + 15) | st.integers(0, size), max_size=6))
    shifts = st.sampled_from([0, 1, -1, Fraction(1, 3), Fraction(-1, 3)])
    xs = sorted({x for k in ks if 0 < (x := (k + draw(shifts)) / size) < 1})
    points = [Fraction(0)] + xs + [Fraction(1)]
    return [(x, draw(rational)) for x in points], (n, depth)


# n = ±80 clamps the threshold at both ends
@settings(max_examples=100, deadline=None)
@given(grid_polygons())
# three corners inside the node [16/64, 32/64) of depth 2; a corner on that
# node's first point and one a third of a grid step after it
@example(([(0, 0), (Fraction(17, 64), 3), (Fraction(18, 64), -2), (Fraction(19, 64), 5), (1, 1)], (80, 2)))
@example(([(0, 0), (Fraction(16, 64), 3), (Fraction(49, 192), -2), (1, 1)], (-80, 2)))
def test_tree_of_grid_aligned_polygon_equals_reference(polygon):
    breakpoints, size = polygon
    assert_tree_is_reference(polygonal_fn(breakpoints), *size)


@settings(max_examples=60, deadline=None)
@given(bases | polygons().map(polygonal_fn), covers(), covers(), tree_sizes)
@example(square_fn(), HALF_COVER, HALF_COVER, (80, 6))
@example(canonical_nonuc(6), HALF_COVER, HALF_COVER, (-80, 6))
def test_tree_of_nested_truncation_equals_reference(base, c1, c2, size):
    g = truncate(truncate(base, c1), c2)
    assert_tree_is_reference(g, *size)


native_fns = grid_bases | st.builds(truncate, grid_bases, covers())


@settings(max_examples=150, deadline=None)
@given(native_fns, st.lists(unit, max_size=8))
def test_evaluation_by_piece_equals_its_oracle(f, xs):
    # every piece start, where the bisection changes piece, and both ends
    pieces = f.eval_at.pieces
    xs += [x0 for x0, *_ in pieces] + [Fraction(0), Fraction(1)]
    lab, oracle = _by_piece(pieces), ref._by_piece(pieces)
    assert [ref.outcome(lab, x) for x in xs] == [ref.outcome(oracle, x) for x in xs]


@settings(max_examples=60, deadline=None)
@given(native_fns, tree_sizes)
@example(VERTEX_SQUARE, (80, 6))
@example(VERTEX_SQUARE, (-80, 6))
def test_tree_reads_no_critical_points(f, size):
    # the runs of a native grid say where f may turn, not critical_points
    assert_tree_is_reference(dataclasses.replace(f, critical_points=()), *size)


def test_tree_without_native_grid_calls_each_grid_point_once():
    f = canonical_nonuc(20)
    calls = []

    def counted(x):
        calls.append(x)
        return f.eval_at(x)

    g = dataclasses.replace(f, eval_at=counted)
    for n in (0, 80):
        calls.clear()
        assert oscillation_tree(g, n, 4) == ref.oscillation_tree(f, n, 4)
        assert sorted(calls) == [Fraction(k, 2**8) for k in range(2**8)]


@st.composite
def grid_indices(draw):
    """A grid size and sorted indices in 0..n: the node ends at offset 0 or
    15 (step 16), any sorted list of grid indices, or none."""
    n = draw(grid_sizes)
    return n, draw(
        st.sampled_from([range(0, n, 16), range(15, n + 1, 16), []])
        | st.lists(st.integers(0, n)).map(sorted)
    )


@settings(max_examples=200, deadline=None)
@given(native_fns | st.builds(truncate, native_fns, covers()), grid_indices())
def test_sample_equals_per_point(f, indexed):
    n, indices = indexed
    runs, den = _runs(f.eval_at.pieces, n)
    values = _sample(runs, indices)
    assert values == ref._sample(runs, n, indices)
    per_point = ref.grid(f, n, range(n + 1))
    assert [Fraction(v, den) for v in values] == [per_point[k] for k in indices]


def test_oscillation_tree_depth_budget():
    with pytest.raises(BudgetExceeded, match="OSCILLATION_DEPTH_BUDGET") as info:
        oscillation_tree(identity_fn(), 0, OSCILLATION_DEPTH_BUDGET + 1)
    assert str(OSCILLATION_DEPTH_BUDGET + 1) in str(info.value)


def test_integer_breakpoints_evaluate_exactly():
    f = polygonal_fn([(0, 0), (1, 1)])
    value = f(Fraction(1, 3))
    assert type(value) is Fraction and value == Fraction(1, 3)
    assert oscillation_tree(f, 3, 4) == ref.oscillation_tree(f, 3, 4)


def test_tree_of_integer_grid_at_every_threshold():
    # a grid over den 1 with spreads near 2^{-n}: the clamp of a negative n
    # must keep the root's spread below the threshold
    f = polygonal_fn([(0, 0), (1, 2**10)])
    for n in range(-12, 3):
        for depth in range(3):
            assert oscillation_tree(f, n, depth) == ref.oscillation_tree(f, n, depth)


@settings(max_examples=100, deadline=None)
@given(polygons())
def test_polygonal_critical_points_equal_reference(breakpoints):
    assert polygonal_fn(breakpoints).critical_points == ref.polygonal_critical_points(breakpoints)


def test_nonuc_critical_points_equal_reference():
    for k in range(1, CANONICAL_NONUC_STAGE_BUDGET + 1):
        assert canonical_nonuc(k).critical_points == ref.nonuc_critical_points(k)


positive = (
    st.builds(Fraction, st.integers(1, 2**64), st.integers(1, 2**64))
    | st.integers(-4200, 80).map(lambda e: Fraction(2) ** e)
)


@settings(max_examples=200, deadline=None)
@given(positive)
def test_modulus_precision_equals_reference(delta):
    theta = ModulusFunction(lambda eps: delta)
    want = ref.modulus_precision(delta)
    if want is None:
        with pytest.raises(BudgetExceeded, match="MODULUS_PRECISION_BUDGET"):
            _modulus_precision(theta, Fraction(1, 2))
    else:
        assert _modulus_precision(theta, Fraction(1, 2)) == want

