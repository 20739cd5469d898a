import re
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as ref
from oracles import outcome
from randlab import randomness
from randlab.errors import ParseError
from randlab.intervals import (
    EMPTY_UNION,
    IntervalUnion,
    RationalInterval,
    _canonical,
    coverage_at_least,
    dyadic_cylinder,
    dyadic_value,
    format_rational,
    normalize_union,
    over_lcm,
    parse_interval,
    parse_rational,
    parse_union,
)
from randlab.randomness import TestFamily, TestKind, convert_solovay_to_ml

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=2**10)
unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=2**10)


def interval_strategy():
    return st.tuples(unit_rationals, unit_rationals, st.booleans(), st.booleans()).map(
        lambda t: RationalInterval(min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])
        if t[0] != t[1]
        else RationalInterval(t[0], t[1], False, False)
    )


@given(rationals)
def test_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_rational_format_always_has_denominator():
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0/1"


def test_parse_rational_rejects_garbage():
    for bad in ("", "1/0", "a/b", "1.5", "1/2/3"):
        with pytest.raises(ParseError):
            parse_rational(bad)


@pytest.mark.parametrize("bad", [5, None, ["1/2"]])
def test_parse_rejects_a_non_string_by_value(bad):
    rational = f'bad rational {bad!r}: expected a "p/q" string'
    with pytest.raises(ParseError, match=re.escape(rational)):
        parse_rational(bad)
    interval = f'bad interval {bad!r}: expected a "[lo,hi)" string'
    with pytest.raises(ParseError, match=re.escape(interval)):
        parse_interval(bad)


# ASCII and other Unicode decimal digits, with "_" (which Fraction(str)
# accepts between digits and the pattern does not)
digit_runs = st.text(
    alphabet=st.one_of(st.sampled_from("0123456789_"), st.characters(categories=["Nd"])),
    max_size=6,
)
# str.strip whitespace, and U+200B, which is not whitespace
spaces = st.text(
    alphabet=st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000\u200b"), max_size=3
)
rational_texts = st.builds(
    lambda *pieces: "".join(pieces),
    spaces,
    st.sampled_from(["", "-", "+", "--", "+-", "-+"]),
    digit_runs,
    st.sampled_from(["", "/", "/0", "//", "/-", "/+", "."]),
    digit_runs,
    spaces,
)
parse_inputs = st.one_of(
    rational_texts,
    st.text(max_size=8),
    st.integers(),
    st.floats(allow_nan=False),
    st.none(),
    st.binary(max_size=4),
    st.lists(st.text(max_size=3), max_size=2),
)


@settings(max_examples=500, deadline=None)
@given(parse_inputs)
@example(" -\u0967\u0966/\u0968\u3000")
@example("-0/00")
@example("1_0")
@example("+1")
@example("/2")
@example("1/")
@example("\u200b1")
def test_parse_rational_equals_reference(text):
    assert outcome(parse_rational, text) == outcome(ref.parse_rational, text)


def test_parse_rational_reads_unicode_digits():
    assert parse_rational("\u0663/\u0664") == Fraction(3, 4)


# str.strip whitespace only
blanks = st.text(
    alphabet=st.sampled_from(" \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"), max_size=2
)
digits = st.text(
    alphabet=st.one_of(st.sampled_from("0123456789"), st.characters(categories=["Nd"])),
    min_size=1,
    max_size=3,
)
# what the pattern reads: blanks, an optional minus, digits and an optional
# "/q" (q may be all zeros), blanks
endpoint_texts = st.builds(
    lambda *pieces: "".join(pieces),
    blanks,
    st.sampled_from(["", "-"]),
    digits,
    st.one_of(st.just(""), digits.map("/".__add__)),
    blanks,
)


def joined(*pieces):
    return st.builds(lambda *texts: "".join(texts), *pieces)


# "[p/q,r/s)" strings, and ones with each piece read or refused by the pattern
well_formed = joined(
    blanks, st.sampled_from("[("), endpoint_texts, st.just(","), endpoint_texts,
    st.sampled_from("])"), blanks,
)
malformed = joined(
    spaces,
    st.one_of(st.sampled_from("[("), st.sampled_from(["", "]", "{", "[("])),
    st.one_of(endpoint_texts, rational_texts),
    st.one_of(st.just(","), st.sampled_from(["", ",,", ", ,", ";"])),
    st.one_of(endpoint_texts, rational_texts),
    st.one_of(st.sampled_from("])"), st.sampled_from(["", "[", "}", ")]"])),
    spaces,
)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(well_formed, malformed, parse_inputs))
@example(" ( \u0660/1 , 1/2 ) ")
@example("\t[ -1 ,\t2 ]\n")
@example("[0\u3000,1/2]")
@example("[3,2]")
@example("(1/2,1/2]")
@example("[1/2,1/2]")
@example("[1/0,1)")
@example("[0,1/0)")
@example("[0/1,1/2,3/4,1/1)")
@example("[0/1,1/2")
@example("0/1,1/2)")
@example("[]")
@example("[")
def test_parse_interval_equals_reference(text):
    # an equal interval, or an error of the same type with the same message
    assert outcome(parse_interval, text) == outcome(ref.parse_interval, text)


@given(st.lists(rationals, max_size=12))
def test_over_lcm_puts_each_value_over_the_lcm(values):
    ints, den = over_lcm(iter(values))
    assert den == math.lcm(*(v.denominator for v in values))
    assert [Fraction(n, den) for n in ints] == values
    assert all(isinstance(n, int) for n in ints)


def test_over_lcm_of_no_values():
    assert over_lcm([]) == ([], 1)


@given(interval_strategy())
def test_interval_round_trip(iv):
    assert parse_interval(str(iv)) == iv


def test_interval_bracket_styles():
    assert str(RationalInterval(Fraction(0), Fraction(1, 2), False, True)) == "[0/1,1/2)"
    assert str(RationalInterval(Fraction(1, 3), Fraction(1), True, False)) == "(1/3,1/1]"


def test_degenerate_closed_interval_has_zero_length():
    iv = RationalInterval(Fraction(1, 2), Fraction(1, 2))
    assert iv.length == 0
    assert iv.contains(Fraction(1, 2))


def test_open_endpoints_excluded():
    iv = RationalInterval(Fraction(0), Fraction(1), True, True)
    assert not iv.contains(Fraction(0))
    assert not iv.contains(Fraction(1))
    assert iv.contains(Fraction(1, 2))


@given(st.lists(interval_strategy(), max_size=8))
def test_normalize_union_is_canonical(ivs):
    u = normalize_union(ivs)
    parts = u.parts
    for a, b in zip(parts, parts[1:]):
        assert a.hi <= b.lo
        assert ref.disjoint_from_interval(normalize_union([a]), b)
    # idempotent
    assert normalize_union(parts) == u


# pairwise coprime denominators of 9 to 27 digits, so a common
# denominator of a few endpoints runs to hundreds of bits
huge_rationals = st.builds(
    Fraction,
    st.integers(-(10**30), 10**30),
    st.sampled_from([2**61 - 1, 2**89 - 1, 10**9 + 7, 998244353, 3**40, 5**27]),
)


def _interval(lo, hi, lo_open, hi_open):
    if lo == hi:
        return RationalInterval(lo, hi)  # a degenerate point is closed
    return RationalInterval(min(lo, hi), max(lo, hi), lo_open, hi_open)


measure_ends = st.one_of(unit_rationals, huge_rationals, st.integers(0, 4).map(Fraction))
measure_intervals = st.builds(
    _interval, measure_ends, measure_ends, st.booleans(), st.booleans()
)


order_ends = st.one_of(rationals, huge_rationals, st.integers(-2, 2))


@given(order_ends, order_ends, st.booleans(), st.booleans())
@example(Fraction(3), Fraction(2), False, False)
@example(Fraction(1, 2), Fraction(1, 2), True, False)
@example(Fraction(1, 2), Fraction(1, 2), False, True)
def test_interval_order_check_compares_as_fractions(lo, hi, lo_open, hi_open):
    # the cross-multiplied check refuses what Fraction comparison refuses
    got = outcome(RationalInterval, lo, hi, lo_open, hi_open)
    if lo > hi:
        assert got == (ValueError, f"lo > hi: {lo} > {hi}")
    elif lo == hi and (lo_open or hi_open):
        assert got == (ValueError, "degenerate interval must be closed on both ends")
    else:
        assert got[0] is RationalInterval


@settings(max_examples=300, deadline=None)
@given(st.lists(measure_intervals, max_size=8))
def test_measure_equals_reference(ivs):
    u = normalize_union(ivs)
    got = u.measure
    assert type(got) is Fraction
    assert got == ref.measure(u)


@given(st.lists(interval_strategy(), max_size=8))
def test_measure_subadditive(ivs):
    u = normalize_union(ivs)
    assert u.measure <= sum((iv.length for iv in ivs), Fraction(0))


@given(st.lists(interval_strategy(), max_size=6), unit_rationals)
def test_union_membership_matches_parts(ivs, q):
    u = normalize_union(ivs)
    assert u.contains(q) == any(iv.contains(q) for iv in ivs)


def test_touching_open_intervals_do_not_merge():
    a = RationalInterval(Fraction(0), Fraction(1, 2), False, True)
    b = RationalInterval(Fraction(1, 2), Fraction(1), True, False)
    u = normalize_union([a, b])
    assert len(u.parts) == 2
    assert not u.contains(Fraction(1, 2))


def test_touching_with_closed_side_merges():
    for a_hi_open, b_lo_open in [(False, True), (True, False), (False, False)]:
        a = RationalInterval(Fraction(0), Fraction(1, 2), False, a_hi_open)
        b = RationalInterval(Fraction(1, 2), Fraction(1), b_lo_open, False)
        u = normalize_union([a, b])
        assert u.parts == (RationalInterval(Fraction(0), Fraction(1)),)


@given(st.text(alphabet="01", max_size=12))
def test_dyadic_cylinder_geometry(sigma):
    iv = dyadic_cylinder(sigma)
    assert iv.length == Fraction(1, 2 ** len(sigma))
    assert iv.lo == dyadic_value(sigma)
    assert iv.contains(iv.lo) and not iv.contains(iv.hi)


def test_cylinders_of_same_length_partition():
    total = normalize_union(dyadic_cylinder(format(i, "04b")) for i in range(16))
    assert total.measure == 1


def test_coverage_at_least_counts_overlap():
    u1 = normalize_union([RationalInterval(Fraction(0), Fraction(1, 2), True, True)])
    u2 = normalize_union([RationalInterval(Fraction(1, 4), Fraction(3, 4), True, True)])
    both = coverage_at_least([u1, u2], 2)
    assert both.measure == Fraction(1, 4)
    any_one = coverage_at_least([u1, u2], 1)
    assert any_one.measure == Fraction(3, 4)


def test_coverage_threshold_beyond_count_is_empty():
    u1 = normalize_union([RationalInterval(Fraction(0), Fraction(1, 2))])
    assert coverage_at_least([u1], 2).is_empty
    assert coverage_at_least([], 1).is_empty


# endpoints on a grid of eighths, so parts of different unions share and
# touch endpoints often; equal endpoints give degenerate closed points
eighths = st.integers(0, 8).map(lambda k: Fraction(k, 8))
grid_interval = st.tuples(eighths, eighths, st.booleans(), st.booleans()).map(
    lambda t: RationalInterval(min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])
    if t[0] != t[1]
    else RationalInterval(t[0], t[1], False, False)
)
any_interval = st.one_of(grid_interval, interval_strategy())
canonical_unions = st.lists(any_interval, max_size=5).map(ref.normalize_union)
# the same sets built by the lab from unsorted, overlapping or touching parts
lab_unions = st.lists(any_interval, max_size=5).map(normalize_union)
union_lists = st.lists(st.one_of(canonical_unions, lab_unions), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normalize_union_equals_reference(data):
    ivs = data.draw(st.lists(any_interval, max_size=8))
    if data.draw(st.booleans()):
        # canonical parts, which take the linear check's early return
        ivs = list(ref.normalize_union(ivs).parts)
    if data.draw(st.booleans()):
        ivs = data.draw(st.permutations(ivs))
    u = normalize_union(ivs)
    # RationalInterval equality compares both endpoints and both flags
    assert u == ref.normalize_union(ivs)
    assert normalize_union(u.parts) == u


# points and window ends on the grid of the parts' ends, between them and
# outside [0, 1]
sixteenths = st.integers(-1, 17).map(lambda k: Fraction(k, 16))
query_points = st.one_of(eighths, sixteenths, rationals)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_bisected_membership_equals_reference(data):
    u = data.draw(st.lists(any_interval, max_size=8).map(ref.normalize_union))
    ends = [x for p in u.parts for x in (p.lo, p.hi)]
    point = st.one_of(query_points, st.sampled_from(ends)) if ends else query_points
    window = data.draw(st.builds(_interval, point, point, st.booleans(), st.booleans()))
    q = data.draw(point)
    assert u.witness_containing(window) == ref.witness_containing(u, window)
    assert u.disjoint_from_interval(window) == ref.disjoint_from_interval(u, window)
    assert u.contains(q) == ref.contains(u, q)


@settings(max_examples=250, deadline=None)
@given(union_lists, st.integers(1, 7))
# at threshold 1, unions whose parts come in order and apart are kept as
# they are, with no sweep
@example([normalize_union([RationalInterval(Fraction(0), Fraction(1, 8), True, True),
                           RationalInterval(Fraction(1, 8), Fraction(1, 4), True)]),
          normalize_union([RationalInterval(Fraction(1, 3), Fraction(1, 3))]),
          EMPTY_UNION,
          normalize_union([RationalInterval(Fraction(1, 2), Fraction(1))])], 1)
def test_coverage_sweep_equals_reference(unions, threshold):
    # threshold runs past the number of unions (at most 6)
    assert coverage_at_least(unions, threshold) == ref.coverage_at_least(
        unions, threshold
    )


@settings(max_examples=150, deadline=None)
@given(canonical_unions, st.data())
def test_coverage_of_a_union_cut_into_runs_of_parts_is_that_union(u, data):
    # the union's parts, in order and apart, cut into unions of consecutive
    # parts: at threshold 1 they come back as they are
    parts = u.parts
    cuts = sorted(data.draw(st.lists(st.integers(0, len(parts)), max_size=3)))
    runs = [normalize_union(parts[a:b]) for a, b in zip([0, *cuts], [*cuts, len(parts)])]
    assert coverage_at_least(runs, 1) == u


def test_coverage_counts_unions_not_parts():
    # two touching closed parts of one union merge, so they cover 1/2 once
    half = Fraction(1, 2)
    u = normalize_union(
        (RationalInterval(half, Fraction(1)), RationalInterval(Fraction(0), half))
    )
    assert coverage_at_least([u, u], 3).is_empty
    assert coverage_at_least([u, u], 2).parts == (
        RationalInterval(Fraction(0), Fraction(1)),
    )


def test_coverage_point_between_open_parts():
    # (0,1/2) and (1/2,1) meet at an excluded point; [1/2,1/2] alone covers it
    half = Fraction(1, 2)
    left = RationalInterval(Fraction(0), half, True, True)
    right = RationalInterval(half, Fraction(1), True, True)
    u = normalize_union([left, right])
    point = normalize_union([RationalInterval(half, half)])
    assert coverage_at_least([u, u], 2) == u
    assert coverage_at_least([u, point], 1).parts == (
        RationalInterval(Fraction(0), Fraction(1), True, True),
    )
    assert coverage_at_least([u, point], 2).is_empty


def test_coverage_rejects_non_positive_threshold():
    for threshold in (0, -1):
        with pytest.raises(ValueError):
            coverage_at_least([], threshold)


# --- unions decoded as ints over one denominator

# endpoints over dyadic and non-dyadic denominators, negative ones included
union_ends = st.builds(
    Fraction, st.integers(-4, 16), st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 97])
)
scripts = st.sampled_from(["0123456789", "٠١٢٣٤٥٦٧٨٩", "०१२३४५६७८९"])


@st.composite
def interval_spellings(draw):
    """One interval as two strings that parse_interval accepts: its ends in
    lowest terms, and each end as (n·k)/(d·k) in one script of digits, with
    blanks around it.  A point is closed."""
    lo, hi = sorted((draw(union_ends), draw(union_ends)))
    lo_open, hi_open = (False, False) if lo == hi else (draw(st.booleans()), draw(st.booleans()))
    digits = str.maketrans("0123456789", draw(scripts))

    def spelled(q):
        k = draw(st.integers(1, 4))
        return draw(blanks) + f"{q.numerator * k}/{q.denominator * k}".translate(digits) + draw(blanks)

    lb, rb = "[("[lo_open], "])"[hi_open]
    return str(RationalInterval(lo, hi, lo_open, hi_open)), f"{lb}{spelled(lo)},{spelled(hi)}{rb}"


interval_texts = interval_spellings().map(lambda pair: pair[1])


# strings that parse_interval refuses, by pattern, by a zero denominator or by
# the order of their ends, and values that are not strings
bad_texts = st.one_of(
    malformed,
    st.sampled_from(["[3/4,2/4]", "(1/2,2/4]", "[1/2,2/4)", "[1/0,1)", "[0,1/0)", "[1/2 1/2]"]),
    st.integers(),
    st.none(),
)


@st.composite
def union_text_lists(draw):
    """Up to 8 interval strings, in any order, touching, overlapping or
    repeated, and sometimes one bad string at a random index."""
    texts = draw(st.lists(interval_texts, max_size=8))
    if draw(st.booleans()):
        texts.insert(draw(st.integers(0, len(texts))), draw(bad_texts))
    return texts


@settings(max_examples=500, deadline=None)
@given(union_text_lists())
@example(["[2/4,6/8]", "(0/3,1/3)", "[1/3,1/2)"])
@example(["(1/3,1/2)", "[1/2,1/2]", "(-1/7,0/9)", "[3/2,1/2]"])
@example(["[0,1/2]", "[1/2,2/4)", "[0/1,1/2]"])
@example([" ( ٠/٣ , ١/٣ ) ", "[1/0,1)"])
def test_parse_union_equals_reference(texts):
    # an equal union with equal parts and measure, or an error of the same
    # type with the same message
    got, want = outcome(parse_union, texts), outcome(ref.parse_union, texts)
    assert got == want
    if got[0] is IntervalUnion:
        u, v = got[1], want[1]
        assert u.parts == v.parts
        assert u.measure == ref.measure(v)
        assert u.den == math.lcm(*(x.denominator for p in v.parts for x in (p.lo, p.hi)))


@given(st.lists(interval_spellings(), max_size=6))
@example([("[1/2,3/4]", "[2/4,6/8]")])
def test_unreduced_spellings_decode_to_equal_unions(pairs):
    u = parse_union([lowest for lowest, _ in pairs])
    v = parse_union([spelled for _, spelled in pairs])
    assert u == v and hash(u) == hash(v)
    assert u.strings() == v.strings() == [str(p) for p in u.parts]


def test_empty_union_fields_and_repr():
    assert EMPTY_UNION == IntervalUnion() == normalize_union([]) == parse_union([])
    assert (EMPTY_UNION.ends, EMPTY_UNION.den, EMPTY_UNION.opens) == ((), 1, ())
    assert repr(EMPTY_UNION) == "IntervalUnion(parts=())"
    u = parse_union(["(0/3,1/3)", "[1/2,3/4]"])
    assert repr(u) == f"IntervalUnion(parts={u.parts!r})"
    assert repr(u).count("RationalInterval(") == 2


def test_interval_union_takes_no_parts():
    # a union is built from parts by normalize_union; the fields are
    # keyword-only, so no list of parts is taken as the union as given
    iv = RationalInterval(Fraction(0), Fraction(1, 2))
    with pytest.raises(TypeError):
        IntervalUnion((iv,))
    with pytest.raises(TypeError):
        IntervalUnion(parts=(iv,))


def assert_canonical(u):
    """u passes `_canonical`'s check unchanged, its fields are tuples of
    ints and bools, and den is the least common denominator."""
    assert type(u.ends) is tuple and type(u.opens) is tuple
    assert all(type(e) is int for e in u.ends) and all(type(f) is bool for f in u.opens)
    assert len(u.opens) == len(u.ends) and len(u.ends) % 2 == 0
    assert math.gcd(u.den, *u.ends) == 1
    u.parts  # each part is a RationalInterval: lo <= hi, a point closed
    assert _canonical(u.ends, u.den, u.opens) == u


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_built_union_is_canonical_and_equals_its_oracle(data):
    # unsorted parts on a grid of eighths, which overlap and touch often
    ivs = data.draw(st.lists(any_interval, max_size=8).flatmap(st.permutations))
    u = normalize_union(ivs)
    assert_canonical(u)
    assert u == ref.normalize_union(ivs)
    texts = [str(iv) for iv in ivs]
    v = parse_union(texts)
    assert_canonical(v)
    assert v == ref.parse_union(texts) == u
    unions = data.draw(st.lists(lab_unions, max_size=6))
    threshold = data.draw(st.integers(1, len(unions) + 1))
    w = coverage_at_least(unions, threshold)
    assert_canonical(w)
    assert w == ref.coverage_at_least(unions, threshold)


# window ends over denominators prime to the unions' (which divide
# 2^2·3^2·7·97), on the unions' grid and on the unions' own ends
window_ends = st.builds(Fraction, st.integers(-30, 200), st.sampled_from([5, 11, 13, 55, 143]))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_membership_with_unrelated_denominators_equals_reference(data):
    u = parse_union(data.draw(st.lists(interval_texts, max_size=8)))
    ends = [x for p in u.parts for x in (p.lo, p.hi)]
    point = st.one_of(window_ends, union_ends, st.sampled_from(ends)) if ends else window_ends
    window = data.draw(st.builds(_interval, point, point, st.booleans(), st.booleans()))
    q = data.draw(point)
    assert u.witness_containing(window) == ref.witness_containing(u, window)
    assert u.disjoint_from_interval(window) == ref.disjoint_from_interval(u, window)
    assert u.contains(q) == ref.contains(u, q)


solovay_components = st.dictionaries(
    st.integers(1, 8), st.lists(any_interval, min_size=1, max_size=4), max_size=8
)


@settings(max_examples=200, deadline=None)
@given(solovay_components, st.fractions(min_value=0, max_value=2, max_denominator=16))
def test_convert_solovay_matches_reference(comps, slack):
    unions = {m: [normalize_union(ivs)] for m, ivs in comps.items()}
    total = sum((u[0].measure for u in unions.values()), Fraction(0))
    bound = total + slack if total + slack > 0 else Fraction(1, 16)
    t = TestFamily(TestKind.SOLOVAY, unions, {"total_bound": bound})
    got = convert_solovay_to_ml(t, 6)
    with mock.patch.object(randomness, "coverage_at_least", ref.coverage_at_least):
        want = convert_solovay_to_ml(t, 6)
    assert got.components == want.components


def test_empty_union():
    assert EMPTY_UNION.is_empty
    assert EMPTY_UNION.measure == 0
    assert not EMPTY_UNION.contains(Fraction(1, 2))
