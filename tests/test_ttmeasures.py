import dataclasses
import gc
import itertools
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as ref
from oracles import outcome, recorded_outcome
from randlab import ttmeasures
from randlab.cauchy import ModulusFunction
from randlab.errors import (
    AtomSuspected,
    BudgetExceeded,
    InvariantViolation,
    ParseError,
    ZeroMassCylinder,
)
from randlab.intervals import RationalInterval, _with_level, bit_string, bit_strings
from randlab.markov import (
    StagedCover,
    abs_offset_fn,
    complement_fn,
    const_fn,
    half_fn,
    identity_fn,
    polygonal_fn,
    square_fn,
    truncate,
)
from randlab.ttmeasures import (
    TRANSPORT_LENGTH_CAP,
    USE_BOUND_BUDGET,
    LimitOracle,
    MonotoneCDF,
    TransportStatus,
    TTFunctional,
    _non_bit,
    _tally_for_length,
    bernoulli_measure,
    bit_flip_tt,
    cdf,
    identity_tt,
    induced_measure_of_cylinder,
    materialize_measure,
    pairwise_or_tt,
    table_measure,
    transport,
    transport_pushforward_check,
    tt_from_ucf,
    uniform_measure,
    validate_measure,
)
from strategies import QUADRATICS, covers, polygons

FUNCTIONALS = [identity_tt(), pairwise_or_tt(), bit_flip_tt()]

prefixes = st.text(alphabet="01", min_size=1, max_size=8)


def counting(phi, key):
    """phi with a fresh tally, and a Counter of key(bits, n) over its
    output_bit calls."""
    calls = Counter()

    def output_bit(bits, n):
        calls[key(bits, n)] += 1
        return phi.output_bit(bits, n)

    return dataclasses.replace(phi, output_bit=output_bit, _tally={}), calls


def table_tt(uses, seed):
    """The functional whose output bit n is a random 0/1 int table on the
    first uses[n] input bits, defined for len(uses) output bits."""
    rng = random.Random(seed)
    tables = [[rng.randint(0, 1) for _ in range(2**u)] for u in uses]

    def output_bit(bits, n):
        return tables[n][int("".join(map(str, bits[: uses[n]])) or "0", 2)]

    return TTFunctional("random", uses.__getitem__, output_bit)


@st.composite
def truth_tables(draw):
    """A functional of nondecreasing use bounds up to 9 (table_tt), and the
    number of output bits it defines."""
    length = draw(st.integers(0, 5))
    uses = sorted(draw(st.lists(st.integers(0, 9), min_size=length, max_size=length)))
    return table_tt(uses, draw(st.integers(0, 2**32))), length


def opaque(phi):
    """phi with a fresh tally and an output_bit without a native output level."""
    output_bit = phi.output_bit
    return dataclasses.replace(phi, output_bit=lambda bits, n: output_bit(bits, n), _tally={})


def walked(phi):
    """phi with a fresh tally and its output_bit carrying an output level
    that reads it once per prefix, in `product` order.  An output bit that is
    no byte is named at the first such prefix."""
    copy = opaque(phi)

    def level(n):
        prefixes = lambda: itertools.product((0, 1), repeat=copy.use_bound(n))  # noqa: E731
        try:  # product reuses its tuple once output_bit lets go of it
            return bytes(map(copy.output_bit, prefixes(), itertools.repeat(n)))
        except (TypeError, ValueError):  # a bit that is no byte: name the first
            for bits in prefixes():
                value = copy.output_bit(bits, n)
                if not isinstance(value, int) or value not in (0, 1):
                    raise _non_bit(copy, n, value)
            raise

    _with_level(copy.output_bit, level)
    return copy


@settings(max_examples=150, deadline=None)
@given(truth_tables())
def test_tally_matches_per_length_enumeration(drawn):
    phi, length = drawn
    for k in range(length + 1):
        assert _tally_for_length(phi, k) == ref._tally_for_length(phi, k)


@settings(max_examples=100, deadline=None)
@given(truth_tables())
def test_tally_makes_the_per_length_output_bit_calls(drawn):
    base, length = drawn
    phi, calls = counting(base, lambda bits, n: (bits, n))
    slow, ref_calls = counting(base, lambda bits, n: (bits, n))
    for k in range(length + 1):
        _tally_for_length(phi, k)
        ref._tally_for_length(slow, k)
    assert calls == ref_calls


def string_keyed_tally(phi, length):
    """The tally as the lab kept it before it held ints: the same streaming
    enumeration, each distinct output row joined into its string key."""
    u = phi.use_bound(length - 1) if length > 0 else 0
    if length == 0:
        return {"": 1}
    columns = (
        map(phi.output_bit, itertools.product((0, 1), repeat=u), itertools.repeat(n))
        for n in range(length)
    )
    rows = Counter(map(bytes, zip(*columns)))
    return {"".join(map(str, row)): c for row, c in rows.items()}


@settings(max_examples=100, deadline=None)
@given(truth_tables())
def test_int_tally_reads_back_as_the_string_keyed_tally(drawn):
    phi, length = drawn
    for k in range(length + 1):
        counts, den = _tally_for_length(phi, k)
        assert den == 2 ** (phi.use_bound(k - 1) if k else 0)
        assert len(counts) == 2**k
        read = {bit_string(k, i): c for i, c in enumerate(counts) if c}
        assert read == string_keyed_tally(phi, k)


@settings(max_examples=150, deadline=None)
@given(truth_tables(), st.randoms())
def test_prefix_walk_matches_per_length_enumeration(drawn, rng):
    base, length = drawn
    phi = walked(base)
    lengths = list(range(length + 1))
    for psi in (phi, dataclasses.replace(phi, _tally={})):
        rng.shuffle(lengths)
        for k in lengths:
            assert _tally_for_length(psi, k) == ref._tally_for_length(base, k), k
    assert sorted(phi._tally) == list(range(length + 1))


# use bounds that repeat, that start at 0 or stay there, and one jump of 9
@pytest.mark.parametrize(
    "uses", [[0], [0, 0, 0], [0, 2, 2, 5], [3, 3, 3, 3], [1, 1, 4, 4, 9], [9, 9]], ids=str
)
def test_prefix_walk_over_repeated_and_zero_use_bounds(uses):
    for seed in range(3):
        base = table_tt(uses, seed)
        phi, calls = counting(base, lambda bits, n: (bits, n))
        phi = walked(phi)
        for k in reversed(range(len(uses) + 1)):
            assert _tally_for_length(phi, k) == ref._tally_for_length(base, k), k
        # bit n is read once on each prefix of exactly u(n) bits
        assert calls == {
            (bits, n): 1 for n, u in enumerate(uses) for bits in itertools.product((0, 1), repeat=u)
        }


@settings(max_examples=100, deadline=None)
@given(truth_tables(), st.randoms())
def test_prefix_walk_reads_bit_n_once_per_prefix(drawn, rng):
    base, length = drawn
    phi, calls = counting(base, lambda bits, n: n)
    phi = walked(phi)
    lengths = rng.sample(range(length + 1), rng.randint(0, length + 1))
    for k in lengths:
        _tally_for_length(phi, k)
    asked = max(lengths, default=0)
    assert calls == {n: 2 ** base.use_bound(n) for n in range(asked)}
    # the walk extends from the longest length asked; a fresh tally walks
    # from the root
    calls.clear()
    _tally_for_length(dataclasses.replace(phi, _tally={}), asked)
    assert calls == {n: 2 ** base.use_bound(n) for n in range(asked)}


def test_pairwise_or_walk_to_length_8_reads_each_prefix_once():
    # output bit n of pairwise_or reads 2n+2 input bits: 4^(n+1) prefixes
    phi, calls = counting(pairwise_or_tt(), lambda bits, n: n)
    phi = walked(phi)
    assert all(c.passed for c in validate_measure(materialize_measure(phi), 8))
    assert calls == {n: 4 ** (n + 1) for n in range(8)}
    assert sum(calls.values()) == 87_380


def test_a_new_or_cleared_tally_walks_from_the_root():
    phi = pairwise_or_tt()
    _tally_for_length(phi, 4)
    fresh = dataclasses.replace(phi, _tally={})
    assert _tally_for_length(fresh, 3) == ref._tally_for_length(phi, 3)
    assert sorted(fresh._tally) == [0, 1, 2, 3]
    for k in (4, 2, 5):  # the length walked to, then a shorter and a longer one
        phi._tally.clear()
        assert _tally_for_length(phi, k) == ref._tally_for_length(phi, k)
        assert sorted(phi._tally) == list(range(k + 1))


class TaggedTally(dict):
    """A tally cache that carries state of its own, as a counting one does."""

    def __init__(self, tag):
        super().__init__()
        self.tag = tag


def test_a_replaced_copy_starts_with_its_own_empty_tally():
    phi = pairwise_or_tt()
    _tally_for_length(phi, 2)
    held = dict(phi._tally)
    # the copy reads its own output_bit, and writes nothing into phi's tally
    psi = dataclasses.replace(phi, output_bit=lambda bits, n: 0)
    assert not psi._tally
    assert induced_measure_of_cylinder(psi, "11") == 0
    assert induced_measure_of_cylinder(psi, "00") == 1
    assert phi._tally == held
    assert induced_measure_of_cylinder(phi, "11") == Fraction(9, 16)
    # a cache passed in keeps its type and state, and so does a copy's
    tagged = dataclasses.replace(phi, _tally=TaggedTally("t"))
    _tally_for_length(tagged, 3)
    for chi in (tagged, dataclasses.replace(tagged, name="copy")):
        assert type(chi._tally) is TaggedTally and chi._tally.tag == "t"
    assert sorted(tagged._tally) == [0, 1, 2, 3] and not chi._tally


@pytest.mark.parametrize("length", range(10))
def test_pairwise_or_tally_is_bernoulli_3_4(length):
    # the OR of two fair bits is 1 with probability 3/4, independently per
    # pair: an output with i ones has 3^i of the 4^length input blocks
    want = [3 ** bin(i).count("1") for i in range(2**length)], 4**length
    native, copy = pairwise_or_tt(), opaque(pairwise_or_tt())
    assert _tally_for_length(native, length) == _tally_for_length(copy, length) == want
    assert "_prefix_walk" in vars(native) and "_prefix_walk" not in vars(copy)


@pytest.mark.parametrize("make", [identity_tt, bit_flip_tt], ids=lambda f: f.__name__)
def test_identity_and_bit_flip_tallies_are_uniform(make):
    native, copy = make(), opaque(make())
    for phi in (native, copy):
        validate_measure(materialize_measure(phi), 14)
        assert all(phi._tally[k] == ([1] * 2**k, 2**k) for k in range(15))
    assert "_prefix_walk" in vars(native) and "_prefix_walk" not in vars(copy)


@pytest.mark.parametrize(
    "g, length",
    [(square_fn(), 7), (half_fn(), 8), (identity_fn(), 8), (abs_offset_fn(), 8),
     (complement_fn(), 8)],
    ids=["square", "half", "identity", "abs_offset", "complement"],
)
def test_tt_from_ucf_walk_matches_per_length_enumeration(g, length):
    phi = tt_from_ucf(g, 8)
    lengths = list(range(length + 1))
    random.Random(length).shuffle(lengths)
    for k in lengths:
        assert _tally_for_length(phi, k) == ref._tally_for_length(phi, k), k


def test_the_lab_marks_the_functionals_it_builds():
    # each carries a native output level, which the walk reads in place of
    # output_bit
    for native in (identity_tt(), bit_flip_tt(), pairwise_or_tt(), tt_from_ucf(square_fn(), 8)):
        phi, calls = counting(native, lambda bits, n: n)
        _with_level(phi.output_bit, native.output_bit.level)
        assert _tally_for_length(phi, 5) == ref._tally_for_length(native, 5), native.name
        assert not calls, native.name


@pytest.mark.parametrize("make", [identity_tt, bit_flip_tt, pairwise_or_tt], ids=lambda f: f.__name__)
def test_constant_levels_equal_a_per_prefix_read(make):
    phi = make()
    for n in range(9):
        prefixes = itertools.product((0, 1), repeat=phi.use_bound(n))
        assert phi.output_bit.level(n) == bytes(phi.output_bit(bits, n) for bits in prefixes), n


def with_modulus(g):
    """g with the declared modulus ε/4, so that u(n) = n + 4."""
    return dataclasses.replace(g, modulus=ModulusFunction(lambda e: e / 4))


def per_prefix_hull(slow, n):
    """The oracle's output bit n on every prefix of u(n) bits, as bytes."""
    prefixes = itertools.product((0, 1), repeat=slow.use_bound(n))
    return bytes(slow.output_bit(b, n) for b in prefixes)


CHUNKS = (1, 3, ttmeasures.LEVEL_CHUNK)


def assert_level_is_the_per_prefix_hull(g, length, chunks=CHUNKS):
    """tt_from_ucf's levels, and the tallies its walk builds from them, equal
    the oracle's per-prefix hull below the length, with each level read in
    chunks of each of the given numbers of grid steps."""
    slow = ref.tt_from_ucf(g, 8)
    hulls = [per_prefix_hull(slow, n) for n in range(length)]
    for chunk in chunks:
        phi = tt_from_ucf(g, 8)
        with mock.patch.object(ttmeasures, "LEVEL_CHUNK", chunk):
            assert [phi.output_bit.level(n) for n in range(length)] == hulls, chunk
            assert _tally_for_length(phi, length) == ref._tally_for_length(slow, length)


# a polygon with breakpoints off every dyadic grid and a hull below 0
OFF_GRID_POLYGON = polygonal_fn(
    [(0, Fraction(1, 2)), (Fraction(1, 3), 0), (Fraction(5, 7), Fraction(9, 10)), (1, Fraction(1, 5))]
)
THIRDS = StagedCover(
    stages=((RationalInterval(Fraction(1, 3), Fraction(2, 3)),),), size_bound=(1,)
)


@pytest.mark.parametrize(
    "g, length",
    [
        (square_fn(), 7), (half_fn(), 8), (identity_fn(), 8), (abs_offset_fn(), 8),
        (complement_fn(), 8), (const_fn(Fraction(3, 2)), 6), (const_fn(Fraction(-1, 3)), 6),
        (with_modulus(OFF_GRID_POLYGON), 6),
        (with_modulus(polygonal_fn([(0, -1), (Fraction(2, 5), Fraction(-7, 3)), (1, 2)])), 6),
        *[(with_modulus(q), 6) for q in QUADRATICS],
        *[(with_modulus(truncate(q, THIRDS)), 6) for q in QUADRATICS],
        (with_modulus(truncate(OFF_GRID_POLYGON, THIRDS)), 6),
        # an evaluator without pieces, read per grid point
        (with_modulus(dataclasses.replace(OFF_GRID_POLYGON, eval_at=OFF_GRID_POLYGON)), 6),
        # two critical points, 3/40 and 4/43, inside the step [1/16, 3/32]
        (with_modulus(truncate(
            polygonal_fn([(0, 2), (Fraction(3, 40), 0), (Fraction(1, 5), 2), (1, 0)]),
            StagedCover(stages=((RationalInterval(Fraction(4, 43), Fraction(1)),),),
                        size_bound=(1,)),
        )), 6),
    ],
    ids=lambda v: v.name if hasattr(v, "name") else str(v),
)
def test_tt_from_ucf_level_is_the_per_prefix_hull(g, length):
    assert_level_is_the_per_prefix_hull(g, length)


piece_functions = (
    polygons().map(polygonal_fn) | st.sampled_from(QUADRATICS)
).flatmap(lambda f: st.just(f) | st.builds(truncate, st.just(f), covers()))


@settings(max_examples=120, deadline=None)
@given(piece_functions, st.sampled_from(CHUNKS))
def test_tt_from_ucf_level_is_the_per_prefix_hull_on_drawn_pieces(g, chunk):
    assert_level_is_the_per_prefix_hull(with_modulus(g), 5, [chunk])


def test_a_level_over_several_chunks_is_the_per_prefix_hull():
    # u(9) = 13: two LEVEL_CHUNK chunks joined at grid point 4096
    g = with_modulus(OFF_GRID_POLYGON)
    phi, slow = tt_from_ucf(g, 8), ref.tt_from_ucf(g, 8)
    assert phi.use_bound(9) == 13
    assert phi.output_bit.level(9) == per_prefix_hull(slow, 9)


def test_a_g_without_pieces_is_read_once_per_grid_point():
    g = dataclasses.replace(square_fn(), eval_at=lambda x: x * x)
    phi = tt_from_ucf(g, 8)
    for k in (7, 3):
        assert _tally_for_length(phi, k) == ref._tally_for_length(ref.tt_from_ucf(g, 8), k)
    calls = []
    counted = dataclasses.replace(g, eval_at=lambda x: calls.append(x) or x * x)
    _tally_for_length(tt_from_ucf(counted, 8), 4)
    # one value per grid point k/2^u, k = 0..2^u, for u(n) = n + 3 and n < 4
    assert len(calls) == 9 + 17 + 33 + 65


# identity's levels with a fault at output bit n
LEVEL_FAULTS = [
    # one byte too long
    (2, b"\0\1" * 4 + b"\0", "identity: output level 2 holds 9 bits, not 2^3"),
    (2, b"\0\2" * 4, "identity: output bit 2 is 2, not the int 0 or 1"),
    # named at the first prefix that holds a non-bit
    (1, b"\0\5\xff\1", "identity: output bit 1 is 5, not the int 0 or 1"),
]


@pytest.mark.parametrize("fault, faulty, message", LEVEL_FAULTS)
def test_a_native_level_that_is_no_level_is_refused(fault, faulty, message):
    level = lambda n: faulty if n == fault else b"\0\1" * 2**n  # noqa: E731
    phi = dataclasses.replace(
        identity_tt(), output_bit=_with_level(lambda bits, n: bits[n], level), _tally={}
    )
    assert outcome(_tally_for_length, phi, 4) == (InvariantViolation, message)
    # the levels below the fault are tallied
    assert sorted(phi._tally) == list(range(fault + 1))


def test_a_replaced_use_bound_meets_the_level_guard():
    # pairwise_or's level has 4^(n+1) bytes, so it does not fit u(n) = n + 1
    phi = dataclasses.replace(pairwise_or_tt(), use_bound=lambda n: n + 1, _tally={})
    message = "pairwise_or: output level 0 holds 4 bits, not 2^1"
    assert outcome(_tally_for_length, phi, 3) == (InvariantViolation, message)


def cold_tally_peak(make, length):
    """tracemalloc's peak while a fresh functional is validated to length."""
    validate_measure(materialize_measure(make()), 4)  # warm the module
    gc.collect()
    tracemalloc.start()
    try:
        validate_measure(materialize_measure(make()), length)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the per-length enumeration peaked at 1.43 and 2.90 MiB; the walk may add
# at most 1 MiB, its frontier included
@pytest.mark.parametrize(
    "make, length, before", [(pairwise_or_tt, 9, 1.43), (identity_tt, 14, 2.90)],
    ids=["pairwise_or", "identity"],
)
def test_cold_tally_peak_stays_within_1_mib_of_the_enumeration(make, length, before):
    peak = cold_tally_peak(make, length) / 2**20
    assert peak < before + 1, f"{peak:.2f} MiB peak"


def test_a_cold_tt_from_ucf_tally_peaks_under_8_mib():
    # u = 16 at length 14: the level is read from the grid in chunks, and
    # output_bit's own levels are never built
    peak = cold_tally_peak(lambda: tt_from_ucf(square_fn(), 8), 14) / 2**20
    assert peak < 8, f"{peak:.2f} MiB peak"


def two_faults(first, second, clean=0):
    """Output bit 1 is `second` on input block `clean`, and output bit 0 is
    `first` on every block past the next one; every other bit is 0.  Both
    bits read the least number of input bits that has a block past
    clean + 1, and the blocks are those inputs read as binary ints, in
    enumeration order.  At clean = 0: bit 0 faults on the inputs that start
    with 1, and bit 1 on 00."""
    u = (clean + 2).bit_length()

    def output_bit(bits, n):
        block = int("".join(map(str, bits[:u])), 2)
        if n == 0:
            return first if block > clean + 1 else 0
        return second if block == clean else 0

    return TTFunctional("two", lambda n: u, output_bit)


# a per-length enumeration names the first input block with a non-bit, and
# the walk the least output bit: input 00 fails at bit 1, prefix 1 at bit 0
@pytest.mark.parametrize("first, second", [(-1, 1.0), (256, 1.0), (2, 1.0), (1.0, -1)], ids=repr)
def test_the_walk_names_the_least_bit_that_is_no_bit(first, second):
    phi = two_faults(first, second)
    per_length = (InvariantViolation, f"two: output bit 1 is {second!r}, not the int 0 or 1")
    assert outcome(_tally_for_length, phi, 2) == per_length
    assert outcome(ref._tally_for_length, phi, 2) == per_length
    walk = (InvariantViolation, f"two: output bit 0 is {first!r}, not the int 0 or 1")
    assert outcome(_tally_for_length, walked(phi), 2) == walk


# two faults that are both bytes or neither, or a byte in one block and no
# byte in a later one, after 0, 1, 3 or 1024 clean blocks: the Counter holds
# their rows when the fault is met, and the scan must read past them
@pytest.mark.parametrize("clean", [0, 1, 3, 1024])
@pytest.mark.parametrize("first, second", [(2, 3), (255, 2), (48, 95), (-1, 1.0), (1.0, 2)], ids=repr)
def test_a_per_length_tally_names_the_first_block_that_is_no_bit(first, second, clean):
    phi = two_faults(first, second, clean)
    want = (InvariantViolation, f"two: output bit 1 is {second!r}, not the int 0 or 1")
    assert outcome(ref._tally_for_length, phi, 2) == want
    assert outcome(_tally_for_length, phi, 2) == want
    walk = (InvariantViolation, f"two: output bit 0 is {first!r}, not the int 0 or 1")
    assert outcome(_tally_for_length, walked(phi), 2) == walk


@pytest.mark.parametrize("values", [(5, 7), (256, -1), (1.0, 2)], ids=repr)
def test_the_walk_names_the_first_prefix_that_is_no_bit(values):
    # bit 1 is values[0] on prefix 01 and values[1] on prefix 10
    table = {(0, 1): values[0], (1, 0): values[1]}
    phi = TTFunctional("pair", lambda n: 2, lambda bits, n: table.get(bits[:2], 0) if n else 0)
    message = f"pair: output bit 1 is {values[0]!r}, not the int 0 or 1"
    assert outcome(_tally_for_length, walked(phi), 2) == (InvariantViolation, message)


DECREASING = [
    # bit 0 reads input bit 2, bit 1 input bit 0: the index leaks from the input of 1 bit
    (lambda n: 3 if n == 0 else 1, 2, "dec: use bound u(1) = 1 is below u(0) = 3"),
    # a tally of length 2 over 2 inputs, although bit 0 reads 2 bits
    (lambda n: 2 if n == 0 else 1, 2, "dec: use bound u(1) = 1 is below u(0) = 2"),
    (lambda n: [1, 4, 4, 3][n], 4, "dec: use bound u(3) = 3 is below u(2) = 4"),
    (lambda n: -1, 1, "dec: use bound u(0) = -1 is below 0"),
]


@pytest.mark.parametrize("use_bound, length, message", DECREASING)
def test_a_decreasing_use_bound_is_refused_before_any_output_bit(use_bound, length, message):
    base = TTFunctional("dec", use_bound, lambda bits, n: bits[2] if n == 0 else bits[0])
    per_length, calls = counting(base, lambda bits, n: n)
    walk, walk_calls = counting(base, lambda bits, n: n)
    for phi, calls in ((per_length, calls), (walked(walk), walk_calls)):
        assert outcome(_tally_for_length, phi, length) == (InvariantViolation, message)
        assert outcome(induced_measure_of_cylinder, phi, "0" * length) == (
            InvariantViolation, message
        )
        assert not calls
        assert not phi._tally


def faulty_tt(value):
    """Output bit 1 is `value` on the inputs whose bit 2 is set; every other
    output bit copies its input bit."""
    return TTFunctional(
        "faulty", lambda n: n + 2, lambda bits, n: value if n == 1 and bits[2] else bits[n]
    )


# 48 and 95 are the bytes "0" and "_", which int(..., 2) could misread
@pytest.mark.parametrize("value", [2, 48, 95, 256, -1, 1.0], ids=repr)
def test_an_output_bit_that_is_no_bit_is_refused(value):
    message = f"faulty: output bit 1 is {value!r}, not the int 0 or 1"
    for tally in (_tally_for_length, ref._tally_for_length):
        assert outcome(tally, faulty_tt(value), 3) == (InvariantViolation, message)
    # the cold run of a measure validation and a cylinder mass meet it too
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        validate_measure(materialize_measure(faulty_tt(value)), 3)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        induced_measure_of_cylinder(faulty_tt(value), "000")
    # below the length where bit 1 is read, the functional is fine
    assert _tally_for_length(faulty_tt(value), 1) == ([2, 2], 4)


def test_a_true_output_bit_reads_as_1():
    phi = TTFunctional("true", lambda n: n + 1, lambda bits, n: bits[n] == 1)
    assert _tally_for_length(phi, 3) == ref._tally_for_length(phi, 3) == ([1] * 8, 8)
    assert induced_measure_of_cylinder(phi, "101") == Fraction(1, 8)


# strings int(σ, 2) reads although they are no bit strings, and "-1", which
# would index from the end
@pytest.mark.parametrize("sigma", ["0_1", " 1", "0b1", "+1", "2", "-1", "1 "])
@pytest.mark.parametrize("phi", FUNCTIONALS, ids=lambda p: p.name)
def test_a_cylinder_that_is_no_bit_string_has_mass_0(phi, sigma):
    got = induced_measure_of_cylinder(phi, sigma)
    assert got == ref.induced_measure_of_cylinder(phi, sigma) == 0
    assert type(got) is Fraction


def test_a_cylinder_that_is_no_bit_string_is_refused_before_any_tally():
    # the oracle would enumerate 2^26 input blocks; the lab's tally of
    # length 13 would need use bound 26 > USE_BOUND_BUDGET
    phi = pairwise_or_tt()
    got = induced_measure_of_cylinder(phi, "x" * 13)
    assert got == 0 and type(got) is Fraction
    assert not phi._tally


def test_identity_tally_to_length_14_holds_under_1_mib():
    # warm the module, so that only the tally of the functional below is held
    validate_measure(materialize_measure(identity_tt()), 4)
    gc.collect()
    tracemalloc.start()
    try:
        phi = identity_tt()
        validate_measure(materialize_measure(phi), 14)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sorted(phi._tally) == list(range(15))
    assert held < 2**20, f"{held / 2**20:.2f} MiB held"


def test_pairwise_or_to_length_8_makes_the_pinned_output_bit_calls():
    # the oracle reads every input block of 2L bits once per output bit n < L
    phi, calls = counting(pairwise_or_tt(), lambda bits, n: n)
    assert all(c.passed for c in validate_measure(materialize_measure(phi), 8))
    assert calls == {n: sum(4**k for k in range(n + 1, 9)) for n in range(8)}
    assert sum(calls.values()) == 669_924


def test_pairwise_or_call_multiset_matches_oracle_across_runs():
    phi, calls = counting(pairwise_or_tt(), lambda bits, n: (bits, n))
    slow, ref_calls = counting(pairwise_or_tt(), lambda bits, n: (bits, n))
    for k in range(8):  # 2^14 inputs at length 7
        assert _tally_for_length(phi, k) == ref._tally_for_length(slow, k)
    assert calls == ref_calls


def test_pairwise_or_known_values():
    phi = pairwise_or_tt()
    assert induced_measure_of_cylinder(phi, "1") == Fraction(3, 4)
    assert induced_measure_of_cylinder(phi, "11") == Fraction(9, 16)
    assert ref.induced_measure_of_cylinder(phi, "1") == Fraction(3, 4)
    assert ref.induced_measure_of_cylinder(phi, "11") == Fraction(9, 16)


@pytest.mark.parametrize("phi", FUNCTIONALS, ids=lambda p: p.name)
@given(sigma=prefixes)
@settings(max_examples=30, deadline=None)
def test_induced_measure_matches_brute_force(phi, sigma):
    assert induced_measure_of_cylinder(phi, sigma) == ref.induced_measure_of_cylinder(phi, sigma)


@pytest.mark.parametrize("phi", FUNCTIONALS, ids=lambda p: p.name)
def test_induced_measure_additivity(phi):
    # to length 14, or 9 for pairwise_or, whose use bound is 2n + 2
    mu = materialize_measure(phi)
    checks = validate_measure(mu, 9 if phi.name == "pairwise_or" else 14)
    assert all(c.passed for c in checks)


def test_identity_induces_uniform():
    phi = identity_tt()
    for i in range(16):
        s = format(i, "04b")
        assert induced_measure_of_cylinder(phi, s) == Fraction(1, 16)


def test_use_bound_budget_enforced():
    phi = pairwise_or_tt()  # use 2n+2 exceeds 24 at output length 12
    with pytest.raises(BudgetExceeded):
        induced_measure_of_cylinder(phi, "0" * 13)


def test_validate_measure_detects_leak():
    mu = table_measure(
        "leaky",
        {"": Fraction(1), "0": Fraction(1, 4), "1": Fraction(1, 4)},
    )
    checks = validate_measure(mu, 1)
    assert not all(c.passed for c in checks)


def test_cdf_uniform_is_identity():
    mu = uniform_measure()
    for i in range(17):
        d = Fraction(i, 16)
        assert cdf(mu, d) == d


def test_cdf_bernoulli_oracle_values():
    mu = bernoulli_measure(Fraction(3, 4))
    # mass below .111 = 1 - mu(111) = 1 - 27/64
    assert cdf(mu, Fraction(7, 8)) == Fraction(37, 64)
    assert cdf(mu, Fraction(1, 2)) == Fraction(1, 4)
    assert cdf(mu, Fraction(0)) == 0
    assert cdf(mu, Fraction(1)) == 1


@pytest.mark.parametrize(
    "root, want", [(1, Fraction(1)), (Fraction(1), Fraction(1)), (0.75, Fraction(3, 4))], ids=repr
)
def test_cdf_is_a_fraction_at_every_point(root, want):
    # μ(ε) as a table gives it, an int or a float, still comes back as a
    # Fraction at d = 1, as every other d does
    mu = table_measure("t", {"": root, "0": 1, "1": 0})
    for lab in (cdf, ref.cdf):
        values = [lab(mu, Fraction(1)), lab(mu, Fraction(1, 2)), lab(mu, Fraction(0))]
        assert [type(v) for v in values] == [Fraction] * 3
        assert values == [want, Fraction(1), Fraction(0)]


def test_cdf_monotone_to_depth_12():
    g = MonotoneCDF(bernoulli_measure(Fraction(3, 4)), 12)
    assert g.is_monotone()


@given(prefixes)
def test_uniform_transport_is_identity(a):
    r = transport(uniform_measure(), a)
    assert r.c_prefix == a
    assert r.status is TransportStatus.OK


def test_bernoulli_transport_known_images():
    mu = bernoulli_measure(Fraction(3, 4))
    r = transport(mu, "111")
    assert r.c_prefix.startswith("1")
    assert (r.image_lo, r.image_hi) == (Fraction(37, 64), Fraction(1))
    r = transport(mu, "00")
    assert r.c_prefix == "0000"
    assert r.status is TransportStatus.OK
    assert (r.image_lo, r.image_hi) == (Fraction(0), Fraction(1, 16))


def test_transport_monotone_and_prefix_coherent():
    mu = bernoulli_measure(Fraction(3, 4))
    depth = 10
    outputs = []
    for i in range(2**depth):
        a = format(i, f"0{depth}b")
        outputs.append(transport(mu, a).c_prefix)
        # prefix coherence against the 5-bit ancestor
        parent = transport(mu, a[:5]).c_prefix
        child = outputs[-1]
        assert child.startswith(parent) or parent.startswith(child)
    for c1, c2 in zip(outputs, outputs[1:]):
        # lexicographic order as dyadic intervals: no inversion
        n = min(len(c1), len(c2))
        assert c1[:n] <= c2[:n]


def test_transport_zero_mass_cylinder_refused():
    mu = table_measure(
        "atomic",
        {
            "": Fraction(1),
            "0": Fraction(0),
            "1": Fraction(1),
            "10": Fraction(1),
            "11": Fraction(0),
        },
    )
    with pytest.raises(ZeroMassCylinder):
        transport(mu, "0")


def test_transport_atom_suspected():
    # all mass concentrated on a single infinite path: images stop shrinking
    def mass(s: str) -> Fraction:
        return Fraction(1) if set(s) <= {"0"} else Fraction(0)

    mu = table_measure("dirac", {})
    mu = type(mu)("dirac", mass)
    with pytest.raises(AtomSuspected):
        transport(mu, "0" * 12)


@pytest.mark.parametrize(
    "mu",
    [uniform_measure(), bernoulli_measure(Fraction(3, 4))],
    ids=lambda m: m.name,
)
def test_pushforward_bracketing(mu):
    for L in range(1, 4):
        for i in range(2**L):
            tau = format(i, f"0{L}b")
            chk = transport_pushforward_check(mu, tau, 10)
            assert chk.passed


def test_pushforward_at_depth_0_walks_the_root():
    chk = transport_pushforward_check(bernoulli_measure(Fraction(3, 4)), "", 0)
    assert chk.passed
    assert chk.transported_mass == chk.target_mass == 1


def test_tt_from_ucf_identity_round_trip():
    phi = tt_from_ucf(identity_fn(), 8)
    for i in range(16):
        s = format(i, "04b")
        bits = tuple(int(b) for b in s + "0" * 8)
        out = "".join(str(b) for b in ref.apply_prefix(phi, bits, 4))
        assert out == s


def test_tt_from_ucf_halving_map():
    # g(x) = x/2 maps [0.1...] to [0.01...]
    phi = tt_from_ucf(half_fn(), 8)
    bits = (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    out = ref.apply_prefix(phi, bits, 3)
    assert out == (0, 1, 0)


def test_limit_oracle_change_counting():
    def script(query, stage):
        return min(stage, 3)

    o = LimitOracle(script, budget=3)
    assert o.changes("q", 10) == 3
    assert o.validate_budget("q", 10)
    assert o.guesses("q", 10)[-1] == 3
    tight = LimitOracle(script, budget=2)
    assert not tight.validate_budget("q", 10)


def test_limit_oracle_guesses_are_the_first_guess_and_each_change():
    o = LimitOracle(lambda query, stage: (stage + 1) // 2)
    assert o.guesses("q", 4) == [0, 1, 2]
    assert o.changes("q", 4) == 2
    assert o.guesses("q", 0) == [0]


@settings(max_examples=200, deadline=None)
@given(
    st.builds(Fraction, st.integers(1, 2**40), st.integers(1, 2**40))
    | st.integers(-30, 30).map(lambda e: Fraction(2) ** e),
    st.integers(0, 30),
)
def test_use_bound_equals_reference(c, n):
    theta = ModulusFunction(lambda eps: c * eps)
    phi = tt_from_ucf(dataclasses.replace(identity_fn(), modulus=theta), 8)
    want = ref.use_bound(theta, n)
    if want is None:
        message = f"at bit {n} > USE_BOUND_BUDGET ({USE_BOUND_BUDGET})"
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            phi.use_bound(n)
    else:
        assert phi.use_bound(n) == want


@st.composite
def table_measures(draw):
    """A table measure on {0,1}^{<=d}, d <= 10, and a prefix-drawing
    strategy: random entries, neither additive nor bounded by 1, some zero
    or negative; or additive splits of mass 1 in quarters, or in 0 and 1
    only, so that some cylinders are null and the heaviest path is an atom.
    The prefixes are bit strings up to one bit past the table, where it has
    holes, prefixes of its heaviest path, and strings not of bits."""
    depth = draw(st.integers(0, 10))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "quarters", "atoms"]))
    if kind == "random":
        table = {
            s: Fraction(rng.randint(-1, 8), rng.choice((1, 2, 3, 4, 6, 8)))
            for k in range(depth + 1)
            for s in bit_strings(k)
        }
    else:
        splits = (0, 1, 2, 3, 4) if kind == "quarters" else (0, 4)
        table = {"": Fraction(1)}
        for s in (s for k in range(depth) for s in bit_strings(k)):
            table[s + "0"] = table[s] * Fraction(rng.choice(splits), 4)
            table[s + "1"] = table[s] - table[s + "0"]
    heavy = ""
    while len(heavy) < depth:
        heavy += "0" if table[heavy + "0"] >= table[heavy + "1"] else "1"
    prefixes = st.one_of(
        st.text(alphabet="01", max_size=depth + 1),
        st.integers(0, depth).map(lambda n: heavy[:n]),
        st.text(alphabet="01x ", min_size=1, max_size=3),
    )
    return table_measure(kind, table), depth, prefixes


@st.composite
def biases(draw):
    """p = a/b with 2 <= b <= 64 and 0 < p < 1."""
    b = draw(st.integers(2, 64))
    return Fraction(draw(st.integers(1, b - 1)), b)


@settings(max_examples=400, deadline=None)
@given(biases(), st.text(alphabet="01", max_size=24) | st.text(alphabet="01x", max_size=8))
def test_bernoulli_closed_form_matches_products(p, sigma):
    got, want = bernoulli_measure(p)(sigma), ref.bernoulli_measure(p)(sigma)
    assert got == want and type(got) is type(want) is Fraction


def test_bernoulli_float_bias_gives_exact_masses():
    mu = bernoulli_measure(0.75)
    assert mu.name == "bernoulli 3/4"
    assert mu("1101") == ref.bernoulli_measure(Fraction(3, 4))("1101") == Fraction(27, 256)


@settings(max_examples=300, deadline=None)
@given(biases(), st.text(alphabet="01", max_size=24))
def test_bernoulli_transport_matches_fraction_descent(p, a):
    mu = bernoulli_measure(p)
    assert outcome(transport, mu, a) == outcome(ref.transport, mu, a)


# measures whose mass carries a native level, so transport reads each mass
# once, with the output length each tallies cheaply and the most its use
# bound admits (a product form tallies nothing: both are past the cap)
NATIVE_MEASURES = [
    (uniform_measure(), TRANSPORT_LENGTH_CAP + 1, TRANSPORT_LENGTH_CAP + 1),
    (bernoulli_measure(Fraction(1, 100)), TRANSPORT_LENGTH_CAP + 1, TRANSPORT_LENGTH_CAP + 1),
    (bernoulli_measure(Fraction(99, 100)), TRANSPORT_LENGTH_CAP + 1, TRANSPORT_LENGTH_CAP + 1),
    (bernoulli_measure(Fraction(3, 4)), TRANSPORT_LENGTH_CAP + 1, TRANSPORT_LENGTH_CAP + 1),
    (materialize_measure(identity_tt()), 14, 24),
    (materialize_measure(pairwise_or_tt()), 7, 12),
    # g maps into [0, 1/2]: every cylinder past "1" has mass 0
    (materialize_measure(tt_from_ucf(half_fn(), 8)), 14, 24),
]


def within_tally_reach(a, cheap, budget):
    """a, kept from reading a mass of length cheap+1..budget, whose tally is
    slow (2^u(k-1) inputs at length k): up to the budget a is cut to
    a[:cheap], and past it bits cheap..budget-1 are set to 0, so that its
    reads end at the first mass past the budget."""
    if len(a) <= cheap:
        return a
    if len(a) <= budget:
        return a[:cheap]
    return a[:cheap] + "0" * (budget - cheap) + a[budget:]


def read_once(mu, a):
    """outcome(transport, mu, a) with mu's mass recorded and given a native
    level, and mu's native ratio where its mass has one, checked against the
    opaque path: the same outcome, and each string read at most once, by the
    mass or its ratio, only strings its four cdf walks read, in the order
    they first read them.  A mass with a ratio is read only through it."""
    calls, ratio_calls = [], []
    ratio = getattr(mu.mass, "ratio", None)

    def recorded(sigma):
        calls.append(sigma)
        return mu.mass(sigma)

    def recorded_ratio(sigma):
        calls.append(sigma)
        ratio_calls.append(sigma)
        return ratio(sigma)

    mass = _with_level(recorded, mu.level, recorded_ratio if ratio else None)
    got = outcome(transport, dataclasses.replace(mu, mass=mass), a)
    want, walked = recorded_outcome(transport, mu, a)
    assert got == want
    assert calls == [s for s in dict.fromkeys(walked) if s in calls]
    if ratio is not None:
        assert ratio_calls == calls
    return got


def native_id(value):
    return getattr(value, "name", str(value))


@pytest.mark.parametrize("mu, cheap, budget", NATIVE_MEASURES, ids=native_id)
@settings(max_examples=150, deadline=None)
@given(a=st.text(alphabet="01", max_size=TRANSPORT_LENGTH_CAP + 1))
# the empty prefix, all 1s (no 0 at all), all 0s at the cap, a half with no
# 0, and lengths 7 and 8, the first with the half-prefix check
@example(a="")
@example(a="1" * TRANSPORT_LENGTH_CAP)
@example(a="0" * TRANSPORT_LENGTH_CAP)
@example(a="1111" + "0110")
@example(a="0110100")
@example(a="01101001")
def test_native_transport_matches_fraction_descent(mu, cheap, budget, a):
    a = within_tally_reach(a, cheap, budget)
    assert outcome(transport, mu, a) == read_once(mu, a) == outcome(ref.transport, mu, a)


def ratio_only(mu):
    """mu with a mass whose per-string read raises, that keeps the native
    level and ratio of mu's mass."""

    def unread(sigma):
        raise AssertionError(f"per-string read of {sigma!r}")

    return dataclasses.replace(mu, mass=_with_level(unread, mu.mass.level, mu.mass.ratio))


def cdf_points(cheap):
    """Dyadics of up to min(cheap, TRANSPORT_LENGTH_CAP) bits in [0, 1] and
    one step outside it, and rationals in [-1, 2] of denominator up to 24,
    most not dyadic."""
    lengths = st.integers(0, min(cheap, TRANSPORT_LENGTH_CAP))
    dyadics = lengths.flatmap(lambda k: st.integers(-1, 2**k + 1).map(lambda i: Fraction(i, 2**k)))
    return dyadics | st.fractions(-1, 2, max_denominator=24)


# the ends of [0, 1], one point outside each end, and a point not dyadic
EDGE_POINTS = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3)]


@pytest.mark.parametrize("mu, cheap, budget", NATIVE_MEASURES, ids=native_id)
@settings(max_examples=100, deadline=None)
@given(a=st.text(alphabet="01", max_size=TRANSPORT_LENGTH_CAP + 1), data=st.data())
def test_native_cdf_and_transport_read_only_the_ratio(mu, cheap, budget, a, data):
    a = within_tally_reach(a, cheap, budget)
    assert outcome(transport, ratio_only(mu), a) == outcome(transport, mu, a)
    for d in EDGE_POINTS + [data.draw(cdf_points(cheap))]:
        assert outcome(cdf, ratio_only(mu), d) == outcome(cdf, mu, d)


@pytest.mark.parametrize("mu, cheap, budget", NATIVE_MEASURES, ids=native_id)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_native_cdf_matches_fraction_sum(mu, cheap, budget, data):
    for d in EDGE_POINTS + [data.draw(cdf_points(cheap))]:
        got = outcome(cdf, mu, d, catch=ValueError)
        assert got == outcome(ref.cdf, mu, d, catch=ValueError)
        # the opaque path: the same value from the same mass calls
        assert recorded_outcome(cdf, mu, d) == recorded_outcome(ref.cdf, mu, d)


@settings(max_examples=300, deadline=None)
@given(table_measures(), st.data())
def test_table_with_a_level_transports_as_the_fraction_descent(mdp, data):
    # non-additive, negative and missing masses through the native path: an
    # image with lo > hi, a null cylinder, an atom or a hole in the table
    mu, _, prefixes = mdp
    a = data.draw(prefixes)
    assert read_once(mu, a) == outcome(ref.transport, mu, a)


@settings(max_examples=300, deadline=None)
@given(table_measures(), st.data())
def test_table_transport_matches_fraction_descent(mdp, data):
    mu, _, prefixes = mdp
    a = data.draw(prefixes)
    assert recorded_outcome(transport, mu, a) == recorded_outcome(ref.transport, mu, a)


@settings(max_examples=300, deadline=None)
@given(table_measures(), st.data())
def test_table_cdf_matches_fraction_sum(mdp, data):
    mu, depth, _ = mdp
    n = data.draw(st.integers(0, depth + 1))
    d = Fraction(data.draw(st.integers(-1, 2**n + 1)), 2**n)
    assert recorded_outcome(cdf, mu, d) == recorded_outcome(ref.cdf, mu, d)


@settings(max_examples=100, deadline=None)
@given(table_measures(), st.data())
def test_table_pushforward_matches_fraction_sums(mdp, data):
    mu, depth, _ = mdp
    d = data.draw(st.integers(0, min(depth, 6)))
    tau = data.draw(st.text(alphabet="01", max_size=d))
    got = recorded_outcome(transport_pushforward_check, mu, tau, d)
    assert got == recorded_outcome(ref.transport_pushforward_check, mu, tau, d)


@pytest.mark.parametrize("a", ["2", "01x", " 1", "0 "])
def test_transport_refuses_a_prefix_not_of_bits_before_any_mass(a):
    got = recorded_outcome(transport, uniform_measure(), a)
    assert got == recorded_outcome(ref.transport, uniform_measure(), a)
    assert got == ((ParseError, f"bad bit string {a!r}"), [])


@pytest.mark.parametrize("tau", ["2", "01x", " 1"])
def test_pushforward_refuses_a_target_not_of_bits_before_any_mass(tau):
    got = recorded_outcome(transport_pushforward_check, uniform_measure(), tau, 3)
    assert got == ((ParseError, f"bad bit string {tau!r}"), [])


@pytest.mark.parametrize("length", [TRANSPORT_LENGTH_CAP + d for d in (-1, 0, 1)])
@pytest.mark.parametrize("bit", "01")
def test_transport_at_the_length_cap_matches_fraction_descent(length, bit):
    mu = uniform_measure()
    a = bit * length
    assert outcome(transport, mu, a) == outcome(ref.transport, mu, a)


@pytest.mark.parametrize(
    "g, length",
    [
        (square_fn(), 7),
        (half_fn(), 8),
        (identity_fn(), 8),
        (complement_fn(), 7),
        (abs_offset_fn(), 7),
        (const_fn(Fraction(-1, 3)), 7),
        (const_fn(Fraction(1)), 7),
        # a hull that goes below 0 and above 1
        (
            dataclasses.replace(
                polygonal_fn([(0, Fraction(-3, 4)), (Fraction(1, 2), Fraction(5, 4)),
                              (1, Fraction(-1, 3))]),
                modulus=ModulusFunction(lambda e: e / 4),
            ),
            6,
        ),
        (with_modulus(OFF_GRID_POLYGON), 5),
    ],
    ids=["square", "half", "identity", "complement", "abs_offset", "const(-1/3)",
         "const(1)", "polygonal", "off-grid-polygon"],
)
def test_hull_cache_matches_per_call_hull(g, length):
    # output_bit reads its own level; the oracle builds each prefix's hull
    phi, slow = tt_from_ucf(g, 8), ref.tt_from_ucf(g, 8)
    # every tuple up to u(length-1) bits, so also tuples shorter than u(n):
    # one tuple read at several n shares bits[:u] across different u
    for m in range(phi.use_bound(length - 1) + 1):
        for bits in itertools.product((0, 1), repeat=m):
            for n in range(length):
                assert phi.output_bit(bits, n) == slow.output_bit(bits, n), (bits, n)


# 48 and 49 are the bytes "0" and "1"
@pytest.mark.parametrize(
    "bits", [(0, 2, 0, 0), (-1,), (256,), (48, 49), (1.0,), ("1",), ("01", 0)], ids=repr
)
def test_tt_from_ucf_refuses_an_input_entry_that_is_no_bit(bits):
    phi = tt_from_ucf(with_modulus(OFF_GRID_POLYGON), 8)
    message = f"input bits {bits!r} are not all 0 or 1"
    assert outcome(phi.output_bit, bits, 0) == (ParseError, message)
    # u(0) = 4: bits past the first four are not read, and True reads as 1
    assert phi.output_bit((0, 1, 1, 0, 7), 0) == phi.output_bit((False, True, 1, 0), 0)


@st.composite
def mass_tables(draw):
    """A table on {0,1}^{<=d}: each inner mass the sum of its children, as
    ints, Fractions over one denominator or scaled to total mass 1, some
    entries then turned into Fractions or moved (leaky), some maybe < 0."""
    depth = draw(st.integers(0, 6))
    low = draw(st.sampled_from([0, 0, -1]))
    leaves = draw(st.lists(st.integers(low, 8), min_size=2**depth, max_size=2**depth))
    table = dict(zip(bit_strings(depth), leaves))
    for k in reversed(range(depth)):
        for s in bit_strings(k):
            table[s] = table[s + "0"] + table[s + "1"]
    den = draw(st.sampled_from([None, 3, 12, "root"]))
    if den is not None:
        den = (table[""] or 1) if den == "root" else den
        table = {s: Fraction(v, den) for s, v in table.items()}
    cells = st.sampled_from(sorted(table))
    for s in draw(st.lists(cells, max_size=3)):
        table[s] = Fraction(table[s])
    for s in draw(st.lists(cells, max_size=3)):
        table[s] += draw(st.integers(-2, 2))
    return depth, table


@settings(max_examples=300, deadline=None)
@given(mass_tables(), st.data())
def test_validate_measure_matches_fraction_sums(dt, data):
    depth, table = dt
    d = data.draw(st.integers(0, depth))
    mu = table_measure("drawn", table)
    assert validate_measure(mu, d) == ref.validate_measure(mu, d)
