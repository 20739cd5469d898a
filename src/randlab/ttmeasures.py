"""Truth-table functionals, induced measures, and cylinder transport.

A total functional with a declared use bound induces a measure on Cantor
space by exact preimage counting.  Its distribution function on [0,1] is
computed through cylinder decompositions, and drives the greedy transport
of dyadic prefixes along the quantile coupling.

Whole levels {0,1}^k of masses come from `CylinderMeasure.level`, through
`intervals._level`, as ints over one denominator: `intervals._product` builds
a product form's level child by child, an induced measure copies its tally,
and any other mass callable is read once per string.  A tally holds ints:
for output length k, the count of each output indexed by the output read as
a binary int, over 2^u.
Measure validation and the distribution function's knots read only levels.

`cdf` sums the masses of the prefixes left of a dyadic point.  `transport`
maps [a) to its image [g(0.a), g(0.a + 2^-|a|)), each end a sum of cylinder
masses, and checks it against the image of a's first half.  A mass callable
with a native level reads purely, so each mass those four ends need is read
once and the ends are partial sums of them over one denominator; any other
callable is read by four cdf walks, call for call.  Both read prefix masses
as ints over one denominator, through `intervals._ratios`: a product form's
or an induced measure's mass carries a native ratio, each mass as an int
pair, so no Fraction is built per mass; any other callable is called once
per string.

The functionals this module builds carry a native output level on
output_bit: `output_bit.level(n)` gives bit n of every input prefix of length
u(n) as bytes.  They are tallied by one walk over the trie of input prefixes,
which reads each level once and fills the tally of every length it passes.
The combinatorial functionals' levels are constants; `tt_from_ucf` builds its
levels from g's values on the grid of each use bound (`MarkovFunction.grid`).
Any other output_bit callable, such as one put in by `dataclasses.replace`,
is read on every input block of each length for each of its output bits, in
one streaming count of the output rows.
"""

from __future__ import annotations

import copy
import enum
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, islice, product, repeat
from typing import Callable

from .cauchy import ModulusFunction, ceil_log2
from .errors import (
    AtomSuspected,
    InvariantViolation,
    ParseError,
    ZeroMassCylinder,
    check_budget,
)
from .intervals import (
    _check_bits,
    _level,
    _product,
    _ratios,
    _table,
    _unbalanced,
    _with_level,
    bit_string,
    bit_strings,
    format_rational,
    over_lcm,
)
from .markov import MarkovFunction
from .randomness import CheckRecord

USE_BOUND_BUDGET = 24
# grid points a run-built tt_from_ucf level samples at a time
LEVEL_CHUNK = 4096
TRANSPORT_LENGTH_CAP = 64
# the longest dyadic cdf reads, in bits: transport's image ends are dyadics
# of at most TRANSPORT_LENGTH_CAP bits
CDF_LENGTH_BUDGET = 64
# the deepest level of masses read: a level of depth k holds 2^k ints
MEASURE_DEPTH_BUDGET = 20
OMEGA_CE_DEFAULT_BUDGET = 16


@dataclass(frozen=True)
class TTFunctional:
    """A total functional on Cantor space in Nerode form.

    output_bit(bits, n) returns bit n of the output as the int 0 or 1 (True
    reads as 1; a tally refuses any other value with InvariantViolation),
    computed from input bits 0..use_bound(n)-1 only.  use_bound must be
    nondecreasing and start at 0 or more: a tally checks it up to the length
    asked and raises InvariantViolation at the first decrease.  `_tally`
    keeps the tally of each output length k enumerated so far:
    (counts, 2^use_bound(k-1)), with counts[i] the number of input blocks
    whose output is bit_string(k, i).  Each instance starts with its own
    empty cache, of the type passed in: a `dataclasses.replace` copy shares
    no tally with its original.

    An output_bit with a native output level (`intervals._with_level`;
    identity_tt, bit_flip_tt, pairwise_or_tt and tt_from_ucf set one) is
    tallied by one prefix walk: `output_bit.level(n)` returns bit n of every
    input prefix of length use_bound(n), in `product` order, as 2^use_bound(n)
    bytes each 0 or 1 (a tally refuses any other with InvariantViolation).
    Any other output_bit is read per length on tuples of use_bound(length-1)
    bits.
    """

    name: str
    use_bound: Callable[[int], int]
    output_bit: Callable[[tuple[int, ...], int], int]
    _tally: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        tally = copy.copy(self._tally)
        tally.clear()
        object.__setattr__(self, "_tally", tally)


# the levels of the combinatorial functionals: bit n of every prefix of u(n)
# bits is a function of its last one or two bits, so each level repeats them


def identity_tt() -> TTFunctional:
    output_bit = _with_level(lambda bits, n: bits[n], lambda n: b"\0\1" * 2**n)
    return TTFunctional("identity", lambda n: n + 1, output_bit)


def bit_flip_tt() -> TTFunctional:
    output_bit = _with_level(lambda bits, n: 1 - bits[n], lambda n: b"\1\0" * 2**n)
    return TTFunctional("bit_flip", lambda n: n + 1, output_bit)


def pairwise_or_tt() -> TTFunctional:
    """Output bit n is the OR of input bits 2n and 2n+1; pushes the uniform
    measure to Bernoulli(3/4)."""
    output_bit = _with_level(
        lambda bits, n: bits[2 * n] | bits[2 * n + 1], lambda n: b"\0\1\1\1" * 4**n
    )
    return TTFunctional("pairwise_or", lambda n: 2 * n + 2, output_bit)


# a tally row holds an output's bits, and tt_from_ucf's output_bit its input
# bits, as the bytes 0 and 1; _DIGITS reads them as the digits "0" and "1",
# and any other byte as "x", which int(..., 2) refuses
_BIT_BYTES = b"\x00\x01"
_DIGITS = b"01" + b"x" * 254


def _non_bit(phi: TTFunctional, n: int, value: object) -> InvariantViolation:
    return InvariantViolation(f"{phi.name}: output bit {n} is {value!r}, not the int 0 or 1")


def _use_bounds(phi: TTFunctional, length: int) -> list[int]:
    """u(0), ..., u(length-1), refused with InvariantViolation at the first n
    where u(n) < u(n-1), or u(0) < 0."""
    uses = [phi.use_bound(n) for n in range(length)]
    for n, (before, u) in enumerate(zip([0] + uses, uses)):
        if u < before:
            below = f"u({n - 1}) = {before}" if n else "0"
            raise InvariantViolation(f"{phi.name}: use bound u({n}) = {u} is below {below}")
    return uses


def _tally_for_length(phi: TTFunctional, length: int) -> tuple[list[int], int]:
    """Count, for every output string of the given length, how many input
    blocks of length u = use_bound(length-1) map onto it, as (counts, 2^u):
    counts[i] is the count of the output bit_string(length, i).  One
    enumeration serves all cylinders of that length.

    A use bound that decreases is refused with InvariantViolation before any
    output bit is read.  Where output_bit has a native output level (the
    functionals this module builds), `_walk_prefixes` tallies this length and
    every shorter one in one walk.  Any other callable is read on every input
    block, block by block and output bit by output bit, one output row in
    flight beside the Counter of distinct rows; a non-bit is named at the
    first block that holds one, at its least output bit."""
    cached = phi._tally.get(length)
    if cached is not None:
        return cached
    u = phi.use_bound(length - 1) if length > 0 else 0
    check_budget(u, f"use bound {{}} at length {length}", "USE_BOUND_BUDGET", USE_BOUND_BUDGET)
    uses = _use_bounds(phi, length)
    if getattr(phi.output_bit, "level", None) is not None:
        return _walk_prefixes(phi, uses)
    # one map over the inputs per output position: zip turns the columns into
    # the outputs, each counted as bytes (about a third of a tuple's size)
    columns = [map(phi.output_bit, product((0, 1), repeat=u), repeat(n)) for n in range(length)]
    counts = [0] * 2**length
    try:
        # no columns to zip at length 0: the one empty input maps onto ""
        rows = Counter(map(bytes, zip(*columns))) if length else {b"": 1}
        for row, c in rows.items():
            counts[int(b"0" + row.translate(_DIGITS), 2)] = c
    except (TypeError, ValueError):  # a bit that is no byte, or a byte above 1
        for bits in product((0, 1), repeat=u):
            for n in range(length):
                value = phi.output_bit(bits, n)
                if not isinstance(value, int) or value not in (0, 1):
                    raise _non_bit(phi, n, value)
        raise
    tally = phi._tally[length] = counts, 2**u
    return tally


def _walk_prefixes(phi: TTFunctional, uses: list[int]) -> tuple[list[int], int]:
    """The tally of every output length up to len(uses), from one walk over
    the trie of input prefixes: output bit n is read as one level,
    `output_bit.level(n)`, and each prefix of length u(n) gets the output
    index 2·(its parent's index) + its byte there.  A level that is not
    2^u(n) bytes, each 0 or 1, is refused with InvariantViolation; a non-bit
    is named at the least n, then at the first prefix in enumeration order.

    The walk stops at the length asked and keeps its frontier, the index of
    every prefix of length u(len(uses)-1), beside the tally entry it wrote
    last, so that a longer length extends it.  The frontier is valid while
    that entry is still the one in `_tally`, so a new or cleared tally walks
    from the root.  The frontier holds 2 bytes per prefix (8 past output
    length 16), and a level in progress about 4 more: 0.5 MiB held and a
    1.5 MiB peak at u = 18 (pairwise_or to length 9), 32 MiB held and about
    96 MiB at the peak at USE_BOUND_BUDGET, where a per-length enumeration
    holds one output row and the Counter of distinct rows.  A level that
    `tt_from_ucf` builds holds LEVEL_CHUNK grid values at a time beside its
    bytes: a cold tally of tt(square) to length 14 (u = 16) peaks near 2 MiB."""
    length = len(uses)
    walk = vars(phi).get("_prefix_walk")
    if walk is None or walk[0] > length or phi._tally.get(walk[0]) is not walk[1]:
        walk = 0, phi._tally.setdefault(0, ([1], 1)), array("H", [0])
    start, tally, indices = walk
    level = phi.output_bit.level
    for n in range(start, length):
        bits = level(n)
        if len(bits) != 2 ** uses[n]:
            raise InvariantViolation(
                f"{phi.name}: output level {n} holds {len(bits)} bits, not 2^{uses[n]}"
            )
        if bits.translate(None, _BIT_BYTES):
            raise _non_bit(phi, n, next(b for b in bits if b > 1))
        # an index of more than 16 output bits takes 8 bytes
        parents = array("Q", indices) if n == 16 else indices
        # prefix p·fanout + j extends parent p: fill the children's indices
        # by j, or by p where there are fewer parents than children of each
        fanout = len(bits) // len(parents)
        indices = array(parents.typecode, bytes(parents.itemsize * len(bits)))
        if fanout <= len(parents):
            for j in range(fanout):
                indices[j::fanout] = _appended(parents, bits[j::fanout])
        else:
            for p, i in enumerate(parents):
                block = slice(p * fanout, (p + 1) * fanout)
                indices[block] = _appended(array(parents.typecode, [i]) * fanout, bits[block])
        counts = [0] * 2 ** (n + 1)
        for i, c in Counter(indices).items():
            counts[i] = c
        tally = phi._tally[n + 1] = counts, len(bits)
    vars(phi)["_prefix_walk"] = length, tally, indices
    return tally


def _appended(indices: array, bits: bytes) -> array:
    """2·i + b for each index i and the bit b beside it, every lane at once:
    the indices read as one int, shifted, or-ed with the bits spread over
    the same lanes (an index below half its lane's range has room)."""
    width, order = indices.itemsize, sys.byteorder
    lanes = bytearray(width * len(bits))
    lanes[0 if order == "little" else width - 1 :: width] = bits
    spread = int.from_bytes(indices, order) << 1 | int.from_bytes(lanes, order)
    return array(indices.typecode, spread.to_bytes(len(lanes), order))


def induced_measure_of_cylinder(phi: TTFunctional, sigma: str) -> Fraction:
    """λ_Φ([σ)) = λ(Φ⁻¹[σ)), exactly, via the per-length tally; 0 for a σ
    that is not a bit string, which tallies nothing."""
    return Fraction(*_induced_ratio(phi, sigma))


def _induced_ratio(phi: TTFunctional, sigma: str) -> tuple[int, int]:
    """λ_Φ([σ)) as the int pair (count, 2^u) of its tally, not in lowest
    terms: (1, 1) for σ = "" and (0, 1) for a σ that is not a bit string."""
    if sigma.strip("01"):  # int(σ, 2) also reads "0_1", " 1" and "+1"
        return 0, 1
    if sigma == "":
        return 1, 1
    counts, den = _tally_for_length(phi, len(sigma))
    return counts[int(sigma, 2)], den


@dataclass(frozen=True)
class CylinderMeasure:
    """A Borel probability measure given by exact cylinder masses."""

    name: str
    mass: Callable[[str], Fraction]

    def __call__(self, sigma: str) -> Fraction:
        return self.mass(sigma)

    def level(self, k: int, step: int = 1) -> tuple[list[int], int]:
        """The masses of bit_strings(k)[::step] as (ints, den), read by
        `intervals._level` from `mass`: step = 2 reads the left children σ0
        alone.  k past MEASURE_DEPTH_BUDGET raises before any read."""
        check_budget(k, "level {}", "MEASURE_DEPTH_BUDGET", MEASURE_DEPTH_BUDGET)
        return _level(self.mass, k, step)


def uniform_measure() -> CylinderMeasure:
    return CylinderMeasure("uniform", _product(1, 1, 2))


def bernoulli_measure(p: Fraction) -> CylinderMeasure:
    """μ(σ) = p^#1 · (1-p)^#0, computed for p = a/b as a^#1 · (b-a)^#0 / b^|σ|;
    any character other than "1" counts as a 0."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("bias must lie strictly between 0 and 1")
    a, b = p.numerator, p.denominator
    return CylinderMeasure(f"bernoulli {format_rational(p)}", _product(b - a, a, b))


def table_measure(name: str, table: dict[str, Fraction]) -> CylinderMeasure:
    mass = _table(table, f"table measure {name!r} has no mass for cylinder")
    return CylinderMeasure(name, mass)


def materialize_measure(phi: TTFunctional) -> CylinderMeasure:
    # the native level is a copy of the tally, and the native ratio a count
    # of it, ints over 2^u from the calls each mass would make
    def level(k: int) -> tuple[list[int], int]:
        counts, den = _tally_for_length(phi, k)
        return counts.copy(), den

    mass = _with_level(lambda s: induced_measure_of_cylinder(phi, s), level,
                       partial(_induced_ratio, phi))
    return CylinderMeasure(f"induced({phi.name})", mass)


def validate_measure(mu: CylinderMeasure, depth: int) -> tuple[CheckRecord, ...]:
    """Exact additivity μ(σ) = μ(σ0) + μ(σ1) at every node to the depth,
    plus total mass 1 at the root and one failed record for the first
    negative mass in level order, if any; a depth past
    MEASURE_DEPTH_BUDGET raises before any level is read."""
    check_budget(depth, "depth {}", "MEASURE_DEPTH_BUDGET", MEASURE_DEPTH_BUDGET)
    parents, parent_den = mu.level(0)
    root = Fraction(parents[0], parent_den)
    checks = [CheckRecord("total_mass", root == 1, f"mass(ε) = {format_rational(root)}")]
    negative = None
    # two levels at a time, each as ints over its own denominator
    for k in range(depth + 1):
        masses, den = mu.level(k) if k else (parents, parent_den)
        for i in _unbalanced(parents, parent_den, masses, den) if k else ():
            total = masses[2 * i] + masses[2 * i + 1]
            checks.append(
                CheckRecord(
                    f"additivity[{bit_string(k - 1, i) or 'ε'}]",
                    False,
                    f"{format_rational(Fraction(parents[i], parent_den))} != "
                    f"{format_rational(Fraction(total, den))}",
                )
            )
        if negative is None and min(masses) < 0:
            i = next(i for i, m in enumerate(masses) if m < 0)
            s = bit_string(k, i) or "ε"
            mass = format_rational(Fraction(masses[i], den))
            negative = CheckRecord(f"nonnegative[{s}]", False, f"mass({s}) = {mass}")
        parents, parent_den = masses, den
    if negative is not None:
        checks.append(negative)
    if all(c.passed for c in checks):
        checks.append(CheckRecord(f"additivity_to_depth_{depth}", True))
    return tuple(checks)


def cdf(mu: CylinderMeasure, d: Fraction) -> Fraction:
    """g(d) = μ[0, d) for a dyadic d in [0, 1], via the binary-expansion
    cylinder decomposition of [0, d): μ(ε) at d = 1, else the sum of the
    prefix masses that `_cdf_ints` reads as ints, one Fraction in all.  Each
    mass, μ(ε) too, is read by `intervals._ratios`: through the native ratio
    where the mass has one, so no Fraction is built per mass, else by one
    call per prefix, as it always was.  So the value is a Fraction whatever
    type the mass gives (an int or a float 0.75 from a table).

    d is checked from its numerator and denominator: outside [0, 1] or not
    dyadic raises ValueError, and a denominator past 2^CDF_LENGTH_BUDGET
    raises BudgetExceeded, each before any mass is read."""
    num, den = d.numerator, d.denominator
    if num < 0 or num > den:
        raise ValueError("argument must lie in [0, 1]")
    if num == den:  # μ(ε), from its native ratio or one call
        (one,), den = _ratios(mu.mass, [""])
        return Fraction(one, den)
    if den & (den - 1):
        raise ValueError("argument must be dyadic")
    length = den.bit_length() - 1
    check_budget(length, "dyadic length {}", "CDF_LENGTH_BUDGET", CDF_LENGTH_BUDGET)
    return Fraction(*_cdf_ints(mu, bit_string(length, num)))


def _cdf_ints(mu: CylinderMeasure, sigma: str, right: bool = False) -> tuple[int, int]:
    """g at the left end of the cylinder [σ), or at its right end, as a
    (numerator, denominator) int pair: the masses μ(σ[:i] + "0") left of the
    point, one per 1-bit at i, read by `intervals._ratios` (as ints where
    the mass carries a native ratio, else one call each, in order) and
    summed over one lcm.  σ must be a bit string.  The right end of
    [p01…1) is 0.p1, and 1 = μ(ε) for a σ without a 0."""
    if right:
        i = sigma.rfind("0")
        if i < 0:
            (one,), den = _ratios(mu.mass, [""])
            return one, den
        sigma = sigma[:i] + "1"
    ints, den = _ratios(mu.mass, [sigma[:i] + "0" for i, b in enumerate(sigma) if b == "1"])
    return sum(ints), den


class TransportStatus(enum.Enum):
    OK = "OK"
    NEED_MORE_INPUT = "NEED_MORE_INPUT"


@dataclass(frozen=True)
class TransportResult:
    c_prefix: str
    status: TransportStatus
    image_lo: Fraction
    image_hi: Fraction


def _cdf_ends(mu: CylinderMeasure, a: str):
    """g at both ends of [a), then at both ends of [a[:|a|/2]), each pair as
    (lo, hi, q), ints over one q, by two `_cdf_ints` walks per pair: the
    reads of any mass callable, call for call."""
    for sigma in (a, a[: len(a) // 2]):
        (lo, lo_d), (hi, hi_d) = _cdf_ints(mu, sigma), _cdf_ints(mu, sigma, True)
        q = math.lcm(lo_d, hi_d)
        yield lo * (q // lo_d), hi * (q // hi_d), q


def _native_ends(mu: CylinderMeasure, a: str):
    """The pairs of `_cdf_ends` for pure reads, each mass read once.

    lo is the sum of μ(a[:i] + "0") over the 1-bits i of a; hi drops the run
    of 1s after the last 0 at r and adds μ(a[:r+1]), which is μ(ε) where
    there is no 0.  Those masses are read by one `intervals._ratios` call,
    as ints over one lcm (from the native ratio where the mass has one); the
    half's ends are partial sums of them, plus its own last-0 mass, read only
    when the half is asked for and only if it is not μ(a[:r+1])."""
    n, r = len(a), a.rfind("0")
    strings = [a[:i] + "0" for i, b in enumerate(a) if b == "1"]
    ints, q = _ratios(mu.mass, strings + [a[: r + 1]])
    # sums[k] is the sum of the first k 1-bits' masses
    sums = list(accumulate(ints[:-1], initial=0))
    yield sums[-1], sums[len(strings) - (n - 1 - r)] + ints[-1], q
    half = a[: n // 2]
    k, r_h = half.count("1"), half.rfind("0")
    (x,), d = ([ints[-1]], q) if r_h == r else _ratios(mu.mass, [half[: r_h + 1]])
    h_q = math.lcm(q, d)
    s = h_q // q
    yield sums[k] * s, sums[k - (len(half) - 1 - r_h)] * s + x * (h_q // d), h_q


def transport(mu: CylinderMeasure, a_prefix: str) -> TransportResult:
    """Greedy cylinder descent along the distribution function.

    The input cylinder [a) maps to the image interval [g(0.a), g(0.a+2^-|a|));
    emit output bits while a dyadic half splits the image cleanly.  From
    length 8 on, an image longer than half its half-prefix's is refused.

    Where `mu.mass` carries a native level its reads are pure, and each mass
    the four image ends need is read once (`_native_ends`); any other
    callable is read by four `_cdf_ints` walks, call for call.  Either way a
    mass is read only where those walks read it, and the half's only past
    the zero-mass test, and the masses are read as ints by
    `intervals._ratios`: through the native ratio where the mass has one.
    """
    # the output stops at the cap, so a longer prefix could never reach status OK
    check_budget(len(a_prefix), "prefix length {}", "TRANSPORT_LENGTH_CAP", TRANSPORT_LENGTH_CAP)
    _check_bits(a_prefix)
    native = getattr(mu.mass, "level", None) is not None
    ends = (_native_ends if native else _cdf_ends)(mu, a_prefix)
    # lo = lo_n/q and hi = hi_n/q in ints
    lo_n, hi_n, q = next(ends)
    if lo_n == hi_n:
        raise ZeroMassCylinder(f"cylinder {a_prefix!r} has image of length 0")
    if len(a_prefix) >= 8:
        h_lo, h_hi, h_q = next(ends)
        # hi - lo > (h_hi - h_lo)/2, cross-multiplied by the positive 2·q·h_q
        if 2 * (hi_n - lo_n) * h_q > (h_hi - h_lo) * q:
            raise AtomSuspected(
                f"image of {a_prefix!r} is not shrinking against its half-prefix"
            )
    # descend: the output cylinder is [j/2^k, (j+1)/2^k), its midpoint (2j+1)/2^(k+1)
    j = k = 0
    while k < TRANSPORT_LENGTH_CAP:
        mid_q = (2 * j + 1) * q
        if hi_n << (k + 1) <= mid_q:
            j = 2 * j
        elif lo_n << (k + 1) >= mid_q:
            j = 2 * j + 1
        else:
            break
        k += 1
    status = TransportStatus.OK if k >= len(a_prefix) else TransportStatus.NEED_MORE_INPUT
    return TransportResult(bit_string(k, j), status, Fraction(lo_n, q), Fraction(hi_n, q))


@dataclass(frozen=True)
class PushforwardCheck:
    tau: str
    transported_mass: Fraction
    target_mass: Fraction
    residual: Fraction
    passed: bool


def transport_pushforward_check(
    mu: CylinderMeasure, tau: str, depth: int
) -> PushforwardCheck:
    """Sum source mass of depth-level cylinders whose transport extends τ;
    the discrepancy from 2^{-|τ|} must be explained by boundary cylinders
    (those whose output is still a proper prefix of τ); τ must be bits, and
    the depth at most MEASURE_DEPTH_BUDGET."""
    if depth < len(tau):
        raise ValueError("depth must be at least the target length")
    _check_bits(tau)
    check_budget(depth, "depth {}", "MEASURE_DEPTH_BUDGET", MEASURE_DEPTH_BUDGET)
    inside, boundary = [], []
    for a in bit_strings(depth):
        m = mu(a)
        if m == 0:
            continue
        c = transport(mu, a).c_prefix
        if c.startswith(tau):
            inside.append(m)
        elif tau.startswith(c):
            boundary.append(m)
    (inside, den), (boundary, b_den) = over_lcm(inside), over_lcm(boundary)
    total, residual = Fraction(sum(inside), den), Fraction(sum(boundary), b_den)
    target = Fraction(1, 2 ** len(tau))
    return PushforwardCheck(
        tau, total, target, residual, abs(total - target) <= residual
    )


def _hull_bit(num: int, den: int, n: int) -> int:
    """Bit n of num/den truncated toward zero, as int() truncates a Fraction
    (the truncation of -x has the parity of that of x), and 1 at or above 1."""
    return 1 if num >= den else ((abs(num) << (n + 1)) // den) & 1


def _hull_level(g: MarkovFunction, u: int, n: int) -> bytes:
    """Bit n of the hull's lower end over each step [k/2^u, (k+1)/2^u], for
    k from 0 to 2^u - 1, from g's values on the grid (`MarkovFunction.grid`),
    read LEVEL_CHUNK steps at a time.  g is monotone between its critical
    points, so the minimum over a closed step is the lesser of its two ends;
    a step with a critical point strictly inside, off the grid, takes its
    minimum from `range_on` over that step."""
    size = 2**u
    out = bytearray()
    for start in range(0, size, LEVEL_CHUNK):
        ends, den = g.grid(size, range(start, min(start + LEVEL_CHUNK, size) + 1))
        out += bytes(_hull_bit(m, den, n) for m in map(min, ends, islice(ends, 1, None)))
    inside = (divmod(x.numerator * size, x.denominator) for x in g.critical_points)
    for k in {k for k, off in inside if off and 0 <= k < size}:
        lo = Fraction(k, size)
        y = g.range_on(lo, lo + Fraction(1, size))[0]
        out[k] = _hull_bit(y.numerator, y.denominator, n)
    return bytes(out)


def tt_from_ucf(g: MarkovFunction, depth: int) -> TTFunctional:
    """Build a truth-table functional from a uniformly continuous function
    with declared modulus θ: use u(n) = the least k with θ(2^{-n-2}) >= 2^{-k},
    and emit bit n of the lower endpoint of the certified output hull
    (rounding down at the boundary).  `depth` is not read: the use bound
    comes from θ alone.

    Its output level (`_hull_level`) reads g once per grid point through
    `g.grid`, from the runs of g's pieces where its evaluator carries them.
    output_bit reads its byte from its own copy of that level, at the index
    of `bits[:u]` with missing bits read as 0: the hull over [0.bits,
    0.bits + 2^-u]."""
    if g.modulus is None:
        raise InvariantViolation("a declared modulus is required")
    theta: ModulusFunction = g.modulus

    use_cache: dict[int, int] = {}

    def use_bound(n: int) -> int:
        if n not in use_cache:
            k = ceil_log2(1 / theta(Fraction(1, 2 ** (n + 2))))
            check_budget(k, f"use bound {{}} at bit {n}", "USE_BOUND_BUDGET", USE_BOUND_BUDGET)
            use_cache[n] = max(k, n + 1)
        return use_cache[n]

    def level(n: int) -> bytes:
        return _hull_level(g, use_bound(n), n)

    own_level = cache(level)  # output_bit's levels; the prefix walk keeps none

    def output_bit(bits: tuple[int, ...], n: int) -> int:
        u = use_bound(n)
        try:
            index = int(bytes(bits[:u]).translate(_DIGITS).ljust(u, b"0"), 2)
        except (TypeError, ValueError):
            raise ParseError(f"input bits {bits[:u]!r} are not all 0 or 1") from None
        return own_level(n)[index]

    return TTFunctional(f"tt({g.name})", use_bound, _with_level(output_bit, level))


@dataclass(frozen=True)
class LimitOracle:
    """A stage-wise approximation with per-query mind-change budgets, the
    finite surrogate for a halting-style oracle."""

    script: Callable[[object, int], object]
    budget: int = OMEGA_CE_DEFAULT_BUDGET

    def guesses(self, query: object, horizon: int) -> list[object]:
        """The guess at stage 0, then at each mind change up to `horizon`."""
        out = [self.script(query, 0)]
        for s in range(1, horizon + 1):
            cur = self.script(query, s)
            if cur != out[-1]:
                out.append(cur)
        return out

    def changes(self, query: object, horizon: int) -> int:
        return len(self.guesses(query, horizon)) - 1

    def validate_budget(self, query: object, horizon: int) -> bool:
        return self.changes(query, horizon) <= self.budget


@dataclass(frozen=True)
class MonotoneCDF:
    """The distribution function of a cylinder measure, tabulated at dyadic
    points and packaged as a monotone map on [0, 1]."""

    mu: CylinderMeasure
    depth: int

    def __call__(self, d: Fraction) -> Fraction:
        return cdf(self.mu, d)

    def _knot_ints(self) -> tuple[list[int], int, int, int]:
        """g at i/2^depth for 0 <= i < 2^depth as ints over one denominator,
        and g(1) = μ(root) as an int over its own, from one top-down pass:
        g at the midpoint of [σ) is g at its left end plus μ(σ0).  So only
        the left children and, for g(1), the root are read."""
        if self.depth < 0:
            raise ValueError(f"cdf depth {self.depth} < 0")
        g, den = [0], 1  # g at i/2^k for 0 <= i < 2^k, as ints over den
        for k in range(1, self.depth + 1):
            left, left_den = self.mu.level(k, 2)
            lcm = math.lcm(den, left_den)
            a, b = lcm // den, lcm // left_den
            halves = [0] * 2 * len(g)
            halves[::2] = [x * a for x in g]
            halves[1::2] = [x * a + y * b for x, y in zip(g, left)]
            g, den = halves, lcm
        (top,), top_den = self.mu.level(0)
        return g, den, top, top_den

    def knots(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """(i/2^depth, g(i/2^depth)) for 0 <= i <= 2^depth, g as `cdf` reads it."""
        g, den, top, top_den = self._knot_ints()
        size = 2**self.depth
        return tuple((Fraction(i, size), Fraction(x, den)) for i, x in enumerate(g)) + (
            (Fraction(1), Fraction(top, top_den)),
        )

    def is_monotone(self) -> bool:
        """Whether the knots' values never decrease: the ints over their one
        denominator, then g(1) against the last one by cross-multiplying."""
        g, den, top, top_den = self._knot_ints()
        return all(a <= b for a, b in zip(g, g[1:])) and g[-1] * top_den <= top * den
