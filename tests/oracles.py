"""The test oracles: the slow reference of each fast path of the lab.

Each exact fast path in randlab is checked for equality against the slow
code it replaced.  That code lives here, one oracle per replaced function,
under the function's name: ``validate_measure`` is the oracle of
``randlab.ttmeasures.validate_measure``.  The properties import this module
as ``ref``, e.g. ``ref.cdf(mu, d)``.  Most oracles take their function's
arguments and return what it returns, so ``test_oracles.py`` can patch them
into the lab and run the fixtures report and a slice of the benchmark
catalogue on them.  Budgets are the caller's to check, except where a
property compares the error: ``pseudo_derivative`` and ``transport``.

The helpers in ``VALUE_HELPERS`` give one value of a lab object (a capital,
a function value, a use bound, a union field of a fixture, the Fraction
view of a piece list) rather than replace a module's function;
``native_function`` writes Fraction pieces in the lab's int form, as the
constructors' oracles build them.
``outcome`` and ``recorded_outcome`` are what the properties compare.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import re
from fractions import Fraction
from typing import Optional, Sequence

from randlab import intervals, markov
from randlab.cauchy import const_name, scripted_name
from randlab.derivatives import (
    BLOWUP_THRESHOLD,
    PSEUDO_DERIVATIVE_PAIR_BUDGET,
    PseudoDerivativeEstimate,
)
from randlab.errors import (
    AtomSuspected,
    BudgetExceeded,
    CoverViolation,
    InvariantViolation,
    ParseError,
    ZeroMassCylinder,
    check_budget,
)
from randlab.intervals import (
    EMPTY_UNION,
    IntervalUnion,
    RationalInterval,
    _as_index,
    bit_strings,
    dyadic_value,
    format_rational,
)
from randlab.markov import (
    CANONICAL_NONUC_STAGE_BUDGET,
    MarkovFunction,
    SlopeBoundsVerdict,
    StagedCover,
    _from_pieces,
)
from randlab.martingales import (
    FairnessReport,
    Martingale,
    all_in_on_0,
    capital_trace,
    constant_martingale,
    split_bet,
    table_martingale,
)
from randlab.randomness import COMPONENT_INDEX_BUDGET, CheckRecord, TestFamily, TestKind, validate
from randlab.serialize import _decoder
from randlab.ttmeasures import (
    TRANSPORT_LENGTH_CAP,
    USE_BOUND_BUDGET,
    CylinderMeasure,
    PushforwardCheck,
    TransportResult,
    TransportStatus,
    TTFunctional,
    table_measure,
    uniform_measure,
)
from randlab.ttmeasures import tt_from_ucf as lab_tt_from_ucf

VALUE_HELPERS = (
    "apply_prefix",
    "builtin_value",
    "fraction_pieces",
    "modulus_precision",
    "native_function",
    "nonuc_critical_points",
    "nonuc_value",
    "polygonal_critical_points",
    "polygonal_value",
    "split_bet_value",
    "tent_interval",
    "tent_value",
    "truncation_value",
    "use_bound",
    "_union_from_json",
)
HARNESS = ("outcome", "recorded_outcome")


def outcome(f, *args, catch=Exception):
    """f(*args) with its type, or the type and message of the error of a
    type in `catch` it raises; any other error propagates."""
    try:
        value = f(*args)
    except catch as exc:
        return type(exc), str(exc)
    return type(value), value


def recorded_outcome(f, obj, *args):
    """outcome(f, obj, *args) and the strings obj was asked for, in order:
    the capitals of a Martingale (read raw, by value_at), the masses of a
    CylinderMeasure."""
    read = "value_at" if isinstance(obj, Martingale) else "mass"
    calls = []

    def recorded(sigma):
        calls.append(sigma)
        return getattr(obj, read)(sigma)

    return outcome(f, dataclasses.replace(obj, **{read: recorded}), *args), calls


# --- part (i): Markov computable functions, oscillation and slopes


def fraction_pieces(pieces):
    """The Fraction view of a lab piece list (`markov.Pieces`): a tuple of
    (x0, a, b, c), the function a + b·x + c·x² from x0 on."""
    starts, sden, abc, den = pieces
    return tuple(
        (Fraction(s, sden), Fraction(a, den), Fraction(b, den), Fraction(c, den))
        for s, (a, b, c) in zip(starts, abc)
    )


def native_function(name, pieces, modulus=None):
    """The lab function of the Fraction pieces (x0, a, b, c), x0 ascending
    from 0: the pieces written over two lcms, one for the starts and one for
    the coefficients, as `markov._from_pieces` takes them."""
    starts, sden = intervals.over_lcm(x0 for x0, *_ in pieces)
    ints, den = intervals.over_lcm(v for piece in pieces for v in piece[1:])
    return _from_pieces(name, starts, sden, list(zip(*[iter(ints)] * 3)), den, modulus)


def _by_piece(pieces):
    """Evaluation by piece in `Fraction`s: at x in [0, 1], a + b·x + c·x² of
    the last piece of the Fraction view that starts at or before x."""
    view = fraction_pieces(pieces)
    x0s = [x0 for x0, *_ in view]
    abc = [(a, b, c or None) for _, a, b, c in view]

    def ev(x: Fraction) -> Fraction:
        if x.numerator < 0 or x.numerator > x.denominator:
            raise ValueError(f"x = {x} outside [0, 1]")
        a, b, c = abc[bisect.bisect_right(x0s, x) - 1]
        return a + b * x if c is None else a + (b + c * x) * x

    return ev


def polygonal_fn(breakpoints):
    """The polygon built in Fractions: each segment's slope and intercept."""
    points = tuple((Fraction(x), Fraction(y)) for x, y in breakpoints)
    xs = [x for x, _ in points]
    if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1:
        raise ValueError("breakpoints must span [0,1]")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("breakpoint x-coordinates must strictly increase")
    pieces = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        s = (y1 - y0) / (x1 - x0)
        pieces.append((x0, y0 - s * x0, s, Fraction(0)))
    return native_function("polygonal", pieces)


def canonical_nonuc(stage_count):
    """The tents built in Fractions: per tent, its rise from lo, its fall
    from the peak at mid and 0 from hi, each slope peak / half-width."""
    if stage_count < 1:
        raise ValueError(f"stage_count {stage_count} < 1")
    check_budget(
        stage_count, "stage_count {}", "CANONICAL_NONUC_STAGE_BUDGET", CANONICAL_NONUC_STAGE_BUDGET
    )
    zero = Fraction(0)
    pieces = []
    for n in range(stage_count):
        iv = tent_interval(n)
        lo, hi = iv.lo, iv.hi
        mid = (lo + hi) / 2
        up, down = n / (mid - lo), n / (hi - mid)
        pieces += [(lo, -up * lo, up, zero), (mid, down * hi, -down, zero), (hi, zero, zero, zero)]
    return native_function(f"canonical_nonuc({stage_count})", pieces)


def truncate(f, c):
    """[f, C] with Fraction chords: spliced into the Fraction view of f's
    pieces where it has them, else read per point outside the chords.  The
    cover is checked by `markov.check_H`, so that where the oracles are
    patched into the lab, `check_H`'s oracle checks it."""
    violation = markov.check_H(c)
    if violation is not None:
        raise CoverViolation(violation)
    ivs = sorted(c.all_intervals(), key=lambda iv: (iv.lo, iv.hi))
    chords = []
    for iv in ivs:
        ylo, yhi = f(iv.lo), f(iv.hi)
        s = (yhi - ylo) / iv.length if iv.length else Fraction(0)
        chords.append((iv.lo, iv.hi, ylo - s * iv.lo, s))
    name = f"[{f.name},C]"
    pieces = getattr(f.eval_at, "pieces", None)
    if pieces is not None:
        # f's pieces up to each chord's lo, the chord from lo, and from hi
        # on the piece of f that holds hi
        view = fraction_pieces(pieces)
        out = []
        i, m = 0, len(view)
        for lo, hi, a, s in (ch for ch in chords if ch[0] < ch[1]):
            while i < m and view[i][0] < lo:
                out.append(view[i])
                i += 1
            if out and out[-1][0] == lo:
                out.pop()
            out.append((lo, a, s, Fraction(0)))
            while i < m and view[i][0] <= hi:
                i += 1
            out.append((hi, *view[i - 1][1:]))
        return native_function(name, out + list(view[i:]))

    def ev(x):
        for lo, hi, a, s in chords:
            if lo < x < hi:
                return a + s * x
        return f(x)

    crit = {p for iv in ivs for p in (iv.lo, iv.hi)} | set(f.critical_points)
    return MarkovFunction(name, ev, tuple(sorted(p for p in crit if 0 < p < 1)))


# the built-ins' values in closed form, by the function's name: the oracle
# of evaluation by piece on them
CLOSED_FORMS = {
    "identity": lambda x: x,
    "square": lambda x: x * x,
    "abs_offset": lambda x: abs(x - Fraction(1, 2)),
    "half": lambda x: x / 2,
    "complement": lambda x: 1 - x,
}


def builtin_value(f, x):
    """The value at x in [0, 1] of a built-in or of `const_fn(q)`, named
    "const(q)", by its closed form."""
    if f.name.startswith("const("):
        return Fraction(f.name[len("const("):-1])
    return CLOSED_FORMS[f.name](x)


def polygonal_value(breakpoints, x):
    for (x0, y0), (x1, y1) in zip(breakpoints, breakpoints[1:]):
        if x0 <= x < x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return breakpoints[-1][1]


def polygonal_critical_points(breakpoints):
    return tuple(x for x, _ in breakpoints[1:-1])


def tent_interval(n: int) -> RationalInterval:
    """I_n, the interval of canonical_nonuc's tent of peak n."""
    return RationalInterval(1 - Fraction(1, 2**n), 1 - Fraction(3, 2 ** (n + 2)))


def tent_value(iv, peak, x):
    mid = (iv.lo + iv.hi) / 2
    if x <= mid:
        if mid == iv.lo:
            return peak
        return peak * (x - iv.lo) / (mid - iv.lo)
    return peak * (iv.hi - x) / (iv.hi - mid)


def nonuc_value(k, x):
    for n in range(k):
        if tent_interval(n).contains(x):
            return tent_value(tent_interval(n), Fraction(n), x)
    return Fraction(0)


def nonuc_critical_points(k):
    """Each tent's ends and peak that lie inside (0, 1)."""
    ivs = map(tent_interval, range(k))
    marks = [p for iv in ivs for p in (iv.lo, (iv.lo + iv.hi) / 2, iv.hi)]
    return tuple(p for p in marks if 0 < p < 1)


def check_H(c: StagedCover) -> Optional[str]:
    """The protocol check in `Fraction`s: the intervals sorted with tuple
    keys, and each length compared with `Fraction(1, 2**k)`.  Stages are
    numbered from 0, also for a size bound below -1."""
    ivs = sorted(c.all_intervals(), key=lambda iv: (iv.lo, iv.hi))
    for a, b in zip(ivs, ivs[1:]):
        if b.lo < a.hi:
            return f"overlap between {a} and {b}"
    # with no overlap, the first interval starts lowest and the last ends highest
    for iv in ivs[:1] + ivs[-1:]:
        if iv.lo < 0 or iv.hi > 1:
            return f"interval {iv} lies outside [0, 1]"
    if c.stages and not c.size_bound:
        return f"no size bound for a cover of {len(c.stages)} stages"
    for k in range(len(c.stages)):
        bound_stage = c.size_bound[k] if k < len(c.size_bound) else c.size_bound[-1]
        for s in range(max(bound_stage + 1, 0), len(c.stages)):
            for iv in c.stages[s]:
                if iv.length >= Fraction(1, 2**k):
                    return (
                        f"size violation at k={k}: stage {s} interval {iv} "
                        f"has length {iv.length} >= 2^-{k}"
                    )
    return None


def truncation_value(f, ivs, x):
    for iv in ivs:
        if iv.lo < x < iv.hi:
            ylo, yhi = f(iv.lo), f(iv.hi)
            return ylo + (yhi - ylo) * (x - iv.lo) / (iv.hi - iv.lo)
    return f(x)


def modulus_precision(delta):
    """The least m >= 0 with 2^{-m+1} <= delta, by counting up; None past
    the 4096 budget."""
    m = 0
    while Fraction(2, 2**m) > delta:
        m += 1
        if m > 4096:
            return None
    return m


def grid(f, n, ks):
    """The oracle of `MarkovFunction.grid`: eval_at at each k/n for k in
    `ks`, as Fractions."""
    return [f.eval_at(Fraction(k, n)) for k in ks]


def _sample(runs, n, indices):
    """The full-grid writer that `markov._sample` replaced: each run written
    over all of its grid indices 0..n, then the values at `indices` read
    off."""
    ends = [run[0] for run in runs[1:]] + [n + 1]
    full = [0] * (n + 1)
    for (k0, a, b, c), k1 in zip(runs, ends):
        full[k0:k1] = [a + b * k + c * k * k for k in range(k0, k1)]
    return [full[k] for k in indices]


def _node_extrema(f, depth):
    """Min and max of each run of 16 values of the per-point grid, as
    Fractions."""
    size = 2 ** (depth + 4)
    nodes = zip(*[iter(grid(f, size, range(size)))] * 16)
    return [(min(node), max(node)) for node in nodes]


def oscillation_tree(f, n, depth):
    """Grid extrema folded as Fraction pairs, threshold as a Fraction."""
    size = 2 ** (depth + 4)
    denom = Fraction(1, size)
    vals = [f(k * denom) for k in range(size)]
    threshold = Fraction(1, 2**n) if n >= 0 else Fraction(2 ** (-n))
    level = [(v, v) for v in vals]
    extrema = [level]
    while len(level) > 1:
        level = [
            (min(level[2 * i][0], level[2 * i + 1][0]),
             max(level[2 * i][1], level[2 * i + 1][1]))
            for i in range(len(level) // 2)
        ]
        extrema.append(level)
    extrema.reverse()
    return {
        s
        for k in range(depth + 1)
        for s, (mn, mx) in zip(bit_strings(k), extrema[k])
        if mx - mn > threshold
    }


def slope_bounds_check(f, c, w, z, grid):
    """The lower clause on each cover interval, then the upper clause read
    directly off the truncation [f, C]: a Fraction loop over every grid
    pair."""
    for iv in c.all_intervals():
        if not w * (iv.hi - iv.lo) < f(iv.hi) - f(iv.lo):
            return SlopeBoundsVerdict(
                False, False, True,
                f"lower clause fails on {iv}: w·(b-a) = {w * iv.length}, "
                f"f(b)-f(a) = {f(iv.hi) - f(iv.lo)}",
            )
    t = truncate(f, c)
    pts = [Fraction(k, grid) for k in range(grid + 1)]
    tv = [t(p) for p in pts]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if not tv[j] - tv[i] < z * (pts[j] - pts[i]):
                return SlopeBoundsVerdict(
                    False, True, False,
                    f"upper clause fails at x={pts[i]}, y={pts[j]}: "
                    f"slope {(tv[j] - tv[i]) / (pts[j] - pts[i])} >= {z}",
                )
    return SlopeBoundsVerdict(True, True, True)


def pseudo_derivative(f, z, h, grid_denominator):
    """Every straddling pair's slope as a Fraction, f cached per grid index."""
    d = grid_denominator
    if h < Fraction(1, 2 ** (d + 2)):
        raise ValueError(
            f"scale h = {h} is below 2^-{d + 2}, a quarter step of the grid k/2^{d}"
        )
    step = Fraction(1, 2**d)
    w = z.window(d)
    lo_lim = max(Fraction(0), w.lo - h)
    hi_lim = min(Fraction(1), w.hi)
    best_hi = best_lo = None
    a_first, a_last = math.ceil(lo_lim * 2**d), math.floor(hi_lim * 2**d)
    b_min, b_span = math.ceil(w.lo * 2**d), math.floor(h * 2**d)
    pairs = max(0, a_last - a_first + 1) * b_span
    if pairs > PSEUDO_DERIVATIVE_PAIR_BUDGET:
        raise BudgetExceeded(
            f"up to {pairs} grid pairs > PSEUDO_DERIVATIVE_PAIR_BUDGET "
            f"({PSEUDO_DERIVATIVE_PAIR_BUDGET})"
        )
    fvals = {}

    def fv(k):
        if k not in fvals:
            fvals[k] = f(Fraction(k, 2**d))
        return fvals[k]

    for ka in range(a_first, a_last + 1):
        for kb in range(max(ka + 1, b_min), min(ka + b_span, 2**d) + 1):
            s = (fv(kb) - fv(ka)) / ((kb - ka) * step)
            if best_hi is None or s > best_hi:
                best_hi = s
            if best_lo is None or s < best_lo:
                best_lo = s
    if best_hi is None:
        raise ValueError(
            f"no pair of points of the grid k/2^{d} at most h = {h} apart "
            "straddles the point"
        )
    up_inf = best_hi > BLOWUP_THRESHOLD
    lo_inf = best_lo < -BLOWUP_THRESHOLD
    return PseudoDerivativeEstimate(
        upper=None if up_inf else best_hi,
        lower=None if lo_inf else best_lo,
        upper_infinite=up_inf,
        lower_infinite=lo_inf,
        scale=h,
        grid_denominator=d,
    )


# --- part (ii): interval unions and the test formalisms


def parse_rational(text):
    """The parse that reading two ints replaced: the pattern, then
    `Fraction(str)`, which reads the text a second time."""
    if not isinstance(text, str):
        raise ParseError(f'bad rational {text!r}: expected a "p/q" string')
    s = text.strip()
    if not re.fullmatch(r"-?\d+(/\d+)?", s):
        raise ParseError(f"bad rational {text!r}: expected p/q")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise ParseError(f"bad rational {text!r}: zero denominator") from exc


def parse_interval(text):
    """The parse that one pattern replaced: strip, check the brackets, split
    the body at its commas and read each endpoint with the lab's
    `parse_rational` (looked up when called, so a lab run on the oracles
    reads it through its own oracle)."""
    if not isinstance(text, str):
        raise ParseError(f'bad interval {text!r}: expected a "[lo,hi)" string')
    s = text.strip()
    if len(s) < 2 or s[0] not in "[(" or s[-1] not in ")]":
        raise ParseError(f"bad interval {text!r}")
    body = s[1:-1].split(",")
    if len(body) != 2:
        raise ParseError(f"bad interval {text!r}")
    return RationalInterval(
        lo=intervals.parse_rational(body[0]),
        hi=intervals.parse_rational(body[1]),
        lo_open=s[0] == "(",
        hi_open=s[-1] == ")",
    )


def contains(u: IntervalUnion, q: Fraction) -> bool:
    """`IntervalUnion.contains` before bisection: every part is asked."""
    return any(p.contains(q) for p in u.parts)


def witness_containing(u: IntervalUnion, iv: RationalInterval):
    """`IntervalUnion.witness_containing` before the int form: the first
    part, in order, that contains every point of `iv`, by Fraction
    comparisons."""
    for p in u.parts:
        lo_ok = p.lo < iv.lo or (p.lo == iv.lo and (not p.lo_open or iv.lo_open))
        hi_ok = iv.hi < p.hi or (iv.hi == p.hi and (not p.hi_open or iv.hi_open))
        if lo_ok and hi_ok:
            return p
    return None


def disjoint_from_interval(u: IntervalUnion, iv: RationalInterval) -> bool:
    """`IntervalUnion.disjoint_from_interval` before the int form: every
    part is asked, by Fraction comparisons."""

    def disjoint(p):
        if p.hi < iv.lo or iv.hi < p.lo:
            return True
        if p.hi == iv.lo:
            return p.hi_open or iv.lo_open
        if iv.hi == p.lo:
            return iv.hi_open or p.lo_open
        return False

    return all(map(disjoint, u.parts))


def parse_union(texts) -> IntervalUnion:
    """The union decode that reading ints over one denominator replaced:
    each string parsed to Fractions, then the sort-and-merge."""
    return normalize_union(parse_interval(t) for t in texts)


def strings(u: IntervalUnion) -> list[str]:
    """`IntervalUnion.strings` before the int form: each part's string."""
    return [str(p) for p in u.parts]


def normalize_union(intervals) -> IntervalUnion:
    """The sort-and-merge that the endpoint sweep replaced: parts sorted by
    their left end, each merged into the last output part it overlaps or
    touches at an included point."""
    ivs = sorted(intervals, key=lambda iv: (iv.lo, iv.lo_open, iv.hi, iv.hi_open))

    def mergeable(cur, nxt):
        # cur.lo <= nxt.lo: merge when they overlap, or touch with at least
        # one side including the touch point
        return nxt.lo < cur.hi or (nxt.lo == cur.hi and not (cur.hi_open and nxt.lo_open))

    out: list[RationalInterval] = []
    for iv in ivs:
        if out and mergeable(out[-1], iv):
            cur = out[-1]
            if iv.hi > cur.hi:
                hi, hi_open = iv.hi, iv.hi_open
            elif iv.hi == cur.hi:
                hi, hi_open = cur.hi, cur.hi_open and iv.hi_open
            else:
                hi, hi_open = cur.hi, cur.hi_open
            out[-1] = RationalInterval(cur.lo, hi, cur.lo_open, hi_open)
        else:
            out.append(iv)
    ends = [x for p in out for x in (p.lo, p.hi)]
    den = math.lcm(*(x.denominator for x in ends))
    return IntervalUnion(
        ends=tuple(x.numerator * (den // x.denominator) for x in ends),
        den=den,
        opens=tuple(f for p in out for f in (p.lo_open, p.hi_open)),
    )


def measure(u: IntervalUnion) -> Fraction:
    """`IntervalUnion.measure` before one common denominator: the parts'
    Fraction lengths, added one at a time."""
    return sum((p.length for p in u.parts), Fraction(0))


def coverage_at_least(unions: Sequence[IntervalUnion], threshold: int) -> IntervalUnion:
    """The midpoint-sampling version the sweep replaced: every union is
    tested, part by part, at every breakpoint and at the midpoint of every
    segment between consecutive breakpoints."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    pts: set[Fraction] = set()
    for u in unions:
        for p in u.parts:
            pts.add(p.lo)
            pts.add(p.hi)
    if not pts:
        return EMPTY_UNION
    bps = sorted(pts)
    pieces: list[RationalInterval] = []
    for a, b in zip(bps, bps[1:]):
        mid = (a + b) / 2
        if sum(1 for u in unions if contains(u, mid)) >= threshold:
            pieces.append(RationalInterval(a, b, lo_open=True, hi_open=True))
    for p in bps:
        if sum(1 for u in unions if contains(u, p)) >= threshold:
            pieces.append(RationalInterval(p, p))
    return normalize_union(pieces)


def interval_sequence_to_schnorr(t: TestFamily, depth: int) -> TestFamily:
    """The conversion before block tables held unions and were merged by
    `coverage_at_least`: the one part of each live entry Q^m_r(k), r <=
    depth, through the sort-and-merge `normalize_union`."""
    if t.kind is not TestKind.INTERVAL_SEQUENCE:
        raise ValueError("source must be an interval-sequence test")
    check_budget(depth, "depth {}", "COMPONENT_INDEX_BUDGET", COMPONENT_INDEX_BUDGET)
    failed = validate(t).first_failure()
    if failed is not None:
        raise InvariantViolation(failed.detail)
    per_m: dict[int, list[RationalInterval]] = {}
    for b in t.kind_data["blocks"]:
        if b["r"] <= depth:
            live = [u.parts[0] for k, u in b["table"].items() if k not in b["excluded"]]
            per_m.setdefault(b["m"], []).extend(live)
    comps = {m: [normalize_union(ivs)] for m, ivs in sorted(per_m.items())}
    return TestFamily(
        TestKind.SCHNORR,
        comps,
        {"declared_measures": {m: u.measure for m, (u,) in comps.items()}, "relativized": True},
        label=f"is_to_schnorr({t.label})",
    )


# --- part (iii): tt-functionals, the measures they induce, transports


def apply_prefix(phi, bits, length):
    """The first `length` output bits, one output_bit call each."""
    return tuple(phi.output_bit(bits, n) for n in range(length))


def _tally_for_length(phi, length):
    """Every input block of length u = use_bound(length-1), mapped bit by bit
    and counted at its output read as a binary int, as (counts, 2^u); the
    first output bit, in that order, that is not the int 0 or 1 is refused."""
    u = phi.use_bound(length - 1) if length > 0 else 0
    counts = [0] * 2**length
    for bits in itertools.product((0, 1), repeat=u):
        index = 0
        for n, b in enumerate(apply_prefix(phi, bits, length)):
            if not isinstance(b, int) or b not in (0, 1):
                raise InvariantViolation(
                    f"{phi.name}: output bit {n} is {b!r}, not the int 0 or 1"
                )
            index = 2 * index + b
        counts[index] += 1
    return counts, 2**u


def induced_measure_of_cylinder(phi, sigma: str) -> Fraction:
    """Direct enumeration of the input blocks mapped into [σ), no tally."""
    u = phi.use_bound(len(sigma) - 1)
    hits = 0
    for block in range(2**u):
        bits = tuple((block >> (u - 1 - i)) & 1 for i in range(u))
        out = "".join(str(phi.output_bit(bits, n)) for n in range(len(sigma)))
        if out == sigma:
            hits += 1
    return Fraction(hits, 2**u)


def use_bound(theta, n):
    """u(n) by counting k up to the least with 2^{-k} <= theta(2^{-n-2});
    None past USE_BOUND_BUDGET."""
    eps = theta(Fraction(1, 2 ** (n + 2)))
    k = 0
    while Fraction(1, 2**k) > eps:
        k += 1
        if k > USE_BOUND_BUDGET:
            return None
    return max(k, n + 1)


def tt_from_ucf(g, depth):
    """tt_from_ucf with the hull computed afresh on every output_bit call."""
    use_bound = lab_tt_from_ucf(g, depth).use_bound

    def output_bit(bits, n):
        u = use_bound(n)
        prefix = "".join(str(b) for b in bits[:u])
        lo = dyadic_value(prefix)
        hi = lo + Fraction(1, 2**u)
        ylo = min(g(lo), g(hi))
        for cp in g.critical_points:
            if lo < cp < hi:
                ylo = min(ylo, g(cp))
        if ylo >= 1:
            return 1
        scaled = ylo * 2 ** (n + 1)
        return int(scaled) & 1

    return TTFunctional(f"tt({g.name})", use_bound, output_bit)


def bernoulli_measure(p: Fraction) -> CylinderMeasure:
    """Masses as one Fraction product per bit: p on a "1", 1-p on anything
    else."""
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError("bias must lie strictly between 0 and 1")

    def mass(sigma: str) -> Fraction:
        out = Fraction(1)
        for b in sigma:
            out *= p if b == "1" else 1 - p
        return out

    return CylinderMeasure(f"bernoulli {format_rational(p)}", mass)


def validate_measure(mu, depth):
    """Each mass against the Fraction sum of its children, level by level,
    then a failed record for the first negative mass in level order."""
    masses = [mu("")]
    checks = [
        CheckRecord("total_mass", masses[0] == 1, f"mass(ε) = {format_rational(masses[0])}")
    ]
    negative = [(s, m) for s, m in [("", masses[0])] if m < 0]
    for k in range(depth):
        children = [mu(s) for s in bit_strings(k + 1)]
        for s, lhs, m0, m1 in zip(bit_strings(k), masses, children[::2], children[1::2]):
            if lhs != m0 + m1:
                checks.append(
                    CheckRecord(
                        f"additivity[{s or 'ε'}]",
                        False,
                        f"{format_rational(lhs)} != {format_rational(m0 + m1)}",
                    )
                )
        negative += [(s, m) for s, m in zip(bit_strings(k + 1), children) if m < 0]
        masses = children
    if negative:
        s, m = negative[0]
        name = s or "ε"
        detail = f"mass({name}) = {format_rational(m)}"
        checks.append(CheckRecord(f"nonnegative[{name}]", False, detail))
    if all(c.passed for c in checks):
        checks.append(CheckRecord(f"additivity_to_depth_{depth}", True))
    return tuple(checks)


def cdf(mu, d: Fraction) -> Fraction:
    """g(d) as a running Fraction sum over the binary expansion of d."""
    if d < 0 or d > 1:
        raise ValueError("argument must lie in [0, 1]")
    if d == 1:  # μ(ε) as a Fraction, whatever type the mass gives
        (one,), den = intervals._ratios(mu.mass, [""])
        return Fraction(one, den)
    num, den = d.numerator, d.denominator
    if den & (den - 1):
        raise ValueError("argument must be dyadic")
    length = den.bit_length() - 1
    bits = format(num, f"0{length}b") if length else ""
    total = Fraction(0)
    for i, b in enumerate(bits):
        if b == "1":
            total += mu(bits[:i] + "0")
    return total


def knots(mu, depth: int):
    """`MonotoneCDF.knots` as one `cdf` per point i/2^depth."""
    pts = [Fraction(i, 2**depth) for i in range(2**depth + 1)]
    return tuple((p, cdf(mu, p)) for p in pts)


def is_monotone(g) -> bool:
    """`MonotoneCDF.is_monotone` as a comparison of neighbouring Fraction
    knots."""
    ks = g.knots()
    return all(a[1] <= b[1] for a, b in zip(ks, ks[1:]))


def level(obj, k: int) -> list[Fraction]:
    """`CylinderMeasure.level` and `Martingale.level` as one read per string
    of bit_strings(k), of a mass or, with its checks, a capital.  A capital
    read stops at the first negative, where `Martingale.level` reads the
    whole level first: they differ only where a later read raises."""
    read = obj.value if isinstance(obj, Martingale) else obj.mass
    return [read(s) for s in bit_strings(k)]


def transport(mu, a_prefix: str) -> TransportResult:
    """The greedy descent over Fraction midpoints of the output cylinder,
    with g from `cdf` at dyadic Fractions."""
    if len(a_prefix) > TRANSPORT_LENGTH_CAP:
        raise BudgetExceeded(
            f"prefix length {len(a_prefix)} > TRANSPORT_LENGTH_CAP ({TRANSPORT_LENGTH_CAP})"
        )
    lo = cdf(mu, dyadic_value(a_prefix))
    hi = cdf(mu, dyadic_value(a_prefix) + Fraction(1, 2 ** len(a_prefix)))
    if lo == hi:
        raise ZeroMassCylinder(f"cylinder {a_prefix!r} has image of length 0")
    if len(a_prefix) >= 8:
        half = a_prefix[: len(a_prefix) // 2]
        h_lo = cdf(mu, dyadic_value(half))
        h_hi = cdf(mu, dyadic_value(half) + Fraction(1, 2 ** len(half)))
        if hi - lo > (h_hi - h_lo) / 2:
            raise AtomSuspected(
                f"image of {a_prefix!r} is not shrinking against its half-prefix"
            )
    c = ""
    c_lo, c_hi = Fraction(0), Fraction(1)
    while len(c) < TRANSPORT_LENGTH_CAP:
        mid = (c_lo + c_hi) / 2
        if hi <= mid:
            c += "0"
            c_hi = mid
        elif lo >= mid:
            c += "1"
            c_lo = mid
        else:
            break
    status = TransportStatus.OK if len(c) >= len(a_prefix) else TransportStatus.NEED_MORE_INPUT
    return TransportResult(c, status, lo, hi)


def transport_pushforward_check(mu, tau: str, depth: int) -> PushforwardCheck:
    """Running Fraction sums of the inside and boundary masses, transported
    by `transport`."""
    if depth < len(tau):
        raise ValueError("depth must be at least the target length")
    total = Fraction(0)
    residual = Fraction(0)
    for a in bit_strings(depth):
        m = mu(a)
        if m == 0:
            continue
        c = transport(mu, a).c_prefix
        if c.startswith(tau):
            total += m
        elif tau.startswith(c):
            residual += m
    target = Fraction(1, 2 ** len(tau))
    return PushforwardCheck(tau, total, target, residual, abs(total - target) <= residual)


# --- martingales: fairness and the savings transform


def split_bet_value(p, s: str) -> Fraction:
    """One Fraction product per bit: 2p on a "0", 2(1-p) on anything else."""
    out = Fraction(1)
    for bit in s:
        out *= 2 * p if bit == "0" else 2 * (1 - p)
    return out


def check_fairness(m: Martingale, depth: int) -> FairnessReport:
    """The depth-first walk (1-child first) comparing 2·M(σ) with
    M(σ0) + M(σ1) as Fractions."""
    stack = [""]
    while stack:
        s = stack.pop()
        if len(s) >= depth:
            continue
        v, v0, v1 = m.value(s), m.value(s + "0"), m.value(s + "1")
        if 2 * v != v0 + v1:
            return FairnessReport(False, f"fairness fails at {s!r}: 2·{v} != {v0} + {v1}")
        stack.extend((s + "0", s + "1"))
    return FairnessReport(True)


def savings_transform(m: Martingale, depth: int) -> Martingale:
    """(working, bank) kept per node in a dict, grown from a frontier."""
    ref = m.initial_capital
    state = {"": (ref, Fraction(0))}
    table = {"": ref}
    frontier = [""]
    for _ in range(depth):
        nxt = []
        for s in frontier:
            w, b = state[s]
            base = m.value(s)
            for bit in "01":
                child = s + bit
                ratio = m.value(child) / base if base != 0 else Fraction(1)
                wc = w * ratio
                if ref > 0 and wc >= 2 * ref:
                    bc, wc = b + wc / 2, wc / 2
                else:
                    bc = b
                state[child] = (wc, bc)
                table[child] = wc + bc
                nxt.append(child)
        frontier = nxt
    return Martingale(f"savings({m.name})", table.__getitem__, depth_budget=depth)


def savings_violation_search(m: Martingale, depth: int, drop: Fraction = Fraction(2)):
    """One depth-first search (1-child first) below every σ, σ in
    (length, lexicographic) order."""
    for sigma_len in range(depth + 1):
        for si in range(2**sigma_len):
            sigma = format(si, f"0{sigma_len}b") if sigma_len else ""
            vs = m.value(sigma)
            stack = [sigma]
            while stack:
                tau = stack.pop()
                if m.value(tau) < vs - drop:
                    return sigma, tau
                if len(tau) < depth:
                    stack.extend((tau + "0", tau + "1"))
    return None


def savings_growth_constants(base: Martingale, transformed: Martingale, depth: int):
    """The maxima of two capital traces per leaf.  ⌊log₂ max M⌋ is read
    as the bit length of max M's reduced numerator, less 1, bug for bug
    with the lab: that is right only for an integer max M.  The frozen
    benchmark digests hold this reading, so the lab and this oracle are to
    be fixed together, with a re-freeze."""
    c = base.initial_capital
    worst = Fraction(0)
    for leaf in itertools.product("01", repeat=depth):
        path = "".join(leaf)
        mx_base = max(capital_trace(base, path).capitals)
        mx_tr = max(capital_trace(transformed, path).capitals)
        log2_floor = max(0, mx_base.numerator.bit_length() - 1) if mx_base >= 1 else 0
        worst = max(worst, c * log2_floor - mx_tr)
    return c, worst


# --- fixture decoders: each field read by hand, as before the field table


def _integer(value, what):
    m = _as_index(value, what)
    if m is None:
        raise ParseError(f"{what} is an integer, got {value!r}")
    return m


def _index(value, what, low=0):
    m = _integer(value, what)
    if not low <= m <= COMPONENT_INDEX_BUDGET:
        raise ParseError(
            f"{what} {m} is outside {low}..COMPONENT_INDEX_BUDGET "
            f"({COMPONENT_INDEX_BUDGET})"
        )
    return m


def _index_set(value, what):
    if isinstance(value, list):
        entries = [_as_index(v, what) for v in value]
        if None not in entries:
            return frozenset(entries)
    raise ParseError(f"{what} is a list of integers, got {value!r}")


def _union_from_json(parts):
    """The union decode, read through the lab's `parse_union` looked up when
    called, so a lab run on the oracles reads it through its own oracle."""
    if not isinstance(parts, list):
        raise TypeError(f"a union is a list of interval strings, got {parts!r}")
    return intervals.parse_union(parts)


@_decoder("test_family")
def test_family_from_json(doc):
    kind = TestKind(doc["kind"])
    components = {
        _index(m, "component index", -COMPONENT_INDEX_BUDGET): [
            _union_from_json(v) for v in versions
        ]
        for m, versions in doc.get("components", {}).items()
    }
    payload = doc.get("kind_data", {})
    kd = {}
    if kind is TestKind.SCHNORR:
        kd["declared_measures"] = {
            _integer(m, "declared_measures key"): parse_rational(q)
            for m, q in payload.get("declared_measures", {}).items()
        }
        kd["relativized"] = bool(payload.get("relativized"))
    elif kind is TestKind.SOLOVAY:
        kd["total_bound"] = parse_rational(payload["total_bound"])
        if kd["total_bound"] <= 0:
            raise ParseError(
                f"SOLOVAY total_bound {payload['total_bound']!r} is not positive"
            )
    elif kind is TestKind.INTERVAL_SEQUENCE:
        kd["blocks"] = [
            {
                "m": _index(rec["m"], "block m"),
                "r": _index(rec["r"], "block r"),
                "table": {
                    _integer(k, "block table key"): intervals.parse_union([iv])
                    for k, iv in rec["table"].items()
                },
                "excluded": _index_set(rec.get("excluded", []), "excluded"),
            }
            for rec in payload.get("blocks", [])
        ]
    elif kind is TestKind.PI1:
        kd["q"] = [parse_rational(x) for x in payload["q"]]
        if not isinstance(payload["C"], list):
            raise ParseError(f"C is a list of PI1 C sets, got {payload['C']!r}")
        kd["C"] = [_index_set(c, "a PI1 C set") for c in payload["C"]]
        _index(len(kd["C"]), "number of PI1 C sets")
    elif kind in (TestKind.DEMUTH, TestKind.WEAK_DEMUTH):
        kd["budgets"] = {
            _integer(m, "budgets key"): _integer(b, "budgets value")
            for m, b in payload.get("budgets", {}).items()
        }
    return TestFamily(kind, components, kd, doc.get("label", ""))


@_decoder("test_family")
def updates_from_json(doc):
    events = doc.get("updates", [])
    if not isinstance(events, list):
        raise ParseError(f"updates is a list of objects, got {events!r}")
    for event in events:
        if not isinstance(event, dict):
            raise ParseError(f"an update is an object with m and union, got {event!r}")
    return [
        (_index(event["m"], "update m"), _union_from_json(event["union"]))
        for event in events
    ]


@_decoder("measure")
def measure_from_json(doc):
    rule = doc["rule"]
    if rule == "uniform":
        return uniform_measure()
    if rule == "bernoulli":
        return bernoulli_measure(parse_rational(doc["p"]))
    if rule == "table":
        table = {s: parse_rational(q) for s, q in doc["table"].items()}
        return table_measure(doc.get("name", "table"), table)
    raise ParseError(f"unknown measure rule {rule!r}")


@_decoder("martingale")
def martingale_from_json(doc):
    rule = doc["rule"]
    if rule == "constant":
        return constant_martingale(parse_rational(doc["value"]))
    if rule == "all_in_on_0":
        return all_in_on_0()
    if rule == "split_bet":
        return split_bet(parse_rational(doc["p"]))
    if rule == "table":
        table = {s: parse_rational(q) for s, q in doc["table"].items()}
        return table_martingale(table, doc.get("name", "table"))
    raise ParseError(f"unknown martingale rule {rule!r}")


@_decoder("cauchy_name")
def name_from_json(doc):
    if "exact" in doc and "values" not in doc:
        return const_name(parse_rational(doc["exact"]))
    values = [parse_rational(q) for q in doc["values"]]
    exact = parse_rational(doc["exact"]) if doc.get("exact") else None
    return scripted_name(values, doc.get("provenance", "fixture"), exact)
