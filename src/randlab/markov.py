"""Markov-computable functions at desk scale.

Functions are presented by replayable finite data: polygonal breakpoint
tables, staged interval covers with piecewise-linear tents, truncations of a
base function across a cover, or named symbolic built-ins.  Evaluation at any
rational in [0,1] is exact.

Exact range computation over a subinterval works off a finite list of
"critical points" (points where monotonicity may change); between consecutive
critical points every function here is monotone, so min/max are attained at
the sampled candidates.

Every reader of f on a grid k/n (0 <= k <= n, the right end included) goes
through `MarkovFunction.grid(n, ks)`, which gives the values at the indices
`ks` as integers over one common denominator.  Every function the lab builds
has one native form, a piece list on its evaluator: a + b·x + c·x² on each
piece, monotone there (see `MarkovFunction.grid`).  The evaluator reads its
point values from the same pieces, as ints (`_by_piece`), and refuses x
outside [0, 1]; the built-ins have no other evaluator.  `_runs` turns the
pieces into int runs a + b·k + c·k² on k/n, from which `_sample` writes the
values at any sorted grid indices, the part of a range inside a linear run
as one integer progression.  Any other evaluator is called once per grid point
read.  So an oscillation tree of a function with pieces reads its nodes'
ends and the grid points beside each run start; only a tree of any other
evaluator costs O(2^{depth+4}) whatever its size.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cauchy import CauchyName, ModulusFunction, ceil_log2
from .errors import CoverViolation, ExtensionUndefined, over_budget
from .intervals import RationalInterval, _as_index, bit_string, over_lcm, parse_rational

ZERO = Fraction(0)
ONE = Fraction(1)

OSCILLATION_DEPTH_BUDGET = 16
CANONICAL_NONUC_STAGE_BUDGET = 64
EXTENSION_PRECISION_BUDGET = 20
EXTENSION_REFINEMENTS = 8
SLOPE_GRID_PAIR_BUDGET = 2**12
# largest m of a window 2^-m that a declared modulus may ask for
MODULUS_PRECISION_BUDGET = 4096


@dataclass(frozen=True)
class StagedCover:
    """A c.e. set of closed rational intervals as a replayable staged script.

    size_bound[k] is the stage after which every newly enumerated interval
    must have length < 2^{-k} (the H(C) protocol), for k over 0..len(stages)-1;
    a k past the end of size_bound reads its last entry.
    """

    stages: tuple[tuple[RationalInterval, ...], ...]
    size_bound: tuple[int, ...]

    def all_intervals(self) -> list[RationalInterval]:
        return [iv for stage in self.stages for iv in stage]


def check_H(c: StagedCover) -> Optional[str]:
    """The first violation of the cover's intervals lying in [0, 1], of
    non-overlap or of the staged size-bound protocol, or None when the cover
    satisfies H(C).  The comparisons are in ints, every end over one
    denominator; only a violation's message builds a `Fraction`."""
    ivs = c.all_intervals()
    ends, den = over_lcm(e for iv in ivs for e in (iv.lo, iv.hi))
    # (lo, hi, index) ascending: intervals with equal ends keep stage order
    spans = sorted(zip(ends[::2], ends[1::2], range(len(ivs))))
    for (_, a_hi, i), (b_lo, _, j) in zip(spans, spans[1:]):
        if b_lo < a_hi:
            return f"overlap between {ivs[i]} and {ivs[j]}"
    # with no overlap, the first interval starts lowest and the last ends highest
    for lo, hi, i in spans[:1] + spans[-1:]:
        if lo < 0 or hi > den:
            return f"interval {ivs[i]} lies outside [0, 1]"
    if c.stages and not c.size_bound:
        return f"no size bound for a cover of {len(c.stages)} stages"
    stage_of = [s for s, stage in enumerate(c.stages) for _ in stage]
    widths = [hi - lo for lo, hi in zip(ends[::2], ends[1::2])]
    for k in range(len(c.stages)):
        bound_stage = c.size_bound[min(k, len(c.size_bound) - 1)]
        for s, width, iv in zip(stage_of, widths, ivs):
            if s > bound_stage and width << k >= den:
                return (
                    f"size violation at k={k}: stage {s} interval {iv} "
                    f"has length {iv.length} >= 2^-{k}"
                )
    return None


@dataclass(frozen=True)
class MarkovFunction:
    """A Markov computable function presented by finite replayable data.

    `critical_points` lists every x in (0,1) where monotonicity may change;
    exact range queries rely on it.  `modulus` is a declared modulus of
    uniform continuity when one exists.
    """

    name: str
    eval_at: Callable[[Fraction], Fraction]
    critical_points: tuple[Fraction, ...] = ()
    modulus: Optional[ModulusFunction] = None

    def __call__(self, x: Fraction) -> Fraction:
        return self.eval_at(x)

    def grid(self, n: int, ks: range) -> tuple[list[int], int]:
        """The values at k/n for k in `ks`, an ascending range inside 0..n
        (the right end n included), as (ints, den): the value at ks[i]/n is
        ints[i]/den.  The one reader of f on a grid.

        The native form belongs to the evaluator: it is the `pieces`
        attribute of `eval_at` when there is one, so `dataclasses.replace(f,
        eval_at=g)` reads g's values.  It lists pieces (x0, a, b, c) with x0
        ascending from 0: the value at x is a + b·x + c·x² from x0 up to the
        next piece's x0 (the last piece's through 1), and monotone there.
        `_runs` turns them into runs on k/n.  Any other evaluator is called
        exactly once per index, in order.
        """
        if n < 1:
            raise ValueError(f"grid size {n} < 1")
        if ks and not 0 <= ks[0] <= ks[-1] <= n:
            raise ValueError(f"grid indices {ks[0]}..{ks[-1]} outside 0..{n}")
        pieces = getattr(self.eval_at, "pieces", None)
        if pieces is not None:
            runs, den = _runs(pieces, n)
            return _sample(runs, ks), den
        return over_lcm(self.eval_at(Fraction(k, n)) for k in ks)

    def range_on(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
        """Exact (min, max) of the function over [lo, hi] ⊆ [0, 1]."""
        if lo > hi:
            raise ValueError("empty range query")
        # lo < 0 or hi > 1, read off the numerators
        if lo.numerator < 0 or hi.numerator > hi.denominator:
            raise ValueError(f"range query [{lo}, {hi}] outside [0, 1]")
        candidates = [lo, hi] + [p for p in self.critical_points if lo < p < hi]
        vals = [self.eval_at(x) for x in candidates]
        return min(vals), max(vals)


def _runs(pieces, n: int) -> tuple[list[tuple[int, int, int, int]], int]:
    """The runs on the grid k/n of the function that `pieces` lists (see
    MarkovFunction.grid), as ints over one denominator: (runs, den), where
    the value at k/n is (a + b·k + c·k²)/den from the run (k0, a, b, c) up to
    the next run's k0 (the last run's up to n)."""
    # the last piece owns x = 1, so its run is kept whenever it starts at or
    # before k = n
    starts = [-(-x0.numerator * n // x0.denominator) for x0, *_ in pieces] + [n + 1]
    nn = n * n
    kept = [
        (k0, a, b / n if b else b, c / nn if c else c)
        for (_, a, b, c), k0, k1 in zip(pieces, starts, starts[1:])
        if k0 < k1
    ]
    ints, den = over_lcm(q for run in kept for q in run[1:])
    coefs = zip(*[iter(ints)] * 3)
    return [(run[0], *abc) for run, abc in zip(kept, coefs)], den


def _sample(runs, indices: Sequence[int]) -> list[int]:
    """The values at `indices`, sorted grid indices (a range or a list), of
    the runs (k0, a, b, c) in ints: the value at k is a + b·k + c·k² from k0
    up to the next run's k0 (the last run's on).  The part of a range inside
    a run with c = 0 is written as one range."""
    out: list[int] = []
    i = 0
    for (_, a, b, c), k1 in zip(runs, [run[0] for run in runs[1:]] + [math.inf]):
        j = bisect.bisect_left(indices, k1, i)
        part = indices[i:j]
        i = j
        if c or not isinstance(part, range):
            out += [a + (b + c * k) * k for k in part]
        elif b:
            out += range(a + b * part.start, a + b * part.stop, b * part.step)
        else:
            out += [a] * len(part)
    return out


def _by_piece(pieces):
    """The evaluator of the function that `pieces` lists: at x = p/q in
    [0, 1], the last piece that starts at or before x, in ints.  The piece
    starts are ints over one denominator, and each piece's a, b, c ints over
    another, den, so the value is ((a·q + b·p)·q + c·p²) / (den·q²)."""
    starts, sden = over_lcm(x0 for x0, *_ in pieces)
    ints, den = over_lcm(v for piece in pieces for v in piece[1:])
    abc = list(zip(*[iter(ints)] * 3))

    def ev(x: Fraction) -> Fraction:
        p, q = x.numerator, x.denominator
        # x < 0 or x > 1, read off the numerator as `range_on` does
        if p < 0 or p > q:
            raise ValueError(f"x = {x} outside [0, 1]")
        a, b, c = abc[bisect.bisect_right(starts, p * sden, key=q.__mul__) - 1]
        return Fraction((a * q + b * p) * q + c * p * p, den * q * q)

    return ev


def _from_pieces(name, pieces, modulus=None) -> MarkovFunction:
    """The function that `pieces` lists, its piece starts inside (0, 1) its
    critical points.  Its evaluator, evaluation by piece, carries the pieces,
    so point values and grid values are read from the same pieces."""
    pieces = tuple(pieces)
    ev = _by_piece(pieces)
    ev.pieces = pieces
    return MarkovFunction(name, ev, tuple(x0 for x0, *_ in pieces if 0 < x0 < 1), modulus)


def identity_fn() -> MarkovFunction:
    return _from_pieces("identity", [(ZERO, ZERO, ONE, ZERO)], ModulusFunction(lambda eps: eps))


def square_fn() -> MarkovFunction:
    # |x^2 - y^2| <= 2|x - y| on [0,1]
    return _from_pieces("square", [(ZERO, ZERO, ZERO, ONE)], ModulusFunction(lambda eps: eps / 2))


def const_fn(q: Fraction) -> MarkovFunction:
    return _from_pieces(f"const({q})", [(ZERO, q, ZERO, ZERO)], ModulusFunction(lambda eps: ONE))


def abs_offset_fn() -> MarkovFunction:
    """|x - 1/2|: the canonical corner example."""
    h = Fraction(1, 2)
    pieces = [(ZERO, h, -ONE, ZERO), (h, -h, ONE, ZERO)]
    return _from_pieces("abs_offset", pieces, ModulusFunction(lambda eps: eps))


def half_fn() -> MarkovFunction:
    pieces = [(ZERO, ZERO, Fraction(1, 2), ZERO)]
    return _from_pieces("half", pieces, ModulusFunction(lambda eps: 2 * eps))


def complement_fn() -> MarkovFunction:
    return _from_pieces("complement", [(ZERO, ONE, -ONE, ZERO)], ModulusFunction(lambda eps: eps))


def polygonal_fn(breakpoints: Sequence[tuple[Fraction, Fraction]]) -> MarkovFunction:
    """The polygon through `breakpoints`, whose x strictly increase from 0 to 1."""
    points = tuple((Fraction(x), Fraction(y)) for x, y in breakpoints)
    xs = [x for x, _ in points]
    if len(xs) < 2 or xs[0] != 0 or xs[-1] != 1:
        raise ValueError("breakpoints must span [0,1]")
    if any(a >= b for a, b in zip(xs, xs[1:])):
        raise ValueError("breakpoint x-coordinates must strictly increase")
    pieces = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        s = (y1 - y0) / (x1 - x0)
        pieces.append((x0, y0 - s * x0, s, ZERO))
    return _from_pieces("polygonal", pieces)


def canonical_nonuc(stage_count: int) -> MarkovFunction:
    """The built-in non-uniformly-continuous example.

    Tents of height n sit on non-overlapping closed intervals
    I_n = [1 - 2^{-n}, 1 - 3·2^{-n-2}], converging toward the uncovered
    point 1; the function is 0 at every endpoint of every I_n (and 0 on the
    gaps, where the true construction would enumerate further intervals).
    """
    if stage_count < 1:
        raise ValueError(f"stage_count {stage_count} < 1")
    if stage_count > CANONICAL_NONUC_STAGE_BUDGET:
        raise over_budget(
            f"stage_count {stage_count}", "CANONICAL_NONUC_STAGE_BUDGET",
            CANONICAL_NONUC_STAGE_BUDGET,
        )
    # per tent: the rise from lo, the fall from its peak at mid, and 0 from
    # hi up to the next tent; the function is continuous, so each piece may
    # own its left end
    pieces = []
    for n in range(stage_count):
        lo = 1 - Fraction(1, 2**n)
        hi = 1 - Fraction(3, 2 ** (n + 2))
        mid = (lo + hi) / 2
        peak = Fraction(n)
        up, down = peak / (mid - lo), peak / (hi - mid)
        pieces += [(lo, -up * lo, up, ZERO), (mid, down * hi, -down, ZERO), (hi, ZERO, ZERO, ZERO)]
    return _from_pieces(f"canonical_nonuc({stage_count})", pieces)


def _splice(pieces, chords):
    """The pieces of [f, C] from f's `pieces` and the chords (lo, hi, a, s),
    sorted, of the cover's intervals with an interior, in one merge: f's
    pieces up to lo, the chord a + s·x from lo, and from hi on the piece of
    f that holds hi.  The chord owns lo, where it equals f."""
    out = []
    i, m = 0, len(pieces)
    for lo, hi, a, s in chords:
        while i < m and pieces[i][0] < lo:
            out.append(pieces[i])
            i += 1
        if out and out[-1][0] == lo:
            out.pop()  # the previous chord ends where this one starts
        out.append((lo, a, s, ZERO))
        while i < m and pieces[i][0] <= hi:
            i += 1
        out.append((hi, *pieces[i - 1][1:]))
    out += pieces[i:]
    return out


def truncate(f: MarkovFunction, c: StagedCover) -> MarkovFunction:
    """[f, C]: equal to f outside (and at the endpoints of) every interval of
    the cover, linear across each interval's interior.  A base with pieces
    gives a truncation with pieces (see `_splice`); any other is read per
    point outside the chords.  A cover that fails H(C) raises
    `CoverViolation` before f is read."""
    violation = check_H(c)
    if violation is not None:
        raise CoverViolation(violation)
    # a point interval sorts before an interval starting at the same point,
    # so the search below finds the one with an interior
    ivs = sorted(c.all_intervals(), key=lambda iv: (iv.lo, iv.hi))
    # per interval: lo, hi and the chord a + s·x (a point interval has no
    # interior, so its chord is never read)
    chords: list[tuple[Fraction, Fraction, Fraction, Fraction]] = []
    for iv in ivs:
        ylo, yhi = f(iv.lo), f(iv.hi)
        s = (yhi - ylo) / iv.length if iv.length else ZERO
        chords.append((iv.lo, iv.hi, ylo - s * iv.lo, s))
    name = f"[{f.name},C]"
    pieces = getattr(f.eval_at, "pieces", None)
    if pieces is not None:
        return _from_pieces(name, _splice(pieces, [ch for ch in chords if ch[0] < ch[1]]))
    los = [iv.lo for iv in ivs]

    def ev(x: Fraction) -> Fraction:
        i = bisect.bisect_right(los, x) - 1
        if i >= 0:
            lo, hi, a, s = chords[i]
            if lo < x < hi:
                return a + s * x
        return f(x)

    crit = set(f.critical_points)
    for iv in ivs:
        crit.add(iv.lo)
        crit.add(iv.hi)
    return MarkovFunction(name, ev, critical_points=tuple(sorted(p for p in crit if 0 < p < 1)))


def _node_extrema(f: MarkovFunction, depth: int) -> tuple[list[int], list[int], int]:
    """(minima, maxima, den): min and max of f over the 16 grid points
    k/2^{depth+4} of each node at level `depth`, as ints over den.

    The runs of an evaluator's pieces are monotone, so a node's extrema lie
    at its first and last points and on either side of each run start inside
    it.  Any other evaluator is read at every grid point through `f.grid`."""
    size = 2 ** (depth + 4)
    pieces = getattr(f.eval_at, "pieces", None)
    if pieces is None:
        vals, den = f.grid(size, range(size))
        nodes = list(zip(*[iter(vals)] * 16))
        return list(map(min, nodes)), list(map(max, nodes)), den
    runs, den = _runs(pieces, size)
    ends = _sample(runs, range(0, size, 16)), _sample(runs, range(15, size, 16))
    lo, hi = list(map(min, *ends)), list(map(max, *ends))
    # a run start k inside a node (k not a multiple of 16) and the grid point
    # before it; a start at a node's first point is read with the node ends
    near = [j for k, *_ in runs if k % 16 for j in (k - 1, k)]
    for k, v in zip(near, _sample(runs, near)):
        if v < lo[k >> 4]:
            lo[k >> 4] = v
        elif v > hi[k >> 4]:
            hi[k >> 4] = v
    return lo, hi, den


def oscillation_tree(f: MarkovFunction, n: int, depth: int) -> set[str]:
    """All strings sigma (|sigma| <= depth) whose dyadic interval [sigma)
    contains two dyadic rationals of denominator <= 2^{depth+4} with function
    values more than 2^{-n} apart.

    A witness pair exists iff max - min over the grid exceeds the threshold.
    The extrema are read once: min and max of each depth-level node's 16
    grid points, folded pairwise up to the root.  A parent's grid contains
    each child's, so the tree is closed under prefixes, and it is read
    top-down: only the children of a node in the tree are tested.

    The grid is the points k/2^{depth+4} with k below 2^{depth+4} ([sigma)
    excludes its right end), as integers over one common denominator: min
    and max compare ints and the threshold test needs no Fraction.  For an
    evaluator with pieces the deepest level reads 2·2^depth values plus 2 per
    run start on the grid (see `_node_extrema`), never `critical_points`.
    Any other `eval_at` is called once per grid point, O(2^{depth+4})
    whatever the tree's size.
    """
    if depth > OSCILLATION_DEPTH_BUDGET:
        raise over_budget(f"depth {depth}", "OSCILLATION_DEPTH_BUDGET", OSCILLATION_DEPTH_BUDGET)
    if depth < 0:
        raise ValueError(f"tree depth {depth} < 0")
    # extrema[k] = (minima, maxima) over the grid slices of the nodes at
    # level k
    lo, hi, den = _node_extrema(f, depth)
    extrema = [(lo, hi)]
    while len(lo) > 1:
        lo = list(map(min, lo[::2], lo[1::2]))
        hi = list(map(max, hi[::2], hi[1::2]))
        extrema.append((lo, hi))
    extrema.reverse()  # extrema[k] now indexed by level k = |sigma|
    lo, hi = lo[0], hi[0]
    # a node is in the tree iff spread·scale > bound (a spread is an int over
    # den).  |n| is clamped where the tree stops changing, so 2^|n| stays
    # small: past 2^{-n} < 1/den every nonzero spread passes, and past the
    # root's spread none does
    if n >= 0:
        scale, bound = 2 ** min(n, den.bit_length()), den
    else:
        scale, bound = 1, den << min(-n, (hi - lo).bit_length())
    # level by level from the root: a child's grid slice lies inside its
    # parent's, so only the children of a node in the tree can be in it
    tree: set[str] = set()
    level = [0]
    for k, (mins, maxs) in enumerate(extrema):
        level = [i for i in level if (maxs[i] - mins[i]) * scale > bound]
        tree.update(bit_string(k, i) for i in level)
        level = [c for i in level for c in (2 * i, 2 * i + 1)]
    return tree


@dataclass(frozen=True)
class SlopeBoundsVerdict:
    passed: bool
    lower_clause_ok: bool
    upper_clause_ok: bool
    counterexample: Optional[str] = None


def slope_bounds_check(
    f: MarkovFunction,
    c: StagedCover,
    w: Fraction,
    z: Fraction,
    grid: int,
) -> SlopeBoundsVerdict:
    """Two-sided slope bounds for a truncation.

    Lower clause: w(b-a) < f(b) - f(a) exactly on every cover interval.
    Upper clause: [f,C](y) - [f,C](x) < z(y-x) on all ordered grid pairs
    x < y, where the grid has `grid` subdivisions of [0,1]; the first failing
    pair in (x, y) order is the counterexample.  The clause is one pass over
    integer values, O(grid), not a loop over the pairs.  The truncation is
    built, and so the cover checked against H(C), before the lower clause
    runs.
    """
    if w >= z:
        raise ValueError("requires w < z")
    if grid < 1:
        raise ValueError("requires grid >= 1")
    if (pairs := grid * (grid + 1) // 2) > SLOPE_GRID_PAIR_BUDGET:
        raise over_budget(f"{pairs} grid pairs", "SLOPE_GRID_PAIR_BUDGET", SLOPE_GRID_PAIR_BUDGET)
    t = truncate(f, c)
    for iv in c.all_intervals():
        if not w * (iv.hi - iv.lo) < f(iv.hi) - f(iv.lo):
            return SlopeBoundsVerdict(
                False, False, True,
                f"lower clause fails on {iv}: w·(b-a) = {w * iv.length}, "
                f"f(b)-f(a) = {f(iv.hi) - f(iv.lo)}",
            )
    tv, den = t.grid(grid, range(grid + 1))
    # the pair x = i/grid < y = j/grid fails iff g_j >= g_i, where
    # g_k = t(k/grid) - z·k/grid, here scaled to an int by den·z.den·grid > 0
    zn, zd = z.numerator, z.denominator
    g = [v * zd * grid - zn * den * k for k, v in enumerate(tv)]
    # the first failing pair in (i, j) order: the least i with a later
    # g_j >= g_i (read off the suffix maxima), then the first such j
    later = list(itertools.accumulate(reversed(g[1:]), max))[::-1]
    i = next((i for i, top in enumerate(later) if top >= g[i]), None)
    if i is None:
        return SlopeBoundsVerdict(True, True, True)
    j = next(j for j in range(i + 1, grid + 1) if g[j] >= g[i])
    x, y = Fraction(i, grid), Fraction(j, grid)
    slope = Fraction(tv[j] - tv[i], den) / (y - x)
    return SlopeBoundsVerdict(
        False, True, False, f"upper clause fails at x={x}, y={y}: slope {slope} >= {z}"
    )


@dataclass(frozen=True)
class ExtensionResult:
    interval: RationalInterval
    certified: bool


def _modulus_precision(theta: ModulusFunction, eps: Fraction) -> int:
    """Least m >= 0 with 2^{-m+1} <= theta(eps)."""
    m = ceil_log2(2 / theta(eps))
    if m > MODULUS_PRECISION_BUDGET:
        raise over_budget(f"precision {m}", "MODULUS_PRECISION_BUDGET", MODULUS_PRECISION_BUDGET)
    return m


def eval_extension(f: MarkovFunction, z: CauchyName, n: int) -> ExtensionResult:
    """Finite-precision evaluation of the maximal continuous extension.

    With a declared modulus the hull over the matching window is certified to
    contain the extension value and has length <= 2^{-n+2}.  Without one, the
    window is refined up to the budget; a hull that never shrinks is
    finite-scale evidence the extension is undefined here.
    """
    if n > EXTENSION_PRECISION_BUDGET:
        raise over_budget(
            f"precision {n}", "EXTENSION_PRECISION_BUDGET", EXTENSION_PRECISION_BUDGET
        )
    eps = Fraction(1, 2**n)

    def hull(m: int) -> tuple[Fraction, Fraction]:
        w = z.window(m)
        lo = max(ZERO, min(ONE, w.lo))
        hi = max(ZERO, min(ONE, w.hi))
        return f.range_on(lo, hi)

    if f.modulus is not None:
        m = _modulus_precision(f.modulus, eps)
        ylo, yhi = hull(m)
        return ExtensionResult(RationalInterval(ylo, yhi), certified=True)

    for m in range(n, n + EXTENSION_REFINEMENTS + 1):
        ylo, yhi = hull(m)
        if yhi - ylo <= 4 * eps:
            return ExtensionResult(RationalInterval(ylo, yhi), certified=False)
    raise ExtensionUndefined(
        f"hull of {f.name} near {z.provenance} did not shrink below 2^{{-{n}+2}} "
        f"within {EXTENSION_REFINEMENTS} refinements"
    )


BUILTIN_FUNCTIONS: dict[str, Callable[[], MarkovFunction]] = {
    "identity": identity_fn,
    "square": square_fn,
    "abs_offset": abs_offset_fn,
    "half": half_fn,
    "complement": complement_fn,
}


def function_by_name(name: str) -> MarkovFunction:
    """Resolve a CLI/config function name ("square", "canonical_nonuc:20", ...)."""
    if name in BUILTIN_FUNCTIONS:
        return BUILTIN_FUNCTIONS[name]()
    if name.startswith("canonical_nonuc:"):
        stages = _as_index(text := name.split(":", 1)[1])
        if stages is None:
            raise ValueError(f"stage count {text!r} of {name!r} is not ASCII digits")
        return canonical_nonuc(stages)
    if name.startswith("const:"):
        return const_fn(parse_rational(name.split(":", 1)[1]))
    raise ValueError(f"unknown function {name!r}")
