"""Hypothesis strategies shared by the function tests."""

from fractions import Fraction

from hypothesis import strategies as st

from randlab.intervals import RationalInterval
from randlab.markov import StagedCover, _from_pieces

rational = st.fractions(min_value=-16, max_value=16, max_denominator=64)
inner = st.fractions(min_value=0, max_value=1, max_denominator=96)


@st.composite
def polygons(draw):
    """Breakpoints of a polygon on [0, 1]: up to five inner corners."""
    xs = sorted(set(draw(st.lists(inner, max_size=5))) - {0, 1})
    return [(x, draw(rational)) for x in [Fraction(0)] + xs + [Fraction(1)]]


@st.composite
def covers(draw):
    """Non-overlapping closed intervals, point intervals and shared
    endpoints included, as one or two stages in a random order."""
    ends = sorted(draw(st.lists(inner, max_size=8)))
    ivs = [RationalInterval(a, b) for a, b in zip(ends[::2], ends[1::2])]
    ivs = draw(st.permutations(ivs))
    cut = draw(st.integers(0, len(ivs)))
    return StagedCover(stages=(tuple(ivs[:cut]), tuple(ivs[cut:])), size_bound=(1, 1))


@st.composite
def staged_covers(draw):
    """Covers that reach every outcome of `check_H`: 0 to 4 stages of
    intervals that may overlap, touch, be points or have an end outside
    [0, 1], and size bounds that may be empty, shorter than the stages or
    negative."""
    ends = draw(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=16), max_size=8))
    if draw(st.booleans()):
        ends.sort()  # non-overlapping intervals, point intervals and shared ends
    ivs = [RationalInterval(*sorted(pair)) for pair in zip(ends[::2], ends[1::2])]
    if ivs and draw(st.booleans()):
        i = draw(st.integers(0, len(ivs) - 1))
        d = draw(st.sampled_from([Fraction(1, 16), Fraction(1)]))
        lo, hi = ivs[i].lo, ivs[i].hi
        ivs[i] = draw(st.sampled_from([RationalInterval(lo - d, hi), RationalInterval(lo, hi + d)]))
    stages = ()
    if count := draw(st.integers(0, 4)):
        cuts = sorted(draw(st.lists(st.integers(0, len(ivs)), min_size=count - 1, max_size=count - 1)))
        stages = tuple(tuple(ivs[a:b]) for a, b in zip([0, *cuts], [*cuts, len(ivs)]))
    return StagedCover(stages, tuple(draw(st.lists(st.integers(-3, 3), max_size=5))))


def quadratic(name, *pieces):
    return _from_pieces(name, [tuple(map(Fraction, piece)) for piece in pieces])


# pieces with a, b and c all nonzero, which no built-in has: (x - 1/2)^2 and
# 1 + x - x^2 split at their vertices, and the decreasing (x - 2)^2
H = Fraction(1, 2)
QUADRATICS = [
    quadratic("(x-1/2)^2", (0, H * H, -1, 1), (H, H * H, -1, 1)),
    quadratic("1+x-x^2", (0, 1, 1, -1), (H, 1, 1, -1)),
    quadratic("(x-2)^2", (0, 4, -4, 1)),
]
