"""Hypothesis strategies shared by the function tests."""

from fractions import Fraction

from hypothesis import strategies as st

rational = st.fractions(min_value=-16, max_value=16, max_denominator=64)
inner = st.fractions(min_value=0, max_value=1, max_denominator=96)


@st.composite
def polygons(draw):
    """Breakpoints of a polygon on [0, 1]: up to five inner corners."""
    xs = sorted(set(draw(st.lists(inner, max_size=5))) - {0, 1})
    return [(x, draw(rational)) for x in [Fraction(0)] + xs + [Fraction(1)]]
