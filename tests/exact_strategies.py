"""Hypothesis strategies over exact rationals, shared by the tests."""

import math
from fractions import Fraction

from hypothesis import strategies as st


def fractions_in(lo, hi, max_den):
    """The values of st.fractions(lo, hi, max_denominator=max_den), every
    fraction in [lo, hi] with denominator <= max_den, as one sampled_from:
    st.fractions builds new strategies inside each of its draws, which
    costs more than the code under test."""
    return st.sampled_from(sorted({
        Fraction(n, q) for q in range(1, max_den + 1)
        for n in range(math.ceil(lo * q), math.floor(hi * q) + 1)}))
