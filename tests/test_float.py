"""float(ExactValue) is the double of the Fraction product coeff * SQRT_PI**pi_half.

The oracle below is the Fraction route: multiply, reduce, then let
Fraction.__float__ round once.  Every check asks for the same double (sign
of zero included), or for OverflowError exactly where the oracle raises it.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatsphere.exactnum import SQRT_PI, ExactValue
from heatsphere.invariants import heat_invariant, heat_invariant_row

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference.json").read_text())
MAX_DOUBLE = Fraction(2**1024 - 2**971)  # the largest double; 2^1024 - 2^970 rounds past it


def assert_same_double(value):
    try:
        expected = float(value.coeff * SQRT_PI**value.pi_half)
    except OverflowError:
        with pytest.raises(OverflowError):
            float(value)
        return
    got = float(value)
    assert got == expected and math.copysign(1, got) == math.copysign(1, expected), value


def test_every_table_cell():
    for d in range(1, 73):
        for result in heat_invariant_row(range(33), d):
            assert_same_double(result.value)


def test_every_deep_pool_cell():
    for cell in REFERENCE["deep"]:
        n, d = map(int, cell.split(","))
        assert_same_double(heat_invariant(n, d).value)


def scaled(magnitude, k):
    # rationals q near magnitude / sqrt(pi)^k, so that q sqrt(pi)^k lands near magnitude
    base = magnitude / SQRT_PI**k
    return [base, -base, base * Fraction(10**40 + 1, 10**40), base * Fraction(10**40 - 1, 10**40), base * 7 / 3]


@pytest.mark.parametrize("k", range(-6, 7))
def test_subnormal_normal_and_overflow_ranges(k):
    magnitudes = [
        Fraction(1, 2**1100),  # rounds to zero
        Fraction(1, 2**1075),  # half the smallest subnormal: a tie
        Fraction(3, 2**1076),
        Fraction(1, 2**1074),  # the smallest subnormal
        Fraction(1, 2**1040),
        Fraction(1, 2**1022),  # the smallest normal
        Fraction(1, 10**300),
        Fraction(1),
        Fraction(10**300),
        MAX_DOUBLE,
        Fraction(2**1024 - 2**970),  # the first value that rounds to overflow
        Fraction(2**1024),
        Fraction(2**1100),
    ]
    for magnitude in magnitudes:
        for q in scaled(magnitude, k):
            assert_same_double(ExactValue(q, k))


@pytest.mark.parametrize("k", range(-6, 7))
def test_zero(k):
    assert_same_double(ExactValue(Fraction(0), k))


@given(
    st.integers(min_value=-(10**30), max_value=10**30),
    st.integers(min_value=0, max_value=1200),
    st.integers(min_value=1, max_value=10**30),
    st.integers(min_value=0, max_value=1200),
    st.integers(min_value=-6, max_value=6),
)
def test_random_rationals(num, num_shift, den, den_shift, k):
    assert_same_double(ExactValue(Fraction(num << num_shift, den << den_shift), k))
