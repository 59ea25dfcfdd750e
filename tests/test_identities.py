import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatsphere.exactnum import ExactValue, gamma_half
from heatsphere.identities import (
    _X_DEFAULT,
    _s1_sums,
    _s3_sums,
    alternating_power_sum,
    s1_sum,
    s1_sum_one_sided,
    s3_expected,
    s3_sum,
    verify_identity,
)
from heatsphere.invariants import _general_sums


def test_one_sided_vanishes_at_and_above_bound():
    for n in range(1, 6):
        for omega in range(2 * n, 2 * n + 5):
            assert s1_sum_one_sided(n, omega) == 0


def test_one_sided_below_bound_is_nonzero():
    assert s1_sum_one_sided(1, 1) == Fraction(-1, 12)
    assert s1_sum_one_sided(2, 3) != 0


def test_symmetrized_is_twice_one_sided_at_zero():
    for n in range(1, 5):
        for omega in range(2 * n - 1, 2 * n + 3):
            assert s1_sum(n, omega, 0) == 2 * s1_sum_one_sided(n, omega)


def test_symmetrized_vanishes_at_sample_points():
    for x in (0, Fraction(1, 2), 1, Fraction(7, 3)):
        for n in range(1, 5):
            assert s1_sum(n, 2 * n, x) == 0
            assert s1_sum(n, 2 * n + 3, x) == 0


def test_symmetrized_vanishes_for_every_x():
    # Every term of s1_sum(n, omega, x) is a multiple of (x+k)^(2j+2n) with j <= omega, so
    # s1_sum is a polynomial in x of degree at most 2omega+2n.  A polynomial of that degree
    # that is zero at the 2omega+2n+1 integers 0..2omega+2n is the zero polynomial, so each
    # box below is proved for every x, not sampled.
    for n in range(1, 7):
        for omega in range(2 * n, 2 * n + 5):
            degree = 2 * omega + 2 * n
            assert all(s1_sum(n, omega, x) == 0 for x in range(degree + 1))


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=4),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
def test_symmetrized_is_even_in_x(n, x):
    # probed below the bound, where the value is generically nonzero
    omega = 2 * n - 1
    assert s1_sum(n, omega, x) == s1_sum(n, omega, -x)


def test_input_validation():
    with pytest.raises(ValueError):
        s1_sum(0, 2, 0)
    with pytest.raises(ValueError):
        s1_sum_one_sided(1, -1)
    with pytest.raises(ValueError):
        s3_sum(0, 1)
    with pytest.raises(ValueError):
        alternating_power_sum(-1, 0)


def test_s3_frozen_values():
    assert s3_sum(1, 2) == ExactValue(Fraction(1, 8), 1)
    assert s3_sum(2, 4) == ExactValue(Fraction(-1, 16), 1)
    assert s3_sum(1, 5) == ExactValue(Fraction(1, 8), 1)


def test_s3_matches_expected_on_box():
    for n in range(1, 6):
        for omega in range(2 * n, 2 * n + 4):
            assert s3_sum(n, omega) == s3_expected(n)


def test_s3_expected_alternates():
    assert s3_expected(1) == ExactValue(Fraction(1, 8), 1)
    assert s3_expected(2) == ExactValue(Fraction(-1, 16), 1)
    assert s3_expected(3) == ExactValue(Fraction(1, 48), 1)


def test_alternating_power_sum_collapse():
    for j in range(11):
        for s in range(2 * j):
            assert alternating_power_sum(j, s) == 0
        assert alternating_power_sum(j, 2 * j) == factorial(2 * j)


def test_alternating_power_sum_spot_values():
    assert alternating_power_sum(0, 0) == 1
    assert alternating_power_sum(1, 2) == 2
    assert alternating_power_sum(2, 4) == 24


def test_circle_bridge_to_general_route():
    # the d = 1 spectral sum is the one-sided sum up to an explicit factor,
    # at every omega, including below the bound
    for n in range(1, 4):
        for omega in range(max(1, 2 * n - 1), 2 * n + 3):
            sgn = -1 if n % 2 else 1
            front = gamma_half(2 * omega + 3)
            bridged = ExactValue(
                4 * sgn * front.coeff * s1_sum_one_sided(n, omega), front.pi_half
            )
            assert _general_sums(n, 1, [omega]) == [bridged]


def test_three_sphere_bridge_to_general_route():
    for n in range(1, 4):
        for omega in range(max(1, 2 * n - 1), 2 * n + 3):
            sgn = 1 if n % 2 else -1  # (-1)^(n+1)
            assert _general_sums(n, 3, [omega]) == [s3_sum(n, omega) * Fraction(2 * sgn)]


def test_verify_s1_default_box_passes():
    report = verify_identity("s1")
    assert report.passed
    assert report.points_checked == 50  # 25 cells, two relations each
    assert any("one-sided" in note for note in report.notes)


def test_verify_s1_below_bound_fails_with_witness():
    report = verify_identity("s1", {"n": (1, 1), "offset": (-1, -1)})
    assert not report.passed
    assert len(report.failures) == 1
    witness = report.failures[0]
    assert witness.parameters == {"n": 1, "omega": 1}
    assert witness.computed == Fraction(-1, 12)
    assert witness.expected == Fraction(0)


def test_verify_s1g_passes():
    report = verify_identity("s1g", {"n": (1, 3), "offset": (0, 2)})
    assert report.passed
    assert report.points_checked == 36  # 9 cells, 4 default x values


def test_verify_s1g_custom_x():
    report = verify_identity(
        "s1g", {"n": (1, 2), "offset": (0, 0), "x": [Fraction(3, 7)]}
    )
    assert report.passed and report.points_checked == 2


def test_verify_s3_passes():
    assert verify_identity("s3", {"n": (1, 5), "offset": (0, 3)}).passed


def test_verify_vychet_passes():
    report = verify_identity("vychet", {"j_max": 10})
    assert report.passed
    # sum over j of (2j + 1) points
    assert report.points_checked == sum(2 * j + 1 for j in range(11))


@pytest.mark.parametrize("name, points", [("s1", 50), ("s1g", 100), ("s3", 20), ("vychet", 121)])
def test_verify_default_boxes_keep_their_counts(name, points):
    report = verify_identity(name)
    assert report.passed and report.points_checked == points


def test_verify_unknown_keys_are_all_named_sorted():
    with pytest.raises(ValueError, match=r"unsupported box keys for 's1g': \['d', 'j_max', 'z'\]$"):
        verify_identity("s1g", {"z": 1, "n": (1, 2), "j_max": 3, "d": 4})


@pytest.mark.parametrize("func", [s1_sum_one_sided, s3_sum, lambda n, omega: s1_sum(n, omega, 0)])
def test_sums_reject_n_below_one_and_negative_omega(func):
    with pytest.raises(ValueError, match="need n >= 1, got 0"):
        func(0, 3)
    with pytest.raises(ValueError, match="need omega >= 0, got -1"):
        func(1, -1)


def test_integer_rule():
    # the rule of heat_invariant: a non-integer is named before any range check
    for call, message in (
        (lambda: s1_sum(2.0, 4, 0), "n must be an integer, not float: n=2.0"),
        (lambda: s1_sum(True, 2, 0), "n must be an integer, not bool: n=True"),
        (lambda: s1_sum(0, 2.5, 0), "omega must be an integer, not float: omega=2.5"),
        (lambda: s1_sum_one_sided(1, None), "omega must be an integer, not NoneType: omega=None"),
        (lambda: s3_sum(1.0, 2), "n must be an integer, not float: n=1.0"),
        (lambda: s3_sum(True, 2), "n must be an integer, not bool: n=True"),
        (lambda: s3_expected("2"), "n must be an integer, not str: n='2'"),
        (lambda: alternating_power_sum(1.5, 2), "j must be an integer, not float: j=1.5"),
        (lambda: alternating_power_sum(True, 2), "j must be an integer, not bool: j=True"),
        (lambda: alternating_power_sum(-1, 2.0), "s must be an integer, not float: s=2.0"),
        # a sweep's box: each span end and j_max, before any point is evaluated
        (lambda: verify_identity("s1", {"n": (1.0, 2)}), "n must be an integer, not float: n=1.0"),
        (lambda: verify_identity("s1", {"n": (True, 2)}), "n must be an integer, not bool: n=True"),
        (
            lambda: verify_identity("s3", {"offset": (0, 2.0)}),
            "offset must be an integer, not float: offset=2.0",
        ),
        (lambda: verify_identity("s1g", {"n": (1, "2")}), "n must be an integer, not str: n='2'"),
        (
            lambda: verify_identity("vychet", {"j_max": 2.5}),
            "j_max must be an integer, not float: j_max=2.5",
        ),
        # s1g's x is an iterable of rationals, not one rational's text
        (
            lambda: verify_identity("s1g", {"x": "1/2"}),
            "x must be an iterable of rationals, not str: x='1/2'",
        ),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    class Index:  # an integer type that is not int, as numpy's are
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    assert s1_sum(Index(1), Index(2), Fraction(1, 2)) == s1_sum(1, 2, Fraction(1, 2)) == 0
    assert s1_sum_one_sided(Index(1), Index(1)) == Fraction(-1, 12)
    assert s3_sum(Index(2), Index(4)) == s3_expected(Index(2)) == s3_expected(2)
    assert alternating_power_sum(Index(2), Index(4)) == 24
    box = {"n": (Index(1), Index(3)), "offset": (Index(0), Index(2))}
    report = verify_identity("s1", {"n": (1, 3), "offset": (0, 2)})
    assert verify_identity("s1", box).as_dict() == report.as_dict()
    assert verify_identity("vychet", {"j_max": Index(4)}).points_checked == 25


def test_verify_rejects_unknown_name_and_keys():
    with pytest.raises(ValueError):
        verify_identity("s2")
    with pytest.raises(ValueError):
        verify_identity("s1", {"j_max": 3})
    with pytest.raises(ValueError):
        verify_identity("vychet", {"n": (1, 2)})


# Reference implementations: the sums transcribed term by term in Fraction
# arithmetic, each term over its own factorials.  The module's kernels put
# every term over one common denominator; the two must agree exactly.


def reference_s1(n, omega, x):
    x = Fraction(x)
    total = Fraction(0)
    for j in range(omega + 1):
        inner = Fraction(0)
        for k in range(-j, j + 1):
            sign = -1 if k % 2 else 1
            inner += Fraction(sign, factorial(j - k) * factorial(j + k)) * (x + k) ** (2 * j + 2 * n)
        total += inner / (factorial(omega - j) * factorial(j + n) * (2 * j + 1))
    return total


def reference_s1_one_sided(n, omega):
    total = Fraction(0)
    for j in range(omega + 1):
        inner = Fraction(0)
        for k in range(j + 1):
            sign = -1 if k % 2 else 1
            inner += Fraction(sign * k ** (2 * j + 2 * n), factorial(j - k) * factorial(j + k))
        total += inner / (factorial(omega - j) * factorial(j + n) * (2 * j + 1))
    return total


def reference_s3(n, omega):
    front = gamma_half(2 * omega + 5)
    total = Fraction(0)
    for j in range(omega + 1):
        inner = Fraction(0)
        for l in range(j + 2):
            sign = -1 if l % 2 else 1
            inner += Fraction(sign * l * l, factorial(j + l + 1) * factorial(j - l + 1)) * Fraction(
                l * l - 1
            ) ** (j + n)
        total += inner / (factorial(omega - j) * factorial(j + n) * (2 * j + 3))
    return ExactValue(front.coeff * total, front.pi_half)


# n 1..6 at omega = 2n-3..2n+4, so that nonzero values below the bound are compared too
ORACLE_BOX = [(n, 2 * n + off) for n in range(1, 7) for off in range(-3, 5) if 2 * n + off >= 0]
ORACLE_X = (0, Fraction(1, 2), 1, Fraction(7, 3), Fraction(-5, 7), Fraction(13, 11))


@pytest.mark.parametrize("n, omega", ORACLE_BOX)
def test_kernels_equal_the_fraction_reference(n, omega):
    for x in ORACLE_X:
        assert s1_sum(n, omega, x) == reference_s1(n, omega, x)
    assert s1_sum_one_sided(n, omega) == reference_s1_one_sided(n, omega)
    assert s3_sum(n, omega) == reference_s3(n, omega)


def test_oracle_box_reaches_nonzero_values_below_the_bound():
    below = [(n, omega) for n, omega in ORACLE_BOX if omega < 2 * n]
    assert all(reference_s1_one_sided(n, omega) != 0 for n, omega in below if omega >= 1)
    assert sum(reference_s3(n, omega) != s3_expected(n) for n, omega in below) >= 10


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-20, max_value=20, max_denominator=50),
)
def test_s1_kernel_equals_the_fraction_reference_at_any_rational(n, offset, x):
    omega = max(0, 2 * n + offset)
    assert s1_sum(n, omega, x) == reference_s1(n, omega, x)


# n 1..6 at omega = 2n-3..2n+5: a sweep's one pass over all of an n's omegas
SHARED_BOX = [(n, [2 * n + off for off in range(-3, 6) if 2 * n + off >= 0]) for n in range(1, 7)]


@pytest.mark.parametrize("n, omegas", SHARED_BOX)
def test_shared_pass_equals_the_single_point_path(n, omegas):
    # every omega of the shared pass reads its own prefix of the inners: a slice one
    # short or one long would move the value away from both sides
    for x in _X_DEFAULT:
        shared = _s1_sums(n, omegas, x)
        assert shared == [_s1_sums(n, [omega], x)[0] for omega in omegas]
        assert shared == [reference_s1(n, omega, x) for omega in omegas]
    shared = _s1_sums(n, omegas, 0, one_sided=True)
    assert shared == [_s1_sums(n, [omega], 0, one_sided=True)[0] for omega in omegas]
    assert shared == [reference_s1_one_sided(n, omega) for omega in omegas]
    shared = _s3_sums(n, omegas)
    assert shared == [_s3_sums(n, [omega])[0] for omega in omegas]
    assert shared == [reference_s3(n, omega) for omega in omegas]
