import re
from fractions import Fraction
from math import factorial, perm, prod

import pytest

from heatsphere import legendre
from heatsphere.exactnum import ExactValue, Polynomial, gamma_half
from heatsphere.legendre import (
    ONE_MINUS_T,
    ZERO_POLY,
    _moment_table,
    expansion_coeff,
    expansion_coeff_closed,
    gegenbauer_poly,
    norm_squared,
    verify_expansion,
    weighted_integral,
    weighted_moment,
)
from heatsphere.spectrum import multiplicity, sphere_volume, weyl_leading_term


def poly(*coeffs):
    return Polynomial.from_coefficients(coeffs)


def test_polynomial_ring_basics():
    p = poly(1, -1)  # 1 - t
    assert p * p == poly(1, -2, 1)
    assert p**0 == poly(1)
    assert p - p == ZERO_POLY
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 2)
    assert poly(0, 0, 1).degree == 2
    assert ZERO_POLY.degree == -1


def test_trailing_zeros_are_stripped():
    assert poly(1, 2, 0, 0) == poly(1, 2)


def test_weighted_moment_values():
    assert weighted_moment(0, 2) == ExactValue(Fraction(2), 0)
    assert weighted_moment(1, 5) == ExactValue(Fraction(0))
    assert weighted_moment(0, 3) == ExactValue(Fraction(1, 2), 2)  # pi/2


def test_weighted_moment_validation():
    with pytest.raises(ValueError):
        weighted_moment(2, 1)
    with pytest.raises(ValueError):
        weighted_moment(-1, 3)
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        gegenbauer_poly(-1, 3)
    with pytest.raises(ValueError, match="weight needs d >= 2, got 1"):
        gegenbauer_poly(2, 1)
    # weighted_integral checks d itself, even where no moment is taken
    for d, message in (
        (2.5, "d must be an integer, not float: d=2.5"),
        (True, "d must be an integer, not bool: d=True"),
        (1, "weight needs d >= 2, got 1"),
        (0, "weight needs d >= 2, got 0"),
    ):
        for p in (ZERO_POLY, poly(1, 0, 1)):
            with pytest.raises(ValueError, match=re.escape(message)):
                weighted_integral(p, d)


def test_gegenbauer_low_degrees():
    for d in range(2, 7):
        assert gegenbauer_poly(0, d) == poly(1)
        assert gegenbauer_poly(1, d) == poly(0, 1)
    # classical Legendre P_2 at d = 2
    assert gegenbauer_poly(2, 2) == poly(Fraction(-1, 2), 0, Fraction(3, 2))


def test_normalization_at_one():
    for d in range(2, 7):
        for k in range(7):
            assert gegenbauer_poly(k, d).evaluate(1) == 1


def test_orthogonality():
    for d in range(2, 7):
        polys = [gegenbauer_poly(k, d) for k in range(7)]
        for k in range(7):
            for k2 in range(k + 1, 7):
                assert weighted_integral(polys[k] * polys[k2], d) == ExactValue(Fraction(0))


def test_norm_identity():
    # ||L_k||^2 = vol(S^d) / (vol(S^(d-1)) mu_{k,d})
    for d in range(2, 7):
        for k in range(7):
            expected = sphere_volume(d) / (sphere_volume(d - 1) * multiplicity(k, d))
            assert norm_squared(k, d) == expected


def test_expansion_coeff_values():
    assert expansion_coeff(0, 0, 4) == 1
    assert expansion_coeff(1, 1, 2) == -1
    assert expansion_coeff(1, 0, 2) == 1
    assert expansion_coeff(2, 1, 3) == -2


def test_expansion_coeff_out_of_range_is_zero():
    assert expansion_coeff(1, 2, 3) == 0
    assert expansion_coeff(0, 5, 2) == 0


def test_reconstruction():
    for d in range(2, 6):
        for j in range(5):
            rebuilt = ZERO_POLY
            for k in range(j + 1):
                rebuilt = rebuilt + gegenbauer_poly(k, d) * expansion_coeff(j, k, d)
            assert rebuilt == ONE_MINUS_T**j


def closed_gamma_form(j, k, d):
    # the product formula as printed, with Gamma(j + d/2) and the Weyl term: the reference
    front = Fraction((-1) ** k * 2**j * perm(j, k), factorial(j + k + d - 1))
    return (gamma_half(2 * j + d) * front * multiplicity(k, d) / weyl_leading_term(d)).as_rational()


def test_closed_form_matches_brute_force():
    for d in range(2, 6):
        for j in range(5):
            for k in range(j + 1):
                assert expansion_coeff_closed(j, k, d) == expansion_coeff(j, k, d)
    # the integer quotient against the Gamma form it reduces, far past the brute-force box
    for d in (*range(2, 13), 40, 61, 200):
        for j in range(0, 31, 3 if d > 12 else 1):
            for k in range(j + 1):
                assert expansion_coeff_closed(j, k, d) == closed_gamma_form(j, k, d), (j, k, d)


def test_closed_form_frozen_values():
    # hand-reduced instances of the product formula
    assert expansion_coeff_closed(1, 1, 3) == -1
    assert [expansion_coeff_closed(2, k, 2) for k in range(3)] == [
        Fraction(4, 3),
        Fraction(-2),
        Fraction(2, 3),
    ]
    assert [expansion_coeff_closed(3, k, 2) for k in range(4)] == [
        Fraction(2),
        Fraction(-18, 5),
        Fraction(2),
        Fraction(-2, 5),
    ]
    assert [expansion_coeff_closed(2, k, 3) for k in range(3)] == [
        Fraction(5, 4),
        Fraction(-2),
        Fraction(3, 4),
    ]
    assert [expansion_coeff_closed(3, k, 4) for k in range(4)] == [
        Fraction(8, 5),
        Fraction(-24, 7),
        Fraction(12, 5),
        Fraction(-4, 7),
    ]


def test_closed_form_validation():
    with pytest.raises(ValueError):
        expansion_coeff_closed(1, 2, 3)
    with pytest.raises(ValueError, match="weight needs d >= 2, got 1"):
        expansion_coeff_closed(1, 0, 1)
    with pytest.raises(ValueError, match="indices must be nonnegative, got j=-1, k=0"):
        expansion_coeff(-1, 0, 3)
    # d is checked before the k > j shortcut, as every other legendre entry checks it
    with pytest.raises(ValueError, match="weight needs d >= 2, got -3"):
        expansion_coeff(1, 2, -3)


def test_integer_rule():
    # a non-integer is named before any range check, also where the same call with 3 or 1
    # has just answered
    assert gegenbauer_poly(2, 3) and weighted_moment(2, 3) and norm_squared(2, 3)
    for call, message in (
        (lambda: weighted_moment(2, 3.0), "d must be an integer, not float: d=3.0"),
        (lambda: weighted_moment(2.0, 3), "m must be an integer, not float: m=2.0"),
        (lambda: gegenbauer_poly(2, 3.0), "d must be an integer, not float: d=3.0"),
        (lambda: gegenbauer_poly(True, 3), "k must be an integer, not bool: k=True"),
        (lambda: norm_squared(2, 3.0), "d must be an integer, not float: d=3.0"),
        (lambda: expansion_coeff(1, 0, 2.5), "d must be an integer, not float: d=2.5"),
        (lambda: expansion_coeff(1, 2.0, -3), "k must be an integer, not float: k=2.0"),
        (lambda: expansion_coeff_closed(True, 0, 3), "j must be an integer, not bool: j=True"),
        (lambda: expansion_coeff_closed(1, 0, "3"), "d must be an integer, not str: d='3'"),
        # the sweep's box: j_max and each end of the d span, before any point is evaluated
        (lambda: verify_expansion(j_max=2.5), "j_max must be an integer, not float: j_max=2.5"),
        (lambda: verify_expansion(j_max=True), "j_max must be an integer, not bool: j_max=True"),
        (lambda: verify_expansion(d=(2.0, 3)), "d must be an integer, not float: d=2.0"),
        (lambda: verify_expansion(d=(2, "3")), "d must be an integer, not str: d='3'"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    class Index:  # an integer type that is not int, as numpy's are
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    assert expansion_coeff_closed(Index(2), Index(1), Index(3)) == expansion_coeff_closed(2, 1, 3)
    assert expansion_coeff(Index(2), Index(1), Index(3)) == expansion_coeff(2, 1, 3)
    assert gegenbauer_poly(Index(2), Index(3)) == gegenbauer_poly(2, 3)
    report = verify_expansion(Index(3), (Index(2), Index(4)))
    assert report.as_dict() == verify_expansion(3, (2, 4)).as_dict()


def test_verify_expansion_report():
    report = verify_expansion(j_max=3, d=(2, 4))
    assert report.passed
    assert report.points_checked > 0
    assert any("ratio 1" in note for note in report.notes)


def test_moment_table_holds_the_beta_integral_ratios():
    # table[m] / table[0] = weighted_moment(m, d) / weighted_moment(0, d), whole numbers; the
    # ratio is also prod_{i<r} (2i+1) / (2i+1+d) at m = 2r, and 0 at odd m
    for d in range(2, 61):
        table, bases = _moment_table(d, 17)
        assert len(table) >= 33 and len(bases) >= 17
        for m in range(33):
            ratio = Fraction(table[m], table[0])
            assert type(table[m]) is int
            assert ratio == (weighted_moment(m, d) / weighted_moment(0, d)).as_rational()
            product = prod(Fraction(2 * i + 1, 2 * i + 1 + d) for i in range(m // 2))
            assert ratio == (0 if m % 2 else product)


def test_a_smaller_moment_table_is_a_prefix_of_a_larger():
    d = 61
    small_table, small_bases = _moment_table(d, 2)
    table, bases = _moment_table(d, 9)
    assert bases[: len(small_bases)] == small_bases
    assert [Fraction(t, table[0]) for t in table[: len(small_table)]] == [
        Fraction(t, small_table[0]) for t in small_table
    ]
    for k, basis in enumerate(bases):
        assert gegenbauer_poly(k, d) == Polynomial.from_coefficients(basis) * Fraction(1, sum(basis))


@pytest.mark.parametrize("d", [2, 3, 61])
def test_a_moment_table_has_the_size_asked(d):
    # exactly `size` bases and 2 size - 1 moments, also right after a larger table of d
    for size in (2, 9, 2, 1):
        table, bases = _moment_table(d, size)
        assert (len(bases), len(table)) == (size, 2 * size - 1)


def test_legendre_keeps_no_state():
    def sizes():
        kept = vars(legendre).items()
        return {name: len(value) for name, value in kept if type(value) in (dict, list, set)}

    before = sizes()
    for d in (2, 5, 97):  # 97: a d no other test asks
        weighted_moment(4, d), weighted_integral(ONE_MINUS_T**3, d), norm_squared(5, d)
        gegenbauer_poly(6, d), expansion_coeff(7, 3, d), expansion_coeff_closed(7, 3, d)
    assert verify_expansion(j_max=4, d=(96, 97)).passed
    assert sizes() == before
    own = [f for f in vars(legendre).values() if getattr(f, "__module__", "") == legendre.__name__]
    assert len(own) >= 7 and not any(hasattr(function, "cache_info") for function in own)


def test_verify_expansion_wider_box():
    report = verify_expansion(j_max=10, d=(2, 20))
    assert report.passed and report.points_checked == 1463
