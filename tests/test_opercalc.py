import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heatsphere import opercalc
from heatsphere.exactnum import Polynomial
from heatsphere.opercalc import (
    apply_to_monomial,
    check_bernoulli_link,
    check_lemma,
    invert_series,
    p_series,
    verify_lemmas,
)

ONE = Polynomial((Fraction(1),))


def series(*coeffs):
    return Polynomial.from_coefficients(coeffs)


def cut(p, order):
    """p without its degrees above order."""
    return Polynomial.from_coefficients(p.coefficients[: order + 1])


def test_series_construction_and_truncation():
    # a cut that lands on a zero coefficient leaves no trailing zero
    assert p_series(5).degree == 4
    with pytest.raises(ValueError):
        p_series(-1)
    with pytest.raises(ValueError):
        invert_series(ONE, -1)


def test_series_ring_operations():
    a = series(1, 1)  # 1 + D
    b = series(1, -1)
    assert (a * b).coefficients == (1, 0, -1)
    assert (a + b).coefficients == (2,)
    assert (a - a).coefficients == ()
    assert (a**3).coefficients == (1, 3, 3, 1)
    assert (a * Fraction(1, 2)).coefficients == (Fraction(1, 2), Fraction(1, 2))
    assert (2 * a).coefficients == (2, 2)
    with pytest.raises(ValueError):
        a**-1


def test_p_series_coefficients():
    p = p_series(4)
    assert p.coefficients == (1, 0, Fraction(1, 24), 0, Fraction(1, 1920))
    # no odd powers, ever
    p = p_series(20)
    assert all(p.coefficients[i] == 0 for i in range(1, 21, 2))
    assert p.coefficients[20] == Fraction(1, 4**10 * factorial(21))


def test_invert_series_small():
    inv = invert_series(p_series(2), 2)
    assert inv.coefficients == (1, 0, Fraction(-1, 24))
    assert (p_series(2) * inv).coefficients[:3] == (1, 0, 0)


def test_invert_series_is_true_inverse():
    p = p_series(12)
    assert cut(p * invert_series(p, 12), 12) == ONE


def test_invert_rejects_zero_constant():
    with pytest.raises(ValueError):
        invert_series(series(0, 1), 2)
    with pytest.raises(ValueError):
        invert_series(series(), 2)


rational_coeffs = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=8), min_size=1, max_size=6
)


@settings(max_examples=50)
@given(rational_coeffs)
def test_inversion_is_an_involution(coeffs):
    assume(coeffs[0] != 0)
    order = len(coeffs) - 1
    s = series(*coeffs)
    assert invert_series(invert_series(s, order), order) == s


def test_apply_to_monomial():
    assert apply_to_monomial(series(0, 0, 1), 2) == 2
    assert apply_to_monomial(series(0, 0, 1), 3) == 0
    # P^2 = 1 + D^2/12 + ..., so acting on x^2 at 0 picks out 2!/12
    p2 = p_series(4) * p_series(4)
    assert apply_to_monomial(p2, 2) == Fraction(1, 6)
    assert apply_to_monomial(p2, 0) == 1
    with pytest.raises(ValueError):
        apply_to_monomial(p2, -1)


def test_vanishing_mechanism_order():
    # (1 - P^2)^m starts exactly at D^(2m), on untruncated products
    for m in range(1, 6):
        p = p_series(2 * m + 4)
        power = (ONE - p * p) ** m
        assert all(power.coefficient(i) == 0 for i in range(2 * m))
        assert power.coefficient(2 * m) == Fraction(-1, 12) ** m


def test_bernoulli_link_report():
    report = check_bernoulli_link(8)
    assert report.passed and report.points_checked == 8
    assert any("multiplicative inverse" in note for note in report.notes)
    with pytest.raises(ValueError):
        check_bernoulli_link(0)


def test_inverse_series_bernoulli_values():
    inv = invert_series(p_series(8), 8)
    frozen = {1: Fraction(-1, 12), 2: Fraction(7, 240), 3: Fraction(-31, 1344), 4: Fraction(127, 3840)}
    for t, value in frozen.items():
        assert factorial(2 * t) * inv.coefficients[2 * t] == value


def test_check_lemma_instances():
    assert check_lemma("ff1_bb", 2, 1, 5)
    assert check_lemma("ff1_bb", 1, 0, 2)
    assert check_lemma("ff2_e2", 1, 0, 2)
    assert check_lemma("ff2_e2", 0, 2, 4)
    # one step below the stated bound the alternating sum stops vanishing
    assert not check_lemma("ff1_bb", 1, 0, 1)


def test_check_lemma_validation():
    with pytest.raises(ValueError):
        check_lemma("nope", 1, 0, 2)
    with pytest.raises(ValueError):
        check_lemma("ff1_bb", 0, 0, 2)
    with pytest.raises(ValueError):
        check_lemma("ff2_e2", 1, -1, 2)
    with pytest.raises(ValueError):
        check_lemma("ff2_e2", 1, 0, -1)


def test_integer_rule():
    # the rule of heat_invariant: a non-integer is named before any range check
    for call, message in (
        (lambda: p_series(True), "order must be an integer, not bool: order=True"),
        (lambda: p_series(-1.0), "order must be an integer, not float: order=-1.0"),
        (lambda: invert_series(ONE, 2.0), "order must be an integer, not float: order=2.0"),
        (lambda: apply_to_monomial(ONE, "0"), "m must be an integer, not str: m='0'"),
        (lambda: check_lemma("ff1_bb", 1.0, 0, 2), "t must be an integer, not float: t=1.0"),
        (lambda: check_lemma("ff2_e2", 0, -1.0, 2), "s must be an integer, not float: s=-1.0"),
        (
            lambda: check_lemma("ff2_e2", 0, 0, True),
            "omega_prime must be an integer, not bool: omega_prime=True",
        ),
        (lambda: check_bernoulli_link(2.0), "t_max must be an integer, not float: t_max=2.0"),
        (lambda: verify_lemmas(True), "t_max must be an integer, not bool: t_max=True"),
        (lambda: verify_lemmas(2, 1.0), "s_max must be an integer, not float: s_max=1.0"),
        (lambda: verify_lemmas(2, 1, None), "slack must be an integer, not NoneType: slack=None"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    class Index:  # an integer type that is not int, as numpy's are
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    assert p_series(Index(4)) == p_series(4)
    assert invert_series(p_series(4), Index(4)) == invert_series(p_series(4), 4)
    assert apply_to_monomial(p_series(4), Index(2)) == Fraction(1, 12)
    assert check_lemma("ff2_e2", Index(1), Index(0), Index(2)) is True
    assert check_bernoulli_link(Index(2)).passed
    assert verify_lemmas(Index(1), Index(1), Index(1)).passed


def test_verify_lemmas_report():
    report = verify_lemmas(t_max=4, s_max=3, slack=3)
    assert report.passed
    assert report.points_checked == 144
    assert any("16 of 16" in note for note in report.notes)


def test_verify_lemmas_small_box():
    report = verify_lemmas(t_max=2, s_max=1, slack=1)
    assert report.passed


def reference_check_lemma(which, t, s, omega_prime):
    """check_lemma transcribed in Fraction arithmetic: powers of the P series
    cut at D^(2t), and one weight of reciprocal factorials per term."""

    def reciprocal_factorial(m):  # 1/m!, and 0 for m < 0
        return Fraction(1, factorial(m)) if m >= 0 else Fraction(0)

    def rising_factorial(x, m):  # (x)_m = x (x+1) ... (x+m-1), (x)_0 = 1
        acc = Fraction(1)
        for i in range(m):
            acc *= x + i
        return acc

    e = 0 if which == "ff1_bb" else 1
    order = 2 * t
    p = p_series(order)
    p_squared = cut(p * p, order)
    total = Fraction(0)
    power = p**e
    for j in range(omega_prime + 1):
        if j:
            power = cut(power * p_squared, order)
        weight = (
            reciprocal_factorial(omega_prime - j)
            * reciprocal_factorial(j + t - s)
            * reciprocal_factorial(2 * j + 1 + e)
            * factorial(2 * j + 2 * t + e)
        )
        value = weight * apply_to_monomial(power, 2 * t)
        total += -value if j % 2 else value
    if which == "ff1_bb":
        return total == 0
    return total == (
        factorial(2 * t)
        * rising_factorial(t - s, s)
        / (2 * factorial(omega_prime + 1) * factorial(t))
        * apply_to_monomial(invert_series(p, order), 2 * t)
    )


# both lemmas at t 0..5, s 0..4 and omega' = 2t+s-3..2t+s+3: the stated box
# and the three omega' below it
LEMMA_BOX = [
    (which, t, s, omega_prime)
    for which in ("ff1_bb", "ff2_e2")
    for t in range(0 if which == "ff2_e2" else 1, 6)
    for s in range(5)
    for omega_prime in range(max(0, 2 * t + s - 3), 2 * t + s + 4)
]


def test_check_lemma_equals_the_fraction_reference():
    outcomes = [check_lemma(*point) for point in LEMMA_BOX]
    assert outcomes == [reference_check_lemma(*point) for point in LEMMA_BOX]
    # the box holds points where each lemma fails, so the comparison is not all True
    assert {(point[0], outcome) for point, outcome in zip(LEMMA_BOX, outcomes)} == {
        ("ff1_bb", True), ("ff1_bb", False), ("ff2_e2", True), ("ff2_e2", False)
    }


def test_verify_lemmas_outcomes_equal_check_lemma_point_by_point(monkeypatch):
    # verify_lemmas reads each point off inners built once per (t, e) up to the box's
    # largest omega'; check_lemma builds its own up to its omega' and no further
    holds, calls = opercalc._lemma_holds, []

    def recording(which, t, s, omega_prime, inners):
        outcome = holds(which, t, s, omega_prime, inners)
        calls.append(((which, t, s, omega_prime), outcome))
        return outcome

    monkeypatch.setattr(opercalc, "_lemma_holds", recording)
    report = verify_lemmas(t_max=5, s_max=4, slack=4)
    monkeypatch.undo()
    probes = 5 * 5  # t 1..5, s 0..4, at omega' = 2t+s-1
    assert len(calls) == report.points_checked + probes
    assert [outcome for _, outcome in calls] == [check_lemma(*point) for point, _ in calls]
    assert {outcome for _, outcome in calls} == {True, False}  # the probe fails somewhere
