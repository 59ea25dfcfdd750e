import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heatsphere.exactnum import ExactValue
from heatsphere.spectrum import (
    eigenvalue,
    multiplicity,
    sphere_volume,
    weyl_leading_term,
)


def test_eigenvalue_values():
    assert eigenvalue(0, 9) == 0
    assert eigenvalue(2, 2) == 6
    assert eigenvalue(1, 3) == 3
    assert eigenvalue(2, 3) == 8


def test_multiplicity_values():
    assert multiplicity(0, 7) == 1
    assert multiplicity(1, 3) == 4
    assert multiplicity(2, 2) == 5
    assert multiplicity(2, 3) == 9


def test_dimension_validation():
    with pytest.raises(ValueError):
        eigenvalue(1, 0)
    with pytest.raises(ValueError):
        multiplicity(1, -2)
    with pytest.raises(ValueError):
        sphere_volume(0)
    with pytest.raises(ValueError, match="eigenvalue index must be nonnegative, got -1"):
        eigenvalue(-1, 3)
    with pytest.raises(ValueError, match="eigenvalue index must be nonnegative, got -1"):
        multiplicity(-1, 3)


class Index:  # an integer type that is not int, as numpy's are
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_rule():
    # the rule of heat_invariant: a non-integer is named before any range check
    for call, message in (
        (lambda: eigenvalue(2, 3.0), "d must be an integer, not float: d=3.0"),
        (lambda: eigenvalue(True, 3), "k must be an integer, not bool: k=True"),
        (lambda: eigenvalue(1.5, 0), "k must be an integer, not float: k=1.5"),
        (lambda: multiplicity(2, 3.5), "d must be an integer, not float: d=3.5"),
        (lambda: multiplicity("2", 3), "k must be an integer, not str: k='2'"),
        (lambda: sphere_volume(True), "d must be an integer, not bool: d=True"),
        (lambda: weyl_leading_term(3.0), "d must be an integer, not float: d=3.0"),
        (lambda: weyl_leading_term(None), "d must be an integer, not NoneType: d=None"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
    assert eigenvalue(Index(2), Index(3)) == eigenvalue(2, 3) == 8
    assert multiplicity(Index(2), Index(3)) == 9
    assert sphere_volume(Index(3)) == sphere_volume(3)
    assert weyl_leading_term(Index(5)) == weyl_leading_term(5)
    # range errors come after the rule, in their old order
    with pytest.raises(ValueError, match="sphere dimension must be positive, got 0"):
        eigenvalue(-1, 0)


def test_circle_multiplicities():
    assert multiplicity(0, 1) == 1
    assert all(multiplicity(k, 1) == 2 for k in range(1, 30))


def test_low_dimension_closed_forms():
    for k in range(51):
        assert multiplicity(k, 2) == 2 * k + 1
        assert multiplicity(k, 3) == (k + 1) ** 2


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=12))
def test_multiplicity_positive_integer(k, d):
    mu = multiplicity(k, d)
    assert isinstance(mu, int) and mu >= 1


def test_sphere_volumes():
    assert sphere_volume(1) == ExactValue(Fraction(2), 2)  # 2 pi
    assert sphere_volume(2) == ExactValue(Fraction(4), 2)  # 4 pi
    assert sphere_volume(3) == ExactValue(Fraction(2), 4)  # 2 pi^2


def test_weyl_leading_terms():
    assert weyl_leading_term(1) == ExactValue(Fraction(1), 1)
    assert weyl_leading_term(5) == ExactValue(Fraction(1, 32), 1)
    assert weyl_leading_term(7) == ExactValue(Fraction(1, 384), 1)


def test_weyl_pi_half_parity():
    for d in range(1, 13):
        assert weyl_leading_term(d).pi_half == d % 2


def test_weyl_closed_form_is_the_volume_ratio():
    # the closed form Gamma(d/2)/(d-1)! against vol(S^d)/(4 pi)^(d/2) as the definition reads
    for d in [*range(1, 601), 40000, 40001]:
        assert weyl_leading_term(d) == sphere_volume(d) / ExactValue(Fraction(2) ** d, d)
    for d in (0, -1, -7):
        with pytest.raises(ValueError, match=f"sphere dimension must be positive, got {d}"):
            weyl_leading_term(d)
