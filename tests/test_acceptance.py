"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line tagged with its criterion number so the
suite output doubles as a checklist.  Tolerances and parameter boxes are
pinned here on purpose; loosening them is a contract change, not a fix.
"""

import time
from fractions import Fraction
from math import comb, factorial

from heatsphere.asymptotics import remainder_order
from heatsphere.exactnum import ExactValue, bernoulli
from heatsphere.identities import (
    alternating_power_sum,
    s1_sum,
    s1_sum_one_sided,
    s3_expected,
    s3_sum,
)
from heatsphere.invariants import (
    _general_sums,
    heat_invariant,
    heat_invariant_even,
    heat_invariant_general,
    heat_invariant_odd,
)
from heatsphere.legendre import (
    ONE_MINUS_T,
    expansion_coeff,
    expansion_coeff_closed,
    gegenbauer_poly,
)
from heatsphere.opercalc import check_bernoulli_link, check_lemma
from heatsphere.spectrum import sphere_volume, weyl_leading_term


def sqrtpi(num, den=1):
    return ExactValue(Fraction(num, den), 1)


def test_criterion_01_three_sphere_closed_form():
    start = time.perf_counter()
    for n in range(1, 11):
        expected = sqrtpi(1, 4 * factorial(n))
        assert heat_invariant_general(n, 3, 2 * n) == expected
        assert heat_invariant_general(n, 3, 2 * n + 3) == expected
        assert heat_invariant_odd(n, 1) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 1 PASS: a(n,3) = sqrt(pi)/(4 n!) three ways, n = 1..10 ({elapsed:.2f}s)")


def test_criterion_02_d5_d7_closed_forms():
    for n in range(1, 11):
        expected5 = sqrtpi(Fraction(4) ** (n - 3) * (6 - n), 3 * factorial(n))
        expected7 = sqrtpi(
            Fraction(3) ** (2 * n - 6) * (16 * n * n - 286 * n + 1215),
            640 * factorial(n),
        )
        assert heat_invariant_odd(n, 2) == expected5
        assert heat_invariant_odd(n, 3) == expected7
    print("ACCEPTANCE 2 PASS: a(n,5) and a(n,7) closed forms, n = 1..10")


def test_criterion_03_d2_bernoulli_form():
    for n in range(1, 11):
        total = Fraction(0)
        for r in range(n + 1):
            sign = -1 if r % 2 else 1
            total += sign * comb(n, r) * (2 - 4**r) * bernoulli(2 * r)
        expected = ExactValue(total / (factorial(n) * 4**n))
        assert heat_invariant_even(n, 1) == expected
    assert heat_invariant_even(1, 1) == ExactValue(Fraction(1, 3))
    assert heat_invariant_even(2, 1) == ExactValue(Fraction(1, 15))
    print("ACCEPTANCE 3 PASS: a(n,2) Bernoulli sum, n = 1..10, spots 1/3 and 1/15")


def test_criterion_04_cross_formula_equivalence():
    start = time.perf_counter()
    cells = 0
    for n in range(1, 9):
        general_at_bound = {d: heat_invariant_general(n, d, 2 * n) for d in range(2, 12)}
        for d in (3, 5, 7, 9, 11):
            assert general_at_bound[d] == heat_invariant_odd(n, (d - 1) // 2)
            cells += 1
        for d in (2, 4, 6, 8, 10):
            assert general_at_bound[d] == heat_invariant_even(n, d // 2)
            cells += 1
    elapsed = time.perf_counter() - start
    assert cells == 80 and elapsed < 60.0
    print(f"ACCEPTANCE 4 PASS: general vs parity routes on {cells} cells ({elapsed:.2f}s)")


def test_criterion_05_omega_stability_and_sharpness():
    for n in range(1, 7):
        for d in range(1, 9):
            base = heat_invariant_general(n, d, 2 * n)
            for omega in range(2 * n + 1, 3 * n + 5):
                assert heat_invariant_general(n, d, omega) == base
    for n, d in ((1, 1), (2, 1), (2, 3)):
        assert _general_sums(n, d, [2 * n - 1]) != [heat_invariant_general(n, d, 2 * n)]
    print("ACCEPTANCE 5 PASS: omega-stable on [2n, 3n+4] for n <= 6, d <= 8; sharp at 2n-1")


def test_criterion_06_identity_suites():
    for n in range(1, 6):
        for omega in range(2 * n, 2 * n + 5):
            assert s1_sum_one_sided(n, omega) == 0
            for x in (0, Fraction(1, 2), 1, Fraction(7, 3)):
                assert s1_sum(n, omega, x) == 0
            assert s3_sum(n, omega) == s3_expected(n)
    for j in range(11):
        for s in range(2 * j):
            assert alternating_power_sum(j, s) == 0
        assert alternating_power_sum(j, 2 * j) == factorial(2 * j)
    print("ACCEPTANCE 6 PASS: circle/three-sphere identities and residue sums on full boxes")


def test_criterion_07_circle_vanishing():
    for n in range(1, 9):
        result = heat_invariant(n, 1)
        assert result.value == ExactValue(Fraction(0))
        assert heat_invariant_general(n, 1, 2 * n) == ExactValue(Fraction(0))
    print("ACCEPTANCE 7 PASS: a(n,1) = 0 for n = 1..8")


def test_criterion_08_weyl_and_a1_oracles():
    for d in range(2, 9):
        weyl = sphere_volume(d) / ExactValue(Fraction(2) ** d, d)
        assert heat_invariant(0, d).value == weyl
        assert weyl == weyl_leading_term(d)
        assert heat_invariant(1, d).value == weyl * Fraction(d * (d - 1), 6)
    print("ACCEPTANCE 8 PASS: Weyl term and curvature oracle a(1,d), d = 2..8")


def test_criterion_09_lemma_suites():
    for t in range(0, 5):
        for s in range(4):
            for omega_prime in range(2 * t + s, 2 * t + s + 4):
                if t >= 1:
                    assert check_lemma("ff1_bb", t, s, omega_prime)
                assert check_lemma("ff2_e2", t, s, omega_prime)
    assert check_bernoulli_link(8).passed
    print("ACCEPTANCE 9 PASS: operator lemmas on stated boxes; Bernoulli link to t = 8")


def test_criterion_10_legendre_reconstruction():
    for d in range(2, 6):
        for j in range(5):
            target = ONE_MINUS_T ** j
            acc = None
            for k in range(j + 1):
                c = expansion_coeff(j, k, d)
                assert c == expansion_coeff_closed(j, k, d)
                term = gegenbauer_poly(k, d) * c
                acc = term if acc is None else acc + term
            assert acc == target
    print("ACCEPTANCE 10 PASS: (1-t)^j reconstruction and closed coefficients, j <= 4, d = 2..5")


def test_criterion_11_numeric_remainder_orders():
    start = time.perf_counter()
    for d in (2, 3, 5):
        for n_terms in (2, 3, 4):
            estimate = remainder_order(d, n_terms, t0=0.05)
            assert estimate.status == "ok", (d, n_terms, estimate)
            assert estimate.relative_deviation < 0.2, (d, n_terms, estimate)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 11 PASS: remainder orders within 20% for d in 2,3,5 ({elapsed:.2f}s)")
