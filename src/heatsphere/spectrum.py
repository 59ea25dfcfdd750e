"""Laplace spectrum of the round sphere S^d with curvature +1."""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import ExactValue, gamma_half, integer


def _check_dimension(d: int) -> int:
    d = integer("d", d)
    if d <= 0:
        raise ValueError(f"sphere dimension must be positive, got {d}")
    return d


def eigenvalue(k: int, d: int) -> int:
    """k-th distinct eigenvalue k(k+d-1)."""
    k, d = integer("k", k), _check_dimension(d)
    if k < 0:
        raise ValueError(f"eigenvalue index must be nonnegative, got {k}")
    return k * (k + d - 1)


def multiplicity(k: int, d: int) -> int:
    """Dimension (2k+d-1)(k+d-2)!/(k!(d-1)!) of the k-th eigenspace, 1 at k=0."""
    k, d = integer("k", k), _check_dimension(d)
    if k < 0:
        raise ValueError(f"eigenvalue index must be nonnegative, got {k}")
    if k == 0:
        return 1
    num = (2 * k + d - 1) * math.factorial(k + d - 2)
    den = math.factorial(k) * math.factorial(d - 1)
    q, r = divmod(num, den)
    assert r == 0, (k, d)
    return q


def sphere_volume(d: int) -> ExactValue:
    """vol(S^d) = 2 pi^((d+1)/2) / Gamma((d+1)/2), exactly."""
    d = _check_dimension(d)
    return ExactValue(Fraction(2), d + 1) / gamma_half(d + 1)


def weyl_leading_term(d: int) -> ExactValue:
    """Leading coefficient vol(S^d)/(4 pi)^(d/2) of the heat-trace expansion, which is
    Gamma(d/2)/(d-1)! by Legendre's duplication: sqrt(pi)/(4^a a!) at d = 2a+1."""
    d = _check_dimension(d)
    a = d // 2
    if d % 2:
        return ExactValue(Fraction(1, 4**a * math.factorial(a)), 1)
    return ExactValue(Fraction(2, math.perm(d, a)), 0)
