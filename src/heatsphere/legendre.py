"""Exact Legendre/Gegenbauer polynomial algebra on [-1, 1].

The weight is (1 - t^2)^((d-2)/2); an integer moment table of d, built for each call,
drives that call's inner products, and the basis, Gram-Schmidt against it, is handed
out as `exactnum.Polynomial`s of value 1 at t = 1.  Expansion coefficients of (1 - t)^j
in this basis are computed twice: by brute-force integration (the ground truth) and by
the closed product formula; `verify_expansion` checks the two against each other and
against reconstruction of (1 - t)^j itself.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exactnum import ExactValue, Polynomial, Rational, gamma_half, integer
from .spectrum import multiplicity
from .verification import VerificationReport

ZERO_POLY = Polynomial(())
ONE_MINUS_T = Polynomial((Fraction(1), Fraction(-1)))


def weighted_moment(m: int, d: int) -> ExactValue:
    """Integral of t^m (1-t^2)^((d-2)/2) over [-1, 1].

    Zero for odd m; for m = 2r the Beta integral gives
    Gamma(r + 1/2) Gamma(d/2) / Gamma(r + 1/2 + d/2).
    """
    m, d = integer("m", m), integer("d", d)
    if m < 0:
        raise ValueError(f"moment order must be nonnegative, got {m}")
    if d < 2:
        raise ValueError(f"weight needs d >= 2, got {d}")
    if m % 2 == 1:
        return ExactValue(Fraction(0))
    return gamma_half(m + 1) * gamma_half(d) / gamma_half(m + 1 + d)


def _moment_table(d: int, size: int) -> tuple[list[int], list[tuple[int, ...]]]:
    # built per call: 2 size - 1 moments, table[m] / table[0] = weighted_moment(m, d) / moment_0,
    # and `size` bases, bases[k] = gegenbauer_poly(k, d) scaled to coprime integers of sum > 0
    moment_0 = weighted_moment(0, d)  # as_rational checks that pi cancels from every ratio
    ratios = [(weighted_moment(m, d) / moment_0).as_rational() for m in range(2 * size - 1)]
    denominator = math.lcm(*(r.denominator for r in ratios))
    table = [r.numerator * (denominator // r.denominator) for r in ratios]
    bases = []
    for k in range(size):
        # Gram-Schmidt: t^k less its projections on the lower q, scaled to stay whole; with
        # q orthogonal below its degree i, <p, q> = p_k <t^k, q> and <q, q> = q_i <t^i, q>
        p = [0] * k + [1]
        for i, q in enumerate(bases):
            along = p[k] * sum(map(operator.mul, q, table[k:]))
            if along:
                norm = q[i] * sum(map(operator.mul, q, table[i:]))
                p = [norm * c - along * b for c, b in zip(p, q + (0,) * (k - i))]
        g = math.gcd(*p) if sum(p) > 0 else -math.gcd(*p)
        bases.append(tuple(c // g for c in p))
    return table, bases


def _moments_of(q: tuple[int, ...], table: list[int], size: int) -> list[int]:
    # [<t^a, q> for a < size], in units of weighted_moment(0, d) / table[0]
    return [sum(map(operator.mul, q, table[a:])) for a in range(size)]


def weighted_integral(p: Polynomial, d: int) -> ExactValue:
    d = integer("d", d)
    if d < 2:
        raise ValueError(f"weight needs d >= 2, got {d}")
    total = ExactValue(Fraction(0))
    for i, c in enumerate(p.coefficients):
        if c != 0:
            total = total + weighted_moment(i, d) * c
    return total


def gegenbauer_poly(k: int, d: int) -> Polynomial:
    """Degree-k polynomial orthogonal to all lower degrees, value 1 at t = 1.

    Built by Gram-Schmidt on the monomial basis against the exact weighted
    moments; no recurrence constants are imported from elsewhere.
    """
    k, d = integer("k", k), integer("d", d)
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    basis = _moment_table(d, k + 1)[1][k]
    return Polynomial.from_coefficients(basis) * Fraction(1, sum(basis))


def expansion_coeff(j: int, k: int, d: int) -> Rational:
    """Coefficient of the degree-k basis polynomial in (1 - t)^j.

    Computed as the ratio of weighted integrals; pi powers cancel, so the
    value is rational.  For k > j the coefficient is 0 (degree reasons) and
    is returned as such.
    """
    j, k, d = integer("j", j), integer("k", k), integer("d", d)
    if j < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got j={j}, k={k}")
    if d < 2:
        raise ValueError(f"weight needs d >= 2, got {d}")
    if k > j:
        return Fraction(0)
    table, bases = _moment_table(d, j + 1)
    moments = _moments_of(bases[k], table, j + 1)
    along = sum(map(operator.mul, (ONE_MINUS_T**j).coefficients, moments))
    # L_k = bases[k] / bases[k](1); the table's units cancel
    return Fraction(sum(bases[k]) * along, sum(map(operator.mul, bases[k], moments)))


def expansion_coeff_closed(j: int, k: int, d: int) -> Rational:
    """Closed product form of the same coefficient.

    (-1)^k 2^j Gamma(j + d/2) j! / ((j-k)! (j+k+d-1)!) * (4 pi)^(d/2)
    mu_{k,d} / vol(S^d).  The 2^j factor printed here is intrinsic: the
    value agrees with `expansion_coeff` as is (ratio 1, not 2^j); see
    `verify_expansion`, which asserts that resolution.
    """
    j, k, d = integer("j", j), integer("k", k), integer("d", d)
    if j < 0 or k < 0 or k > j:
        raise ValueError(f"need 0 <= k <= j, got j={j}, k={k}")
    if d < 2:
        raise ValueError(f"weight needs d >= 2, got {d}")
    # (4 pi)^(d/2) / vol(S^d) = (d-1)!/Gamma(d/2): one integer quotient, (-1)^k j!/(j-k)!
    # d(d+2)...(d+2j-2) mu_{k,d} over d(d+1)...(j+k+d-1)
    top = (-1) ** k * math.perm(j, k) * math.prod(range(d, d + 2 * j, 2)) * multiplicity(k, d)
    return Fraction(top, math.perm(j + k + d - 1, j + k))


def norm_squared(k: int, d: int) -> ExactValue:
    """Weighted L^2 norm of the degree-k basis polynomial, exactly."""
    k, d = integer("k", k), integer("d", d)
    if k < 0:
        raise ValueError(f"degree must be nonnegative, got {k}")
    table, bases = _moment_table(d, k + 1)
    norm = sum(map(operator.mul, bases[k], _moments_of(bases[k], table, k + 1)))
    return weighted_moment(0, d) * Fraction(norm, table[0] * sum(bases[k]) ** 2)


def verify_expansion(j_max: int = 4, d: tuple[int, int] = (2, 5)) -> VerificationReport:
    """Reconstruction and closed-form sweep over 0 <= k <= j <= j_max.

    Checks that sum_k c_{jk} L_{k,d} rebuilds (1 - t)^j exactly and that
    the closed form reproduces the brute-force coefficients.
    """
    j_max, (d_lo, d_hi) = integer("j_max", j_max), [integer("d", end) for end in d]
    report = VerificationReport("legendre", [("j", f"0..{j_max}"), ("d", f"{d_lo}..{d_hi}")])
    targets = [ONE_MINUS_T**j for j in range(j_max + 1)]
    for d in range(d_lo, d_hi + 1):
        table, bases = _moment_table(d, j_max + 1)
        moments = [_moments_of(basis, table, j_max + 1) for basis in bases]
        norms = [sum(map(operator.mul, b, w)) for b, w in zip(bases, moments)]
        for j, target in enumerate(targets):
            p = [c.numerator for c in target.coefficients]
            alongs = [sum(map(operator.mul, p, w)) for w in moments[: j + 1]]
            # c_jk L_k = bases[k] alongs[k] / norms[k]: their sum is one integer over the norms' lcm
            scale = math.lcm(*norms[: j + 1])
            weights = [along * (scale // norm) for along, norm in zip(alongs, norms)]
            whole = [sum(w * b[i] for w, b in zip(weights[i:], bases[i:])) for i in range(j + 1)]
            rebuilt = Polynomial.from_coefficients(Fraction(c, scale) for c in whole)
            report.record({"j": j, "d": d, "check": "reconstruction"}, rebuilt, target)
            for k, (basis, along, norm) in enumerate(zip(bases, alongs, norms)):
                report.record(
                    {"j": j, "k": k, "d": d, "check": "closed-form"},
                    expansion_coeff_closed(j, k, d),
                    Fraction(sum(basis) * along, norm),
                )
    report.notes.append(
        "closed form equals brute force with ratio 1: the 2^j factor in the "
        "product formula is part of the coefficient value itself"
    )
    return report
