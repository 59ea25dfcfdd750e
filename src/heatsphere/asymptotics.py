"""Floating-point cross-validation of the exact coefficients.

The spectral sum is the one thing the exact modules cannot check from the
inside: here it is summed directly to a guaranteed relative tolerance and
compared against the truncated expansion.  The measured decay order of the
remainder must land on the exponent of the first omitted nonzero term.

Double precision is enough; the acceptance tolerance on slopes (20%) sits
far above rounding noise for t >= 0.025.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .invariants import HeatInvariantResult, heat_invariant, heat_invariant_row
from .spectrum import multiplicity

DEFAULT_MAX_K = 1_000_000

# the acceptance gate on an "ok" estimate's relative_deviation (`asympt --max-dev`)
MAX_DEVIATION = 0.2

# how many omitted coefficients to scan before declaring that the
# remainder lies beyond every power of t (the circle case)
_SCAN_DEPTH = 16

# measured remainders below this (relative to the trace) are numeric noise
_NOISE_FLOOR = 1e-10


class TruncationCapError(RuntimeError):
    """t is too small for the configured summation cap."""


def _max_k() -> int:
    text = os.environ.get("HEATSPHERE_MAX_K", str(DEFAULT_MAX_K))
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"HEATSPHERE_MAX_K must be a positive integer, got {text!r}")
    return int(text)


@dataclass(frozen=True)
class RemainderEstimate:
    d: int
    n_terms: int
    t_values: tuple[float, float]
    observed_order: float
    expected_order: float | None
    relative_deviation: float | None
    status: str  # "ok", "inconclusive" or "beyond-all-orders"


def heat_trace_numeric(d: int, t: float, rel_tol: float = 1e-12) -> float:
    """Direct sum of mu_{k,d} e^(-t k(k+d-1)) with a certified tail cutoff.

    The tail from index k is bounded through mu <= (2k+d)^d and the
    decreasing term ratio rho(k); summation stops once that bound drops
    below rel_tol of the partial sum; it is compared in log space, so it
    cannot overflow.  mu_k steps by the exact ratio (2k+d+1)(k+d-1) /
    ((2k+d-1)(k+1)), making the loop linear.  Deterministic for fixed inputs.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    cap = _max_k()
    acc = 1.0  # k = 0 term
    k = 1
    mu = multiplicity(1, d)
    while True:
        log_envelope = d * math.log(2 * k + d) - t * k * (k + d - 1)
        rho = math.exp(-t * (2 * k + d)) * ((2 * k + d + 2) / (2 * k + d)) ** d
        if rho < 1 and log_envelope - math.log1p(-rho) <= math.log(rel_tol * acc):
            return acc
        if k > cap:
            raise TruncationCapError(
                f"needed more than {cap} terms at d={d}, t={t}; "
                f"raise HEATSPHERE_MAX_K or increase t"
            )
        # exp(log mu - t lambda) keeps huge multiplicities inside float range
        acc += math.exp(math.log(mu) - t * k * (k + d - 1))
        mu = mu * (2 * k + d + 1) * (k + d - 1) // ((2 * k + d - 1) * (k + 1))
        k += 1


def asymptotic_sum(d: int, t: float, n_terms: int) -> float:
    """Sum of float(a_{n,d}) t^(n - d/2) over n = 0..n_terms-1."""
    if n_terms < 1:
        raise ValueError(f"n_terms must be positive, got {n_terms}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    return _partial_sum(heat_invariant_row(range(n_terms), d), t)


def _partial_sum(row: list[HeatInvariantResult], t: float) -> float:
    """sum of float(a_{n,d}) t^(n - d/2) over the row, in its order."""
    acc = 0.0
    for result in row:
        try:
            coeff = float(result.value)
        except OverflowError:
            raise ValueError(f"a_(n,d) overflows a double at d={result.d}, n={result.n}") from None
        try:
            acc += coeff * t ** (result.n - result.d / 2)
        except OverflowError:
            raise ValueError(
                f"t^(n-d/2) overflows a double at d={result.d}, n={result.n}, t={t}"
            ) from None
    return acc


def remainder_order(d: int, n_terms: int, t0: float = 0.05) -> RemainderEstimate:
    """Measure log2(R(t0)/R(t0/2)) against the first omitted exponent.

    R(t) is |heat_trace_numeric - asymptotic_sum|.  When every omitted
    coefficient vanishes (the circle) the status is "beyond-all-orders";
    when the measured remainder sits below the numeric noise floor the
    status is "inconclusive".  Neither is a failure.
    """
    if n_terms < 1:
        raise ValueError(f"n_terms must be positive, got {n_terms}")
    if not 0 < t0 < 1:
        raise ValueError(f"t0 must lie in (0, 1), got {t0}")
    t_values = (t0, t0 / 2)
    row = heat_invariant_row(range(n_terms + 1), d)
    # the first omitted exponent; past a_{n_terms,d} = 0 the scan goes cell by cell
    omitted = (n for n in range(n_terms + 1, n_terms + _SCAN_DEPTH) if heat_invariant(n, d).value)
    first = n_terms if row[-1].value else next(omitted, None)
    if first is None:
        return RemainderEstimate(d, n_terms, t_values, 0.0, None, None, "beyond-all-orders")
    expected = first - d / 2

    remainders = []
    for t in t_values:
        trace = heat_trace_numeric(d, t, rel_tol=1e-13)
        residual = abs(trace - _partial_sum(row[:-1], t))
        if residual <= _NOISE_FLOOR * abs(trace):
            return RemainderEstimate(d, n_terms, t_values, 0.0, expected, None, "inconclusive")
        remainders.append(residual)

    observed = math.log2(remainders[0] / remainders[1])
    deviation = abs(observed - expected) / abs(expected) if expected != 0 else abs(observed)
    return RemainderEstimate(d, n_terms, t_values, observed, expected, deviation, "ok")
