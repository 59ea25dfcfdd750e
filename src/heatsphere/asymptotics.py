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
from collections import namedtuple

from .exactnum import integer
from .invariants import HeatInvariantResult, heat_invariant, heat_invariant_row
from .spectrum import multiplicity

DEFAULT_MAX_K = 1_000_000

# the acceptance gate on an "ok" estimate's relative_deviation (`asympt --max-dev`)
MAX_DEVIATION = 0.2

# the larger of the two probe times t0 and t0/2 when none is given (`asympt --t0`)
DEFAULT_T0 = 0.05

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


# status is "ok", "inconclusive" or "beyond-all-orders"; expected_order and
# relative_deviation may be None; terms holds the terms k >= 1 summed at each
# probe time reached, in t_values order
RemainderEstimate = namedtuple(
    "RemainderEstimate",
    "d n_terms t_values observed_order expected_order relative_deviation status terms",
)


def _tail_within(d: int, t: float, k: int, bound: float) -> bool:
    # The stopping rule: the tail from index k, bounded through mu <= (2k+d)^d and the
    # decreasing term ratio rho(k), lies below exp(bound); compared in log space, so it
    # cannot overflow.  -log1p(-rho) >= 0, so an envelope above the bound fails it early.
    log_envelope = d * math.log(2 * k + d) - t * k * (k + d - 1)
    if log_envelope > bound:
        return False
    rho = math.exp(-t * (2 * k + d)) * ((2 * k + d + 2) / (2 * k + d)) ** d
    return rho < 1 and log_envelope - math.log1p(-rho) <= bound


def heat_trace_numeric(
    d: int, t: float, rel_tol: float = 1e-12, terms: list[int] | None = None
) -> float:
    """Direct sum of mu_{k,d} e^(-t k(k+d-1)), stopped once its tail is certified below rel_tol.

    mu_k steps by the exact ratio (2k+d+1)(k+d-1) / ((2k+d-1)(k+1)).  Once no later
    term can change the double, summing stops, and the tail bound alone picks the sum
    or TruncationCapError, as adding every term would.  Deterministic for fixed inputs.
    If `terms` is given, the number of terms k >= 1 the sum added is appended to it.
    """
    d = integer("d", d)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    if not 0 < rel_tol < 1:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    total, added = _walk(d, t, rel_tol, _max_k())
    if terms is not None:
        terms.append(added)
    return total


# (d, logs, mu) of the last d walked: logs[k] = log mu_k for k < len(logs), mu = mu_{len(logs)}.
# Neither depends on t, so remainder_order's walk at t0/2 reads what its walk at t0 stepped.  A
# walk past the table extends a copy and replaces the snapshot whole: a lost one costs only time.
_log_mu = (0, None, 1)


def _walk(d: int, t: float, rel_tol: float, cap: int) -> tuple[float, int]:
    """heat_trace_numeric's sum and the number of terms k >= 1 it added."""
    global _log_mu
    # Neither stopping rule can hold at k while term_k > gate * acc, so both are tested
    # only below it.  The tail from k holds term_k, and its bound takes mu_k <= (2k+d)^d / 1.5
    # in the same float t * k * (k + d - 1): a passing tail means term_k <= rel_tol * acc.
    # A frozen term is <= ulp(acc)/4 <= 2^-54 * acc, as acc >= 1.
    exp, log, ulp = math.exp, math.log, math.ulp
    gate, c, acc = max(2 * rel_tol, 2**-53), d - 1, 1.0  # acc holds the k = 0 term
    kept_d, logs, mu = _log_mu
    if kept_d != d:
        from array import array  # here, so that a process which sums nothing never loads it
        logs, mu = array("d", [0.0]), multiplicity(1, d)
    known = len(logs)
    for k in range(1, cap + 1):
        if k >= known:  # past the kept table: a copy of it takes log mu_k, and mu steps on
            if k == known:
                logs = logs[:]
            logs.append(log(mu))
            mu = mu * ((2 * k + d + 1) * (k + c)) // ((2 * k + c) * (k + 1))
        # exp(log mu - t lambda) keeps huge multiplicities inside float range
        term = exp(logs[k] - t * k * (k + c))
        if term <= gate * acc:
            if _tail_within(d, t, k, log(rel_tol * acc)):
                _log_mu = d, logs, mu
                return acc, k - 1
            # Frozen once term <= ulp(acc)/4 and the term ratio up/down e^(-t(2k+d)) is < 1:
            # that ratio falls with k (up/down does, or is 1 at d = 1), so no later term passes
            # this one by more than exp's rounding, each stays below ulp(acc)/2, and acc + term
            # rounds to acc.
            if term <= ulp(acc) / 4:
                up, down = (2 * k + d + 1) * (k + c), (2 * k + c) * (k + 1)
                if up / down * exp(-t * (2 * k + d)) < 1:
                    break
        acc += term
    else:
        k = cap + 1
    _log_mu = d, logs, mu
    # acc is final, and the rule decides on k+1..cap+1 by cap + 1 alone: a tail that passes at
    # j has rho(j) < 1, and rho falls with k while E(k+1) - E(k) = log rho(k) for the tail bound
    # E = log_envelope - log1p(-rho), so E falls from j on and the tail passes at every later index
    if _tail_within(d, t, cap + 1, math.log(rel_tol * acc)):
        return acc, k - 1
    raise TruncationCapError(
        f"needed more than {cap} terms at d={d}, t={t}; raise HEATSPHERE_MAX_K or increase t"
    )


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


def remainder_order(d: int, n_terms: int, t0: float = DEFAULT_T0) -> RemainderEstimate:
    """Measure log2(R(t0)/R(t0/2)) against the first omitted exponent.

    R(t) is |heat_trace_numeric - sum of a_{n,d} t^(n - d/2) over n < n_terms|.
    When every omitted coefficient vanishes (the circle) the status is
    "beyond-all-orders"; when the measured remainder sits below the numeric
    noise floor the status is "inconclusive".  Neither is a failure.
    """
    d, n_terms = integer("d", d), integer("n_terms", n_terms)
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
        return RemainderEstimate(d, n_terms, t_values, 0.0, None, None, "beyond-all-orders", ())
    expected = first - d / 2

    remainders, terms = [], []
    for t in t_values:
        # through the public name, so that a wrapper put on it (a tracer) sees every sum
        trace = heat_trace_numeric(d, t, rel_tol=1e-13, terms=terms)
        residual = abs(trace - _partial_sum(row[:-1], t))
        if residual <= _NOISE_FLOOR * abs(trace):
            return RemainderEstimate(
                d, n_terms, t_values, 0.0, expected, None, "inconclusive", tuple(terms)
            )
        remainders.append(residual)

    observed = math.log2(remainders[0] / remainders[1])
    deviation = abs(observed - expected) / abs(expected) if expected != 0 else abs(observed)
    return RemainderEstimate(
        d, n_terms, t_values, observed, expected, deviation, "ok", tuple(terms)
    )
