import functools
import math
import os
import random
import re
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heatsphere import asymptotics
from heatsphere.asymptotics import (
    _NOISE_FLOOR,
    _SCAN_DEPTH,
    RemainderEstimate,
    TruncationCapError,
    _partial_sum,
    _tail_within,
    heat_trace_numeric,
    remainder_order,
)
from heatsphere.invariants import heat_invariant, heat_invariant_row
from heatsphere.spectrum import multiplicity


def test_circle_trace_against_theta_limit():
    # for small t the d = 1 trace is sqrt(pi/t) up to exponentially small error
    for t in (0.05, 0.1, 0.2):
        assert heat_trace_numeric(1, t) == pytest.approx(math.sqrt(math.pi / t), rel=1e-11)


def test_trace_approaches_one_for_large_t():
    # only the constant eigenfunction survives
    assert heat_trace_numeric(2, 50.0) == pytest.approx(1.0, rel=1e-12)
    assert heat_trace_numeric(5, 50.0) == pytest.approx(1.0, rel=1e-12)


def test_trace_decreases_in_t():
    values = [heat_trace_numeric(3, t) for t in (0.05, 0.1, 0.2, 0.5)]
    assert values == sorted(values, reverse=True)


def test_trace_tolerance_coherence():
    loose = heat_trace_numeric(4, 0.1, rel_tol=1e-6)
    tight = heat_trace_numeric(4, 0.1, rel_tol=1e-13)
    assert loose == pytest.approx(tight, rel=1e-5)


def test_trace_validation():
    with pytest.raises(ValueError):
        heat_trace_numeric(0, 0.1)
    with pytest.raises(ValueError):
        heat_trace_numeric(2, 0.0)
    with pytest.raises(ValueError):
        heat_trace_numeric(2, 0.1, rel_tol=2.0)


@pytest.mark.parametrize(
    "d, t, message",
    [
        ("3", 0.1, "d must be an integer, not str: d='3'"),
        (2.5, -1.0, "d must be an integer, not float: d=2.5"),  # d first, then t
        (True, 0.1, "d must be an integer, not bool: d=True"),
        (None, 0.1, "d must be an integer, not NoneType: d=None"),
        (0, -1.0, "dimension must be positive, got 0"),
        (2, -1.0, "t must be positive, got -1.0"),
    ],
)
def test_trace_checks_d_first(monkeypatch, d, t, message):
    monkeypatch.setenv("HEATSPHERE_MAX_K", "abc")  # the cap is read after every argument
    with pytest.raises(ValueError, match=re.escape(message)):
        heat_trace_numeric(d, t)


def test_truncation_cap(monkeypatch):
    monkeypatch.setenv("HEATSPHERE_MAX_K", "100")
    with pytest.raises(TruncationCapError):
        heat_trace_numeric(2, 1e-7)
    monkeypatch.setenv("HEATSPHERE_MAX_K", "1000000")
    assert heat_trace_numeric(2, 0.1) > 0


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-3"])
def test_bad_truncation_cap_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("HEATSPHERE_MAX_K", value)
    with pytest.raises(ValueError, match="HEATSPHERE_MAX_K"):
        heat_trace_numeric(2, 0.1)


def test_trace_survives_huge_multiplicities():
    # (2k+d)^d overflows a double here; the tail bound must not
    trace = heat_trace_numeric(200, 0.05)
    assert math.isfinite(trace) and trace > 1


def test_asymptotic_sum_values():
    # d = 2: a_0 = 1, a_1 = 1/3, a_2 = 1/15
    t = 0.2
    expected = (1 / t) * (1 + t / 3 + t * t / 15)
    assert _partial_sum(heat_invariant_row(range(3), 2), t) == pytest.approx(expected, rel=1e-15)
    # d = 1 keeps only the Weyl term
    weyl = _partial_sum(heat_invariant_row(range(1), 1), 0.1)
    assert weyl == pytest.approx(math.sqrt(math.pi / 0.1), rel=1e-15)
    assert _partial_sum(heat_invariant_row(range(5), 1), 0.1) == weyl


def test_remainder_order_sphere():
    est = remainder_order(3, 3)
    assert est.status == "ok"
    assert est.expected_order == 3 - 1.5
    assert est.relative_deviation is not None and est.relative_deviation < 0.2


def test_remainder_order_matches_first_omitted_nonzero():
    # d = 5: a_{6,5} = 0, so truncating after n = 5 skips ahead to n = 7
    est = remainder_order(5, 6)
    assert est.expected_order == 7 - 2.5
    assert est.status in ("ok", "inconclusive")


def test_remainder_order_circle_is_beyond_all_orders():
    est = remainder_order(1, 2)
    assert est.status == "beyond-all-orders"
    assert est.expected_order is None and est.relative_deviation is None


def test_remainder_order_validation():
    with pytest.raises(ValueError):
        remainder_order(2, 0)
    with pytest.raises(ValueError):
        remainder_order(2, 2, t0=1.5)


@pytest.mark.parametrize(
    "d, n_terms, message",
    [
        (3, True, "n_terms must be an integer, not bool: n_terms=True"),
        (3, 2.0, "n_terms must be an integer, not float: n_terms=2.0"),
        (3, None, "n_terms must be an integer, not NoneType: n_terms=None"),
        ("3", 2, "d must be an integer, not str: d='3'"),
        (2.5, 0, "d must be an integer, not float: d=2.5"),  # d first, then n_terms
        (True, 2, "d must be an integer, not bool: d=True"),
    ],
)
def test_remainder_order_applies_the_integer_rule_first(d, n_terms, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        remainder_order(d, n_terms, t0=1.5)  # t0 is out of range too, and checked later


def test_remainder_order_reports_probe_points():
    est = remainder_order(2, 2, t0=0.04)
    assert est.t_values == (0.04, 0.02)
    assert est.d == 2 and est.n_terms == 2


def cell_by_cell_sum(d, t, n_terms):
    acc = 0.0
    for n in range(n_terms):
        acc += float(heat_invariant(n, d).value) * t ** (n - d / 2)
    return acc


def cell_by_cell_remainder_order(d, n_terms, t0):
    """remainder_order with one heat_invariant call per coefficient."""
    t_values = (t0, t0 / 2)
    nonzero = [n for n in range(n_terms, n_terms + _SCAN_DEPTH) if heat_invariant(n, d).value]
    if not nonzero:
        return RemainderEstimate(d, n_terms, t_values, 0.0, None, None, "beyond-all-orders", ())
    expected = nonzero[0] - d / 2
    remainders, terms = [], []
    for t in t_values:
        trace = heat_trace_numeric(d, t, rel_tol=1e-13, terms=terms)
        residual = abs(trace - cell_by_cell_sum(d, t, n_terms))
        if residual <= _NOISE_FLOOR * abs(trace):
            status = "inconclusive"
            return RemainderEstimate(d, n_terms, t_values, 0.0, expected, None, status, (*terms,))
        remainders.append(residual)
    observed = math.log2(remainders[0] / remainders[1])
    deviation = abs(observed - expected) / abs(expected) if expected != 0 else abs(observed)
    return RemainderEstimate(d, n_terms, t_values, observed, expected, deviation, "ok", (*terms,))


@pytest.mark.parametrize("d", range(1, 13))
def test_row_path_gives_the_cell_by_cell_floats(d):
    # compared with ==: the row must sum the same doubles in the same order.
    # d = 1 (every coefficient past a_0 vanishes) and d = 5 at n_terms = 6
    # (a_{6,5} = 0) run the scan past the row.
    for n_terms in range(1, 7):
        for t in (0.05, 0.01, 0.001):
            row = heat_invariant_row(range(n_terms), d)
            assert _partial_sum(row, t) == cell_by_cell_sum(d, t, n_terms)
            assert remainder_order(d, n_terms, t) == cell_by_cell_remainder_order(d, n_terms, t)


def plain_heat_trace(d, t, rel_tol=1e-12):
    """heat_trace_numeric's loop before the frozen-sum exit and the gate: it tests the tail
    at every k and adds every term up to the cutoff.  Returns the sum, the last k whose
    term changed it, and the terms k >= 1 added before the first k where the tail or the
    frozen-sum test holds (the count of a walk that tests both at every k)."""
    cap = int(os.environ.get("HEATSPHERE_MAX_K", "1000000"))
    acc, k, mu, changed, frozen = 1.0, 1, multiplicity(1, d), 0, None
    while True:
        log_envelope = d * math.log(2 * k + d) - t * k * (k + d - 1)
        rho = math.exp(-t * (2 * k + d)) * ((2 * k + d + 2) / (2 * k + d)) ** d
        if rho < 1 and log_envelope - math.log1p(-rho) <= math.log(rel_tol * acc):
            return acc, changed, min(k, frozen or k) - 1
        if k > cap:
            raise TruncationCapError(
                f"needed more than {cap} terms at d={d}, t={t}; "
                f"raise HEATSPHERE_MAX_K or increase t"
            )
        term = math.exp(math.log(mu) - t * k * (k + d - 1))
        up, down = (2 * k + d + 1) * (k + d - 1), (2 * k + d - 1) * (k + 1)
        ratio = up / down * math.exp(-t * (2 * k + d))
        if frozen is None and term <= math.ulp(acc) / 4 and ratio < 1:
            frozen = k
        changed = k if acc + term != acc else changed
        acc += term
        mu = mu * up // down
        k += 1


ORACLE_DIMENSIONS = [*range(1, 41), 77, 99, 129, 160, 200]
ORACLE_TIMES = [1e-4 * 9000 ** (i / 11) for i in range(12)]  # log-spaced over [1e-4, 0.9]
# the corner of the verify benchmark's asympt probes: large d at the smallest times
VERIFY_CORNER = [(d, t) for d in range(150, 161) for t in (2e-4, 3e-4)]


# At 1e-17 the gate is 2^-53 * acc, not 2 * rel_tol * acc.  At d = 1, k = 1,
# mu_k * 1.5 = (2k+d)^d: near t = log(3 / rel_tol) the tail first holds at k = 1
# with term_1 closest to the gate, so a step of 0.05 in t crosses that point.
@pytest.mark.parametrize("rel_tol", [1e-12, 1e-13, 1e-6, 1e-17])
def test_trace_is_the_plain_loops_double(rel_tol):
    tight = [(d, math.log(3 / rel_tol) + i / 20) for d in (1, 2, 3) for i in range(-20, 30)]
    points = [(d, t) for d in ORACLE_DIMENSIONS for t in ORACLE_TIMES] + VERIFY_CORNER + tight
    for d, t in points:
        terms = []
        plain, _, stop = plain_heat_trace(d, t, rel_tol)
        assert heat_trace_numeric(d, t, rel_tol, terms) == plain
        # the gate skips no stop: the sum ends where testing both rules at every k ends it
        assert terms == [stop]


def test_tail_bound_dominates_the_multiplicity_by_half():
    # the gate in heat_trace_numeric rests on mu_k * 1.5 <= (2k+d)^d for k >= 1
    for d in [*range(1, 61), 99, 160, 200, 1001]:
        for k in [*range(1, 61), 1000]:
            assert 3 * multiplicity(k, d) <= 2 * (2 * k + d) ** d


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=-6, max_value=0),
    st.integers(min_value=1, max_value=20000),
    st.integers(min_value=1, max_value=20000),
    st.floats(min_value=-40, max_value=700),
)
def test_a_tail_that_passes_passes_at_every_later_index(d, log10_t, j, step, bound):
    # the walk ends by testing the tail at cap + 1 alone, which rests on this implication
    t = 10.0**log10_t
    assume(_tail_within(d, t, j, bound))
    assert _tail_within(d, t, j + 1, bound) and _tail_within(d, t, j + step, bound)


def outcome(function, *args):
    try:
        return function(*args)
    except TruncationCapError as exc:
        return str(exc)


@pytest.mark.parametrize("cap", ["1", "5", "30", "100"])
def test_trace_raises_or_returns_as_the_plain_loop(monkeypatch, cap):
    monkeypatch.setenv("HEATSPHERE_MAX_K", cap)
    for d in ORACLE_DIMENSIONS[::4]:
        for t in ORACLE_TIMES[::2]:
            plain = outcome(lambda *args: plain_heat_trace(*args)[0], d, t, 1e-13)
            assert outcome(heat_trace_numeric, d, t, 1e-13) == plain


def test_sum_frozen_before_the_cap_still_raises_at_the_cap(monkeypatch):
    # at d = 200, t = 0.05 the sum stops changing within 30 terms, but the
    # certified tail bound needs more than 30: the cap must still raise
    assert plain_heat_trace(200, 0.05)[1] < 30
    monkeypatch.setenv("HEATSPHERE_MAX_K", "30")
    with pytest.raises(TruncationCapError, match="more than 30 terms"):
        plain_heat_trace(200, 0.05)
    with pytest.raises(TruncationCapError, match="more than 30 terms"):
        heat_trace_numeric(200, 0.05)


@functools.cache
def plain_outcome(d, t, rel_tol, cap):
    """plain_heat_trace's (sum, stop) at HEATSPHERE_MAX_K = cap, or its error text."""
    saved = os.environ.get("HEATSPHERE_MAX_K")
    os.environ["HEATSPHERE_MAX_K"] = str(cap)
    try:
        acc, _, stop = plain_heat_trace(d, t, rel_tol)
        return acc, stop
    except TruncationCapError as exc:
        return str(exc)
    finally:
        if saved is None:
            del os.environ["HEATSPHERE_MAX_K"]
        else:
            os.environ["HEATSPHERE_MAX_K"] = saved


def walk_outcome(d, t, rel_tol=1e-13):
    terms = []
    try:
        return heat_trace_numeric(d, t, rel_tol, terms), *terms
    except TruncationCapError as exc:
        return str(exc)


def test_kept_logs_are_the_log_multiplicities():
    # after a walk the kept table holds log mu_k for every k it reached, and the next mu
    for d, t in ((7, 0.01), (7, 0.005), (160, 3e-4), (1, 0.2)):
        heat_trace_numeric(d, t)
        kept_d, logs, mu = asymptotics._log_mu
        assert kept_d == d and len(logs) > 1
        assert list(logs) == [math.log(multiplicity(k, d)) for k in range(len(logs))]
        assert mu == multiplicity(len(logs), d)


KEPT_DIMENSIONS = (1, 2, 3, 8, 40, 41, 160)
KEPT_TIMES = (0.5, 0.2, 0.1, 0.05, 0.005, 1e-3, 5e-4, 2e-4)


_DESCENDING = [(d, t, 1e-13) for d in KEPT_DIMENSIONS for t in KEPT_TIMES]
_TOLERANCES = [
    (d, t, rel_tol)
    for d in (2, 40)
    for t in (0.05, 1e-3)
    for rel_tol in (1e-13, 1e-6, 1e-17, 1e-12)
]
# calls that read, extend and replace the kept table, by name
CALL_ORDERS = {
    "ascending": [(d, t, 1e-13) for d in KEPT_DIMENSIONS for t in sorted(KEPT_TIMES)],
    "descending": _DESCENDING,
    # two dimensions in turn, so that every call replaces the table the last one left
    "alternating": [
        (d, t, 1e-13) for pair in ((40, 3), (160, 161)) for t in KEPT_TIMES for d in pair
    ],
    "tolerances": _TOLERANCES,
    "shuffled": random.Random(7).sample(_DESCENDING + _TOLERANCES, len(_DESCENDING + _TOLERANCES)),
}


@pytest.mark.parametrize("order", CALL_ORDERS)
def test_trace_is_the_plain_loops_double_in_any_call_order(monkeypatch, order):
    monkeypatch.setattr(asymptotics, "_log_mu", (0, None, 1))
    for d, t, rel_tol in CALL_ORDERS[order]:
        assert walk_outcome(d, t, rel_tol) == plain_outcome(d, t, rel_tol, 1_000_000)


def test_kept_table_after_the_cap_raises(monkeypatch):
    # a walk cut by the cap keeps what it stepped; a longer table than the cap allows is read
    # only up to the cap; raising the cap again extends the table from where it stopped
    calls = [
        (1_000_000, 200, 0.05),
        (30, 200, 0.05),
        (30, 200, 0.5),
        (1_000_000, 200, 0.05),
        (100, 2, 1e-7),
        (1_000_000, 2, 1e-3),
        (5, 2, 1e-3),
        (1_000_000, 2, 1e-4),
        (100, 2, 1e-4),
        (1, 3, 0.05),
        (1_000_000, 3, 0.05),
    ]
    raised = []
    for cap, d, t in calls:
        monkeypatch.setenv("HEATSPHERE_MAX_K", str(cap))
        expected = plain_outcome(d, t, 1e-13, cap)
        assert walk_outcome(d, t) == expected
        raised.append(isinstance(expected, str))
    assert raised == [cap < 1_000_000 and t < 0.5 for cap, d, t in calls]


# one d: the threads extend and read one table; four: they also replace it for one another
@pytest.mark.parametrize("dimensions", [(160,), (3, 40, 41, 160)])
def test_kept_table_is_thread_safe(monkeypatch, dimensions):
    # the small t make long extensions, during which other threads start walks at the same d
    points = [(d, t) for d in dimensions for t in (0.2, 0.1, 0.02, 1e-3, 1e-4, 1e-5)]
    truth = {(d, t): plain_outcome(d, t, 1e-13, 1_000_000) for d, t in points}
    results = []

    def worker(seed):
        # each thread walks in its own (d, t) order, so the table is replaced and extended
        # by one thread while others read it
        order = random.Random(seed).sample(points, len(points))
        results.append({(d, t): walk_outcome(d, t) for d, t in order})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_ in range(4):
            monkeypatch.setattr(asymptotics, "_log_mu", (0, None, 1))
            threads = [threading.Thread(target=worker, args=(8 * round_ + i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 32 and all(got == truth for got in results)
