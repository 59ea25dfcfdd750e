"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import LAYERS, Tracer
from worker import Pass, import_heatsphere, load_reference

hs = import_heatsphere()

# cheap ops of every kind
TINY = [
    {"kind": "compute", "argv": ["compute", "--n", f"0..{workloads.TABLE_N}", "--d", str(d)], "d": d}
    for d in (1, 2, 3, 4)
] + [
    {"kind": "cell", "n": 40, "d": 150, "omega": 80},
    {"kind": "verify", "argv": ["verify", "sharpness"]},
    {"kind": "verify", "argv": ["verify", "crosscheck", "--n", "1..3", "--d", "2..4"]},
    {"kind": "asympt", "argv": ["asympt", "--d", "3", "--n-terms", "2"], "d": 3, "n_terms": 2},
]


@pytest.fixture(scope="module")
def reference():
    return load_reference()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert workloads.make_ops(workload, 7) == workloads.make_ops(workload, 7)
    assert workloads.make_ops(workload, 7) != workloads.make_ops(workload, 8)


def test_deep_cells_and_k_tables_are_distinct():
    pool = workloads.deep_pool()
    assert len({(n, d) for n, d, _ in pool}) == len(pool)
    parity_ds = [d for _, d, omega in pool if omega is None]
    assert len(set(parity_ds)) == len(parity_ds)


def test_asympt_probes_stay_in_range():
    probes = [op for op in workloads.make_ops("verify", 3) if op["kind"] == "asympt"]
    for op in probes:
        t0 = float(op["argv"][op["argv"].index("--t0") + 1])
        assert workloads.ASYMPT_D[0] <= op["d"] <= workloads.ASYMPT_D[1]
        assert workloads.ASYMPT_T0[0] <= t0 <= workloads.ASYMPT_T0[1]
        assert workloads.ASYMPT_N_TERMS[0] <= op["n_terms"] <= workloads.ASYMPT_N_TERMS[1]


def test_tiny_pass_is_clean(reference):
    result = Pass(hs, reference).run(TINY)
    assert (result["attempted"], result["failed"]) == (len(TINY), 0)


def test_corrupted_digest_fails_the_op(reference):
    bad = copy.deepcopy(reference)
    bad["table"]["5,3"] = "0" * 16
    bad["deep"]["40,150"] = "0" * 16
    result = Pass(hs, bad).run(TINY)
    assert result["failures"] == {"compute:mismatch": 1, "cell:mismatch": 1}
    assert result["failed"] / result["attempted"] > 0


def test_traced_self_times_sum_to_wall(reference):
    Pass(hs, reference).run(TINY)  # fill the caches both timed passes then share
    plain = Pass(hs, reference).run(TINY)
    tracer = Tracer()
    tracer.install()
    try:
        traced = Pass(hs, reference).run(TINY, tracer)
    finally:
        tracer.uninstall()
    overhead = traced["wall_s"] - plain["wall_s"]
    self_s = tracer.self_times()
    assert all(value >= 0 for value in self_s.values())
    gap = traced["wall_s"] - sum(self_s.values())
    # the only time outside every span is the loop's own bookkeeping
    assert 0 <= gap <= max(overhead, 0.0) + 1e-3
    metrics = tracer.layer_metrics()
    assert metrics["asymptotics.heat_trace_numeric.calls"] == 2
    assert metrics["invariants.k_table.distinct_ratio"] < 1


def test_uninstall_restores_every_binding():
    before = {
        (module, attr): getattr(getattr(hs, module), attr)
        for bindings in LAYERS.values()
        for module, attr in bindings
    }
    tracer = Tracer()
    tracer.install()
    assert hs.invariants.heat_invariant is not before[("invariants", "heat_invariant")]
    tracer.uninstall()
    for (module, attr), func in before.items():
        assert getattr(getattr(hs, module), attr) is func


@pytest.mark.parametrize("count, expected", [(20, 50), (58, 82), (72, 86), (648, 98)])
def test_tail_percentile_leaves_ten_ops_above(count, expected):
    p = run.tail_percentile(count)
    assert p == expected
    values = list(range(count))
    assert sum(v > run.percentile(values, p) for v in values) >= 10 or p == 50


def test_run_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
