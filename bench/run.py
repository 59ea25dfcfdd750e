"""heatsphere benchmark: one run of one workload.

    python3 bench/run.py --workload table|deep|verify --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  With ``--trace 0`` the run repeats the workload's op list in
fresh worker interpreters (one per pass) and reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it describe the run.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from worker import calibrate  # noqa: E402

# A run starts passes until the next would end after --seconds, and makes
# at least MIN_PASSES end-to-end passes (pairs of passes when traced)
# unless that would take it past LIMIT_S; the run must end within 180 s.
MIN_PASSES = 3
LIMIT_S = 140.0
# fresh interpreters timed from spawn to `heatsphere.cli` imported
SETUP_PROBES = 21
# What worker.calibrate() takes on the host at its usual speed.  Every
# latency is scaled by CALIBRATION_S / (calibration measured around it),
# which takes the shared host's drifting speed out of the metrics.
CALIBRATION_S = 0.0033
# the only failure the seed commit has: asympt's tail envelope overflows
KNOWN_FAILURES = frozenset({"asympt:OverflowError"})

SETUP_CODE = "import heatsphere.cli, time; print(time.perf_counter(), heatsphere.__file__)"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_probe() -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to heatsphere.cli imported,
    and the calibration time around it."""
    before = calibrate()
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    stamp, module = proc.stdout.split()
    if SRC.resolve() not in Path(module).resolve().parents:
        raise RuntimeError(f"heatsphere resolved to {module}, not under {SRC}")
    # perf_counter reads CLOCK_MONOTONIC, which both processes share
    return float(stamp) - start, (before + calibrate()) / 2


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    # the worker itself refuses a heatsphere from outside SRC
    return json.loads(proc.stdout.splitlines()[-1])


def op_calibration(result: dict) -> list[float]:
    """Per op, the mean of the calibrations taken just before and after it."""
    cal = result["calibration_s"]
    return [(before + after) / 2 for before, after in zip(cal, cal[1:])]


def host_speed(result: dict) -> float:
    """Usual over measured calibration time during one pass."""
    return CALIBRATION_S / statistics.median(result["calibration_s"])


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten ops above it (50 at least)."""
    for p in range(99, 50, -1):
        if count - math.ceil(p * count / 100) >= 10:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tally(passes: list[dict]) -> tuple[int, int, dict[str, int]]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures: dict[str, int] = {}
    for p in passes:
        for why, count in p["failures"].items():
            failures[why] = failures.get(why, 0) + count
    return attempted, failed, failures


def repeat(run_once, seconds: float, at_least: int) -> list:
    """Call run_once until another call would end after `seconds`, or
    after LIMIT_S while there are fewer than `at_least` results."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(run_once())
        n = len(results)
        projected = (time.perf_counter() - start) * (n + 1) / n
        if projected > (seconds if n >= at_least else LIMIT_S):
            return results


def end_to_end(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict, dict]:
    setups = [setup_probe() for _ in range(SETUP_PROBES)]
    passes = repeat(lambda: run_pass(workload, seed, trace=False), seconds, MIN_PASSES)
    # Every pass runs the same ops in the same order, so each op's latency
    # is its median over the passes; a burst of load on the shared host
    # then moves the metrics only if it hits most passes.
    per_op_ms = list(zip(*(p["latencies_ms"] for p in passes)))
    per_op_cal = list(zip(*(op_calibration(p) for p in passes)))
    raw = [statistics.median(ms) for ms in per_op_ms]
    latencies = [
        statistics.median(m * CALIBRATION_S / c for m, c in zip(ms, cal))
        for ms, cal in zip(per_op_ms, per_op_cal)
    ]
    attempted, failed, _ = tally(passes)
    tail_p = tail_percentile(len(latencies))
    metrics = {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": percentile(latencies, tail_p),
        "ok_ratio": (attempted - failed) / attempted,
        "setup_s": statistics.median(t * CALIBRATION_S / cal for t, cal in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    details = {
        "passes": len(passes),
        "op_tail_percentile": tail_p,
        "fail_ratio": failed / attempted,
        "setup_probes": len(setups),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "host_speed": statistics.median(host_speed(p) for p in passes),
        "raw": {
            "ops_per_s": len(raw) / (sum(raw) / 1e3),
            "op_p50_ms": statistics.median(raw),
            "setup_s": statistics.median(t for t, _ in setups),
        },
    }
    return passes, metrics, details


def traced(workload: str, seed: int, seconds: int) -> tuple[list[dict], dict, dict]:
    pairs = repeat(
        lambda: (run_pass(workload, seed, trace=False), run_pass(workload, seed, trace=True)),
        seconds, 1,
    )
    plain = [untraced for untraced, _ in pairs]
    with_trace = [traced_pass for _, traced_pass in pairs]
    first = with_trace[0]
    layers = {}
    for name, value in first["layers"].items():
        # counts repeat exactly from pass to pass; times and rates take the
        # median over the passes, at the host's usual speed
        if name.endswith("per_s"):
            value = statistics.median(p["layers"][name] / host_speed(p) for p in with_trace)
        elif name.endswith("_s"):
            value = statistics.median(p["layers"][name] * host_speed(p) for p in with_trace)
        layers[name] = value
    traced_wall = statistics.median(p["wall_s"] * host_speed(p) for p in with_trace)
    layers["asymptotics.verdict_fail"] = first["verdict_fail"]
    layers["cli.bytes_out"] = first["bytes_out"]
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = traced_wall - statistics.median(
        p["wall_s"] * host_speed(p) for p in plain
    )
    details = {"traced_passes": len(with_trace), "ops": sum(p["attempted"] for p in with_trace)}
    return plain + with_trace, layers, details


def main() -> int:
    parser = argparse.ArgumentParser(description="heatsphere benchmark: one run of one workload")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "heatsphere" / "__init__.py").is_file():
        print(f"error: {SRC} holds no heatsphere package; run from a checkout root", file=sys.stderr)
        return 2

    # BENCHMARK.json names the metrics each mode reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    try:
        measure = traced if args.trace else end_to_end
        passes, values, details = measure(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, failures = tally(passes)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "op_count": passes[0]["attempted"],
        "module": passes[0]["module"],
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "failures": failures,
        **details,
    }
    print(json.dumps(info))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": set(failures) <= KNOWN_FAILURES,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
