"""One pass over a workload's op list, in a fresh interpreter.

    python3 bench/worker.py --workload table --seed 1 [--trace]

Imports ``heatsphere`` from the checkout's own ``src/``, runs every op in
a closed loop (the next op starts when the previous one has returned and
been checked) and prints one JSON line with the pass's latencies, failures
and, with ``--trace``, per-layer metrics.  ``run.py`` starts one worker per
pass, so the Bernoulli table and ``legendre.gegenbauer_poly``'s cache are
empty at the start of every pass, as they are for every CLI invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402
from tracer import OP_SPAN, Tracer  # noqa: E402

# asympt's --max-dev default; exit 1 means the observed order missed it
ASYMPT_MAX_DEV = 0.2


def calibrate() -> float:
    """Seconds a fixed piece of Fraction arithmetic takes right now.

    The host is shared, and its speed drifts by a fifth over seconds to
    minutes.  Timing this fixed work next to each op measures that drift
    so that ``run.py`` can take it out.  The collector is off so that the
    program's heap size does not leak into the reading.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            acc = Fraction(0)
            for i in range(1, 400):
                acc += Fraction(1, i * i)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def import_heatsphere():
    """Import the package from ``<checkout>/src``, refusing any other copy."""
    if not (SRC / "heatsphere" / "__init__.py").is_file():
        raise SystemExit(f"error: no heatsphere package under {SRC}")
    sys.path.insert(0, str(SRC))
    import heatsphere
    import heatsphere.cli

    resolved = Path(heatsphere.__file__).resolve()
    if SRC.resolve() not in resolved.parents:
        raise SystemExit(f"error: heatsphere resolved to {resolved}, not under {SRC}")
    return heatsphere


def digest(num, den, pi_half) -> str:
    """Short fingerprint of one exact value (num/den) * pi^(pi_half/2)."""
    return hashlib.sha256(f"{num}/{den}/{pi_half}".encode()).hexdigest()[:16]


def load_reference() -> dict:
    with REFERENCE.open() as fh:
        return json.load(fh)


class Pass:
    """Runs and checks ops; keeps the counts a pass reports."""

    def __init__(self, heatsphere, reference: dict) -> None:
        self.hs = heatsphere
        self.reference = reference
        self.failures: dict[str, int] = {}
        self.verdict_fail = 0
        self.bytes_out = 0

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            # looked up per call, so a traced run goes through the wrapper
            code = self.hs.cli.main(argv)
        text = out.getvalue()
        self.bytes_out += len(text.encode())
        return code, text

    def _check(self, op: dict) -> str | None:
        """Run one op; return None if it succeeded, else why it failed."""
        kind = op["kind"]
        if kind == "cell":
            result = self.hs.invariants.heat_invariant(op["n"], op["d"], omega=op["omega"])
            value = result.value
            got = digest(value.coeff.numerator, value.coeff.denominator, value.pi_half)
            return None if got == self.reference["deep"][f"{op['n']},{op['d']}"] else "cell:mismatch"
        code, text = self._cli(op["argv"])
        if kind == "compute":
            if code != 0:
                return f"compute:exit{code}"
            table = self.reference["table"]
            records = [json.loads(line) for line in text.splitlines()]
            if [r["n"] for r in records] != list(range(workloads.TABLE_N + 1)):
                return "compute:rows"
            for r in records:
                v = r["value"]
                if digest(v["num"], v["den"], v["pi_half"]) != table[f"{r['n']},{r['d']}"]:
                    return "compute:mismatch"
            return None
        if kind == "verify":
            return None if code == 0 and text.startswith("PASS ") else f"verify:exit{code}"
        if kind == "asympt":
            if code not in (0, 1):
                return f"asympt:exit{code}"
            record = json.loads(text)
            if (record["d"], record["n_terms"]) != (op["d"], op["n_terms"]):
                return "asympt:echo"
            if code == 1:
                # exit 1 is the program's verdict, not a failed op
                if record["status"] != "ok" or not record["relative_deviation"] > ASYMPT_MAX_DEV:
                    return "asympt:verdict"
                self.verdict_fail += 1
            return None
        raise ValueError(f"unknown op kind {kind!r}")

    def run(self, ops: list[dict], tracer: Tracer | None = None) -> dict:
        latencies = []
        # calibration[i] is taken just before op i, the last one after all
        calibration = [calibrate()]
        failed = 0
        wall_start = time.perf_counter()
        for op in ops:
            span = tracer.open(OP_SPAN) if tracer else None
            start = time.perf_counter()
            try:
                why = self._check(op)
            except Exception as exc:  # a raising op is a failed op, not a crash
                why = f"{op['kind']}:{type(exc).__name__}"
            latencies.append((time.perf_counter() - start) * 1e3)
            if tracer:
                tracer.close(span)
            calibration.append(calibrate())
            if why is not None:
                failed += 1
                self.failures[why] = self.failures.get(why, 0) + 1
        wall = time.perf_counter() - wall_start - sum(calibration[1:])
        return {
            "wall_s": wall,
            "latencies_ms": latencies,
            "calibration_s": calibration,
            "attempted": len(ops),
            "failed": failed,
            "failures": self.failures,
            "verdict_fail": self.verdict_fail,
            "bytes_out": self.bytes_out,
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    heatsphere = import_heatsphere()
    ops = workloads.make_ops(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        result = Pass(heatsphere, load_reference()).run(ops, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    result["module"] = heatsphere.__file__
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["layers"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
