"""Span tracing around the public functions of each heatsphere module.

``Tracer.install`` replaces each traced function at every module binding
that calls it (``from .x import f`` makes a separate binding per module)
with a wrapper that records a span: name, start, end and parent.  Spans
stay in memory until the run ends; ``layer_metrics`` reduces them to
per-layer counts and self times.  Nothing under ``src/`` changes, and
``uninstall`` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import time

# layer name -> the module bindings that hold the function.  The first
# entry's module defines it; the others imported it by name.
LAYERS = {
    "cli.main": [("cli", "main")],
    "invariants.heat_invariant": [("invariants", "heat_invariant"), ("asymptotics", "heat_invariant")],
    "invariants.route.odd": [("invariants", "heat_invariant_odd")],
    "invariants.route.even": [("invariants", "heat_invariant_even")],
    "invariants.route.general": [("invariants", "heat_invariant_general")],
    "invariants.k_table": [("invariants", "k_table_odd"), ("invariants", "k_table_even")],
    "exactnum.bernoulli": [("exactnum", "bernoulli"), ("invariants", "bernoulli"), ("opercalc", "bernoulli")],
    "spectrum.multiplicity": [
        ("spectrum", "multiplicity"),
        ("invariants", "multiplicity"),
        ("asymptotics", "multiplicity"),
        ("legendre", "multiplicity"),
    ],
    "asymptotics.heat_trace_numeric": [("asymptotics", "heat_trace_numeric")],
    "identities.verify_identity": [("identities", "verify_identity")],
    "opercalc.verify_lemmas": [("opercalc", "verify_lemmas")],
    "opercalc.check_bernoulli_link": [("opercalc", "check_bernoulli_link")],
    "legendre.verify_expansion": [("legendre", "verify_expansion")],
    "invariants.verify_sweeps": [
        ("invariants", "verify_crosscheck"),
        ("invariants", "verify_omega_stability"),
        ("invariants", "verify_sharpness"),
    ],
}

# layers whose spans return a VerificationReport
_SWEEPS = (
    "identities.verify_identity",
    "opercalc.verify_lemmas",
    "opercalc.check_bernoulli_link",
    "legendre.verify_expansion",
    "invariants.verify_sweeps",
)

# root span the benchmark opens around each op; its self time is the
# benchmark's own work (output capture and checking)
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1); end is None while open
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.bernoulli_max_index = -1
        self.k_table_args: list[tuple[str, int]] = []
        self.result_bits: list[int] = []
        self.terms_summed = 0
        self.points_checked = 0

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, module_name: str, attr: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            self._count(name, module_name, attr, args, result)
            return result

        return wrapper

    def _count(self, name, module_name, attr, args, result) -> None:
        if name == "exactnum.bernoulli":
            self.bernoulli_max_index = max(self.bernoulli_max_index, args[0])
        elif name == "invariants.k_table":
            self.k_table_args.append((attr, args[0]))
        elif name == "invariants.heat_invariant":
            coeff = result.value.coeff
            self.result_bits.append(coeff.numerator.bit_length() + coeff.denominator.bit_length())
        elif name == "spectrum.multiplicity" and module_name == "asymptotics":
            self.terms_summed += 1
        elif name in _SWEEPS:
            self.points_checked += result.points_checked

    def install(self) -> None:
        for name, bindings in LAYERS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(f"heatsphere.{module_name}")
                func = getattr(module, attr)
                self._originals.append((module, attr, func))
                setattr(module, attr, self._wrap(name, module_name, attr, func))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._originals):
            setattr(module, attr, func)
        self._originals.clear()

    def self_times(self) -> dict[str, float]:
        """Span duration minus the time its direct children cover, per name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] = totals.get(name, 0.0) + (end - start) - covered
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times over every span recorded so far."""
        calls: dict[str, int] = {}
        for span in self.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        self_s = self.self_times()
        # sweeps never call each other, so their spans do not overlap
        sweep_s = sum(end - start for name, start, end, _ in self.spans if name in _SWEEPS)
        k_calls = len(self.k_table_args)
        metrics = {
            "exactnum.bernoulli.calls": calls.get("exactnum.bernoulli", 0),
            "exactnum.bernoulli.self_s": self_s.get("exactnum.bernoulli", 0.0),
            "exactnum.bernoulli.max_index": max(self.bernoulli_max_index, 0),
            "invariants.k_table.calls": k_calls,
            "invariants.k_table.self_s": self_s.get("invariants.k_table", 0.0),
            "invariants.k_table.distinct_ratio": (
                len(set(self.k_table_args)) / k_calls if k_calls else 0.0
            ),
            "invariants.heat_invariant.calls": calls.get("invariants.heat_invariant", 0),
            "invariants.heat_invariant.self_s": self_s.get("invariants.heat_invariant", 0.0),
            "invariants.result_bits.max": max(self.result_bits, default=0),
            "invariants.result_bits.sum": sum(self.result_bits),
            "spectrum.multiplicity.calls": calls.get("spectrum.multiplicity", 0),
            "spectrum.multiplicity.self_s": self_s.get("spectrum.multiplicity", 0.0),
            "asymptotics.heat_trace_numeric.calls": calls.get("asymptotics.heat_trace_numeric", 0),
            "asymptotics.heat_trace_numeric.self_s": self_s.get("asymptotics.heat_trace_numeric", 0.0),
            "asymptotics.terms_summed": self.terms_summed,
            "verification.points_checked": self.points_checked,
            "verification.points_per_s": self.points_checked / sweep_s if sweep_s else 0.0,
            "cli.main.self_s": self_s.get("cli.main", 0.0),
        }
        for route in ("odd", "even", "general"):
            metrics[f"invariants.route.{route}.self_s"] = self_s.get(f"invariants.route.{route}", 0.0)
        for name in _SWEEPS:
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
        return metrics
