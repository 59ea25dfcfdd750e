"""Seeded op lists for the three workloads.

An op is a dict.  ``compute`` and ``verify``/``asympt`` ops are CLI
invocations (``argv`` for ``heatsphere.cli.main``); ``cell`` ops are one
``heat_invariant(n, d, omega)`` call.  The same (workload, seed) always
gives the same list; the program under test sees only these inputs.

Each workload is built so that the seed changes which inputs run and in
what order but hardly changes how much work a pass is.  That keeps runs
with different seeds comparable.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("table", "deep", "verify")

# table: one row a_{0..TABLE_N, d} per op, for every d in 1..TABLE_D
TABLE_N = 32
TABLE_D = 72

# deep: strata of three neighbouring cells; a pass runs one cell of each.
# Every (n, d) is distinct and, across the even and odd cells, every d is
# distinct, so no two cells build the same K-table.
_VARIANTS = 3
# even route, d/2 + 20 <= n <= d; the last stratum takes B_{2n} to 2n = 480
_EVEN = (
    (60, 80), (75, 100), (90, 126), (105, 150), (120, 170),
    (135, 196), (150, 220), (170, 250), (200, 290), (238, 350),
)
# odd route, d in 301..1001, where the K-table dominates
_ODD = (
    (20, 301), (30, 331), (40, 361), (50, 391), (60, 421),
    (50, 461), (40, 511), (30, 581), (20, 701), (10, 997),
)
# general route at omega = 2n, n in 40..80
_GENERAL = (
    (40, 150), (44, 130), (48, 110), (52, 95), (56, 80),
    (60, 65), (64, 50), (68, 40), (72, 30), (78, 20),
)


def _strata() -> list[list[tuple[int, int, int | None]]]:
    """Cells as (n, d, omega); omega is None on the parity routes."""
    strata = [[(n + i, d + 2 * i, None) for i in range(_VARIANTS)] for n, d in _EVEN + _ODD]
    strata += [[(n + i, d + i, 2 * (n + i)) for i in range(_VARIANTS)] for n, d in _GENERAL]
    return strata


def deep_pool() -> list[tuple[int, int, int | None]]:
    """Every cell the deep workload can draw, as (n, d, omega)."""
    return [cell for stratum in _strata() for cell in stratum]


# verify: the asympt probes are the slots of a Fibonacci lattice over
# d x log t0, one probe drawn inside each slot.  Every probe gets its own d
# and its own t0, spread evenly over the whole parameter square, including
# the region where asympt overflows.  A pass's cost is dominated by a few
# small-t0 probes, and a probe's cost grows steeply with d: independent
# draws over the whole square made it vary by a fifth from seed to seed,
# and one shift shared by all probes by a tenth.
ASYMPT_D = (1, 160)
ASYMPT_T0 = (2e-4, 5e-2)
ASYMPT_N_TERMS = (1, 5)
_PROBES, _LATTICE_STEP = 55, 34  # consecutive Fibonacci numbers


def _verify_targets(rng: random.Random) -> list[list[str]]:
    """One argv per verify target, at a box at or above its bound.

    The seed varies only the boxes of the targets too cheap to reach the
    median op; any other box change moves an op across the tail
    percentile.
    """
    return [
        ["verify", "s1", "--n", "1..5", "--offset=0..4"],
        ["verify", "s1g", "--n", "1..5", "--offset=0..4"],
        ["verify", "s3", "--n", "1..5", f"--offset={rng.randint(0, 1)}..3"],
        ["verify", "vychet", "--j-max", str(rng.randint(10, 12))],
        ["verify", "lemmas"],
        ["verify", "bernoulli-link", "--t-max", str(rng.randint(8, 12))],
        ["verify", "legendre"],
        ["verify", "crosscheck"],
        ["verify", "omega-stability"],
        ["verify", "sharpness"],
    ]


def _asympt_probes(rng: random.Random) -> list[dict]:
    d_lo, d_hi = ASYMPT_D
    log_lo, log_hi = math.log(ASYMPT_T0[0]), math.log(ASYMPT_T0[1])
    n_lo, n_hi = ASYMPT_N_TERMS
    probes = []
    for k in range(_PROBES):
        d = d_lo + int((k + rng.random()) / _PROBES * (d_hi - d_lo + 1))
        u = (k * _LATTICE_STEP % _PROBES + rng.random()) / _PROBES
        t0 = float(f"{math.exp(log_lo + u * (log_hi - log_lo)):.4g}")
        # n_terms sets the cost of every probe, even one that overflows,
        # so it is fixed per probe rather than drawn
        n_terms = n_lo + k % (n_hi - n_lo + 1)
        argv = ["asympt", "--d", str(d), "--n-terms", str(n_terms), "--t0", repr(t0)]
        probes.append({"kind": "asympt", "argv": argv, "d": d, "n_terms": n_terms})
    return probes


def make_ops(workload: str, seed: int) -> list[dict]:
    """The fixed op list of one workload for one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table":
        ds = list(range(1, TABLE_D + 1))
        rng.shuffle(ds)
        return [
            {"kind": "compute", "argv": ["compute", "--n", f"0..{TABLE_N}", "--d", str(d)], "d": d}
            for d in ds
        ]
    if workload == "deep":
        ops = [
            {"kind": "cell", "n": n, "d": d, "omega": omega}
            for n, d, omega in (rng.choice(stratum) for stratum in _strata())
        ]
        rng.shuffle(ops)
        # Even cells keep ascending n, so each one extends the Bernoulli
        # table by the same stretch whatever the seed.
        is_even = [op["omega"] is None and op["d"] % 2 == 0 for op in ops]
        even = iter(sorted((op for op, e in zip(ops, is_even) if e), key=lambda op: op["n"]))
        return [next(even) if e else op for op, e in zip(ops, is_even)]
    if workload == "verify":
        ops = [{"kind": "verify", "argv": argv} for argv in _verify_targets(rng)]
        ops += _asympt_probes(rng)
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
