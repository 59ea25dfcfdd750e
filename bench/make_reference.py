"""Write reference.json: a digest of every value the benchmark checks.

    python3 bench/make_reference.py

The digests were recorded once, at the commit that introduced the
benchmark, and are what every later commit is checked against: the exact
values must never change.  Rerun this only to extend the table box or the
deep pool, never to absorb a changed value.
"""

from __future__ import annotations

import json

import workloads
from worker import REFERENCE, digest, import_heatsphere


def main() -> None:
    hs = import_heatsphere()

    def fingerprint(n: int, d: int, omega: int | None) -> str:
        value = hs.invariants.heat_invariant(n, d, omega=omega).value
        return digest(value.coeff.numerator, value.coeff.denominator, value.pi_half)

    reference = {
        "table": {
            f"{n},{d}": fingerprint(n, d, None)
            for d in range(1, workloads.TABLE_D + 1)
            for n in range(workloads.TABLE_N + 1)
        },
        "deep": {f"{n},{d}": fingerprint(n, d, omega) for n, d, omega in workloads.deep_pool()},
    }
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
