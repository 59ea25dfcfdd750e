#!/usr/bin/env python3
"""Run every exact verification sweep plus the numeric cross-checks.

One line per suite; exits nonzero if anything fails.  This is
`heatsphere verify <target>` for every target in `heatsphere.cli.SUITES`,
each at its default box.  If the reader of stdout leaves early, every
suite still runs, with its output discarded.
"""

import sys
import time

from heatsphere.asymptotics import MAX_DEVIATION, remainder_order
from heatsphere.cli import SUITES, tolerate_closed_stdout


def main() -> int:
    failures = 0
    for name, (runner, _) in SUITES.items():
        start = time.perf_counter()
        report = runner()
        elapsed = time.perf_counter() - start
        status = "PASS" if report.passed else "FAIL"
        with tolerate_closed_stdout():
            print(f"{status} {name}: {report.points_checked} points in {elapsed:.2f}s")
            for witness in report.failures:
                params = ", ".join(f"{k}={v}" for k, v in witness.parameters.items())
                print(f"  witness {params}: computed {witness.computed}, expected {witness.expected}")
        if not report.passed:
            failures += 1

    for d in (2, 3, 5):
        for n_terms in (2, 3, 4):
            est = remainder_order(d, n_terms)
            ok = est.status == "ok" and est.relative_deviation < MAX_DEVIATION
            status = "PASS" if ok else "FAIL"
            with tolerate_closed_stdout():
                print(
                    f"{status} asympt d={d} n_terms={n_terms}: status={est.status} "
                    f"observed={est.observed_order:.4f} expected={est.expected_order}"
                )
            if not ok:
                failures += 1

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
