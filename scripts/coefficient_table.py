#!/usr/bin/env python3
"""Print a markdown table of heat-trace coefficients a(n, d), one column per d.

Each column is one `heat_invariant_row`.  For machine-readable output use
`heatsphere compute --n 0..N --d 1..D --format csv`.
"""

import argparse
import sys

from heatsphere.cli import tolerate_closed_stdout
from heatsphere.invariants import heat_invariant_row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-d", type=int, default=8)
    args = parser.parse_args()
    if args.max_n < 0 or args.max_d < 1:
        parser.error("need --max-n >= 0 and --max-d >= 1")

    dims = range(1, args.max_d + 1)
    columns = [heat_invariant_row(range(args.max_n + 1), d) for d in dims]
    header = ["n \\ d"] + [str(d) for d in dims]
    rows = [[str(n)] + [str(column[n].value) for column in columns] for n in range(args.max_n + 1)]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    with tolerate_closed_stdout():
        print(" | ".join(h.ljust(w) for h, w in zip(header, widths)))
        print("-|-".join("-" * w for w in widths))
        for row in rows:
            print(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
