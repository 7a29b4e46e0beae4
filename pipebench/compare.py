#!/usr/bin/env python3
"""Compare two pipebench result files metric by metric.

    python3 pipebench/compare.py .pipebench/results/BEFORE.json .pipebench/results/AFTER.json

Prints each metric of both runs and their ratio (after / before). Refuses,
with exit code 2, to compare runs of different workloads or trace modes, or
runs whose kernel backend or core count differ: a numba run and an
interpreted one differ 10-100x whatever the code change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text()) for p in argv[1:])
    mismatched = [
        (key, before[key], after[key]) for key in ("workload", "trace") if before[key] != after[key]
    ] + [
        (key, before["environment"][key], after["environment"][key])
        for key in ("backend", "nproc")
        if before["environment"][key] != after["environment"][key]
    ]
    if mismatched:
        for key, a, b in mismatched:
            print(f"refusing to compare: {key} {a!r} vs {b!r}", file=sys.stderr)
        return 2
    print(f"{'metric':32s} {'before':>14s} {'after':>14s} {'after/before':>13s}")
    for name, a in before["values"].items():
        b = after["values"][name]
        ratio = f"{b / a:13.4f}" if a else f"{'-':>13s}"
        print(f"{name:32s} {a:14.6g} {b:14.6g} {ratio}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
