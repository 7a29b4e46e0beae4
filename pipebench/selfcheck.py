#!/usr/bin/env python3
"""Quick self-check of the pipeline benchmark.

    python3 pipebench/selfcheck.py

Runs every workload named in BENCHMARK.json at smoke-test size
(``run.py --quick``), once untraced and twice traced, and checks that each
run prints every metric named in BENCHMARK.json with its unit, attempts at
least one operation and fails none, and that the two traced runs report the
same work counts. It then checks that run.py refuses to run, printing no
result, in a directory that holds only BENCHMARK.json and the benchmark.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "pipebench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    problems = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        traced_counts = []
        for trace, kind in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"{label}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{label}: metrics {got} != BENCHMARK.json {expected}")
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)) and m["value"] == m["value"], f"{label}: {name} = {m['value']!r}")
            check(result["attempted"] >= 1, f"{label}: attempted {result['attempted']}")
            check(result["failed"] == 0 and result["correct"] is True, f"{label}: failed_ratio {result['failed']}/{result['attempted']}")
            if trace:
                traced_counts.append({name: result["metrics"][name]["value"] for name in counts if name in result["metrics"]})
        check(len(traced_counts) == 2 and traced_counts[0] == traced_counts[1], f"{workload}: work counts differ between runs: {traced_counts}")

    bare = ROOT / ".pipebench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "pipebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    check(proc.returncode != 0 and not proc.stdout.strip(), f"run.py without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
