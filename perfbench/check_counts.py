"""Self-check of the traced run: its counts repeat exactly for one seed.

    python3 perfbench/check_counts.py

Runs ``run.py --trace 1`` twice per workload, at seed ``SEED`` for
``SECONDS`` each, and exits 1 unless both runs pass every correctness
check and report identical per-op counts.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
COUNTS = (
    "lp.solves",
    "lp.iterations",
    "costs.calls",
    "multicausal.subproblems",
    "multicausal.subproblem_shapes",
    "matching.best_responses",
    "cli.report_bytes",
)
WORKLOADS = ("aw-deep", "mcot-wide", "market")
SEED = 7
SECONDS = 1.0


def traced_run(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_run(workload) for _ in range(2))
        for run in (first, second):
            if not run["correct"]:
                print(f"{workload}: {run['failed']} of {run['attempted']} ops failed")
                ok = False
        for name in COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"{workload} {name}: {a!r} {'==' if same else '!='} {b!r}")
    print("counts repeat exactly" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
