"""treeot benchmark: certified solves through the public CLI entry point.

    python3 perfbench/run.py --workload aw-deep --seed 1 --seconds 30 --trace 0

Run from the repository root.  Generates the workload's instances from
``--seed``, computes reference values with ``treeot.brute_force_mcot``
in a child process (``reference.py``), then drives ``treeot.cli.run(argv)``
in-process in a closed loop with one client, round-robin over the
instances, until ``--seconds`` have passed and at least ``MIN_OPS`` ops
are done.  Every op is checked.  ``TREEOT_THREADS`` is removed from the
environment, so the program runs one worker.

``--trace 0`` prints the end-to-end metrics, with the gated timings at
reference speed (see ``calibration.py``); ``--trace 1`` runs half the
time untraced and half with every layer wrapped (see ``tracing.py``) and
prints per-op layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 if any op
failed.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import instances as gen
import tracing
from calibration import REF_KERNEL_S, Kernel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_run"        # relative to ROOT; listed in .gitignore

#: instances per run; each is solved several times in a run
INSTANCES = {"aw-deep": 4, "mcot-wide": 3, "market": 6}
#: the tail percentile needs at least 10 samples beyond it
MIN_OPS = 11
#: treeot launches measured for setup_s, each between two base launches
SETUP_REPEATS = 5
#: nominal time of a base launch: setup_s is in seconds at a machine speed
#: where a base launch takes exactly this long
REF_LAUNCH_S = 0.7
REL_TOL = 1e-8

#: a base launch imports only treeot's dependencies, so no change to the
#: program can change it
_BASE_CODE = "import numpy, scipy.optimize, scipy.sparse"
_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import treeot
for path in sys.argv[3:]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if sys.argv[2] == "market":
        doc = json.loads(raw)
        for tree in [doc["principal"]["tree"], *(a["tree"] for a in doc["agents"]), doc["tasks"]]:
            treeot.ScenarioTree.from_levels(tree["levels"])
    else:
        treeot.load_tree(raw)
"""


class Checker:
    """Per-op correctness gate; remembers each instance's values block."""

    def __init__(self, workload: str, references: list[float | None]):
        self.workload = workload
        self.references = references
        self.values_seen: dict[int, str] = {}

    def check(self, k: int, report_path: str) -> str | None:
        """None if the report of an op on instance ``k`` passes, else why not."""
        with open(report_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        values = report["values"]
        block = json.dumps(values, sort_keys=True)
        if self.values_seen.setdefault(k, block) != block:
            return "values block differs from an earlier run of the same instance"
        if self.workload == "market":
            ver = report["verification"]
            if values["equilibrium_ok"] is not True:
                return "equilibrium_ok is false"
            if not ver["min_dual_slack"] >= -REL_TOL:
                return f"min_dual_slack {ver['min_dual_slack']!r}"
            if not ver["worst_support_slack"] <= REL_TOL:
                return f"worst_support_slack {ver['worst_support_slack']!r}"
            return None
        ref = self.references[k]
        tol = REL_TOL * (1 + abs(ref))
        if not abs(values["dpp_value"] - ref) <= tol:
            return f"dpp_value {values['dpp_value']!r} != reference {ref!r}"
        if not values["duality_gap"] <= tol:
            return f"duality_gap {values['duality_gap']!r}"
        if self.workload == "mcot-wide" and report["verification"]["multicausal"] is not True:
            return "coupling fails the multicausality check"
        return None


def references(workload: str, instances: list[dict]) -> list[float | None]:
    """Oracle values, one brute-force LP per instance, solved in a child
    process so that they stay out of this process's peak memory."""
    if workload == "market":
        return [None] * len(instances)
    files = json.dumps([inst["files"] for inst in instances])
    out = subprocess.run(
        [sys.executable, "-I", os.path.join(HERE, "reference.py"), SRC, files],
        check=True, capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    return json.loads(out.stdout)


def launch(argv: list[str]) -> float:
    """Wall seconds of one child process from start to exit."""
    start = time.perf_counter()
    subprocess.run(argv, check=True, timeout=120, cwd=ROOT)
    return time.perf_counter() - start


def measure_setup(workload: str, instances: list[dict]) -> float:
    """Median reference-speed time of a fresh interpreter importing treeot
    and loading every instance file of the workload.  Each such launch is
    scaled by ``REF_LAUNCH_S`` over the mean time of the base launches
    just before and just after it, as calibration.py scales ops."""
    files = [path for inst in instances for path in inst["files"]]
    argv = [sys.executable, "-I", "-c", _SETUP_CODE, SRC, workload, *files]
    base = [sys.executable, "-I", "-c", _BASE_CODE]
    times = []
    before = launch(base)
    for _ in range(SETUP_REPEATS):
        elapsed = launch(argv)
        after = launch(base)
        times.append(elapsed * 2 * REF_LAUNCH_S / (before + after))
        before = after
    return statistics.median(times)


@dataclass
class Window:
    """What one timed loop measured."""

    times: list[float]          # wall seconds of each passed CLI run
    ref_times: list[float]      # the same at reference speed (calibrated loops only)
    ops: int                    # ops attempted, passed or not
    seconds: float              # wall time of the whole loop


class Loop:
    """Closed loop, one client: the next op starts when the last one ends."""

    def __init__(self, run_cli, instances: list[dict], checker: Checker, report_path: str):
        self.run_cli = run_cli
        self.instances = instances
        self.checker = checker
        self.report_path = report_path
        self.attempted = 0
        self.failed = 0
        self.report_bytes = 0

    def op(self, k: int) -> tuple[float, bool]:
        """Solve instance ``k`` once; (wall seconds of the CLI run, passed)."""
        argv = [*self.instances[k]["argv"], "--output", self.report_path]
        if os.path.exists(self.report_path):
            os.remove(self.report_path)
        gc.collect()
        start = time.perf_counter()
        try:
            rc = self.run_cli(argv)
        except SystemExit as exc:       # argparse rejects argv this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:        # an escaping exception is a failed op
            rc = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if rc == 0:
            try:
                self.report_bytes += os.path.getsize(self.report_path)
                reason = self.checker.check(k, self.report_path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable report: {exc!r}"
        else:
            reason = f"exit {rc}"
        if reason is not None:
            self.failed += 1
            print(f"perfbench: op on instance {k} failed: {reason}", file=sys.stderr)
        return elapsed, reason is None

    def run(self, seconds: float, min_ops: int, whole_rounds: bool = False,
            kernel=None) -> Window:
        """Ops until ``seconds`` have passed and ``min_ops`` are done (with
        ``whole_rounds``, also until every instance has had the same number
        of ops).  Only passed ops are timed samples.  A calibration
        ``kernel`` is timed before the first op and after every op; each op
        is scaled by the mean of the two kernel times around it (see
        calibration.py)."""
        window = Window([], [], 0, 0.0)
        n = len(self.instances)
        start = time.perf_counter()
        before = kernel.seconds() if kernel else None
        while (time.perf_counter() - start < seconds or window.ops < min_ops
               or (whole_rounds and window.ops % n)):
            elapsed, ok = self.op(window.ops % n)
            window.ops += 1
            if ok:
                window.times.append(elapsed)
            if kernel:
                after = kernel.seconds()
                if ok:
                    window.ref_times.append(elapsed * 2 * REF_KERNEL_S / (before + after))
                before = after
        window.seconds = time.perf_counter() - start
        return window


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that has
    at least 10 samples beyond it."""
    rank = len(times) - 10
    return sorted(times)[rank - 1], 100.0 * rank / len(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(INSTANCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "treeot", "__init__.py")):
        print(f"perfbench: no treeot sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.environ.pop("TREEOT_THREADS", None)
    sys.path.insert(0, SRC)
    import treeot.cli

    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        insts = gen.generate(args.workload, args.seed, INSTANCES[args.workload], workdir)
        kernel = Kernel()
        setup_s = None if args.trace else measure_setup(args.workload, insts)
        checker = Checker(args.workload, references(args.workload, insts))
        report_path = os.path.join(workdir, "report.json")
        loop = Loop(treeot.cli.run, insts, checker, report_path)
        if args.trace:
            untraced = loop.run(args.seconds / 2, 1, whole_rounds=True)
            tracer = tracing.Tracer()
            traced_loop = Loop(tracer.traced_cli(treeot.cli.run), insts, checker, report_path)
            with tracing.instrumented(tracer):
                traced = traced_loop.run(args.seconds / 2, 1, whole_rounds=True)
            metrics = tracing.layer_metrics(tracer, traced.ops, traced_loop.report_bytes)
            metrics["trace.overhead_instances_per_s"] = (
                len(traced.times) / traced.seconds - len(untraced.times) / untraced.seconds)
            attempted = loop.attempted + traced_loop.attempted
            failed = loop.failed + traced_loop.failed
            units = {name: tracing.LAYER_UNITS.get(name, "s") for name in metrics}
            units["trace.overhead_instances_per_s"] = "1/s"
        else:
            w = loop.run(args.seconds, MIN_OPS, kernel=kernel)
            attempted, failed = loop.attempted, loop.failed
            if failed:
                print(f"perfbench: {failed} of {attempted} ops failed; no timings reported",
                      file=sys.stderr)
                print(json.dumps({"correct": False, "attempted": attempted,
                                  "failed": failed, "metrics": {}}))
                return 1
            wall_tail, pct = tail(w.times)
            ref_tail, _ = tail(w.ref_times)
            scale = statistics.median(r / t for r, t in zip(w.ref_times, w.times))
            n = len(w.times)
            print(f"{args.workload}: {n} timed ops in {w.seconds:.1f} s; each tail is "
                  f"p{pct:.1f} of {n} samples; median reference-speed scale {scale}")
            print(f"failed_frac = {failed / attempted} (of {attempted} ops)")
            print(f"instances_per_s = {n / w.seconds} 1/s (wall clock)")
            print(f"solve_s.p50 = {statistics.median(w.times)} s (wall clock)")
            print(f"solve_s.tail = {wall_tail} s (wall clock)")
            metrics = {
                "ref_instances_per_s": n / sum(w.ref_times),
                "ref_solve_s.p50": statistics.median(w.ref_times),
                "ref_solve_s.tail": ref_tail,
                "setup_s": setup_s,
                # the kernel's array is resident from before the first op to
                # the end, so it adds exactly its size to the peak
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                - kernel.array.nbytes / 1024) / 1024,
            }
            units = {"ref_instances_per_s": "1/s", "ref_solve_s.p50": "s",
                     "ref_solve_s.tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
