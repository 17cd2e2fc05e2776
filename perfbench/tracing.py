"""Per-layer tracing from outside the program.

Each layer is wrapped exactly once, at the attribute its caller resolves
at call time, and the originals are restored when tracing ends.  Spans
nest on one stack (the benchmark runs one client on one thread), so a
span's self time is its duration minus the time of the spans it
directly encloses.  Spans are folded into per-name totals as they close
instead of being kept one by one: the cost callbacks alone open 31,250
spans per ``mcot-wide`` op.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    """Span totals, self times and call counts, keyed by span name."""

    def __init__(self):
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.lp_iterations = 0
        self.subproblem_shapes = 0   # distinct one-step shapes, summed over ops
        self._op_shapes: set = set()
        self._stack: list[list[float]] = []   # per open span: [time of child spans]

    def wrap(self, name: str, fn, after=None):
        """``fn`` with a span named ``name`` around every call; ``after``,
        if given, sees each call's ``(args, kwargs, result)``."""

        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.total_s[name] += elapsed
                self.self_s[name] += elapsed - children[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def traced_cli(self, run):
        """``run`` (the CLI entry point) as the root span of one op."""
        traced = self.wrap("cli", run)

        def op(argv):
            try:
                return traced(argv)
            finally:
                self.subproblem_shapes += len(self._op_shapes)
                self._op_shapes.clear()

        return op

    def _count_iterations(self, _args, _kwargs, res) -> None:
        self.lp_iterations += int(getattr(res, "nit", 0) or 0)

    def _record_shape(self, args, kwargs, _result) -> None:
        cost = kwargs["cost"] if "cost" in kwargs else args[1]
        self._op_shapes.add(tuple(np.shape(cost)))


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    import treeot.cli
    import treeot.costs
    import treeot.lp
    import treeot.matching
    import treeot.multicausal

    w = tracer.wrap
    tree_cls = treeot.cli.ScenarioTree
    lp_sum = treeot.costs.lp_sum

    def traced_lp_sum(*args, **kwargs):
        # ``parse_cost_spec`` calls ``lp_sum`` too; wrapping only the
        # callable it returns times every cost evaluation exactly once.
        return w("costs", lp_sum(*args, **kwargs))

    patches = [
        # trees: tree files (awdist, mcot) and inline trees (match)
        (treeot.cli, "load_tree", w("trees.load", treeot.cli.load_tree)),
        (treeot.cli, "ScenarioTree", type(tree_cls.__name__, (tree_cls,), {
            "from_levels": staticmethod(w("trees.load", tree_cls.from_levels)),
        })),
        (treeot.costs, "lp_sum", traced_lp_sum),
        (treeot.multicausal, "mc_dpp", w("multicausal.dpp", treeot.multicausal.mc_dpp)),
        (treeot.multicausal, "brute_force_mcot",
         w("multicausal.oracle", treeot.multicausal.brute_force_mcot)),
        (treeot.multicausal, "verify_multicausal",
         w("multicausal.verify", treeot.multicausal.verify_multicausal)),
        (treeot.multicausal, "multimarginal_ot",
         w("lp.mmot", treeot.multicausal.multimarginal_ot, after=tracer._record_shape)),
        (treeot.lp, "solve_lp", w("lp.solve", treeot.lp.solve_lp)),
        (treeot.lp, "linprog",
         w("lp.highs", treeot.lp.linprog, after=tracer._count_iterations)),
        (treeot.matching, "solve_matching",
         w("matching.solve", treeot.matching.solve_matching)),
        (treeot.matching, "causal_barycenter",
         w("barycenters.causal", treeot.matching.causal_barycenter)),
        (treeot.matching, "verify_equilibrium",
         w("matching.verify", treeot.matching.verify_equilibrium)),
        (treeot.matching, "best_response",
         w("matching.best_response", treeot.matching.best_response)),
        (treeot.matching, "complementary_slackness",
         w("matching.slackness", treeot.matching.complementary_slackness)),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, fn in patches:
            setattr(module, attr, fn)
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


#: units of the per-op layer metrics that are not in seconds
LAYER_UNITS = {
    "multicausal.subproblems": "count",
    "multicausal.subproblem_shapes": "count",
    "lp.solves": "count",
    "lp.iterations": "count",
    "costs.calls": "count",
    "matching.best_responses": "count",
    "cli.report_bytes": "bytes",
}


def layer_metrics(tracer: Tracer, ops: int, report_bytes: int) -> dict[str, float]:
    """Per-op layer metrics from a tracer that saw ``ops`` whole CLI runs."""
    s, own, n = tracer.total_s, tracer.self_s, tracer.calls
    values = {
        "multicausal.dpp_self_s": own["multicausal.dpp"],
        "multicausal.subproblems": n["lp.mmot"],
        "multicausal.subproblem_shapes": tracer.subproblem_shapes,
        "lp.build_s": own["lp.mmot"],
        "lp.solves": n["lp.highs"],
        "lp.iterations": tracer.lp_iterations,
        "lp.highs_s": s["lp.highs"],
        "lp.check_s": own["lp.solve"],
        "costs.calls": n["costs"],
        "costs.s": s["costs"],
        "multicausal.oracle_self_s": own["multicausal.oracle"],
        "multicausal.verify_s": s["multicausal.verify"],
        "barycenters.causal_self_s": own["barycenters.causal"],
        "matching.solve_self_s": own["matching.solve"],
        "matching.best_responses": n["matching.best_response"],
        "matching.best_response_self_s": own["matching.best_response"],
        "matching.verify_self_s": own["matching.verify"],
        "matching.slackness_s": s["matching.slackness"],
        "cli.self_s": own["cli"],
        "cli.report_bytes": report_bytes,
        "trees.load_s": s["trees.load"],
    }
    return {name: v / ops for name, v in values.items()}
