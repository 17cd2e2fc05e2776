"""Command-line interface.

One command per process invocation; reports are emitted as JSON (or a
terse text rendering) with a versioned schema.  Identical configurations
on identical inputs produce byte-identical JSON reports: solves are
deterministic, serialisation order is fixed, and wall-clock timing is
only included when explicitly requested with ``--timing``.

Exit codes: 0 success, 2 validation error, 3 budget refusal, 4 solver
failure.
"""
from __future__ import annotations

import argparse
import base64
import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import barycenters as bary
from . import costs as costs_mod
from . import lp as lp_mod
from . import matching as matching_mod
from . import multicausal as mc
from .errors import BudgetExceededError, SolverFailureError, ValidationError
from .trees import ScenarioTree, load_tree, tree_document

SCHEMA = "4"

EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_SOLVER = 4


@dataclass(frozen=True)
class RunConfig:
    """Echoed into every report; validated before dispatch."""

    command: str
    inputs: tuple[str, ...]
    cost: str | None
    tolerance: float | None  # verify-coupling's --tol; None for every other command
    budget: int
    output: str | None
    format: str

    def __post_init__(self):
        if self.tolerance is not None and not (math.isfinite(self.tolerance)
                                               and self.tolerance > 0):
            raise ValidationError(
                f"tolerance must be finite and positive, got {self.tolerance!r}"
            )
        if self.budget < 1:
            raise ValidationError(f"budget must be at least 1, got {self.budget!r}")


def _config_of(args) -> RunConfig:
    inputs = []
    for field in ("trees", "tasks", "instance", "coupling", "grid"):
        value = getattr(args, field, None)
        if isinstance(value, str):
            inputs.append(value)
        elif value:
            inputs.extend(value)
    return RunConfig(
        command=args.command,
        inputs=tuple(inputs),
        cost=getattr(args, "cost", None),
        tolerance=getattr(args, "tol", None),
        budget=args.budget,
        output=args.output,
        format=args.format,
    )


@contextlib.contextmanager
def _reading(what: str, path: str):
    """Report a failed read or parse of input ``path`` as a ValidationError."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path!r} is not valid JSON: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"malformed {what} {path!r}: missing key {exc}") from None
    except TypeError as exc:
        raise ValidationError(f"malformed {what} {path!r}: {exc}") from None


def _read_json(what: str, path: str):
    with _reading(what, path), open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_tree(path: str) -> ScenarioTree:
    with _reading("tree file", path), open(path, "rb") as fh:
        return load_tree(fh.read())


def _read_cost(spec: str) -> costs_mod.Cost:
    """The cost named by ``spec``.  A ``tensor:FILE`` (``.npy`` or JSON)
    is the table itself and must have one axis per tree over that tree's
    leaves; it is read, once, only when the solver asks for it, so a
    budget refusal reads none of it."""
    kind, _, path = spec.partition(":")
    if kind != "tensor":
        with _reading("cost", spec):
            return costs_mod.parse_cost_spec(spec)

    def tensor_cost(trees):
        leaves = tuple(t.n_leaves for t in trees)
        with _reading("cost tensor", path):
            if path.endswith(".npy"):
                # a memory map checks the header and the file size before any data is read
                tensor = np.lib.format.open_memmap(path, mode="r")
            else:
                tensor = np.asarray(_read_json("cost tensor", path), dtype=float)
            if tensor.shape != leaves:
                raise ValidationError(f"cost tensor {path!r} has shape {tensor.shape}, "
                                      f"expected the leaf counts {leaves}")
            # out of the memory map into memory; a JSON tensor is already a float array
            return tensor.astype(float, casting="same_kind", copy=isinstance(tensor, np.memmap))
    return tensor_cost


def _parse_separable_cost(spec) -> bary.SeparableCost:
    """Cost descriptors: {"kind": "power", "p": 2, "weight": w} or matrices."""
    if isinstance(spec, bary.SeparableCost):
        return spec
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValidationError(f"cannot parse cost descriptor {spec!r}")
    if spec["kind"] == "power":
        return bary.PowerCost(
            weight=float(spec.get("weight", 1.0)), exponent=float(spec.get("p", 2.0))
        )
    if spec["kind"] == "matrix":
        return bary.TableCost(
            [(tbl["x"], tbl["y"], np.asarray(tbl["c"], dtype=float))
             for tbl in spec["tables"]]
        )
    raise ValidationError(f"unknown cost kind {spec['kind']!r}")


def _parse_power_spec(spec: str, n: int) -> list[bary.SeparableCost]:
    """Per-process separable costs from ``power:p[:w1,...,wN]`` or the JSON
    form ``{"kind": "power", "p": 2, "weights": [...]}``."""
    with _reading("cost", spec):
        if spec.lstrip().startswith("{"):
            doc = json.loads(spec)
            if doc.get("kind") != "power":
                raise ValidationError(f"unsupported separable cost spec {spec!r}")
            p = float(doc.get("p", 2.0))
            weights = [float(w) for w in doc.get("weights", [1.0] * n)]
        else:
            kind, _, rest = spec.partition(":")
            if kind != "power":
                raise ValidationError(f"unsupported separable cost spec {spec!r}")
            p_str, _, w_str = rest.partition(":")
            p = float(p_str) if p_str else 2.0
            weights = [float(w) for w in w_str.split(",")] if w_str else [1.0] * n
        if len(weights) != n:
            raise ValidationError(f"expected {n} weights in {spec!r}")
        return [bary.PowerCost(weight=w, exponent=p) for w in weights]


def _emit(report: dict, args) -> None:
    if args.timing:
        report["timing"] = {"seconds": time.perf_counter() - args._t0}
    report["solver"] = {
        "corner_blocks": lp_mod.stats.corner_blocks,
        "lp_solves": lp_mod.stats.solves,
        "lp_iterations": lp_mod.stats.iterations,
        "transport_pivots": lp_mod.stats.transport_pivots,
        "transport_blocks": lp_mod.stats.transport_blocks,
    }
    if args.format == "json":
        # no indent: an indent forces json's pure-Python encoder
        text = json.dumps(report, sort_keys=True)
    else:
        lines = [f"{k} = {v}" for k, v in sorted(_flatten(report).items())]
        text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flatten(obj, prefix=""):
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        out[prefix.rstrip(".")] = json.dumps(obj)
    else:
        out[prefix.rstrip(".")] = obj
    return out


def _b64(a: np.ndarray) -> str:
    """Base64 of the C-order little-endian float64 bytes of ``a``: the
    form of every certificate array, exact by construction."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _certificate_json(coupling: mc.MulticausalCoupling, cert: mc.DualCertificate) -> dict:
    """A plan and its certificate.  Every float array is in the
    :func:`_b64` form, its shape given by the id lists next to it: the
    plan's atoms in its own order, as one list of leaf indices per tree
    (into that tree's potential ids) and their weights; per tree, the
    leaf ids and the potentials on them; per (process i, depth t), the
    ids along each axis of ``cert.coefficients[i][t-1]`` and its
    entries."""
    level_ids = [tree.ids for tree in coupling.trees]
    return {
        "coupling": {"leaves": coupling.tuples.T.tolist(), "w": _b64(coupling.weights)},
        "duals": {
            "potentials": [
                {"ids": ids[-1], "values": _b64(f)}
                for ids, f in zip(level_ids, cert.potentials)
            ],
            "coefficients": [
                {
                    "i": i + 1,
                    "t": t,
                    "axes": [ids[t - 1] for j, ids in enumerate(level_ids) if j != i]
                            + [level_ids[i][t]],
                    "values": _b64(coef),
                }
                for i, per_depth in enumerate(cert.coefficients)
                for t, coef in enumerate(per_depth, start=1)
            ],
        },
    }


def _kernel_json(plan: mc.MulticausalCoupling, nu_weights: np.ndarray) -> dict:
    """A barycenter plan over (process tree, task tree) disintegrated by
    the task path: task leaf id -> {process leaf id: conditional weight},
    both sorted by id.  Every atom's task leaf is in nu's support (see
    :func:`~treeot.multicausal.transport_lp`)."""
    tree, tasks = plan.trees
    kernel: dict[str, dict[str, float]] = {}
    conditional = plan.weights / nu_weights[plan.tuples[:, 1]]
    for (jx, ky), w in zip(plan.tuples.tolist(), conditional.tolist()):
        kernel.setdefault(tasks.leaf_ids()[ky], {})[tree.leaf_ids()[jx]] = w
    return {y: dict(sorted(k.items())) for y, k in sorted(kernel.items())}


# -- command implementations ---------------------------------------------------


def _slacks(check: dict, *extra: str) -> dict:
    """The slacks of an mc.check_certificates result, every certified
    command's "verification" fields, and the ``extra`` fields; the gap
    goes there only where no value it certifies is in "values"."""
    return {k: check[k] for k in ("min_dual_slack", "worst_support_slack", *extra)}


def _cmd_awdist(args) -> dict:
    trees = [_read_tree(p) for p in args.trees]
    res = mc.mc_dpp(trees, costs_mod.lp_sum(args.p), tuple_budget=args.budget)
    coupling = mc.assemble_coupling(res.policy)
    check = mc.check_certificates([coupling], [res.tables[-1]], [res.certificate])
    return {
        "values": {
            "aw_distance": float(max(res.value, 0.0) ** (1.0 / args.p)),
            "p": args.p,
            "dpp_value": res.value,
            "duality_gap": check["duality_gap"],
        },
        "certificate": _certificate_json(coupling, res.certificate),
        "verification": _slacks(check),
    }


def _cmd_mcot(args) -> dict:
    trees = [_read_tree(p) for p in args.trees]
    res = mc.mc_dpp(trees, _read_cost(args.cost), tuple_budget=args.budget)
    coupling = mc.assemble_coupling(res.policy)
    check = mc.check_certificates([coupling], [res.tables[-1]], [res.certificate])
    values = {"dpp_value": res.value, "duality_gap": check["duality_gap"]}
    if args.oracle:
        # on the DPP's cost table, so the cost is evaluated once
        lp_value, _, _ = mc.brute_force_mcot(trees, res.tables[-1], tuple_budget=args.budget)
        values["oracle_value"] = lp_value
        values["dpp_oracle_gap"] = abs(res.value - lp_value)
    causality = mc.verify_multicausal(coupling)
    return {
        "values": values,
        "certificate": _certificate_json(coupling, res.certificate),
        "verification": {
            "multicausal": causality.passed,
            "worst_violation": causality.worst_violation,
            **_slacks(check),
        },
    }


def _selector_for(args, costs, horizon):
    if args.grid:
        grids = _read_json("grid file", args.grid)
        with _reading("grid file", args.grid):
            if len(grids) != horizon:
                raise ValidationError(f"grid file must list {horizon} per-time grids")
            return bary.grid_selector(costs, grids)
    for c in costs:
        if not isinstance(c, bary.PowerCost) or c.exponent != 2.0:
            raise ValidationError(
                "closed-form selector needs quadratic costs; pass --grid otherwise"
            )
    total = sum(c.weight for c in costs)
    return bary.phi0_quadratic([c.weight / total for c in costs])


def _cmd_bary_bc(args) -> dict:
    trees = [_read_tree(p) for p in args.trees]
    costs = _parse_power_spec(args.cost, len(trees))
    selector = _selector_for(args, costs, trees[0].horizon)
    res = bary.bc_barycenter(trees, costs, selector, tuple_budget=args.budget)
    check = mc.check_certificates([res.coupling], [res.mcot.tables[-1]], [res.mcot.certificate])
    consistency = bary.bc_bary_value(trees, costs, res.process.tree, tuple_budget=args.budget)
    return {
        "values": {
            "barycenter_value": res.value,
            "duality_gap": check["duality_gap"],
            "recomputed_value_at_barycenter": consistency,
        },
        "barycenter": tree_document(res.process.tree),
        "certificate": _certificate_json(res.coupling, res.mcot.certificate),
        "verification": _slacks(check),
    }


def _cmd_bary_c(args) -> dict:
    trees = [_read_tree(p) for p in args.trees]
    tasks = _read_tree(args.tasks)
    costs = _parse_power_spec(args.cost, len(trees))
    sol = bary.causal_barycenter(trees, tasks, costs, tuple_budget=args.budget)
    worst_causality = max(bary.causal_violation(plan) for plan in sol.plans)
    if not worst_causality <= lp_mod.CAUSALITY_TOL:
        raise SolverFailureError("a barycenter plan fails the causality check",
                                 details={"worst_causality": worst_causality})
    check = mc.check_certificates(sol.plans, sol.tables, sol.certificates)
    return {
        "values": {
            "barycenter_value": sol.value,
            "dual_value": check["dual_value"],
            "duality_gap": check["duality_gap"],
        },
        "nu": dict(zip(tasks.leaf_ids(), sol.nu.tolist())),
        "certificate": list(map(_certificate_json, sol.plans, sol.certificates)),
        "verification": {**_slacks(check), "worst_causality": worst_causality},
    }


def _cmd_bary_anticausal(args) -> dict:
    trees = [_read_tree(p) for p in args.trees]
    tasks = _read_tree(args.tasks)
    costs = _parse_power_spec(args.cost, len(trees))
    res = bary.anticausal_barycenter(trees, costs, tasks, tuple_budget=args.budget)
    check = mc.check_certificates(res.plans, res.tables, res.certificates)
    return {
        "values": {"barycenter_value": res.value},
        "nu": dict(zip(tasks.leaf_ids(), res.nu.tolist())),
        "kernels": [_kernel_json(plan, res.nu) for plan in res.plans],
        "certificate": list(map(_certificate_json, res.plans, res.certificates)),
        "verification": _slacks(check, "duality_gap"),
    }


def _cmd_match(args) -> dict:
    doc = _read_json("matching instance", args.instance)
    with _reading("matching instance", args.instance):
        principal = ScenarioTree.from_levels(doc["principal"]["tree"]["levels"])
        utility = _parse_separable_cost(doc["principal"]["utility"])
        agents = [ScenarioTree.from_levels(a["tree"]["levels"]) for a in doc["agents"]]
        agent_costs = [_parse_separable_cost(a["cost"]) for a in doc["agents"]]
        tasks = ScenarioTree.from_levels(doc["tasks"]["levels"])
    instance = matching_mod.MatchingInstance(
        principal=principal, utility=utility, agents=agents,
        agent_costs=agent_costs, tasks=tasks,
    )
    eq = matching_mod.solve_matching(instance, tuple_budget=args.budget)
    report = matching_mod.verify_equilibrium(instance, eq)
    check = matching_mod.complementary_slackness(instance, eq)
    return {
        "values": {
            "agent_values": list(eq.values),
            "equilibrium_ok": report.passed,
        },
        "wages": eq.wage_table(),
        "nu": dict(zip(tasks.leaf_ids(), eq.nu.tolist())),
        "certificate": list(map(_certificate_json, eq.plans, eq.certificates)),
        "verification": {
            "clearing_ok": report.clearing_ok,
            "worst_clearing": report.worst_clearing,
            "optimality_gaps": list(report.optimality_gaps),
            "common_marginal_ok": report.common_marginal_ok,
            "worst_marginal_tv": report.worst_marginal_tv,
            "worst_causality": report.worst_causality,
            **_slacks(check, "duality_gap"),
        },
    }


def _cmd_verify_coupling(args) -> dict:
    trees = [_read_tree(p) for p in args.trees]
    doc = _read_json("coupling file", args.coupling)
    with _reading("coupling file", args.coupling):
        atoms = [(a["leaves"], float(a["w"])) for a in doc["atoms"]]
        coupling = mc.coupling_from_id_atoms(trees, atoms)
    report = mc.verify_multicausal(coupling, tol=args.tol)
    return {
        "values": {
            "pass": report.passed,
            "worst_violation": report.worst_violation,
        },
        "witnesses": [
            {
                "i": w.process,
                "t": w.t,
                "others": list(w.others),
                "child": w.child,
                "violation": w.violation,
            }
            for w in report.witnesses
        ],
    }


def _cmd_counterexample(args) -> dict:
    report = bary.counterexample_demo(args.n, tuple_budget=args.budget)
    return {
        "values": {
            "n_quant": report.n_quant,
            "cost_phi0_construction": report.cost_phi0_construction,
            "cost_canonical_candidate": report.cost_canonical_candidate,
            "gap": report.gap,
            "moment2": report.moment2,
            "moment6": report.moment6,
        },
        "verification": {
            "min_dual_slack": min(check["min_dual_slack"] for check in report.checks),
            "worst_support_slack": max(check["worst_support_slack"] for check in report.checks),
            "duality_gap": max(check["duality_gap"] for check in report.checks),
        },
    }


# -- wiring ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like any other invalid input: exit 2 with
    a one-line diagnostic, not argparse's usage block."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


# built once per process: parse_args leaves the parser as it was, and the
# defaults it reads (TUPLE_BUDGET, CAUSALITY_TOL) are constants
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treeot",
        description="Causal, bicausal and multicausal optimal transport on scenario trees.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report to this path instead of stdout")
    common.add_argument("--format", choices=("json", "text"), default="json")
    common.add_argument("--budget", type=int, default=mc.TUPLE_BUDGET,
                        help="leaf-tuple enumeration budget")
    common.add_argument("--timing", action="store_true",
                        help="include wall-clock timing (breaks byte-identical reports)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("awdist", help="adapted Wasserstein distance between two trees")
    p.add_argument("trees", nargs=2)
    p.add_argument("--p", type=float, default=2.0)
    p.set_defaults(fn=_cmd_awdist)

    p = add_parser("mcot", help="multicausal optimal transport")
    p.add_argument("trees", nargs="+")
    p.add_argument("--cost", default="lp_sum:2",
                   help="lp_sum:p | pairwise_power:p | tensor:FILE")
    p.add_argument("--oracle", action="store_true",
                   help="also report the brute-force LP value and the DPP gap")
    p.set_defaults(fn=_cmd_mcot)

    p = add_parser("bary-bc", help="bicausal barycenter (multicausal reformulation)")
    p.add_argument("trees", nargs="+")
    p.add_argument("--cost", default="power:2", help="power:p[:w1,...,wN]")
    p.add_argument("--grid", help="JSON file with per-time selector grids")
    p.set_defaults(fn=_cmd_bary_bc)

    p = add_parser("bary-c", help="causal barycenter on a task tree")
    p.add_argument("trees", nargs="+")
    p.add_argument("--tasks", required=True, help="task support tree (probabilities ignored)")
    p.add_argument("--cost", default="power:2", help="power:p[:w1,...,wN]")
    p.set_defaults(fn=_cmd_bary_c)

    p = add_parser("bary-anticausal", help="anticausal barycenter on a task tree")
    p.add_argument("trees", nargs="+")
    p.add_argument("--tasks", required=True)
    p.add_argument("--cost", default="power:2", help="power:p[:w1,...,wN]")
    p.set_defaults(fn=_cmd_bary_anticausal)

    p = add_parser("match", help="dynamic matching equilibrium")
    p.add_argument("instance", help="matching instance JSON")
    p.set_defaults(fn=_cmd_match)

    p = add_parser("verify-coupling", help="test a coupling for multicausality")
    p.add_argument("coupling", help="coupling JSON with leaf-id atoms")
    p.add_argument("--trees", nargs="+", required=True)
    p.add_argument("--tol", type=float, default=mc.CAUSALITY_TOL,
                   help="tolerance of the causality check")
    p.set_defaults(fn=_cmd_verify_coupling)

    p = add_parser("counterexample", help="quantised Gaussian causal counterexample")
    p.add_argument("--n", type=int, default=4, help="quantisation size (>= 4)")
    p.set_defaults(fn=_cmd_counterexample)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    t0 = time.perf_counter()
    lp_mod.stats.reset()
    try:
        args = _build_parser().parse_args(argv)
        args._t0 = t0
        config = _config_of(args)
        # non-finite intermediates are caught by explicit checks; numpy's
        # warnings about them would only break the one-line diagnostic
        with np.errstate(all="ignore"):
            report = {"schema": SCHEMA, "command": args.command, **args.fn(args)}
        report["config"] = asdict(config)
        report["config"]["inputs"] = list(config.inputs)
        _emit(report, args)
        return 0
    except BudgetExceededError as exc:
        print(f"treeot: budget refused: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SolverFailureError as exc:
        print(f"treeot: solver failure: {exc} {exc.details}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValidationError, ValueError) as exc:
        print(f"treeot: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
