"""Multicausal optimal transport on scenario trees.

The multicausal value between N processes is computed two independent
ways, which cross-verify each other:

* :func:`mc_dpp` runs the backward recursion

      V(T, tuple)  = path cost at the leaf tuple,
      V(t, tuple)  = min over couplings of the N conditional kernels
                     below the tuple of the expected V(t+1, .),
      V(0)         = same minimisation over the time-1 laws,

  storing one optimal one-step plan per node tuple (the kernel policy).
  Stitching these plans together (:func:`assemble_coupling`) yields an
  optimal multicausal coupling.

* :func:`brute_force_mcot` solves a single LP over all leaf-path tuples.
  Multicausality is a finite set of linear equalities: for every process
  i, conditioning depth t in {1, ..., T-1}, tuple A of nodes at depth t
  and child b of A's i-th node,

      pi[others at t = A_{-i}, own at t+1 = b]
          = P^i(b | parent) * pi[nodes at t = A].

  On finite trees the indicator family above spans all martingale-style
  test functions, so these equalities are equivalent to multicausality.
  The LP duals are returned as a :class:`DualCertificate`: potentials
  f^i on leaf paths plus coefficients of the indicator test functions,
  certifying the optimal value from below.

Adapted Wasserstein distances are the N=2 case with cost d(x,y)^p where
d is the summed per-time metric.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from . import costs as costs_mod
from .errors import (
    BudgetExceededError,
    IncompletePolicyError,
    SolverFailureError,
    ValidationError,
)
from .lp import (
    LpProblem,
    TransportPlan,
    _solve_optimal,
    multimarginal_ot,
    multimarginal_ot_batch,
    plan_from_dense,
)
from .trees import ProductNodeTuple, ScenarioTree

TUPLE_BUDGET = 1_000_000
CAUSALITY_TOL = 1e-8
MARGINAL_TOL = 1e-9
DUALITY_TOL = 1e-8


def _check_family(trees: Sequence[ScenarioTree]) -> int:
    if not trees:
        raise ValidationError("at least one tree required")
    horizons = {t.horizon for t in trees}
    if len(horizons) != 1:
        raise ValidationError(f"horizon mismatch: {sorted(horizons)}")
    return horizons.pop()


def _leaf_tuple_count(trees: Sequence[ScenarioTree]) -> int:
    n = 1
    for t in trees:
        n *= t.n_leaves
    return n


def _guard_budget(trees, budget, what):
    n = _leaf_tuple_count(trees)
    if n > budget:
        raise BudgetExceededError(f"{what}: {n} leaf tuples exceed budget {budget}")
    return n


# -- value functions and kernel policies -------------------------------------


@dataclass(frozen=True)
class ValueFunction:
    """Backward-induction values V(t, node tuple), V(0) at t=0."""

    trees: tuple[ScenarioTree, ...]
    tables: tuple[np.ndarray, ...]  # tables[t] has one axis per process; t=0 scalar

    def at(self, t: int, node_ids: Sequence[str] = ()) -> float:
        if t == 0:
            return float(self.tables[0])
        idx = []
        for tree, node_id in zip(self.trees, node_ids):
            depth, k = tree.locate(node_id)
            if depth != t:
                raise ValidationError(f"node {node_id!r} has depth {depth}, expected {t}")
            idx.append(k)
        return float(self.tables[t][tuple(idx)])

    def at_tuple(self, node_tuple: ProductNodeTuple) -> float:
        return self.at(node_tuple.time, node_tuple.ids)


@dataclass(frozen=True)
class PolicyPlan:
    """One-step optimal coupling below a node tuple.

    ``children`` lists, per process, the child indices at depth t+1; the
    plan's axes index into these lists.
    """

    children: tuple[tuple[int, ...], ...]
    plan: TransportPlan

    def global_atoms(self) -> Iterable[tuple[tuple[int, ...], float]]:
        for idx, w in zip(self.plan.atoms, self.plan.weights):
            yield tuple(ch[a] for ch, a in zip(self.children, idx)), float(w)


@dataclass(frozen=True)
class KernelPolicy:
    """Optimal one-step plans keyed by (depth t, node-index tuple at t).

    The root plan is stored at key (0, ()).
    """

    trees: tuple[ScenarioTree, ...]
    plans: dict[tuple[int, tuple[int, ...]], PolicyPlan]

    def plan_at(self, t: int, node_ids: Sequence[str] = ()) -> PolicyPlan:
        idx = tuple(tree.locate(nid)[1] for tree, nid in zip(self.trees, node_ids))
        return self.plans[(t, idx)]


@dataclass(frozen=True)
class McotResult:
    value: float
    value_function: ValueFunction
    policy: KernelPolicy


def mc_dpp(
    trees: Sequence[ScenarioTree],
    cost: costs_mod.PathCost,
    tuple_budget: int = TUPLE_BUDGET,
) -> McotResult:
    """Multicausal transport value by backward dynamic programming.

    ``cost`` is evaluated once per leaf-path tuple; enumeration refuses
    beyond ``tuple_budget`` tuples.  The one-step problems at a fixed
    depth are independent and are solved together as one block LP.
    """
    trees = tuple(trees)
    horizon = _check_family(trees)
    _guard_budget(trees, tuple_budget, "mc_dpp")

    leaf_values = [t.all_leaf_values() for t in trees]
    shape_t = lambda t: tuple(tr.level_size(t) for tr in trees)

    terminal = np.empty(shape_t(horizon))
    for idx in np.ndindex(*terminal.shape):
        terminal[idx] = cost(idx, tuple(lv[k] for lv, k in zip(leaf_values, idx)))
    if not np.all(np.isfinite(terminal)):
        raise ValidationError("cost is not finite on every leaf-path tuple")

    tables: list[np.ndarray] = [terminal]
    plans: dict[tuple[int, tuple[int, ...]], PolicyPlan] = {}

    for t in range(horizon - 1, 0, -1):
        # per process and node at depth t: its children and their kernel
        kids = [[tuple(tr.children(t, k)) for k in range(tr.level_size(t))] for tr in trees]
        kernels = [
            [np.array([tr.node(t + 1, j).prob for j in ch]) for ch in node_kids]
            for tr, node_kids in zip(trees, kids)
        ]
        work = list(np.ndindex(*shape_t(t)))
        children = [tuple(node_kids[k] for node_kids, k in zip(kids, idx)) for idx in work]
        results = multimarginal_ot_batch([
            ([kern[k] for kern, k in zip(kernels, idx)], tables[0][np.ix_(*ch)])
            for idx, ch in zip(work, children)
        ])
        for idx, ch, res in zip(work, children, results):
            plans[(t, idx)] = PolicyPlan(children=ch, plan=res.plan)
        tables.insert(0, np.array([res.value for res in results]).reshape(shape_t(t)))

    roots = [np.array([n.prob for n in tr.levels[0]]) for tr in trees]
    res = multimarginal_ot(roots, tables[0])
    plans[(0, ())] = PolicyPlan(
        children=tuple(tuple(range(len(r))) for r in roots), plan=res.plan
    )
    tables.insert(0, np.array(res.value))

    vf = ValueFunction(trees=trees, tables=tuple(tables))
    return McotResult(value=res.value, value_function=vf,
                      policy=KernelPolicy(trees=trees, plans=plans))


# -- couplings ----------------------------------------------------------------


@dataclass(frozen=True)
class MulticausalCoupling:
    """Sparse measure on leaf-path tuples of the given trees."""

    trees: tuple[ScenarioTree, ...]
    atoms: dict[tuple[int, ...], float]
    policy: KernelPolicy | None = None

    def total_mass(self) -> float:
        return float(sum(self.atoms.values()))

    def marginal(self, i: int) -> np.ndarray:
        out = np.zeros(self.trees[i].n_leaves)
        for idx, w in self.atoms.items():
            out[idx[i]] += w
        return out

    def marginal_tv(self, i: int) -> float:
        return 0.5 * float(np.abs(self.marginal(i) - self.trees[i].leaf_law()).sum())

    def worst_marginal_tv(self) -> float:
        return max(self.marginal_tv(i) for i in range(len(self.trees)))

    def expectation(self, cost: costs_mod.PathCost) -> float:
        paths = [t.all_leaf_values() for t in self.trees]
        return float(
            sum(
                w * cost(idx, tuple(p[k] for p, k in zip(paths, idx)))
                for idx, w in self.atoms.items()
            )
        )

    def atom_ids(self) -> list[tuple[tuple[str, ...], float]]:
        """Atoms keyed by leaf node ids, in deterministic index order."""
        leaf_ids = [t.leaf_ids() for t in self.trees]
        return [
            (tuple(ids[k] for ids, k in zip(leaf_ids, idx)), w)
            for idx, w in sorted(self.atoms.items())
        ]


def coupling_from_id_atoms(
    trees: Sequence[ScenarioTree], atoms: Iterable[tuple[Sequence[str], float]]
) -> MulticausalCoupling:
    """Build a coupling from (leaf-id tuple, weight) pairs."""
    trees = tuple(trees)
    _check_family(trees)
    index: dict[tuple[int, ...], float] = {}
    for ids, w in atoms:
        if len(ids) != len(trees):
            raise ValidationError(f"atom {ids!r}: expected {len(trees)} leaf ids")
        w = float(w)
        if w < 0:
            raise ValidationError(f"atom {ids!r}: negative weight {w!r}")
        key = []
        for tree, node_id in zip(trees, ids):
            depth, k = tree.locate(node_id)
            if depth != tree.horizon:
                raise ValidationError(f"node {node_id!r} is not a leaf")
            key.append(k)
        index[tuple(key)] = index.get(tuple(key), 0.0) + w
    return MulticausalCoupling(trees=trees, atoms=index)


def assemble_coupling(policy: KernelPolicy) -> MulticausalCoupling:
    """Product of the one-step policy plans along every path tuple."""
    horizon = policy.trees[0].horizon
    atoms: dict[tuple[int, ...], float] = {}

    def expand(t, idx, weight):
        key = (t, idx)
        if key not in policy.plans:
            raise IncompletePolicyError(
                f"kernel policy has no plan for reachable tuple {idx} at depth {t}"
            )
        for nxt, w in policy.plans[key].global_atoms():
            if w <= 0.0:
                continue
            if t + 1 == horizon:
                atoms[nxt] = atoms.get(nxt, 0.0) + weight * w
            else:
                expand(t + 1, nxt, weight * w)

    expand(0, (), 1.0)
    coupling = MulticausalCoupling(trees=policy.trees, atoms=atoms, policy=policy)
    tv = coupling.worst_marginal_tv()
    if tv > MARGINAL_TOL:
        raise SolverFailureError(f"assembled coupling marginal TV {tv!r} exceeds tolerance")
    return coupling


# -- multicausality checker ---------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A violated indicator test function.

    ``process`` is 1-based; ``t`` is the conditioning depth, so the
    constraint couples the others' nodes at depth t with the process's
    own node ``child`` at depth t+1.
    """

    process: int
    t: int
    others: tuple[str, ...]
    child: str
    violation: float


@dataclass(frozen=True)
class CausalityReport:
    passed: bool
    worst_violation: float
    witnesses: tuple[Witness, ...]


def _ancestor_table(tree: ScenarioTree) -> list[tuple[int, ...]]:
    return [tree.path_indices(tree.horizon, leaf) for leaf in range(tree.n_leaves)]


def verify_multicausal(
    coupling: MulticausalCoupling,
    trees: Sequence[ScenarioTree] | None = None,
    tol: float = CAUSALITY_TOL,
) -> CausalityReport:
    """Evaluate the full indicator test-function family against a coupling.

    Passes iff the largest violation is at most ``tol``; violations are
    reported as witnesses sorted by decreasing magnitude.
    """
    trees = tuple(trees) if trees is not None else coupling.trees
    horizon = _check_family(trees)
    for i in range(len(trees)):
        tv = 0.5 * float(np.abs(coupling.marginal(i) - trees[i].leaf_law()).sum())
        if tv > MARGINAL_TOL:
            raise ValidationError(
                f"coupling marginal {i + 1} differs from tree law by TV {tv!r}"
            )
    anc = [_ancestor_table(t) for t in trees]

    joint: list[dict[tuple[int, ...], float]] = [dict() for _ in range(horizon)]
    mixed: dict[tuple[int, int, tuple[int, ...], int], float] = {}
    for idx, w in coupling.atoms.items():
        if w <= 0.0:
            continue
        paths = [anc[i][k] for i, k in enumerate(idx)]
        for t in range(1, horizon):
            level = tuple(p[t - 1] for p in paths)
            joint[t - 1][level] = joint[t - 1].get(level, 0.0) + w
            for i in range(len(trees)):
                others = level[:i] + level[i + 1:]
                key = (i, t, others, paths[i][t])
                mixed[key] = mixed.get(key, 0.0) + w

    worst = 0.0
    witnesses: list[Witness] = []
    for t in range(1, horizon):
        for level, mass in joint[t - 1].items():
            for i, tree in enumerate(trees):
                others = level[:i] + level[i + 1:]
                for b in tree.children(t, level[i]):
                    expected = tree.node(t + 1, b).prob * mass
                    actual = mixed.get((i, t, others, b), 0.0)
                    viol = abs(actual - expected)
                    worst = max(worst, viol)
                    if viol > tol:
                        other_ids = tuple(
                            trees[j].node(t, k).node_id
                            for j, k in enumerate(level) if j != i
                        )
                        witnesses.append(
                            Witness(
                                process=i + 1,
                                t=t,
                                others=other_ids,
                                child=tree.node(t + 1, b).node_id,
                                violation=viol,
                            )
                        )
    witnesses.sort(key=lambda w: (-w.violation, w.process, w.t))
    return CausalityReport(passed=worst <= tol, worst_violation=worst,
                           witnesses=tuple(witnesses))


# -- brute-force LP oracle and dual certificates ------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """LP dual bundle for the multicausal problem.

    ``potentials[i]`` lives on leaf paths of tree i.  ``coefficients``
    maps (process i [1-based], conditioning depth t, others' node ids at
    t, own child id at t+1) to the coefficient of the corresponding
    indicator test function; together they induce a martingale-style
    function F with  sum_i f^i <= c + F  pointwise and  E_pi[F] = 0  for
    every multicausal coupling pi.
    """

    potentials: tuple[np.ndarray, ...]
    coefficients: dict[tuple[int, int, tuple[str, ...], str], float]

    def potential_total(self, trees: Sequence[ScenarioTree]) -> float:
        return float(
            sum(f @ t.leaf_law() for f, t in zip(self.potentials, trees))
        )

    def martingale_value(self, trees: Sequence[ScenarioTree], leaf_idx: tuple[int, ...]) -> float:
        """F evaluated at one leaf-path tuple."""
        trees = tuple(trees)
        paths = [t.path_indices(t.horizon, k) for t, k in zip(trees, leaf_idx)]
        total = 0.0
        for i, tree in enumerate(trees):
            for t in range(1, tree.horizon):
                level = tuple(p[t - 1] for p in paths)
                others = tuple(
                    trees[j].node(t, k).node_id for j, k in enumerate(level) if j != i
                )
                own = tree.node(t + 1, paths[i][t]).node_id
                total += self.coefficients.get((i + 1, t, others, own), 0.0)
                for b in tree.children(t, level[i]):
                    coef = self.coefficients.get(
                        (i + 1, t, others, tree.node(t + 1, b).node_id), 0.0
                    )
                    total -= tree.node(t + 1, b).prob * coef
        return total

    def slack(self, trees, cost: costs_mod.PathCost, leaf_idx: tuple[int, ...]) -> float:
        """c + F - (+)f at one tuple; dual feasibility means slack >= -1e-8."""
        paths = tuple(t.leaf_values(k) for t, k in zip(trees, leaf_idx))
        fsum = sum(float(f[k]) for f, k in zip(self.potentials, leaf_idx))
        return float(cost(leaf_idx, paths)) + self.martingale_value(trees, leaf_idx) - fsum


def verify_certificate(
    trees: Sequence[ScenarioTree],
    cost: costs_mod.PathCost,
    certificate: DualCertificate,
    coupling: MulticausalCoupling | None = None,
    tuple_budget: int = TUPLE_BUDGET,
) -> dict:
    """Re-verify a value from its certificate without re-solving."""
    trees = tuple(trees)
    _guard_budget(trees, tuple_budget, "verify_certificate")
    min_slack = min(
        certificate.slack(trees, cost, idx)
        for idx in itertools.product(*(range(t.n_leaves) for t in trees))
    )
    report = {
        "dual_value": certificate.potential_total(trees),
        "min_slack": float(min_slack),
    }
    if coupling is not None:
        report["primal_value"] = coupling.expectation(cost)
        report["martingale_integral"] = float(
            sum(
                w * certificate.martingale_value(trees, idx)
                for idx, w in coupling.atoms.items()
            )
        )
        report["gap"] = abs(report["primal_value"] - report["dual_value"])
    return report


def brute_force_mcot(
    trees: Sequence[ScenarioTree],
    cost: costs_mod.PathCost,
    tuple_budget: int = TUPLE_BUDGET,
) -> tuple[float, MulticausalCoupling, DualCertificate]:
    """One LP over all leaf-path tuples with explicit causality equalities.

    The dual multipliers of the marginal blocks become the potentials
    f^i, those of the causality rows the test-function coefficients; by
    LP duality the certificate value equals the primal optimum.
    """
    trees = tuple(trees)
    horizon = _check_family(trees)
    n_tuples = _guard_budget(trees, tuple_budget, "brute_force_mcot")

    leaf_values = [t.all_leaf_values() for t in trees]
    anc = [_ancestor_table(t) for t in trees]
    tuples = list(itertools.product(*(range(t.n_leaves) for t in trees)))

    c_vec = np.empty(n_tuples)
    for col, idx in enumerate(tuples):
        c_vec[col] = cost(idx, tuple(lv[k] for lv, k in zip(leaf_values, idx)))
    if not np.all(np.isfinite(c_vec)):
        raise ValidationError("cost is not finite on every leaf-path tuple")
    shift = float(c_vec.min())
    c_vec -= shift

    n_marginal = sum(t.n_leaves for t in trees)
    offsets = np.cumsum([0] + [t.n_leaves for t in trees])
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    caus_rows: dict[tuple[int, int, tuple[int, ...], int], int] = {}

    def caus_row(key) -> int:
        if key not in caus_rows:
            caus_rows[key] = n_marginal + len(caus_rows)
        return caus_rows[key]

    for col, idx in enumerate(tuples):
        paths = [anc[i][k] for i, k in enumerate(idx)]
        for i in range(len(trees)):
            rows.append(offsets[i] + idx[i]); cols.append(col); vals.append(1.0)
        for t in range(1, horizon):
            level = tuple(p[t - 1] for p in paths)
            for i, tree in enumerate(trees):
                others = level[:i] + level[i + 1:]
                rows.append(caus_row((i, t, others, paths[i][t])))
                cols.append(col); vals.append(1.0)
                for b in tree.children(t, level[i]):
                    rows.append(caus_row((i, t, others, b)))
                    cols.append(col); vals.append(-tree.node(t + 1, b).prob)

    n_rows = n_marginal + len(caus_rows)
    a_eq = sp.csr_matrix((vals, (rows, cols)), shape=(n_rows, n_tuples))
    b_eq = np.concatenate([t.leaf_law() for t in trees] + [np.zeros(len(caus_rows))])

    sol = _solve_optimal(LpProblem(c=c_vec, a_eq=a_eq, b_eq=b_eq), "multicausal LP")
    value = sol.value + shift

    atoms = {
        tuples[j]: float(w)
        for j, w in enumerate(sol.x)
        if w > 0.0
    }
    coupling = MulticausalCoupling(trees=trees, atoms=atoms)

    potentials = []
    for i, tree in enumerate(trees):
        potentials.append(np.array(sol.duals[offsets[i]:offsets[i] + tree.n_leaves]))
    for i in range(1, len(potentials)):
        pin = potentials[i][0]
        potentials[i] = potentials[i] - pin
        potentials[0] = potentials[0] + pin
    potentials[0] = potentials[0] + shift

    coefficients = {}
    for (i, t, others, b), row in caus_rows.items():
        other_ids = tuple(
            trees[j].node(t, k).node_id
            for j, k in enumerate(others[:i] + (None,) + others[i:])
            if j != i
        )
        coefficients[(i + 1, t, other_ids, trees[i].node(t + 1, b).node_id)] = float(
            -sol.duals[row]
        )
    certificate = DualCertificate(
        potentials=tuple(potentials), coefficients=coefficients
    )
    dual_value = certificate.potential_total(trees)
    if abs(dual_value - value) > DUALITY_TOL * (1 + abs(value)):
        raise SolverFailureError(
            "certificate value does not match primal optimum",
            details={"value": value, "dual_value": dual_value},
        )
    return value, coupling, certificate


# -- coupling algebra ---------------------------------------------------------


def restrict_coupling(coupling: MulticausalCoupling, subset: Sequence[int]) -> MulticausalCoupling:
    """Pushforward onto the (0-based) coordinate subset, order preserved."""
    subset = tuple(subset)
    if not subset:
        raise ValidationError("coordinate subset must be nonempty")
    if len(set(subset)) != len(subset):
        raise ValidationError(f"coordinate subset {subset} has repeats")
    if any(i < 0 or i >= len(coupling.trees) for i in subset):
        raise ValidationError(f"coordinate subset {subset} out of range")
    atoms: dict[tuple[int, ...], float] = {}
    for idx, w in coupling.atoms.items():
        key = tuple(idx[i] for i in subset)
        atoms[key] = atoms.get(key, 0.0) + w
    return MulticausalCoupling(
        trees=tuple(coupling.trees[i] for i in subset), atoms=atoms
    )


def glue(pi: MulticausalCoupling, gamma: MulticausalCoupling) -> MulticausalCoupling:
    """Glue couplings sharing a marginal: pi on (1..M), gamma on (M..N).

    gamma is disintegrated with respect to its first coordinate and the
    resulting kernel is attached below pi's last coordinate.
    """
    bridge_pi, bridge_gamma = pi.trees[-1], gamma.trees[0]
    if bridge_pi != bridge_gamma:
        raise ValidationError("shared-coordinate trees differ structurally")
    marg_pi = pi.marginal(len(pi.trees) - 1)
    marg_gamma = gamma.marginal(0)
    tv = 0.5 * float(np.abs(marg_pi - marg_gamma).sum())
    if tv > MARGINAL_TOL:
        raise ValidationError(f"shared marginals differ by TV {tv!r} > {MARGINAL_TOL}")

    kernel: dict[int, list[tuple[tuple[int, ...], float]]] = {}
    for idx, w in gamma.atoms.items():
        if w <= 0.0:
            continue
        kernel.setdefault(idx[0], []).append((idx[1:], w / marg_gamma[idx[0]]))

    atoms: dict[tuple[int, ...], float] = {}
    for idx, w in pi.atoms.items():
        if w <= 0.0:
            continue
        for rest, k in kernel.get(idx[-1], ()):  # mass-0 bridges carry no kernel
            key = idx + rest
            atoms[key] = atoms.get(key, 0.0) + w * k
    return MulticausalCoupling(trees=pi.trees + gamma.trees[1:], atoms=atoms)


def aw_distance(
    tree1: ScenarioTree, tree2: ScenarioTree, p: float = 2.0,
    tuple_budget: int = TUPLE_BUDGET,
) -> float:
    """p-adapted Wasserstein distance between two scenario trees."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    res = mc_dpp([tree1, tree2], costs_mod.lp_sum(p), tuple_budget=tuple_budget)
    return float(max(res.value, 0.0) ** (1.0 / p))
