"""Barycenters of filtered processes.

Two distinct mechanisms live here:

* Bicausal barycenters.  For time-separable costs c^i(x, y) =
  sum_t c^i_t(x_t, y_t), minimising  sum_i AW_{c^i}(X^i, Y)  over
  processes Y is equivalent to a single multicausal problem with the
  aggregated cost  c(x^1, ..., x^N) = sum_t inf_y sum_i c^i_t(x^i_t, y).
  :func:`bc_barycenter` solves that problem by backward induction and
  reads the barycenter off the optimal coupling through a pointwise
  minimiser selector (closed form for quadratic costs, grid argmin
  otherwise).  The barycenter lives on the product node structure, so
  its filtration is the product of the input filtrations.

* Causal barycenters.  The one-directional problem admits no such
  reformulation (:func:`counterexample_demo` reproduces the gap), but on
  a finite task support it is one joint LP over a task distribution nu
  and causal plans pi^i sharing nu as second marginal.  The LP duals
  yield one :class:`DualCertificate` per process: potentials f^i on the
  process paths, wages w^i on the task paths with sum_i w^i = 0, and
  martingale coefficients; together they certify the optimum.
  Anticausal barycenters collapse to a classical fixed-support
  barycenter on path space: the same joint LP without causality rows.
  Both LPs, and causal transport, are built and solved by
  :func:`treeot.multicausal.transport_lp`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from . import costs as costs_mod
from .errors import ValidationError, refuse_above
from .lp import GRID_TOL, MARGINAL_TOL, check_duality_gap
from .multicausal import (
    TUPLE_BUDGET,
    DualCertificate,
    KernelPolicy,
    McotResult,
    MulticausalCoupling,
    _causal_residuals,
    _on_axis,
    assemble_coupling,
    check_certificates,
    cost_table,
    mc_dpp,
    transport_lp,
)
from .trees import ScenarioTree, join_ids, quantize_gauss_hermite


# -- separable costs ----------------------------------------------------------


class SeparableCost:
    """Time-separable transport cost c(x, y) = sum_t c_t(x_t, y_t).

    As a cost (see :mod:`treeot.costs`) it builds the table of a pair of
    trees, one axis per tree, in chunks of leaf pairs.
    """

    def at(self, t: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """c_t(x, y), broadcast over the leading axes; states on the last."""
        raise NotImplementedError

    def __call__(self, trees: Sequence[ScenarioTree]) -> np.ndarray:
        tree_x, tree_y = trees
        return costs_mod._pairwise((tree_x, tree_y), lambda pairs: sum(
            self.at(t, x, y) for t, (x, y) in enumerate(pairs, start=1)))


@dataclass(frozen=True)
class PowerCost(SeparableCost):
    """c_t(x, y) = weight * |x - y|_p^p."""

    weight: float = 1.0
    exponent: float = 2.0

    def __post_init__(self):
        if not 0 < self.weight < math.inf:
            raise ValidationError(f"cost weight must be finite and positive, got {self.weight!r}")
        if not 1 <= self.exponent < math.inf:
            raise ValidationError(f"cost exponent must be finite and >= 1, got {self.exponent!r}")

    def at(self, t, x, y):
        d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        return self.weight * np.sum(costs_mod.power(d, self.exponent), axis=-1)


class TableCost(SeparableCost):
    """Explicit per-time cost matrices over finite grids.

    ``tables[t - 1]`` is (x_atoms, y_atoms, matrix) of time t, one per
    time of the pair's horizon (a pair of another horizon is refused);
    evaluation looks the arguments up in the declared grids: the first
    atom within ``GRID_TOL`` per coordinate.
    """

    def __init__(self, tables: Sequence[tuple[Sequence, Sequence, np.ndarray]]):
        self._tables = []
        for x_atoms, y_atoms, mat in tables:
            mat = np.asarray(mat, dtype=float)
            if mat.shape != (len(x_atoms), len(y_atoms)):
                raise ValidationError(
                    f"cost matrix shape {mat.shape} != ({len(x_atoms)}, {len(y_atoms)})"
                )
            self._tables.append((_grid(x_atoms), _grid(y_atoms), mat))

    def __call__(self, trees: Sequence[ScenarioTree]) -> np.ndarray:
        horizon = trees[0].horizon
        if len(self._tables) != horizon:
            raise ValidationError(
                f"matrix cost lists {len(self._tables)} tables for horizon {horizon}")
        return super().__call__(trees)

    def at(self, t, x, y):
        x_atoms, y_atoms, mat = self._tables[t - 1]
        return mat[_lookup(x_atoms, x), _lookup(y_atoms, y)]


def _grid(points: Sequence) -> np.ndarray:
    """Grid points as the rows of a (points, dimension) array."""
    rows = [np.asarray(a, dtype=float).reshape(-1) for a in points]
    if not rows or len({r.shape for r in rows}) > 1:
        raise ValidationError("every grid must have at least one point, all of one dimension")
    return np.array(rows)


def _lookup(atoms: np.ndarray, states) -> np.ndarray:
    """Index of the first of ``atoms`` within ``GRID_TOL`` of each state
    (state axis last)."""
    states = np.atleast_1d(np.asarray(states, dtype=float))
    if states.shape[-1] == atoms.shape[1]:
        close = np.all(np.abs(states[..., None, :] - atoms) <= GRID_TOL, axis=-1)
    else:
        close = np.zeros(states.shape[:-1] + (len(atoms),), dtype=bool)
    found = close.any(axis=-1)
    if not np.all(found):
        raise ValidationError(f"value {states[~found][0]!r} not on the declared cost grid")
    return close.argmax(axis=-1)


# -- pointwise minimiser selectors -------------------------------------------

#: selector(t, xs) -> y: the barycenter state at time t for the N-tuple of
#: states xs, a minimiser of  y -> sum_i c^i_t(x^i, y); broadcast over the
#: leading axes of xs, states on the last
Selector = Callable[[int, tuple[np.ndarray, ...]], np.ndarray]


def phi0_quadratic(weights: Sequence[float]) -> Selector:
    """Closed-form selector for quadratic costs  lambda_i * |x - y|_2^2.

    The stationary point of  sum_i lambda_i |x^i - y|^2  is the weighted
    mean  y = sum_i lambda_i x^i, which attains the per-time infimum
    exactly.
    """
    lam = np.asarray(weights, dtype=float)
    if lam.ndim != 1 or not np.all(lam > 0) or not (abs(float(lam.sum()) - 1.0) <= MARGINAL_TOL):
        raise ValidationError("weights must be positive and sum to 1")

    def select(_t, xs):
        return sum(w * np.asarray(x, dtype=float) for w, x in zip(lam, xs))

    return select


def grid_selector(costs: Sequence[SeparableCost], grids: Sequence[Sequence]) -> Selector:
    """Argmin selector over caller-supplied per-time grids.

    Ties break to the first grid point in file order.  One grid point at
    a time, so memory follows the states, not the grid.
    """
    parsed = [_grid(grid) for grid in grids]

    def select(t, xs):
        grid = parsed[t - 1]
        best, best_val = 0, np.inf
        for k, y in enumerate(grid):
            val = sum(c.at(t, x, y) for c, x in zip(costs, xs))
            better = val < best_val
            best, best_val = np.where(better, k, best), np.where(better, val, best_val)
        return grid[best]

    return select


def aggregate_cost(
    costs: Sequence[SeparableCost], selector: Selector
) -> costs_mod.Cost:
    """Aggregated multicausal cost  sum_t sum_i c^i_t(x^i_t, phi_t(...)),
    as a builder of its table over the leaf-path tuples."""
    costs = list(costs)

    def agg(trees):
        trees = tuple(trees)
        costs_mod._check_dimensions(trees)
        states = [tr.leaf_states() for tr in trees]
        total = np.zeros(tuple(tr.n_leaves for tr in trees))
        for t in range(1, trees[0].horizon + 1):
            # each tree's leaf axis at its own place, the state axis last
            xs = tuple(_on_axis(s[t - 1], i, len(trees) + 1) for i, s in enumerate(states))
            y = selector(t, xs)
            total = total + sum(c.at(t, x, y) for c, x in zip(costs, xs))
        return total

    return agg


# -- bicausal barycenters ------------------------------------------------------


@dataclass(frozen=True)
class BarycenterProcess:
    """Barycenter on the product node structure of the inputs."""

    tree: ScenarioTree
    components: dict[str, tuple[str, ...]]  # node id -> member node ids


@dataclass(frozen=True)
class BcBarycenterResult:
    value: float
    process: BarycenterProcess
    coupling: MulticausalCoupling
    mcot: McotResult


def bc_barycenter(
    trees: Sequence[ScenarioTree],
    costs: Sequence[SeparableCost],
    selector: Selector,
    tuple_budget: int = TUPLE_BUDGET,
) -> BcBarycenterResult:
    """Bicausal barycenter via the multicausal reformulation.

    The returned value is the multicausal optimum of the aggregated
    cost, which equals the barycenter value; the returned process
    carries the selector values on the support of the optimal coupling.
    """
    trees = tuple(trees)
    if len(trees) != len(costs):
        raise ValidationError("one cost per process required")
    res = mc_dpp(trees, aggregate_cost(costs, selector), tuple_budget=tuple_budget)
    coupling = assemble_coupling(res.policy)
    process = _product_process(trees, res.policy, selector)
    return BcBarycenterResult(
        value=res.value, process=process, coupling=coupling, mcot=res
    )


def _product_process(
    trees: Sequence[ScenarioTree], policy: KernelPolicy, selector: Selector
) -> BarycenterProcess:
    """The reached node tuples as a tree: a node per tuple, its one-step
    plan weight as probability and the selector value as state."""
    levels: list[list[dict]] = []
    components: dict[str, tuple[str, ...]] = {}
    for t, (tuples, parents, _) in enumerate(policy.reached(), start=1):
        probs = policy.weights[t - 1][tuple(tuples.T)]
        ys = selector(t, tuple(tr.states[t - 1][tuples[:, i]] for i, tr in enumerate(trees)))
        level = []
        for idx, parent, p, y in zip(tuples.tolist(), parents.tolist(), probs.tolist(), ys):
            member_ids = tuple(tr.ids[t - 1][k] for tr, k in zip(trees, idx))
            name = join_ids(member_ids, "|")
            components[name] = member_ids
            level.append(
                {
                    "id": name,
                    "parent": levels[-1][parent]["id"] if levels else None,
                    "p": p,
                    "x": list(y),
                }
            )
        levels.append(level)
    tree = ScenarioTree.from_levels(levels)
    return BarycenterProcess(tree=tree, components=components)


def bc_bary_value(
    trees: Sequence[ScenarioTree],
    costs: Sequence[SeparableCost],
    candidate: ScenarioTree,
    tuple_budget: int = TUPLE_BUDGET,
) -> float:
    """sum_i AW_{c^i}(X^i, candidate), one bicausal solve per process."""
    total = 0.0
    for tree, cost in zip(trees, costs):
        total += mc_dpp([tree, candidate], cost, tuple_budget=tuple_budget).value
    return float(total)


# -- causality-constrained transport LPs ---------------------------------------


def causal_violation(plan: MulticausalCoupling) -> float:
    """Worst violation of the causal test functions by a plan over the pair
    ``plan.trees``, causal from the first tree, evaluated on its atoms."""
    return max((float(np.abs(residual).max(initial=0.0))
                for *_, residual in _causal_residuals(plan, (0,))), default=0.0)


def causal_ot(
    tree_x: ScenarioTree,
    tree_y: ScenarioTree,
    cost,
    tuple_budget: int = TUPLE_BUDGET,
) -> tuple[float, MulticausalCoupling, DualCertificate]:
    """Optimal transport over causal couplings from ``tree_x`` to ``tree_y``.

    The LP carries both marginal blocks plus the one-directional
    causality equalities; its value never exceeds the bicausal value on
    the same instance.  Returns the value, the plan and the LP's
    certificate (see :func:`treeot.multicausal.transport_lp`).
    """
    lp = transport_lp([(tree_x, tree_y)], [cost], (0,), False, "causal transport LP",
                      tuple_budget)
    return lp.value, lp.plans[0], lp.certificates[0]


# -- causal and anticausal barycenters ------------------------------------------


@dataclass(frozen=True)
class BarycenterSolution:
    """Primal and dual bundle of a barycenter LP on a task tree.

    ``nu`` is the task distribution: one weight per task leaf, in leaf
    order.  ``certificates[i]`` is a :class:`DualCertificate` of the pair
    (process i, task tree), ``plans[i]``: its potentials are f^i on the
    process leaves and the wage w^i on the task leaves; its coefficients
    are those of G^i per depth, then ``()`` (none for an anticausal
    barycenter).  Entrywise on leaf pairs,

        f^i(x) + w^i(y) <= c^i(x, y) + G^i(x, y),

    where c^i is ``tables[i]``, the cost table the LP was solved on.
    The dual fixes the wages only up to constants summing to zero: every
    w^i with i >= 1 has mean zero under ``nu``, f^i carries its constant,
    and w^0 = -(w^1 + ... + w^N) exactly, so the wages clear.
    """

    value: float
    nu: np.ndarray
    plans: tuple[MulticausalCoupling, ...]
    certificates: tuple[DualCertificate, ...]
    tables: tuple[np.ndarray, ...]


def _barycenter(trees, task_tree, costs, processes, tuple_budget, what) -> BarycenterSolution:
    """The barycenter LP of ``trees`` on ``task_tree``, its plans causal
    for ``processes`` (``(0,)`` or ``()``); ``what`` names it in errors."""
    trees = tuple(trees)
    if not trees:
        raise ValidationError("at least one process required")
    if len(trees) != len(costs):
        raise ValidationError("one cost per process required")
    lp = transport_lp([(tree, task_tree) for tree in trees], costs, processes, True,
                      f"{what} LP", tuple_budget)

    # project leaf potentials onto time-1 information; the conditional
    # expectations E[f | F_t] become y-independent martingale increments
    # folded into G^i, which leaves every dual slack unchanged
    projected = []
    for tree, cert in zip(trees, lp.certificates):
        f, coefficients = cert.potentials[0], cert.coefficients
        if processes:
            cond = [f]
            for t in range(tree.horizon - 1, 0, -1):
                cond.insert(0, tree.expect(t, cond[0]))
            f = cond[0][tree.ancestors[:, 0]]
            coefficients = (tuple(c - cond[t] for t, c in enumerate(coefficients[0], start=1)),
                            ())
        projected.append((f, coefficients))

    # centre each link-row dual w^i, i >= 1, under nu and move its mean
    # into f^i, which keeps every slack; population 0's wage becomes the
    # negated sum of the others', at most its own link-row dual by the
    # dual feasibility of nu's columns, so its slacks stay nonnegative
    links = [cert.potentials[1] for cert in lp.certificates[1:]]
    means = [float(link @ lp.nu) for link in links]
    wages = [link - m for link, m in zip(links, means)]
    wages.insert(0, -reduce(np.add, wages) if wages else np.zeros(task_tree.n_leaves))
    certificates = tuple(
        DualCertificate(potentials=(f + m, wage), coefficients=coefficients)
        for (f, coefficients), m, wage in zip(projected, (-sum(means), *means), wages))

    dual_value = float(sum(cert.potentials[0] @ tree.leaf_law()
                           for tree, cert in zip(trees, certificates)))
    check_duality_gap(lp.value, abs(dual_value - lp.value),
                      f"{what} duality gap exceeds tolerance",
                      {"value": lp.value, "dual_value": dual_value})
    return BarycenterSolution(
        value=lp.value, nu=lp.nu, plans=lp.plans, certificates=certificates, tables=lp.tables)


def causal_barycenter(
    trees: Sequence[ScenarioTree],
    task_tree: ScenarioTree,
    costs,
    tuple_budget: int = TUPLE_BUDGET,
) -> BarycenterSolution:
    """Causal barycenter over distributions on a finite task tree.

    One joint LP in (nu, pi^1, ..., pi^N): process marginals are fixed,
    every plan's task marginal equals nu, and each plan satisfies the
    causality equalities of its own process.  Probabilities stored on
    ``task_tree`` are ignored; only its support structure matters.  Each
    cost is a cost (see :mod:`treeot.costs`) of the pair (process tree,
    task tree).  Each f^i is constant below each time-1 node: static
    potentials carry only initial information, and the path-dependent
    part of the LP duals is folded into the coefficients.
    """
    return _barycenter(trees, task_tree, costs, (0,), tuple_budget, "causal barycenter")


def anticausal_barycenter(
    trees: Sequence[ScenarioTree],
    costs,
    task_tree: ScenarioTree,
    tuple_budget: int = TUPLE_BUDGET,
) -> BarycenterSolution:
    """Anticausal barycenter on a fixed task support.

    Causality from the task process towards the inputs relaxes to plain
    couplings on path space, so this is the classical fixed-support
    barycenter of the leaf-path laws: the LP of :func:`causal_barycenter`
    without its causality rows.  The glued anticausal process draws a
    task path from ``nu`` and then each process independently from its
    plan's conditional law given that path.
    """
    return _barycenter(trees, task_tree, costs, (), tuple_budget, "anticausal barycenter")


# -- the quantised Gaussian counterexample ----------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    n_quant: int
    moment2: float
    moment6: float
    cost_phi0_construction: float
    cost_canonical_candidate: float
    checks: tuple[dict, ...]  # check_certificates of each causal value in (b)

    @property
    def gap(self) -> float:
        return self.cost_phi0_construction - self.cost_canonical_candidate


def cubic_pair(n_quant: int) -> tuple[ScenarioTree, ScenarioTree]:
    """The two-period pair X^1 = (Z, Z^3), X^2 = (0, Z^3), Z quantised N(0,1)."""
    points, weights = quantize_gauss_hermite(n_quant)
    points, weights = points.tolist(), weights.tolist()
    levels_1 = [
        [
            {"id": f"a1_{k}", "parent": None, "p": w, "x": [z]}
            for k, (z, w) in enumerate(zip(points, weights))
        ],
        [
            {"id": f"a2_{k}", "parent": f"a1_{k}", "p": 1.0, "x": [z ** 3]}
            for k, z in enumerate(points)
        ],
    ]
    levels_2 = [
        [{"id": "b1_0", "parent": None, "p": 1.0, "x": [0.0]}],
        [
            {"id": f"b2_{k}", "parent": "b1_0", "p": w, "x": [z ** 3]}
            for k, (z, w) in enumerate(zip(points, weights))
        ],
    ]
    return ScenarioTree.from_levels(levels_1), ScenarioTree.from_levels(levels_2)


def counterexample_demo(n_quant: int, tuple_budget: int = TUPLE_BUDGET) -> CounterexampleReport:
    """Why no pointwise-selector reformulation solves the causal problem.

    Builds the quantised pair above with costs c^1 = c^2 = |x - y|^2 / 2
    and reports:

    (a) the cost of the product-coupling selector construction with the
        doubled-weight map y = x^1 + x^2, which evaluates to
        (E Z^2 + 2 E Z^6) / 2 = 15.5;
    (b) the causal transport cost against the candidate (0, Z^3), the
        summed squared-norm causal values, which evaluates to E Z^2 = 1;
        each value's certificate is gated by
        :func:`~treeot.multicausal.check_certificates` against its cost
        table, one ``checks`` entry each.

    Both are exact for n_quant >= 4 by moment matching up to order 7.
    The n_quant**2 leaf pairs of the causal problems are refused beyond
    ``tuple_budget``.
    """
    if n_quant < 4:
        raise ValidationError("n_quant must be >= 4 for order-7 moment exactness")
    # refused before the n x n quadrature matrix exists
    refuse_above(n_quant ** 2, tuple_budget, "counterexample", "leaf pairs")
    z, w = quantize_gauss_hermite(n_quant)
    m2 = float(w @ z**2)
    m6 = float(w @ z**6)

    tree_1, tree_2 = cubic_pair(n_quant)

    # (a) product coupling, selector y_t = x^1_t + x^2_t, costs |.|^2 / 2,
    # on the grid of (x^1, x^2) pairs: x^1 on axis 0, x^2 on axis 1
    pair_cost = cost_table((tree_1, tree_2), aggregate_cost([PowerCost(0.5)] * 2,
                                                            lambda _t, xs: xs[0] + xs[1]))
    cost_a = float(np.sum(np.outer(w, w) * pair_cost))  # under the product coupling

    # (b) causal transport values with squared-norm cost against (0, Z^3)
    candidate = tree_2
    sq = PowerCost(weight=1.0, exponent=2.0)
    cost_b = 0.0
    checks = []
    for tree in (tree_1, tree_2):
        table = cost_table((tree, candidate), sq)
        value, plan, certificate = causal_ot(tree, candidate, table, tuple_budget=tuple_budget)
        cost_b += value
        checks.append(check_certificates([plan], [table], [certificate]))

    return CounterexampleReport(
        n_quant=n_quant,
        moment2=m2,
        moment6=m6,
        cost_phi0_construction=cost_a,
        cost_canonical_candidate=float(cost_b),
        checks=tuple(checks),
    )
