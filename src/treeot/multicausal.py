"""Multicausal optimal transport on scenario trees.

The multicausal value between N processes is computed two independent
ways, which cross-verify each other:

* :func:`mc_dpp` runs the backward recursion

      V(T, tuple)  = path cost at the leaf tuple,
      V(t, tuple)  = min over couplings of the N conditional kernels
                     below the tuple of the expected V(t+1, .),

  for t = T-1, ..., 0: depth 0 is the root tuple, whose kernels are the
  time-1 laws, and V(0) is the value.  It stores the optimal one-step
  plans of each depth in one weight array (the :class:`KernelPolicy`).
  Stitching these plans together (:func:`assemble_coupling`) yields an
  optimal multicausal coupling.

  The one-step dual potentials phi_i^{t,A} chain into a
  :class:`DualCertificate` for the whole problem at no extra solve:
  depth 0's are the f^i, and the indicator test function of key
  (i, t, A_{-i}, b) gets coefficient -phi_i^{t,A}(b).  Summing the
  one-step dual constraints  sum_i phi_i^{t,A}(b_i) <= V(t+1, b)  from the
  root to the leaves gives  sum_i f^i <= c + F  at every leaf tuple.

* :func:`brute_force_mcot` solves a single LP over all leaf-path tuples.
  Multicausality is a finite set of linear equalities: for every process
  i, conditioning depth t in {1, ..., T-1}, tuple A of nodes at depth t
  and child b of A's i-th node,

      pi[others at t = A_{-i}, own at t+1 = b]
          = P^i(b | parent) * pi[nodes at t = A].

  On finite trees the indicator family above spans all martingale-style
  test functions, so these equalities are equivalent to multicausality.
  The LP carries only the independent ones (:func:`causal_lp_rows`) and
  is built and solved by :func:`transport_lp`, like every other
  causality-constrained LP of the package.  Its duals are returned as a
  :class:`DualCertificate` of the same form, with coefficient 0 at every
  row left out, certifying the optimal value from below.  The checkers
  (:func:`_causal_residuals`, on a coupling's atoms) test every row: a
  row left out is implied only when the marginals hold exactly.

Adapted Wasserstein distances are the N=2 case with cost d(x,y)^p where
d is the summed per-time metric.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import costs as costs_mod
from . import lp as lp_mod
from .errors import (
    BudgetExceededError,
    IncompletePolicyError,
    SolverFailureError,
    ValidationError,
)
from .lp import (
    CAUSALITY_TOL,
    MARGINAL_TOL,
    _gap_ok,
    _marginal_pattern,
    check_duality_gap,
    multimarginal_ot,  # not called here: perfbench/tracing.py wraps this attribute
    multimarginal_ot_batch,
)
from .trees import ScenarioTree, _frozen

TUPLE_BUDGET = 1_000_000


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


# -- kernel policies -----------------------------------------------------------


@dataclass(frozen=True)
class KernelPolicy:
    """One-step plans of the backward recursion, one weight array per depth.

    ``weights[t]`` (t = 0..T-1) has one axis per tree over that tree's
    nodes at depth t+1.  Its entry at a child tuple b is the weight that
    the one-step plan below b's parent tuple puts on b; at t = 0 this is
    the root plan.  Every child tuple has exactly one parent tuple, so one
    array holds all of a depth's plans.
    """

    trees: tuple[ScenarioTree, ...]
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        horizon = _check_family(self.trees)
        shapes = [tuple(tr.level_size(t) for tr in self.trees) for t in range(1, horizon + 1)]
        if [np.shape(w) for w in self.weights] != shapes:
            raise ValidationError(f"kernel policy weights have shapes "
                                  f"{[np.shape(w) for w in self.weights]}, expected {shapes}")
        if not all(np.all(np.asarray(w) >= 0) for w in self.weights):
            raise ValidationError("kernel policy has a negative weight")

    def reached(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The node tuples the policy reaches, for depths 1..T.

        A tuple is reached when its parent tuple is reached and its own
        weight is positive.  Per depth: the reached tuples (a row of node
        indices each), the row of each one's parent tuple at the depth
        above, and each one's path mass, its weights multiplied from the
        root down.  Rows follow the parent's row, then C order, as in a
        depth-first walk.  Raises :class:`IncompletePolicyError` when a
        reached tuple puts no weight on any child.
        """
        out = []
        above, mass = np.zeros((1, 0), dtype=np.intp), np.ones(1)
        rank = np.zeros((1,) * len(self.trees), dtype=np.intp)  # the root tuple's row
        for t, w in enumerate(self.weights, start=1):
            tuples = np.argwhere(w > 0)
            parents = rank[tuple(tr.parents[t - 1][tuples[:, i]]
                                 for i, tr in enumerate(self.trees))]
            order = np.flatnonzero(parents >= 0)
            order = order[np.argsort(parents[order], kind="stable")]
            tuples, parents = tuples[order], parents[order]
            childless = np.flatnonzero(np.bincount(parents, minlength=len(above)) == 0)
            if childless.size:
                raise IncompletePolicyError(
                    f"kernel policy puts no weight below reached tuple "
                    f"{tuple(above[childless[0]].tolist())} at depth {t - 1}"
                )
            mass = mass[parents] * w[tuple(tuples.T)]
            rank = np.full(np.shape(w), -1, dtype=np.intp)
            rank[tuple(tuples.T)] = np.arange(len(tuples))
            out.append((tuples, parents, mass))
            above = tuples
        return out


@dataclass(frozen=True)
class McotResult:
    """``tables[t]`` is V(t, .), one axis per process; ``tables[0]`` is
    V(0) as a 0-d array and ``tables[-1]`` the cost table."""

    value: float
    tables: tuple[np.ndarray, ...]
    policy: KernelPolicy
    certificate: DualCertificate


def cost_table(trees: Sequence[ScenarioTree], cost: costs_mod.Cost) -> np.ndarray:
    """The cost on every leaf-path tuple, one axis per tree, in leaf order.

    ``cost`` is that table, which is copied, or a callable ``cost(trees)``
    that builds it (see :mod:`treeot.costs`), whose table is taken as it
    is built; its shape must be the leaf counts and its entries finite.
    """
    trees = tuple(trees)
    try:
        table = (np.asarray(cost(trees), dtype=float) if callable(cost)
                 else np.array(cost, dtype=float))
    except OverflowError:  # Python float arithmetic past the largest float
        raise ValidationError("cost is not finite on every leaf-path tuple") from None
    leaves = tuple(t.n_leaves for t in trees)
    if table.shape != leaves:
        raise ValidationError(f"cost table has shape {table.shape}, "
                              f"expected the leaf counts {leaves}")
    if not np.all(np.isfinite(table)):
        raise ValidationError("cost is not finite on every leaf-path tuple")
    return table


def mc_dpp(
    trees: Sequence[ScenarioTree],
    cost: costs_mod.Cost,
    tuple_budget: int = TUPLE_BUDGET,
) -> McotResult:
    """Multicausal transport value by backward dynamic programming.

    ``cost`` becomes one table over the leaf-path tuples
    (:func:`cost_table`); enumeration refuses beyond ``tuple_budget``
    tuples.  One loop runs over the depths T-1, ..., 0; depth 0 is the
    root tuple.  The one-step problems at a depth are independent and are
    solved together by :func:`multimarginal_ot_batch`, one batch per
    combination of child counts.  Each block has every 1-D tree's
    children in state order (:func:`_state_order`); results are scattered
    back by node index.  Their dual potentials make up the returned
    certificate, depth 0's as its potentials f^i.
    """
    trees = tuple(trees)
    horizon = _check_family(trees)
    _guard_budget(trees, tuple_budget, "mc_dpp")
    # node counts per depth t = 0..T, one per tree; depth 0 is the root
    sizes = [(1,) * len(trees)] + [tuple(map(len, p)) for p in zip(*(tr.parents for tr in trees))]

    tables: list[np.ndarray] = [cost_table(trees, cost)]
    weights = [np.zeros(size) for size in sizes[1:]]
    coefficients = [[np.zeros(s[:i] + s[i + 1:] + b[i:i + 1]) for s, b in zip(sizes, sizes[1:])]
                    for i in range(len(trees))]  # laid out as _coefficient_shape

    for t in range(horizon - 1, -1, -1):
        groups = [_TupleGroup(members)
                  for members in itertools.product(*(_sibling_groups(tr, t) for tr in trees))]
        results = multimarginal_ot_batch([
            (group.kernels(trees, t), tables[0][group.children].reshape((-1,) + group.shape))
            for group in groups
        ])
        values = np.zeros(sizes[t])
        for group, (value, plan, potentials) in zip(groups, results):
            values[np.ix_(*group.nodes)] = value.reshape(group.counts)
            weights[t][group.children] = plan.reshape(group.counts + group.shape)
            for i, phi in enumerate(potentials):
                coefficients[i][t][group.coefficient_index(i)] = -np.moveaxis(
                    phi.reshape(group.counts + group.shape[i:i + 1]), i, -2)
        tables.insert(0, values)

    tables[0] = tables[0].reshape(())
    certificate = DualCertificate(
        potentials=tuple(-c[0].reshape(-1)[tr.ancestors[:, 0]]
                         for c, tr in zip(coefficients, trees)),
        coefficients=tuple(tuple(c[1:]) for c in coefficients),
    )
    return McotResult(value=float(tables[0]), tables=tuple(tables),
                      policy=KernelPolicy(trees=trees, weights=tuple(weights)),
                      certificate=certificate)


def _state_order(tree: ScenarioTree, t: int) -> np.ndarray:
    """The nodes at depth t+1 ordered by parent, then, for 1-D states, by
    state, ties in level order.

    With 1-D states and a path cost convex in x - y, every leaf-depth
    block over children in this order is a Monge matrix, so its
    north-west corner, which :func:`~treeot.lp._corner_blocks` offers
    first, is already its optimal (quantile) coupling.  States of other
    dimensions have no such order and stay in level order.
    """
    states = tree.states[t]
    keys = (states[:, 0],) if states.shape[1] == 1 else ()
    return np.lexsort((*keys, tree.parents[t]))


def _sibling_groups(tree: ScenarioTree, t: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The nodes at depth t < T grouped by child count, in order of first
    appearance: per group, the nodes (k,) and their children (k, m) at
    depth t+1, in state order (:func:`_state_order`).  Every node above
    the leaves has a child, so every node is in a group."""
    counts = np.bincount(tree.parents[t])
    order = _state_order(tree, t)
    starts = np.cumsum(counts) - counts
    out = []
    for m in dict.fromkeys(counts.tolist()):
        nodes = np.flatnonzero(counts == m)
        out.append((nodes, order[starts[nodes][:, None] + np.arange(m)]))
    return out


def _on_axis(a: np.ndarray, axis: int, ndim: int) -> np.ndarray:
    """``a`` viewed with its first axis at ``axis`` of ``ndim`` axes and its
    other axes last; every added axis has length 1."""
    return a.reshape((1,) * axis + a.shape[:1] + (1,) * (ndim - axis - a.ndim) + a.shape[1:])


class _TupleGroup:
    """The node tuples at a depth whose i-th nodes all have the same
    number of children, ``shape[i]``: the product of one node set per
    tree, so one fancy index gathers or scatters all their blocks.

    ``members`` holds per tree the nodes and their children (see
    :func:`_sibling_groups`).  ``children`` indexes a next-depth array
    with axes (the node counts ``counts``, then ``shape``).
    """

    def __init__(self, members):
        n = len(members)
        self.nodes = [nodes for nodes, _ in members]
        self.kids = [kids for _, kids in members]
        self.counts = tuple(len(nodes) for nodes in self.nodes)
        self.shape = tuple(kids.shape[1] for kids in self.kids)
        # tree i's children: node axis at i, child axis at n + i
        self.children = tuple(
            kids.reshape((1,) * i + kids.shape[:1] + (1,) * (n - 1) + kids.shape[1:]
                         + (1,) * (n - 1 - i))
            for i, kids in enumerate(self.kids)
        )

    def kernels(self, trees, t: int) -> list[np.ndarray]:
        """Per tree, the child kernel of each tuple's node, (B, shape[i])."""
        n = len(trees)
        return [
            np.broadcast_to(_on_axis(tr.probs[t][kids], i, n + 1),
                            self.counts + kids.shape[1:]).reshape(-1, kids.shape[1])
            for i, (tr, kids) in enumerate(zip(trees, self.kids))
        ]

    def coefficient_index(self, i: int) -> tuple[np.ndarray, ...]:
        """Index of process i's certificate coefficients at this depth
        (others' nodes, own child) with axes (the others' node counts,
        own node count, own child count)."""
        n = len(self.nodes)
        others = [j for j in range(n) if j != i]
        return (*(_on_axis(self.nodes[j], p, n + 1) for p, j in enumerate(others)), self.kids[i])


# -- couplings ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MulticausalCoupling:
    """A sparse measure on leaf-path tuples of the given trees: every
    transport plan of the package, causal or not, has this form.

    Atom k is the leaf tuple ``tuples[k]`` (one leaf index per tree; the
    array has shape (atoms, N)) with weight ``weights[k]``.  Tuples are
    distinct; sums over atoms run in atom order.  A weight that is
    negative or not finite, or a leaf index out of its tree's range, is a
    :class:`ValidationError`.
    """

    trees: tuple[ScenarioTree, ...]
    tuples: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        weights = _frozen(np.array(self.weights, dtype=float).reshape(-1))
        object.__setattr__(self, "trees", tuple(self.trees))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "tuples", _frozen(
            np.array(self.tuples, dtype=np.intp).reshape(len(weights), len(self.trees))))
        _check_weights(weights)
        leaves = [tree.n_leaves for tree in self.trees]
        if not np.all((self.tuples >= 0) & (self.tuples < leaves)):
            raise ValidationError("coupling atom has a leaf index outside its tree's leaves")

    def marginal(self, i: int) -> np.ndarray:
        return np.bincount(self.tuples[:, i], weights=self.weights,
                           minlength=self.trees[i].n_leaves)

    def marginal_tv(self, i: int) -> float:
        return 0.5 * float(np.abs(self.marginal(i) - self.trees[i].leaf_law()).sum())

    def worst_marginal_tv(self) -> float:
        return max(self.marginal_tv(i) for i in range(len(self.trees)))

    def expectation(self, table: np.ndarray) -> float:
        """E[table] for a ``table`` with one axis per tree over its leaves:
        weight times entry, added from 0.0 one atom at a time in atom order
        (``np.cumsum`` has no pairwise blocking)."""
        leaves = tuple(tree.n_leaves for tree in self.trees)
        if np.shape(table) != leaves:
            raise ValidationError(f"table shape {np.shape(table)} is not the leaf counts {leaves}")
        terms = self.weights * np.asarray(table)[tuple(self.tuples.T)]
        return float(np.cumsum(np.append(0.0, terms))[-1])


def _check_weights(weights: np.ndarray) -> None:
    bad = ~(np.isfinite(weights) & (weights >= 0.0))
    if bad.any():
        raise ValidationError(f"coupling weight {weights[bad][0]} is negative or not finite")


def _summed(tuples: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``tuples`` (k, N), each at its first place, and
    per row the sum of its ``weights``, added in row order."""
    _, first, inverse = np.unique(tuples, axis=0, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    summed = np.bincount(rank[inverse.reshape(-1)], weights=weights, minlength=len(first))
    return tuples[np.sort(first)], summed


def coupling_from_id_atoms(
    trees: Sequence[ScenarioTree], atoms: Iterable[tuple[Sequence[str], float]]
) -> MulticausalCoupling:
    """Build a coupling from (leaf-id tuple, weight) pairs."""
    trees = tuple(trees)
    _check_family(trees)
    tuples, weights = [], []
    for ids, w in atoms:
        if len(ids) != len(trees):
            raise ValidationError(f"atom {ids!r}: expected {len(trees)} leaf ids")
        for tree, node_id in zip(trees, ids):
            depth, k = tree.locate(node_id)
            if depth != tree.horizon:
                raise ValidationError(f"node {node_id!r} is not a leaf")
            tuples.append(k)
        weights.append(float(w))
    weights = np.array(weights, dtype=float)
    _check_weights(weights)  # per atom: a repeat of its tuple must not hide a bad weight
    tuples = np.array(tuples, dtype=np.intp).reshape(len(weights), len(trees))
    return MulticausalCoupling(trees, *_summed(tuples, weights))


def coupling_from_dense(trees: Sequence[ScenarioTree], dense: np.ndarray) -> MulticausalCoupling:
    """The positive entries of ``dense``, a plan with one axis per tree over
    its leaves, as atoms in C order; solver dust at the bound 0 is dropped."""
    support = np.argwhere(dense > 0)
    return MulticausalCoupling(trees, support, dense[tuple(support.T)])


def assemble_coupling(policy: KernelPolicy) -> MulticausalCoupling:
    """Product of the one-step policy plans along every path tuple."""
    tuples, _, mass = policy.reached()[-1]
    coupling = MulticausalCoupling(trees=policy.trees, tuples=tuples, weights=mass)
    tv = coupling.worst_marginal_tv()
    if not (tv <= MARGINAL_TOL):
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


def verify_multicausal(
    coupling: MulticausalCoupling,
    tol: float = CAUSALITY_TOL,
) -> CausalityReport:
    """Evaluate the full indicator test-function family against a coupling
    over ``coupling.trees``, by :func:`_causal_residuals` on every process.

    Passes iff the largest violation is at most ``tol``; violations above
    ``tol`` are reported as witnesses sorted by decreasing magnitude, then
    by process, depth and key.
    """
    trees = coupling.trees
    for i in range(len(trees)):
        tv = coupling.marginal_tv(i)
        if not (tv <= MARGINAL_TOL):
            raise ValidationError(
                f"coupling marginal {i + 1} differs from tree law by TV {tv!r}"
            )
    worst = 0.0
    found = []
    for i, t, rows, residual in _causal_residuals(coupling, range(len(trees))):
        viol = np.abs(residual)
        worst = max(worst, float(viol.max(initial=0.0)))
        found += [(-viol[k], i, t, int(rows[k])) for k in np.flatnonzero(viol > tol)]

    witnesses = []
    for neg_viol, i, t, row in sorted(found):
        shape = _coefficient_shape(trees, i, t)
        key = np.unravel_index(row, shape)
        others = [j for j in range(len(trees)) if j != i]
        witnesses.append(Witness(
            process=i + 1,
            t=t,
            others=tuple(trees[j].ids[t - 1][k] for j, k in zip(others, key)),
            child=trees[i].ids[t][key[-1]],
            violation=float(-neg_viol),
        ))
    return CausalityReport(passed=worst <= tol, worst_violation=worst,
                           witnesses=tuple(witnesses))


def _causal_residuals(coupling: MulticausalCoupling, processes: Iterable[int]):
    """Every causality row of ``processes`` (see :func:`causal_lp_rows`, the
    rows it leaves out too) times the coupling's weights, in factored form
    on its atoms: row (i, t, A_{-i}, b) is the mass at (A_{-i}, own node
    b) less p_b times the mass at (A_{-i}, own node parent(b)).  Only rows
    the atoms reach are formed (the others are 0), so memory follows the
    atoms.  Yields per process and depth: i, t, the rows' raveled
    :func:`_coefficient_shape` keys and their residuals."""
    trees = coupling.trees
    horizon = _check_family(trees)
    positive = coupling.weights > 0.0
    tuples, weights = coupling.tuples[positive], coupling.weights[positive]
    for i in processes:
        tree = trees[i]
        for t in range(1, horizon):
            others, node, child = _block_indices(trees, i, t, tuples)
            n_node, n_child = tree.level_size(t), tree.level_size(t + 1)
            keys, actual = _sum_by(others * n_child + child, weights)
            parents, mass = _sum_by(others * n_node + node, weights)
            pos, b = _fan(tree.parents[t], parents % n_node)
            rows = parents[pos] // n_node * n_child + b
            at = np.minimum(np.searchsorted(keys, rows), len(keys) - 1)
            hit = np.where(keys[at] == rows, actual[at], 0.0)
            yield i, t, rows, hit - tree.probs[t][b] * mass[pos]


def _sum_by(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ``keys`` and the weights summed per key, in input order."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    return distinct, np.bincount(inverse, weights=weights, minlength=len(distinct))


# -- the causality rows -------------------------------------------------------


def _coefficient_shape(trees: Sequence[ScenarioTree], i: int, t: int) -> tuple[int, ...]:
    """Axes of process i's coefficients at depth t: the others' node index
    at depth t, in process order, then process i's node index at t+1."""
    return tuple(tr.level_size(t) for j, tr in enumerate(trees) if j != i) + (
        trees[i].level_size(t + 1),
    )


def _fan(keys: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of a position p in ``nodes`` and an index j with
    ``keys[j] == nodes[p]``: the pairs' p and j, by p and then j.  With
    ``keys`` a tree's ``parents[t]``, these are the (node, child) pairs
    below the depth-t nodes ``nodes``."""
    counts = np.bincount(keys, minlength=int(nodes.max(initial=-1)) + 1)
    starts = np.cumsum(counts) - counts
    fan = counts[nodes]
    pos = np.repeat(np.arange(len(nodes)), fan)
    within = np.arange(pos.size) - np.repeat(np.cumsum(fan) - fan, fan)
    return pos, np.argsort(keys, kind="stable")[starts[nodes][pos] + within]


def _block_indices(trees, i: int, t: int, tuples: np.ndarray):
    """Per leaf tuple: the others' node indices at depth t raveled in the
    order of :func:`_coefficient_shape`, and process i's node at t and t+1."""
    others = np.zeros(len(tuples), dtype=np.intp)
    for j, tree in enumerate(trees):
        if j != i:
            others = others * tree.level_size(t) + tree.ancestors[tuples[:, j], t - 1]
    own = trees[i].ancestors[tuples[:, i]]
    return others, own[:, t - 1], own[:, t]


def _kept_children(tree: ScenarioTree, t: int) -> np.ndarray:
    """The nodes at depth t+1 that are not the last child of their parent
    in level order, sorted."""
    parents = tree.parents[t]
    kept = np.ones(parents.size, dtype=bool)
    kept[parents.size - 1 - np.unique(parents[::-1], return_index=True)[1]] = False
    return np.flatnonzero(kept)


def causal_lp_rows(
    trees: Sequence[ScenarioTree], processes: Iterable[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The equality rows of a transport LP over every leaf tuple of
    ``trees`` (C order) whose plans are causal for ``processes``.

    Rows are the marginal rows of every tree (:func:`_marginal_pattern`,
    right-hand side the leaf laws), then the causality rows that no other
    row implies (right-hand side 0).  Returns their (rows, columns,
    values) entries and the row count.

    The causality rows are the indicator test functions of ``processes``:
    row (i, t, A_{-i}, b), for t = 1..T-1, is +1 on leaf tuples whose own
    node at depth t+1 is b and -p_b on leaf tuples whose own node at depth
    t is parent(b), with the others at A_{-i} at depth t in both cases.  A
    measure on the leaf tuples is causal for each named process iff every
    row vanishes on it.  Blocks follow ``processes``, then t; block (i, t)
    is laid out as :func:`_coefficient_shape` ``(trees, i, t)`` in C order.
    Row (A_{-i}, b) is left out, and never formed, when

    * b is the last child of its parent: the rows of one sibling group sum
      to the zero row, because the sibling probabilities sum to 1;
    * A_{-i} is the last raveled tuple of others' nodes: summed over
      A_{-i}, the rows of b are a combination of process i's marginal
      rows with right-hand side 0.

    The kept causality rows are independent modulo the marginal rows.
    Every dropped row has right-hand side 0, so the LP duals of the kept
    rows extended by 0 (:func:`_coefficient_blocks`) are a dual solution
    of the LP with every row, of the same value.  More than
    ``lp.DENSE_BUDGET`` causality entries are refused before they are
    built.
    """
    trees, processes = tuple(trees), tuple(processes)
    horizon = _check_family(trees)
    shape = tuple(t.n_leaves for t in trees)
    marginal_rows, marginal_cols = _marginal_pattern(shape)
    rows, cols, vals = [marginal_rows], [marginal_cols], [np.ones(marginal_rows.size)]
    n_rows, n_entries = sum(shape), 0
    # every leaf tuple, one column each, in C order
    tuples = np.indices(shape).reshape(len(trees), -1).T
    for i in processes:
        tree = trees[i]
        for t in range(1, horizon):
            kids = _kept_children(tree, t)
            keys = tree.parents[t][kids]
            others, node, child = _block_indices(trees, i, t, tuples)
            n_others = int(np.prod(_coefficient_shape(trees, i, t)[:-1]))
            col = np.flatnonzero(others < n_others - 1)
            n_entries += int(np.bincount(keys, minlength=tree.level_size(t))[node[col]].sum())
            if n_entries > lp_mod.DENSE_BUDGET:
                raise BudgetExceededError(
                    f"causality rows have {n_entries} entries > budget {lp_mod.DENSE_BUDGET}")
            pos, j = _fan(keys, node[col])
            col, b = col[pos], kids[j]
            rows.append(n_rows + others[col] * kids.size + j)
            cols.append(col)
            vals.append((b == child[col]) - tree.probs[t][b])
            n_rows += (n_others - 1) * kids.size
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), n_rows


def _coefficient_blocks(
    trees: Sequence[ScenarioTree], processes: Iterable[int], values: np.ndarray,
) -> tuple[tuple[np.ndarray, ...], ...]:
    """Scatter a vector over the causality rows of :func:`causal_lp_rows`
    into one array per named process and depth, in the
    :class:`DualCertificate` layout, with 0 at every row left out."""
    trees = tuple(trees)
    horizon = _check_family(trees)
    out, ofs = [], 0
    for i in processes:
        per_depth = []
        for t in range(1, horizon):
            shape = _coefficient_shape(trees, i, t)
            kids = _kept_children(trees[i], t)
            block = np.zeros((int(np.prod(shape[:-1])), shape[-1]))
            size = (len(block) - 1) * kids.size
            block[:-1, kids] = values[ofs:ofs + size].reshape(len(block) - 1, kids.size)
            per_depth.append(block.reshape(shape))
            ofs += size
        out.append(tuple(per_depth))
    return tuple(out)


class TransportLp(NamedTuple):
    """The solution of :func:`transport_lp`: per family, its plan and the
    :class:`DualCertificate` of the LP's duals for the unshifted costs."""

    value: float
    nu: np.ndarray | None
    plans: tuple[MulticausalCoupling, ...]
    certificates: tuple[DualCertificate, ...]


def transport_lp(
    families: Sequence[Sequence[ScenarioTree]],
    tables: Sequence[np.ndarray],
    processes: Iterable[int],
    shared: bool,
    what: str,
) -> TransportLp:
    """One LP over a plan per tree family, each causal for ``processes``.

    Plan k lives on every leaf tuple of ``families[k]`` (C order), costs
    ``tables[k]`` (see :func:`cost_table`) and satisfies the rows of
    :func:`causal_lp_rows` ``(families[k], processes)``.  Without
    ``shared`` every marginal is its tree's leaf law.  With ``shared``
    the families end in one tree, and every plan's marginal on it is one
    free measure nu, held in the LP's first columns and linked to each
    plan's marginal rows of that tree by -1 entries.  All costs are
    shifted by their common minimum for the solve.  ``what`` names the
    LP in a solver failure; nu with a mass other than 1 is one.

    Returns the value, nu (clipped at 0 and normalised; None without
    ``shared``), each plan as a coupling over its family (with
    ``shared``, nothing on the task leaves outside nu's support; more
    than MARGINAL_TOL of mass there is a solver failure) and each
    family's certificate: its marginal-row duals split per tree (the
    shared tree's are its link rows'), the shift added to the first
    tree's, and its negated causality-row duals as the coefficients of
    ``processes`` (:func:`_coefficient_blocks`), ``()`` for every other
    tree.  A certificate total (the shared tree's potentials, whose rows
    have right-hand side 0, left out) off the value by more than the
    duality-gap bound is a solver failure.
    """
    import scipy.sparse as sp

    processes = tuple(processes)
    shift = min(float(table.min()) for table in tables)
    n_nu = families[0][-1].n_leaves if shared else 0
    rows, cols, vals, rhs, layout = [], [], [], [], []
    row_ofs, col_ofs = 0, n_nu
    for trees in families:
        shape = tuple(t.n_leaves for t in trees)
        n_marginal, size = sum(shape), int(np.prod(shape))
        block_rows, block_cols, block_vals, n_rows = causal_lp_rows(trees, processes)
        rows.append(row_ofs + block_rows)
        cols.append(col_ofs + block_cols)
        vals.append(block_vals)
        laws = [t.leaf_law() for t in trees]
        if shared:
            rows.append(row_ofs + n_marginal - n_nu + np.arange(n_nu))
            cols.append(np.arange(n_nu))
            vals.append(-np.ones(n_nu))
            laws[-1] = np.zeros(n_nu)
        rhs += laws + [np.zeros(n_rows - n_marginal)]
        layout.append((tuple(trees), shape, row_ofs, n_rows, col_ofs))
        row_ofs += n_rows
        col_ofs += size
    a_eq = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_ofs, col_ofs),
    )
    c_vec = np.concatenate([np.zeros(n_nu)] + [(table - shift).ravel() for table in tables])
    # through the module attribute, so a wrapper of lp.solve_lp sees this call
    x, y = lp_mod.solve_lp(c_vec, a_eq, np.concatenate(rhs), what)
    value = float(c_vec @ x) + len(families) * shift

    nu = None
    if shared:
        held = x[:n_nu] > 0
        nu = np.where(held, x[:n_nu], 0.0)
        total = float(nu.sum())
        if not (abs(total - 1.0) <= MARGINAL_TOL):
            raise SolverFailureError(f"{what}: nu has mass {total!r}, not 1")
        nu = nu / total
    plans, certificates, dual_value = [], [], 0.0
    for trees, shape, r0, n_rows, c0 in layout:
        r1 = r0 + sum(shape)  # the family's causality rows start here
        plan = x[c0:c0 + int(np.prod(shape))].reshape(shape)
        if shared:
            # HiGHS can leave dust (~1e-14) at a task leaf where nu is
            # clipped to 0; the task potentials' zero-sum normalisation puts
            # that leaf's column excess on process 0, so the dust would read
            # as a support slack of order 1
            dust = float(np.maximum(plan[..., ~held], 0.0).sum())
            if not (dust <= MARGINAL_TOL):
                raise SolverFailureError(
                    f"{what}: a plan has mass {dust!r} on task leaves outside nu's support")
            plan = np.where(held, plan, 0.0)
        plans.append(coupling_from_dense(trees, plan))
        potentials = np.split(y[r0:r1], np.cumsum(shape)[:-1])
        potentials[0] = potentials[0] + shift
        blocks = dict(zip(processes, _coefficient_blocks(
            trees, processes, -y[r1:r0 + n_rows])))
        certificates.append(DualCertificate(
            potentials=tuple(potentials),
            coefficients=tuple(blocks.get(i, ()) for i in range(len(trees)))))
        dual_value += certificates[-1].potential_total(trees[:len(trees) - shared])
    check_duality_gap(value, abs(dual_value - value),
                      f"{what}: certificate value does not match the LP value",
                      {"value": value, "dual_value": dual_value})
    return TransportLp(value=value, nu=nu, plans=tuple(plans), certificates=tuple(certificates))


# -- brute-force LP oracle and dual certificates ------------------------------


@dataclass(frozen=True)
class DualCertificate:
    """LP dual bundle for the multicausal problem.

    ``potentials[i]`` lives on leaf paths of tree i.  ``coefficients[i][t-1]``
    is an array of shape :func:`_coefficient_shape` ``(trees, i, t)``: its
    entry at (others' node indices at depth t, own child index b at t+1)
    is the coefficient of process i's indicator test function with that
    key.  Together they induce a martingale-style function F with
    sum_i f^i <= c + F  pointwise and  E_pi[F] = 0  for every multicausal
    coupling pi.
    """

    potentials: tuple[np.ndarray, ...]
    coefficients: tuple[tuple[np.ndarray, ...], ...]

    def potential_total(self, trees: Sequence[ScenarioTree]) -> float:
        return float(sum(f @ t.leaf_law() for f, t in zip(self.potentials, trees)))

    def martingale_values(self, trees: Sequence[ScenarioTree]) -> np.ndarray:
        """F on every leaf-path tuple, one axis per tree."""
        trees = tuple(trees)
        out = np.zeros(tuple(t.n_leaves for t in trees))
        # gathered in chunks of the first tree's leaves, so no temporary is
        # leaf-tuple sized; each entry still adds its terms in (i, t) order
        rows = max(1, costs_mod._CHUNK * trees[0].n_leaves // out.size)
        for i, tree in enumerate(trees):
            for t, coef in enumerate(self.coefficients[i], start=1):
                # each coefficient less its sibling group's kernel mean
                centred = coef - tree.expect(t, coef)[..., tree.parents[t]]
                index = ([tr.ancestors[:, t - 1] for j, tr in enumerate(trees) if j != i]
                         + [tree.ancestors[:, t]])
                first = len(index) - 1 if i == 0 else 0  # the first tree's index
                leaves = index[first]
                for start in range(0, len(leaves), rows):
                    block = slice(start, start + rows)
                    index[first] = leaves[block]
                    out[block] += np.moveaxis(centred[np.ix_(*index)], -1, i)
        return out


def verify_certificate(
    coupling: MulticausalCoupling,
    table: np.ndarray,
    certificate: DualCertificate,
) -> dict:
    """Re-verify a value from its certificate without re-solving; the one
    dual-slack check of the package.

    ``table`` holds the cost c on every leaf tuple of ``coupling.trees``
    (see :func:`cost_table`).  Returns the dual value, the ``min_slack``
    of c + F - (+)f over every leaf tuple and ``support_slack``, its
    largest magnitude on the coupling's atoms, and the coupling's
    ``primal_value``, ``martingale_integral`` of F and duality ``gap``.
    """
    trees = coupling.trees
    primal = coupling.expectation(table)
    dual = certificate.potential_total(trees)
    martingale = certificate.martingale_values(trees)
    integral = coupling.expectation(martingale)
    slack = np.add(martingale, table, out=martingale)
    for i, f in enumerate(certificate.potentials):
        slack -= f.reshape((-1,) + (1,) * (len(trees) - 1 - i))
    return {
        "dual_value": dual,
        "min_slack": float(slack.min()),
        "support_slack": float(np.abs(slack[tuple(coupling.tuples.T)]).max(initial=0.0)),
        "primal_value": primal,
        "martingale_integral": integral,
        "gap": abs(primal - dual),
    }


def check_certificates(plans: Sequence[MulticausalCoupling], tables: Sequence[np.ndarray],
                       certificates: Sequence[DualCertificate]) -> dict:
    """The one certificate gate: one :func:`verify_certificate` per plan
    against its cost table and certificate.  Returns ``min_dual_slack``
    and ``worst_support_slack`` over the plans, their summed
    ``dual_value`` and its ``duality_gap`` to the summed primal value (a
    barycenter's wages sum to zero, so that is the barycenter's gap).  A
    slack below -CAUSALITY_TOL, a support slack above CAUSALITY_TOL or a
    gap failing :func:`~treeot.lp._gap_ok`, NaN included, is a solver
    failure."""
    checks = [verify_certificate(*entry) for entry in zip(plans, tables, certificates)]
    primal = sum(c["primal_value"] for c in checks)
    dual = sum(c["dual_value"] for c in checks)
    # numpy's extremes, unlike Python's, carry a NaN through
    min_slack = float(np.min([c["min_slack"] for c in checks]))
    support_slack = float(np.max([c["support_slack"] for c in checks]))
    gap = abs(primal - dual)
    if not (min_slack >= -CAUSALITY_TOL and support_slack <= CAUSALITY_TOL
            and _gap_ok(gap, primal)):
        raise SolverFailureError("dual certificate fails verification", details={
            "min_slack": min_slack, "support_slack": support_slack, "gap": gap, "value": primal})
    return {"min_dual_slack": min_slack, "worst_support_slack": support_slack,
            "dual_value": dual, "duality_gap": gap}


def brute_force_mcot(
    trees: Sequence[ScenarioTree],
    cost: costs_mod.Cost,
    tuple_budget: int = TUPLE_BUDGET,
) -> tuple[float, MulticausalCoupling, DualCertificate]:
    """One LP over all leaf-path tuples with explicit causality equalities.

    The dual multipliers of the marginal blocks become the potentials
    f^i, those of the causality rows the test-function coefficients; by
    LP duality the certificate value equals the primal optimum.
    """
    trees = tuple(trees)
    _check_family(trees)
    _guard_budget(trees, tuple_budget, "brute_force_mcot")
    lp = transport_lp([trees], [cost_table(trees, cost)], range(len(trees)), False,
                      "multicausal LP")
    return lp.value, lp.plans[0], lp.certificates[0]


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
    return MulticausalCoupling([coupling.trees[i] for i in subset],
                               *_summed(coupling.tuples[:, subset], coupling.weights))


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
    if not (tv <= MARGINAL_TOL):
        raise ValidationError(f"shared marginals differ by TV {tv!r} > {MARGINAL_TOL}")

    keep = gamma.weights > 0.0
    rows, kernel = gamma.tuples[keep], gamma.weights[keep]
    kernel = kernel / marg_gamma[rows[:, 0]]
    keep = pi.weights > 0.0
    head, mass = pi.tuples[keep], pi.weights[keep]
    # each atom of pi with each of gamma's atoms at its last leaf (mass-0
    # bridges carry no kernel), in atom order
    pos, tail = _fan(rows[:, 0], head[:, -1])
    return MulticausalCoupling(pi.trees + gamma.trees[1:], *_summed(
        np.hstack([head[pos], rows[tail, 1:]]), mass[pos] * kernel[tail]))


def aw_distance(
    tree1: ScenarioTree, tree2: ScenarioTree, p: float = 2.0,
    tuple_budget: int = TUPLE_BUDGET,
) -> float:
    """p-adapted Wasserstein distance between two scenario trees."""
    if not 1 <= p < math.inf:
        raise ValidationError(f"p must be finite and >= 1, got {p!r}")
    res = mc_dpp([tree1, tree2], costs_mod.lp_sum(p), tuple_budget=tuple_budget)
    return float(max(res.value, 0.0) ** (1.0 / p))
