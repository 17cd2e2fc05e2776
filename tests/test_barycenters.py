"""Barycenters: aggregation, selectors, bicausal/causal/anticausal solvers.

Oracles used here:
    - fine-grid argmin for the closed-form quadratic selector,
    - hand-minimised aggregated costs frozen as literals,
    - the double-factorial moment recursion for the quantised Gaussian
      counterexample,
    - the brute-force multicausal LP for bicausal values.
"""
from __future__ import annotations

import re
from functools import reduce

import numpy as np
import pytest

from treeot import (
    BudgetExceededError,
    PowerCost,
    TableCost,
    ValidationError,
    aggregate_cost,
    anticausal_barycenter,
    bc_barycenter,
    bc_bary_value,
    brute_force_mcot,
    causal_barycenter,
    causal_ot,
    check_certificates,
    classical_ot,
    counterexample_demo,
    grid_selector,
    mc_dpp,
    phi0_quadratic,
)
from treeot import costs as cm
from treeot.barycenters import causal_violation, cubic_pair
from treeot.lp import DUALITY_TOL
from treeot.multicausal import cost_table
from treeot.randomgen import random_tree
from treeot.trees import ScenarioTree, chain_tree


def normal_moment(k: int) -> float:
    if k % 2 == 1:
        return 0.0
    m = 1.0
    for j in range(2, k + 1, 2):
        m *= j - 1
    return m


def metric_cost() -> PowerCost:
    return PowerCost(weight=1.0, exponent=1.0)


# -- selectors and aggregation -----------------------------------------------------


def test_phi0_quadratic_identity_for_single_process():
    sel = phi0_quadratic([1.0])
    assert sel(1, (np.array([3.0, -2.0]),)) == pytest.approx([3.0, -2.0])


def test_phi0_quadratic_midpoint():
    sel = phi0_quadratic([0.5, 0.5])
    assert sel(1, (np.array([0.0]), np.array([2.0]))) == pytest.approx([1.0])


@pytest.mark.parametrize("seed", range(4))
def test_phi0_quadratic_matches_grid_argmin_oracle(seed):
    rng = np.random.default_rng(seed)
    lam = rng.random(3) + 0.2
    lam /= lam.sum()
    costs = [PowerCost(weight=float(l), exponent=2.0) for l in lam]
    xs = tuple(rng.normal(size=1) for _ in range(3))
    closed = phi0_quadratic(lam)(1, xs)
    grid = [[g] for g in np.linspace(-4, 4, 4001)]
    gridded = grid_selector(costs, [grid])(1, xs)
    assert abs(closed[0] - gridded[0]) <= 2e-3  # grid resolution


def test_aggregate_single_quadratic_process_is_zero():
    costs = [PowerCost(weight=1.0, exponent=2.0)]
    agg = aggregate_cost(costs, phi0_quadratic([1.0]))
    path = chain_tree([[1.5], [-2.0]], "a")
    assert cost_table([path], agg)[0] == pytest.approx(0.0, abs=1e-12)


def test_aggregate_two_process_quadratic_closed_form():
    # hand minimisation: min_y (|a-y|^2 + |b-y|^2)/2 = |a-b|^2/4 per time
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    agg = aggregate_cost(costs, phi0_quadratic([0.5, 0.5]))
    a = chain_tree([[0.0], [2.0]], "a")
    b = chain_tree([[4.0], [-2.0]], "b")
    expected = ((0.0 - 4.0) ** 2 + (2.0 + 2.0) ** 2) / 4.0
    assert cost_table([a, b], agg)[0, 0] == pytest.approx(expected, abs=1e-12)


def test_aggregate_grid_mode_agrees_on_grid_points():
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    grid = [[-1.0], [0.0], [1.0]]
    sel = grid_selector(costs, [grid, grid])
    agg = aggregate_cost(costs, sel)
    closed = aggregate_cost(costs, phi0_quadratic([0.5, 0.5]))
    # states whose midpoint lies on the grid
    pair = [chain_tree([[-1.0], [1.0]], "a"), chain_tree([[1.0], [-1.0]], "b")]
    assert cost_table(pair, agg)[0, 0] == pytest.approx(cost_table(pair, closed)[0, 0], abs=1e-12)


def test_grid_selector_optimality_invariant():
    rng = np.random.default_rng(9)
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    grid = [[g] for g in np.linspace(-2, 2, 9)]
    sel = grid_selector(costs, [grid])
    for _ in range(20):
        xs = tuple(rng.normal(size=1) for _ in range(2))
        chosen = sel(1, xs)
        value = sum(c.at(1, x, chosen) for c, x in zip(costs, xs))
        for y in grid:
            assert value <= sum(c.at(1, x, y) for c, x in zip(costs, xs)) + 1e-12


def test_table_cost_round_trip_and_bounds():
    tables = [([0.0, 1.0], [0.0, 2.0], np.array([[1.0, 3.0], [0.5, 2.0]]))]
    cost = TableCost(tables)
    assert cost.at(1, [1.0], [2.0]) == 2.0
    with pytest.raises(ValidationError, match="grid"):
        cost.at(1, [0.25], [0.0])


# -- bicausal barycenters ------------------------------------------------------------


def test_bc_barycenter_identical_trees_is_the_common_process():
    rng = np.random.default_rng(10)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2)
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    res = bc_barycenter([tree, tree], costs, phi0_quadratic([0.5, 0.5]))
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert bc_bary_value([tree, tree], costs, tree) == pytest.approx(0.0, abs=1e-10)


def test_bc_barycenter_dirac_paths_midpoint():
    a = chain_tree([[0.0], [0.0]], "a")
    b = chain_tree([[2.0], [2.0]], "b")
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    res = bc_barycenter([a, b], costs, phi0_quadratic([0.5, 0.5]))
    # single coupling: value = sum_t |a_t - b_t|^2 / 4 = 1 + 1
    assert res.value == pytest.approx(2.0, abs=1e-12)
    path = [x[0] for states in res.process.tree.states for x in states]
    assert path == pytest.approx([1.0, 1.0])


def test_bc_barycenter_names_escape_the_member_ids():
    # joined plainly, (q|r, s) and (q, r|s) would both be named q|r|s
    def tree(nodes):
        return ScenarioTree.from_levels([[
            {"id": node_id, "parent": None, "p": 1 / 3, "x": [x]}
            for x, node_id in enumerate(nodes)
        ]])

    trees = [tree(["q|r", "q", "a\\"]), tree(["s", "r|s", "b"])]
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    res = bc_barycenter(trees, costs, phi0_quadratic([0.5, 0.5]))
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.process.components == {
        r"q\|r|s": ("q|r", "s"),
        r"q|r\|s": ("q", "r|s"),
        r"a\\|b": ("a\\", "b"),
    }
    assert set(res.process.tree.ids[0]) == set(res.process.components)


@pytest.mark.parametrize("seed", range(5))
def test_bc_value_equality_and_minimality(seed):
    rng = np.random.default_rng(700 + seed)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    lam = rng.random(2) + 0.3
    lam /= lam.sum()
    costs = [PowerCost(weight=float(l), exponent=2.0) for l in lam]
    res = bc_barycenter(trees, costs, phi0_quadratic(lam))
    # value equality: the returned process attains the multicausal value
    at_bary = bc_bary_value(trees, costs, res.process.tree)
    assert abs(res.value - at_bary) <= 1e-8
    # equality with the LP oracle through the aggregated cost
    by_lp, _, _ = brute_force_mcot(trees, aggregate_cost(costs, phi0_quadratic(lam)))
    assert abs(res.value - by_lp) <= 1e-8
    # minimality against random candidates
    for _ in range(5):
        cand = random_tree(rng, horizon=2, dim=1, max_branch=2)
        assert res.value <= bc_bary_value(trees, costs, cand) + 1e-8


def test_bc_bary_value_dirac_candidate_is_plain_expectation():
    rng = np.random.default_rng(11)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    y0 = chain_tree([[0.3], [-0.4]], "y")
    got = bc_bary_value(trees, costs, y0)
    expected = 0.0
    for tree, cost in zip(trees, costs):
        law = tree.leaf_law()
        table = cost_table((tree, y0), cost)
        for leaf, w in enumerate(law):
            expected += w * table[leaf, 0]
    assert got == pytest.approx(expected, abs=1e-9)


def test_bc_barycenter_coupling_passes_checker_and_masses_sum():
    rng = np.random.default_rng(12)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    res = bc_barycenter(trees, costs, phi0_quadratic([0.5, 0.5]))
    bary = res.process.tree
    assert float(bary.leaf_law().sum()) == pytest.approx(1.0, abs=1e-10)
    # barycenter values are the selector applied to member values
    for level, (ids, states) in enumerate(zip(bary.ids, bary.states), start=1):
        for node_id, value in zip(ids, states):
            members = res.process.components[node_id]
            xs = tuple(
                tree.states[level - 1][tree.locate(m)[1]]
                for tree, m in zip(trees, members)
            )
            sel = phi0_quadratic([0.5, 0.5])(level, xs)
            assert value == pytest.approx(sel, abs=1e-12)


# -- causal transport ------------------------------------------------------------------


def test_causal_ot_identical_trees_metric_zero():
    rng = np.random.default_rng(13)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2)
    value, plan, _ = causal_ot(tree, tree, metric_cost())
    assert value == pytest.approx(0.0, abs=1e-10)
    for axis in (0, 1):
        assert plan.marginal_tv(axis) <= 1e-9


def test_causal_ot_single_period_equals_classical():
    rng = np.random.default_rng(14)
    t1 = random_tree(rng, horizon=1, dim=1, max_branch=3)
    t2 = random_tree(rng, horizon=1, dim=1, max_branch=3)
    cost = PowerCost(weight=1.0, exponent=2.0)
    v_causal, _, _ = causal_ot(t1, t2, cost)
    cmat = cost_table((t1, t2), cost)
    v_classical, _ = classical_ot(t1.leaf_law(), t2.leaf_law(), cmat)
    assert v_causal == pytest.approx(v_classical, abs=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_causal_never_exceeds_bicausal(seed):
    rng = np.random.default_rng(800 + seed)
    t1 = random_tree(rng, horizon=2, dim=1, max_branch=3)
    t2 = random_tree(rng, horizon=2, dim=1, max_branch=3)
    cost = PowerCost(weight=1.0, exponent=2.0)
    v_causal, plan, _ = causal_ot(t1, t2, cost)
    v_bicausal = mc_dpp([t1, t2], cm.pairwise_power(2.0)).value
    assert v_causal <= v_bicausal + 1e-10
    assert causal_violation(plan) <= 1e-9


# -- causal barycenters ------------------------------------------------------------------


def test_causal_barycenter_single_process_over_own_support():
    rng = np.random.default_rng(15)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2)
    sol = causal_barycenter([tree], tree, [metric_cost()])
    assert sol.value == pytest.approx(0.0, abs=1e-10)
    assert np.max(np.abs(reduce(np.add, [c.potentials[1] for c in sol.certificates]))) == 0.0


def test_causal_barycenter_identical_processes_recover_common_law():
    rng = np.random.default_rng(16)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2)
    sol = causal_barycenter([tree, tree], tree, [metric_cost()] * 2)
    assert sol.value == pytest.approx(0.0, abs=1e-10)
    assert 0.5 * float(np.abs(sol.nu - tree.leaf_law()).sum()) <= 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_causal_barycenter_duality_and_plan_validity(seed):
    rng = np.random.default_rng(900 + seed)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    task = random_tree(rng, horizon=2, dim=1, max_branch=3)
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    sol = causal_barycenter(trees, task, costs)
    # weak duality with equality at the optimum
    dual_value = check_certificates(sol.plans, sol.tables, sol.certificates)["dual_value"]
    assert dual_value <= sol.value + 1e-8
    assert abs(dual_value - sol.value) <= 1e-8 * (1 + abs(sol.value))
    # wages clear exactly
    assert np.max(np.abs(reduce(np.add, [c.potentials[1] for c in sol.certificates]))) == 0.0
    # plans share nu and are causal
    for tree, plan in zip(trees, sol.plans):
        assert plan.trees == (tree, task)
        tv = 0.5 * float(np.abs(plan.marginal(1) - sol.nu).sum())
        assert tv <= 1e-9
        assert causal_violation(plan) <= 1e-9
    # pointwise dual feasibility, equality on the support, on the tables
    # the LP was solved on
    for plan, table, cost in zip(sol.plans, sol.tables, costs, strict=True):
        assert np.array_equal(table, cost_table(plan.trees, cost))
    check = check_certificates(sol.plans, sol.tables, sol.certificates)
    assert check["min_dual_slack"] >= -1e-8
    assert check["worst_support_slack"] <= 1e-8


def test_causal_barycenter_counterexample_candidate_value():
    tree1, tree2 = cubic_pair(4)
    # task support: the canonical-candidate structure (0, Z^3)
    sol = causal_barycenter(
        [tree1, tree2], tree2, [PowerCost(weight=0.5, exponent=2.0)] * 2
    )
    assert sol.value <= 1.0 + 1e-9


@pytest.mark.parametrize("solve", [
    lambda trees, task, costs, **kw: causal_barycenter(trees, task, costs, **kw),
    lambda trees, task, costs, **kw: anticausal_barycenter(trees, costs, task, **kw),
], ids=["causal", "anticausal"])
def test_barycenters_check_their_inputs_alike(solve):
    rng = np.random.default_rng(18)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2)
    task = random_tree(rng, horizon=2, dim=1, max_branch=2)
    with pytest.raises(ValidationError, match="at least one process required"):
        solve([], task, [])
    with pytest.raises(ValidationError, match="one cost per process required"):
        solve([tree], task, [metric_cost()] * 2)
    with pytest.raises(ValidationError, match=re.escape("horizon mismatch: [1, 2]")):
        solve([tree], chain_tree([[0.0]]), [metric_cost()])
    n = tree.n_leaves * task.n_leaves
    with pytest.raises(BudgetExceededError,
                       match=f"barycenter LP: {n} leaf tuples exceed budget {n - 1}$"):
        solve([tree], task, [metric_cost()], tuple_budget=n - 1)


# -- anticausal barycenters ----------------------------------------------------------------


def test_anticausal_single_process_own_support_is_free():
    rng = np.random.default_rng(17)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2)
    res = anticausal_barycenter([tree], [metric_cost()], tree)
    assert res.value == pytest.approx(0.0, abs=1e-10)


def test_anticausal_two_dirac_paths_pick_midpoint():
    a = chain_tree([[0.0], [0.0]], "a")
    b = chain_tree([[2.0], [2.0]], "b")
    support = ScenarioTree.from_levels(
        [
            [
                {"id": "y0", "parent": None, "p": 1 / 3, "x": [0.0]},
                {"id": "y1", "parent": None, "p": 1 / 3, "x": [1.0]},
                {"id": "y2", "parent": None, "p": 1 / 3, "x": [2.0]},
            ],
            [
                {"id": "z0", "parent": "y0", "p": 1.0, "x": [0.0]},
                {"id": "z1", "parent": "y1", "p": 1.0, "x": [1.0]},
                {"id": "z2", "parent": "y2", "p": 1.0, "x": [2.0]},
            ],
        ]
    )
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    res = anticausal_barycenter([a, b], costs, support)
    # hand LP: midpoint path costs 0.5*2 + 0.5*2 = 2, endpoints cost 4
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert res.nu == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_anticausal_relaxes_causal(seed):
    rng = np.random.default_rng(1000 + seed)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    task = random_tree(rng, horizon=2, dim=1, max_branch=3)
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    causal = causal_barycenter(trees, task, costs)
    anti = anticausal_barycenter(trees, costs, task)
    assert anti.value <= causal.value + 1e-8


# -- counterexample -------------------------------------------------------------------------


def test_counterexample_reported_values_exact():
    report = counterexample_demo(4)
    assert report.cost_phi0_construction == pytest.approx(15.5, abs=1e-9)
    assert report.cost_canonical_candidate == pytest.approx(1.0, abs=1e-9)
    assert report.moment2 == pytest.approx(normal_moment(2), abs=1e-9)
    assert report.moment6 == pytest.approx(normal_moment(6), abs=1e-9)
    assert report.gap >= 14.0


def test_counterexample_closed_form_identity():
    # the construction cost equals (E Z^2 + 2 E Z^6)/2 under the quantised law
    for n in (4, 6):
        report = counterexample_demo(n)
        closed = 0.5 * (report.moment2 + 2.0 * report.moment6)
        assert report.cost_phi0_construction == pytest.approx(closed, abs=1e-9)


#: n whose causal transport LP HiGHS called infeasible while it carried
#: every causality row, the implied ones too
FORMERLY_INFEASIBLE = (16, 20, 23, 24, 27, 30, 31, 33, 34, *range(36, 41), *range(42, 47),
                       48, 49, *range(51, 61))


@pytest.mark.parametrize("n", FORMERLY_INFEASIBLE)
def test_counterexample_solves_where_implied_rows_made_it_infeasible(n):
    report = counterexample_demo(n)
    # the two causal values, E Z^2 and 0, each within its LP's gap bound
    tol = DUALITY_TOL * (1 + report.moment2) + DUALITY_TOL
    assert report.cost_canonical_candidate == pytest.approx(report.moment2, abs=tol)
    assert report.moment2 == pytest.approx(1.0, abs=1e-12)


def test_counterexample_rejects_small_quantisation():
    with pytest.raises(ValidationError):
        counterexample_demo(3)
