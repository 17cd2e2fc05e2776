"""Dynamic matching equilibria: construction, best responses, verification.

Core claims exercised:
    - solve_matching output verifies end to end (clearing exactly zero,
      optimality gaps within 1e-7, common task marginal within 1e-9 TV),
    - a principal-only market clears with zero wages,
    - constant wage shifts move best-response values by exactly the
      constant and leave the optimal plan unchanged,
    - the backward-recursion best response attains the best-response LP
      (population marginal and causality rows, task marginal free) with
      a deterministic causal plan, ties going to the first task child,
    - agent wages have mean zero under nu, so each population's value is
      its plan's expected cost,
    - perturbed wages or plans, and plans that are not causal, are
      caught by the verifier,
    - every plan producer returns a coupling over its stated tree pair,
    - complementary slackness holds on equilibrium supports.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from treeot import matching as matching_mod
from treeot import (
    BudgetExceededError,
    MatchingInstance,
    PowerCost,
    ScenarioTree,
    ValidationError,
    anticausal_barycenter,
    best_response,
    causal_barycenter,
    causal_ot,
    check_certificates,
    complementary_slackness,
    solve_matching,
    verify_equilibrium,
)
from treeot.barycenters import causal_violation
from treeot.lp import CAUSALITY_TOL, MARGINAL_TOL, _marginal_pattern, solve_lp
from treeot.matching import Equilibrium
from treeot.multicausal import (
    DualCertificate,
    MulticausalCoupling,
    coupling_from_dense,
)
from treeot.randomgen import random_tree

from helpers import operator_by_tuple


def quadratic() -> PowerCost:
    return PowerCost(weight=1.0, exponent=2.0)


def metric() -> PowerCost:
    return PowerCost(weight=1.0, exponent=1.0)


def random_instance(seed: int, n_agents: int = 2) -> MatchingInstance:
    rng = np.random.default_rng(seed)
    principal = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="p")
    agents = [
        random_tree(rng, horizon=2, dim=1, max_branch=2, prefix=f"a{i}_")
        for i in range(n_agents)
    ]
    tasks = random_tree(rng, horizon=2, dim=1, max_branch=3, prefix="y")
    return MatchingInstance(
        principal=principal,
        utility=quadratic(),
        agents=agents,
        agent_costs=[quadratic()] * n_agents,
        tasks=tasks,
    )


def test_instance_validation():
    rng = np.random.default_rng(0)
    principal = random_tree(rng, horizon=2, dim=1, prefix="p")
    short = random_tree(rng, horizon=1, dim=1, prefix="s")
    with pytest.raises(ValidationError, match="horizon"):
        MatchingInstance(
            principal=principal, utility=quadratic(), agents=[short],
            agent_costs=[quadratic()], tasks=principal,
        )
    with pytest.raises(ValidationError, match="one cost"):
        MatchingInstance(
            principal=principal, utility=quadratic(), agents=[principal],
            agent_costs=[], tasks=principal,
        )


def test_principal_only_market_has_zero_wage():
    rng = np.random.default_rng(1)
    principal = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="p")
    tasks = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="y")
    instance = MatchingInstance(
        principal=principal, utility=quadratic(), agents=[], agent_costs=[], tasks=tasks
    )
    eq = solve_matching(instance)
    assert np.max(np.abs(eq.wages[0])) == 0.0
    # nu is the principal's optimal task law: the zero-wage best response
    value, plan = best_response(instance, 0, np.zeros(tasks.n_leaves))
    assert eq.values[0] == pytest.approx(value, abs=1e-8)
    assert verify_equilibrium(instance, eq).passed


def test_identical_populations_on_own_support_are_free():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="s")
    # utility -c keeps c^0 = -u = +metric distance
    instance = MatchingInstance(
        principal=tree,
        utility=PowerCost(weight=1.0, exponent=1.0),
        agents=[tree, tree],
        agent_costs=[metric(), metric()],
        tasks=tree,
    )
    eq = solve_matching(instance)
    report = verify_equilibrium(instance, eq)
    assert report.passed
    assert 0.5 * float(np.abs(eq.nu - tree.leaf_law()).sum()) <= 1e-9
    # agent costs are zero on the identity matching; values are wage transfers
    total = sum(eq.values)
    # utility term enters with the opposite sign; total surplus is -(value sum)
    assert total == pytest.approx(
        sum(
            pl.expectation(c) for pl, c in zip(eq.plans, instance.cost_tables)
        ),
        abs=1e-8,
    )


@pytest.mark.parametrize("seed", range(6))
def test_solve_matching_passes_verification(seed):
    instance = random_instance(2000 + seed)
    eq = solve_matching(instance)
    report = verify_equilibrium(instance, eq)
    assert report.clearing_ok and report.worst_clearing == 0.0
    assert report.optimality_ok
    assert all(abs(g) <= 1e-7 for g in report.optimality_gaps)
    assert report.common_marginal_ok and report.worst_marginal_tv <= 1e-9
    assert report.worst_causality <= 1e-9
    assert report.passed


@pytest.mark.parametrize("seed", range(3))
def test_complementary_slackness_on_support(seed):
    instance = random_instance(2100 + seed)
    eq = solve_matching(instance)
    check = complementary_slackness(instance, eq)
    assert check["min_dual_slack"] >= -1e-8
    assert check["worst_support_slack"] <= 1e-8
    # the wages clear, so the summed gap is the barycenter's
    assert check["duality_gap"] <= 1e-8 * (1 + abs(sum(eq.values)))


def _pair_slacks(tree, tasks, cmat, certificate):
    """c - w + G - f on every leaf pair, one pair and one key at a time,
    from a certificate (f on the leaves of ``tree``, w on the task leaves;
    ``coefficients[0][t-1][task node at t, own node at t+1]``)."""
    potential, wage = certificate.potentials
    coefficients, task_coefficients = certificate.coefficients
    assert task_coefficients == ()
    out = np.empty(cmat.shape)
    for lx in range(tree.n_leaves):
        px = tree.ancestors[lx].tolist()
        for ly in range(tasks.n_leaves):
            py = tasks.ancestors[ly].tolist()
            g = 0.0
            for t in range(1, tree.horizon):
                coef = coefficients[t - 1]
                g += coef[py[t - 1], px[t]]
                for b in tree.children(t, px[t - 1]):
                    g -= tree.probs[t][b] * coef[py[t - 1], b]
            out[lx, ly] = cmat[lx, ly] - wage[ly] + g - potential[lx]
    return out


def _slack_extremes_by_pair(trees, tasks, tables, plans, certificates):
    slacks = [_pair_slacks(tree, tasks, table, cert)
              for tree, table, cert in zip(trees, tables, certificates)]
    support = [abs(s[idx]) for s, plan in zip(slacks, plans) for idx in map(tuple, plan.tuples)]
    return min(float(s.min()) for s in slacks), max(support)


@pytest.mark.parametrize("seed", range(2))
def test_slack_extremes_match_per_pair_evaluation(seed):
    instance = random_instance(2200 + seed)
    tables = instance.cost_tables
    # match: the certificates of the equilibrium
    eq = solve_matching(instance)
    expected = _slack_extremes_by_pair(
        instance.populations, instance.tasks, tables, eq.plans, eq.certificates)
    check = complementary_slackness(instance, eq)
    assert (check["min_dual_slack"], check["worst_support_slack"]) == pytest.approx(
        expected, abs=1e-12)
    # bary-c: the causal barycenter of the agents alone, on the tables it carries
    sol = causal_barycenter(instance.agents, instance.tasks, instance.agent_costs)
    assert all(np.array_equal(a, b) for a, b in zip(sol.tables, tables[1:], strict=True))
    expected = _slack_extremes_by_pair(
        instance.agents, instance.tasks, tables[1:], sol.plans, sol.certificates)
    check = check_certificates(sol.plans, sol.tables, sol.certificates)
    assert (check["min_dual_slack"], check["worst_support_slack"]) == pytest.approx(
        expected, abs=1e-12)


def test_match_evaluates_each_cost_once_per_pair():
    instance = random_instance(2300)
    calls = []

    def counted(cost):
        def fn(trees):
            calls.append(None)
            return cost(trees)
        return fn

    counting = MatchingInstance(
        principal=instance.principal, utility=counted(quadratic()),
        agents=instance.agents, agent_costs=[counted(quadratic())] * 2,
        tasks=instance.tasks,
    )
    eq = solve_matching(counting)
    assert verify_equilibrium(counting, eq).passed
    complementary_slackness(counting, eq)
    assert len(calls) == len(counting.populations)  # one table per population
    # the barycenters gate on the tables they were solved on
    for solve in (causal_barycenter, lambda trees, tasks, costs:
                  anticausal_barycenter(trees, costs, tasks)):
        calls.clear()
        res = solve(counting.agents, counting.tasks, counting.agent_costs)
        check_certificates(res.plans, res.tables, res.certificates)
        assert len(calls) == len(counting.agents)


def test_match_refuses_by_budget_first_and_solves_on_the_instance_tables(monkeypatch):
    instance = random_instance(2301)
    calls = []

    def counted(cost):
        def fn(trees):
            calls.append(None)
            return cost(trees)
        return fn

    counting = MatchingInstance(
        principal=instance.principal, utility=counted(quadratic()),
        agents=instance.agents, agent_costs=[counted(quadratic())] * 2,
        tasks=instance.tasks,
    )
    with pytest.raises(BudgetExceededError,
                       match="^causal barycenter: joint LP exceeds the tuple budget$"):
        solve_matching(counting, tuple_budget=1)
    assert calls == []
    solutions = []

    def captured(*args, **kwargs):
        solutions.append(causal_barycenter(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(matching_mod, "causal_barycenter", captured)
    solve_matching(counting)
    assert len(calls) == len(counting.populations)
    assert all(np.shares_memory(a, b)
               for a, b in zip(solutions[0].tables, counting.cost_tables, strict=True))


def test_best_response_zero_wage_on_own_support_is_free():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="s")
    instance = MatchingInstance(
        principal=tree, utility=metric(), agents=[tree],
        agent_costs=[metric()], tasks=tree,
    )
    value, plan = best_response(instance, 1, np.zeros(tree.n_leaves))
    assert value == pytest.approx(0.0, abs=1e-10)


def test_best_response_constant_wage_shifts_value_exactly():
    instance = random_instance(4)
    zeros = np.zeros(instance.tasks.n_leaves)
    v0, plan0 = best_response(instance, 1, zeros)
    kappa = 3.75
    v1, plan1 = best_response(instance, 1, zeros + kappa)
    assert v1 - v0 == pytest.approx(-kappa, abs=1e-12)
    assert plan0.tuples.tolist() == plan1.tuples.tolist()
    assert plan0.weights == pytest.approx(plan1.weights, abs=0)


def test_best_response_matches_equilibrium_plan_value():
    instance = random_instance(5)
    eq = solve_matching(instance)
    for i in range(len(instance.populations)):
        value, _ = best_response(instance, i, eq.wages[i])
        achieved = eq.plans[i].expectation(instance.cost_tables[i] - eq.wages[i])
        assert achieved == pytest.approx(value, abs=1e-8)


def lp_best_response(instance, i, wage) -> float:
    """V^i(w) as an LP: the population's leaf marginal and its causality
    rows, task marginal free, on the cost shifted to a zero minimum."""
    tree, tasks = instance.populations[i], instance.tasks
    n_x, n_y = tree.n_leaves, tasks.n_leaves
    cmat = instance.cost_tables[i] - wage[None, :]
    shift = float(cmat.min())
    rows, cols = _marginal_pattern((n_x, n_y))
    own = rows < n_x  # the population's marginal rows
    a_eq = sp.vstack([
        sp.csr_matrix((np.ones(own.sum()), (rows[own], cols[own])), shape=(n_x, n_x * n_y)),
        operator_by_tuple((tree, tasks), (0,)),
    ])
    b_eq = np.concatenate([tree.leaf_law(), np.zeros(a_eq.shape[0] - n_x)])
    c = (cmat - shift).ravel()
    x, _ = solve_lp(c, sp.csr_matrix(a_eq), b_eq, "best response")
    return float(c @ x) + shift


def random_market(seed: int) -> tuple[MatchingInstance, np.random.Generator]:
    rng = np.random.default_rng(seed)
    horizon = 1 + seed % 3
    trees = [
        random_tree(rng, horizon=horizon, dim=1, max_branch=3, prefix=prefix)
        for prefix in ("p", "a0_", "a1_", "y")
    ]
    instance = MatchingInstance(
        principal=trees[0], utility=quadratic(), agents=trees[1:3],
        agent_costs=[quadratic(), metric()], tasks=trees[3],
    )
    return instance, rng


@pytest.mark.parametrize("seed", range(24))
def test_best_response_recursion_attains_the_lp(seed):
    instance, rng = random_market(3000 + seed)
    tasks = instance.tasks
    for i, tree in enumerate(instance.populations):
        wage = rng.normal(scale=2.0, size=tasks.n_leaves)
        value, plan = best_response(instance, i, wage)
        tol = 1e-12 * (1 + abs(value))
        assert value == pytest.approx(lp_best_response(instance, i, wage), abs=tol)
        # deterministic: one task leaf per population leaf, with its probability
        assert plan.trees == (tree, tasks)
        assert plan.tuples[:, 0].tolist() == list(range(tree.n_leaves))
        assert plan.marginal_tv(0) <= 1e-12
        assert causal_violation(plan) <= 1e-12
        achieved = plan.expectation(instance.cost_tables[i] - wage)
        assert achieved == pytest.approx(value, abs=tol)


def test_best_response_ties_go_to_the_first_task_child():
    def node(node_id, parent, y, p):
        return {"id": node_id, "parent": parent, "p": p, "x": [y]}

    worker = ScenarioTree.from_levels([[node("x1", None, 0.0, 1.0)],
                                       [node("x2", "x1", 0.0, 1.0)]])
    # the children of a and b interleave in level order
    tasks = ScenarioTree.from_levels([
        [node("a", None, 0.0, 0.5), node("b", None, 0.0, 0.5)],
        [node("n0", "b", 1.0, 0.5), node("n1", "a", 2.0, 0.5),
         node("n2", "b", -1.0, 0.5), node("n3", "a", -2.0, 0.5)],
    ])
    instance = MatchingInstance(
        principal=worker, utility=quadratic(), agents=[worker],
        agent_costs=[quadratic()], tasks=tasks,
    )
    # costs 1, 4, 1, 4: b wins, and its children n0 and n2 tie
    value, plan = best_response(instance, 1, np.zeros(4))
    assert value == 1.0
    assert plan.tuples.tolist() == [[0, 0]]
    # costs less wages all 1: a ties with b and n1 with n3
    value, plan = best_response(instance, 1, np.array([0.0, 3.0, 0.0, 3.0]))
    assert value == 1.0
    assert plan.tuples.tolist() == [[0, 1]]
    assert plan.weights.tolist() == [1.0]


@pytest.mark.parametrize("seed", range(4))
def test_wages_have_mean_zero_under_nu(seed):
    instance = random_instance(2400 + seed)
    eq = solve_matching(instance)
    nu = eq.nu
    for w in eq.wages:
        assert abs(float(w @ nu)) <= 1e-12
    assert np.max(np.abs(eq.wages[0] + sum(eq.wages[1:]))) == 0.0
    # both barycenters normalise their wages the same way
    populations, tasks = instance.populations, instance.tasks
    for sol in (causal_barycenter(populations, tasks, instance.cost_tables),
                anticausal_barycenter(populations, instance.cost_tables, tasks)):
        wages = [cert.potentials[1] for cert in sol.certificates]
        for w in wages[1:]:
            assert abs(float(w @ sol.nu)) <= 1e-12
        assert np.max(np.abs(wages[0] + sum(wages[1:]))) == 0.0
    assert complementary_slackness(instance, eq)["min_dual_slack"] >= -1e-8
    for plan, table, value in zip(eq.plans, instance.cost_tables, eq.values):
        cost = plan.expectation(table)
        assert value == pytest.approx(cost, abs=1e-9 * (1 + abs(value)))


@pytest.mark.parametrize("seed", range(2))
def test_equilibrium_certificates_are_the_barycenter_certificates(seed):
    instance = random_instance(2500 + seed)
    eq = solve_matching(instance)
    sol = causal_barycenter(instance.populations, instance.tasks, instance.cost_tables)
    assert len(eq.certificates) == len(sol.certificates)
    for ours, theirs in zip(eq.certificates, sol.certificates):
        for f, g in zip(ours.potentials, theirs.potentials, strict=True):
            assert np.array_equal(f, g)
        for per_depth, other in zip(ours.coefficients, theirs.coefficients, strict=True):
            for a, b in zip(per_depth, other, strict=True):
                assert np.array_equal(a, b)


def test_wage_shift_neutrality_between_agents():
    instance = random_instance(6)
    eq = solve_matching(instance)
    kappa = 0.8
    shifted = [w.copy() for w in eq.wages]
    shifted[1] = shifted[1] + kappa
    shifted[2] = shifted[2] - kappa
    # clearing still holds and the best-response plans are unchanged
    assert np.max(np.abs(sum(shifted))) <= 1e-12
    for i in (1, 2):
        v_old, plan_old = best_response(instance, i, eq.wages[i])
        v_new, plan_new = best_response(instance, i, shifted[i])
        assert v_new - v_old == pytest.approx(-kappa if i == 1 else kappa, abs=1e-10)
        assert plan_old.tuples.tolist() == plan_new.tuples.tolist()
        assert plan_old.weights == pytest.approx(plan_new.weights, abs=0)


def test_verify_catches_broken_clearing():
    instance = random_instance(7)
    eq = solve_matching(instance)
    certificates = list(eq.certificates)
    (f, wage), coefficients = certificates[1].potentials, certificates[1].coefficients
    wage = wage.copy()
    wage[0] += 0.1
    certificates[1] = DualCertificate(potentials=(f, wage), coefficients=coefficients)
    broken = Equilibrium(instance=instance, nu=eq.nu, plans=eq.plans, values=eq.values,
                         certificates=tuple(certificates))
    report = verify_equilibrium(instance, broken)
    assert not report.clearing_ok
    assert instance.tasks.leaf_ids()[0] in report.clearing_witnesses
    assert report.worst_clearing == pytest.approx(0.1, abs=1e-12)


def test_verify_catches_suboptimal_plan():
    # seed chosen so the product plan is non-degenerate (strict gap ~1.6)
    instance = random_instance(2000)
    eq = solve_matching(instance)
    # replace agent 1's plan by the product plan; on a generic instance this
    # is strictly suboptimal
    tree = instance.agents[0]
    law_x, law_y = tree.leaf_law(), eq.nu
    dense = np.outer(law_x, law_y)
    product_plan = coupling_from_dense((tree, instance.tasks), dense)
    plans = list(eq.plans)
    plans[1] = product_plan
    tampered = Equilibrium(instance=instance, nu=eq.nu, plans=tuple(plans), values=eq.values,
                           certificates=eq.certificates)
    report = verify_equilibrium(instance, tampered)
    assert report.optimality_gaps[1] > 1e-7
    assert not report.optimality_ok


def test_verify_catches_a_plan_that_is_not_causal():
    def node(node_id, parent, p):
        return {"id": node_id, "parent": parent, "p": p, "x": [0.0]}

    # the worker's path branches at t = 2, the tasks' at t = 1
    worker = ScenarioTree.from_levels([[node("x1", None, 1.0)],
                                       [node("xa", "x1", 0.5), node("xb", "x1", 0.5)]])
    tasks = ScenarioTree.from_levels([[node("a", None, 0.5), node("b", None, 0.5)],
                                      [node("a2", "a", 1.0), node("b2", "b", 1.0)]])
    instance = MatchingInstance(principal=worker, utility=np.zeros((2, 2)), agents=[],
                                agent_costs=[], tasks=tasks)
    nu = np.array([0.5, 0.5])

    def report(plan):
        certificate = DualCertificate(potentials=(np.zeros(2), np.zeros(2)),
                                      coefficients=((np.zeros((2, 2)),), ()))
        eq = Equilibrium(instance=instance, nu=nu, plans=(plan,), values=(0.0,),
                         certificates=(certificate,))
        return verify_equilibrium(instance, eq)

    # at zero cost and wage every plan with these marginals is optimal; one
    # whose task at t = 1 reads the worker's node at t = 2 is not causal
    peeking = report(MulticausalCoupling((worker, tasks), [[0, 0], [1, 1]], [0.5, 0.5]))
    assert peeking.clearing_ok and peeking.optimality_ok and peeking.common_marginal_ok
    assert peeking.worst_causality == pytest.approx(0.25, abs=1e-15)
    assert not peeking.passed
    independent = report(coupling_from_dense((worker, tasks), np.full((2, 2), 0.25)))
    assert independent.worst_causality <= CAUSALITY_TOL
    assert independent.passed


def test_every_plan_producer_returns_a_coupling_over_its_pair():
    instance = random_instance(2500)
    tasks, populations = instance.tasks, instance.populations
    costs = [quadratic()] * len(populations)
    produced = [  # (plan, its tree pair, the population's axis)
        (causal_ot(populations[1], tasks, quadratic())[1], (populations[1], tasks), 0),
        *((plan, (tree, tasks), 0) for tree, plan in
          zip(populations, causal_barycenter(populations, tasks, costs).plans)),
        *((plan, (tree, tasks), 0) for tree, plan in
          zip(populations, anticausal_barycenter(populations, costs, tasks).plans)),
        *((plan, (tree, tasks), 0) for tree, plan in
          zip(populations, solve_matching(instance).plans)),
        *((best_response(instance, i, np.zeros(tasks.n_leaves))[1], (tree, tasks), 0)
          for i, tree in enumerate(populations)),
    ]
    for plan, pair, axis in produced:
        assert isinstance(plan, MulticausalCoupling)
        assert plan.trees == pair
        assert np.all(plan.weights > 0)
        flat = np.ravel_multi_index(tuple(plan.tuples.T), [t.n_leaves for t in pair])
        assert np.all(np.diff(flat) > 0)  # distinct, in C order
        assert plan.marginal_tv(axis) <= MARGINAL_TOL


def test_wage_table_is_keyed_by_task_path_sequences():
    instance = random_instance(9)
    eq = solve_matching(instance)
    table = eq.wage_table()
    tasks = instance.tasks

    def path_ids(k):  # the ids up the parent links from leaf k, root first
        ids = [tasks.ids[-1][k]]
        for t in range(tasks.horizon - 1, 0, -1):
            k = tasks.parents[t][k]
            ids.insert(0, tasks.ids[t - 1][k])
        return ids

    expected_keys = {"/".join(path_ids(j)) for j in range(tasks.n_leaves)}
    assert set(table) == expected_keys
    for wages in table.values():
        assert len(wages) == len(instance.populations)
        assert sum(wages[1:]) + wages[0] == pytest.approx(0.0, abs=1e-12)
