"""Acceptance suite.

Every criterion below is checked at its stated tolerance and prints one
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``):

 1. backward recursion == brute-force LP on >= 200 random instances,
 2. dual certificates match primal values and are pointwise feasible,
 3. bicausal barycenter value equality and minimality on >= 100 instances,
 4. the quantised Gaussian counterexample reports 15.5 and 1 exactly,
 5. causal <= bicausal on >= 100 random pairs,
 6. adapted-Wasserstein metric axioms on >= 50 random triples,
 7. restriction/gluing outputs pass the multicausality checker (>= 100),
 8. matching equilibria verify on >= 50 random markets,
 9. quantisation-refinement stability of the counterexample quantities,
10. anticausal relaxation never exceeds the causal value (>= 50).
"""
from __future__ import annotations

import numpy as np
import pytest

from treeot import (
    MatchingInstance,
    PowerCost,
    anticausal_barycenter,
    assemble_coupling,
    aw_distance,
    bc_barycenter,
    bc_bary_value,
    brute_force_mcot,
    causal_barycenter,
    causal_ot,
    counterexample_demo,
    glue,
    mc_dpp,
    phi0_quadratic,
    restrict_coupling,
    solve_matching,
    verify_certificate,
    verify_equilibrium,
    verify_multicausal,
)
from treeot import costs as cm
from treeot.multicausal import cost_table
from treeot.barycenters import cubic_pair
from treeot.randomgen import random_multicausal_coupling, random_tree
from treeot.trees import ScenarioTree


def _criterion(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status}  {description}  ({detail})", flush=True)
    assert ok, f"criterion {num} failed: {description} ({detail})"


def grid_task_tree(y1_values, y2_values) -> ScenarioTree:
    """Full-support task tree over a per-period grid (probabilities uniform)."""
    k1, k2 = len(y1_values), len(y2_values)
    levels = [
        [
            {"id": f"g1_{i}", "parent": None, "p": 1.0 / k1, "x": [float(v)]}
            for i, v in enumerate(y1_values)
        ],
        [
            {"id": f"g2_{i}_{j}", "parent": f"g1_{i}", "p": 1.0 / k2, "x": [float(w)]}
            for i in range(k1)
            for j, w in enumerate(y2_values)
        ],
    ]
    return ScenarioTree.from_levels(levels)


@pytest.fixture(scope="module")
def oracle_family():
    """>= 200 random instances shared by criteria 1 and 2.

    N in {2, 3}, T in {2, 3}, per-node branching up to 3 (capped at 2 for
    the largest N = T = 3 combination to keep the LP oracle desk-sized),
    quadratic and metric path costs.
    """
    rng = np.random.default_rng(20260811)
    family = []
    for k in range(200):
        n = 2 if k % 2 == 0 else 3
        horizon = 2 if (k // 2) % 2 == 0 else 3
        max_branch = 2 if (n, horizon) == (3, 3) else 3
        trees = [
            random_tree(rng, horizon=horizon, dim=1, max_branch=max_branch)
            for _ in range(n)
        ]
        cost = cm.pairwise_power(2.0) if k % 4 < 2 else cm.lp_sum(1.0)
        dpp = mc_dpp(trees, cost)
        v_lp, coupling, cert = brute_force_mcot(trees, cost)
        family.append((trees, cost, dpp, v_lp, coupling, cert))
    return family


def test_criterion_1_oracle_equivalence(oracle_family):
    worst = 0.0
    for _, _, dpp, v_lp, _, _ in oracle_family:
        worst = max(worst, abs(dpp.value - v_lp) / (1.0 + abs(v_lp)))
    _criterion(
        1,
        f"recursion vs LP oracle on {len(oracle_family)} instances, tol 1e-8",
        worst <= 1e-8,
        f"worst relative gap {worst:.3e}",
    )


def test_criterion_2_duality(oracle_family):
    worst_gap, worst_slack = 0.0, 0.0
    for trees, cost, _, v_lp, coupling, cert in oracle_family:
        gap = abs(cert.potential_total(trees) - v_lp) / (1.0 + abs(v_lp))
        worst_gap = max(worst_gap, gap)
        report = verify_certificate(coupling, cost_table(trees, cost), cert)
        worst_slack = min(worst_slack, report["min_slack"])
    ok = worst_gap <= 1e-8 and worst_slack >= -1e-8
    _criterion(
        2,
        "dual certificates: value match 1e-8, slack >= -1e-8",
        ok,
        f"worst gap {worst_gap:.3e}, min slack {worst_slack:.3e}",
    )


def test_dpp_certificate_on_oracle_family(oracle_family):
    """The recursion's own certificate closes the gap against its assembled
    coupling, is feasible at every leaf tuple and certifies the oracle's
    value, with no second solve."""
    worst_gap, worst_slack, worst_oracle = 0.0, 0.0, 0.0
    for trees, cost, dpp, v_lp, _, cert in oracle_family:
        coupling = assemble_coupling(dpp.policy)
        report = verify_certificate(coupling, cost_table(trees, cost), dpp.certificate)
        scale = 1.0 + abs(dpp.value)
        worst_gap = max(worst_gap, report["gap"] / scale)
        worst_slack = min(worst_slack, report["min_slack"])
        worst_oracle = max(
            worst_oracle, abs(report["dual_value"] - cert.potential_total(trees)) / scale
        )
    assert worst_slack >= -1e-8, worst_slack
    assert worst_gap <= 1e-8, worst_gap
    assert worst_oracle <= 1e-8, worst_oracle


def test_criterion_3_barycenter_equivalence():
    rng = np.random.default_rng(3)
    worst_eq, worst_min = 0.0, 0.0
    for _ in range(100):
        trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
        lam = rng.random(2) + 0.25
        lam /= lam.sum()
        costs = [PowerCost(weight=float(l), exponent=2.0) for l in lam]
        res = bc_barycenter(trees, costs, phi0_quadratic(lam))
        worst_eq = max(worst_eq, abs(res.value - bc_bary_value(trees, costs, res.process.tree)))
        for _ in range(20):
            cand = random_tree(rng, horizon=2, dim=1, max_branch=2)
            worst_min = max(worst_min, res.value - bc_bary_value(trees, costs, cand))
    ok = worst_eq <= 1e-8 and worst_min <= 1e-8
    _criterion(
        3,
        "barycenter value equality and minimality, 100 instances x 20 candidates, tol 1e-8",
        ok,
        f"worst equality gap {worst_eq:.3e}, worst minimality excess {worst_min:.3e}",
    )


def test_criterion_4_counterexample_exact():
    report = counterexample_demo(4)
    err_a = abs(report.cost_phi0_construction - 15.5)
    err_b = abs(report.cost_canonical_candidate - 1.0)
    ok = err_a <= 1e-9 and err_b <= 1e-9
    _criterion(
        4,
        "counterexample reports 15.5 and 1 within 1e-9 at 4-node quantisation",
        ok,
        f"|a-15.5|={err_a:.3e}, |b-1|={err_b:.3e}",
    )


def test_criterion_5_causal_below_bicausal():
    rng = np.random.default_rng(5)
    worst = -np.inf
    for _ in range(100):
        t1 = random_tree(rng, horizon=2, dim=1, max_branch=3)
        t2 = random_tree(rng, horizon=2, dim=1, max_branch=3)
        v_causal, _, _ = causal_ot(t1, t2, PowerCost(weight=1.0, exponent=2.0))
        v_bicausal = mc_dpp([t1, t2], cm.pairwise_power(2.0)).value
        worst = max(worst, v_causal - v_bicausal)
    _criterion(
        5,
        "causal value <= bicausal value on 100 pairs, slack 1e-10",
        worst <= 1e-10,
        f"worst excess {worst:.3e}",
    )


def test_criterion_6_metric_axioms():
    rng = np.random.default_rng(6)
    worst_sym, worst_tri, worst_self = 0.0, 0.0, 0.0
    for _ in range(50):
        trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(3)]
        for p in (1.0, 2.0):
            d = {}
            for i in range(3):
                for j in range(3):
                    if i != j:
                        d[i, j] = aw_distance(trees[i], trees[j], p)
            for i in range(3):
                worst_self = max(worst_self, aw_distance(trees[i], trees[i], p))
                for j in range(3):
                    if i < j:
                        worst_sym = max(worst_sym, abs(d[i, j] - d[j, i]))
            for i, j, k in ((0, 1, 2), (1, 0, 2), (0, 2, 1)):
                worst_tri = max(worst_tri, d[i, k] - d[i, j] - d[j, k])
    ok = worst_sym <= 1e-10 and worst_tri <= 1e-8 and worst_self <= 1e-10
    _criterion(
        6,
        "metric axioms on 50 triples, p in {1,2}",
        ok,
        f"sym {worst_sym:.3e}, triangle excess {worst_tri:.3e}, self {worst_self:.3e}",
    )


def test_criterion_7_restriction_and_gluing():
    rng = np.random.default_rng(7)
    worst = 0.0
    cases = 0
    for _ in range(50):
        trees = [
            random_tree(rng, horizon=2, dim=1, max_branch=2, prefix=p) for p in "abc"
        ]
        triple = random_multicausal_coupling(rng, trees)
        subset = sorted(
            rng.choice(3, size=int(rng.integers(1, 3)), replace=False).tolist()
        )
        restricted = restrict_coupling(triple, subset)
        report = verify_multicausal(restricted)
        worst = max(worst, report.worst_violation)
        cases += 1
        pi = random_multicausal_coupling(rng, trees[:2])
        ga = random_multicausal_coupling(rng, trees[1:])
        report = verify_multicausal(glue(pi, ga))
        worst = max(worst, report.worst_violation)
        cases += 1
    _criterion(
        7,
        f"restriction/gluing outputs multicausal on {cases} cases, tol 1e-8",
        worst <= 1e-8,
        f"worst violation {worst:.3e}",
    )


def test_criterion_8_matching_equilibria():
    rng = np.random.default_rng(8)
    worst_clear, worst_gap, worst_tv = 0.0, 0.0, 0.0
    for _ in range(50):
        principal = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="p")
        agents = [
            random_tree(rng, horizon=2, dim=1, max_branch=2, prefix=f"a{i}_")
            for i in range(2)
        ]
        tasks = grid_task_tree(
            rng.normal(size=int(rng.integers(2, 4))),
            rng.normal(size=int(rng.integers(2, 4))),
        )
        instance = MatchingInstance(
            principal=principal,
            utility=PowerCost(weight=1.0, exponent=2.0),
            agents=agents,
            agent_costs=[PowerCost(weight=1.0, exponent=2.0)] * 2,
            tasks=tasks,
        )
        eq = solve_matching(instance)
        report = verify_equilibrium(instance, eq)
        worst_clear = max(worst_clear, report.worst_clearing)
        worst_gap = max(worst_gap, max(abs(g) for g in report.optimality_gaps))
        worst_tv = max(worst_tv, report.worst_marginal_tv)
    ok = worst_clear == 0.0 and worst_gap <= 1e-7 and worst_tv <= 1e-9
    _criterion(
        8,
        "matching equilibria on 50 markets: exact clearing, gaps 1e-7, TV 1e-9",
        ok,
        f"clearing {worst_clear:.3e}, gap {worst_gap:.3e}, tv {worst_tv:.3e}",
    )


def test_criterion_9_refinement_stability():
    orders = (4, 6, 8, 12)
    reports = {n: counterexample_demo(n) for n in orders}
    spans = {
        "moment2": max(r.moment2 for r in reports.values()) - min(r.moment2 for r in reports.values()),
        "moment6": max(r.moment6 for r in reports.values()) - min(r.moment6 for r in reports.values()),
        "phi0": max(r.cost_phi0_construction for r in reports.values())
        - min(r.cost_phi0_construction for r in reports.values()),
        "candidate": max(r.cost_canonical_candidate for r in reports.values())
        - min(r.cost_canonical_candidate for r in reports.values()),
    }
    poly_ok = all(v <= 1e-6 for v in spans.values())

    # causal barycenter on one fixed task grid shared by all quantisations:
    # the union of the cube supports.  First coordinates are pinned at 0 and
    # cubes are matched exactly, so every refinement value equals E Z^2 / 2.
    cube_values = sorted(
        {float(x[0]) for n in orders for x in cubic_pair(n)[1].states[1]}
    )
    task = ScenarioTree.from_levels(
        [
            [{"id": "t1", "parent": None, "p": 1.0, "x": [0.0]}],
            [
                {"id": f"t2_{i}", "parent": "t1", "p": 1.0 / len(cube_values), "x": [v]}
                for i, v in enumerate(cube_values)
            ],
        ]
    )
    costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
    values = {}
    for n in orders:
        trees = list(cubic_pair(n))
        values[n] = causal_barycenter(trees, task, costs).value
    derived = 0.5  # forced first-coordinate cost E Z^2 / 2; cubes match exactly
    level_ok = all(abs(v - derived) <= 1e-8 for v in values.values())
    dist = [abs(values[n] - values[12]) for n in orders]
    monotone_ok = all(dist[i + 1] <= dist[i] + 1e-9 for i in range(len(dist) - 1))
    ok = poly_ok and level_ok and monotone_ok
    _criterion(
        9,
        "refinement stability over n in {4,6,8,12}: spans 1e-6, convergence within noise",
        ok,
        f"max span {max(spans.values()):.3e}, "
        f"max |v_n - 1/2| {max(abs(v - derived) for v in values.values()):.3e}",
    )


def test_criterion_10_anticausal_relaxation():
    rng = np.random.default_rng(10)
    worst = -np.inf
    for _ in range(50):
        trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
        task = random_tree(rng, horizon=2, dim=1, max_branch=3, prefix="y")
        costs = [PowerCost(weight=0.5, exponent=2.0)] * 2
        causal = causal_barycenter(trees, task, costs)
        anti = anticausal_barycenter(trees, costs, task)
        worst = max(worst, anti.value - causal.value)
    _criterion(
        10,
        "anticausal <= causal barycenter on 50 shared-support instances, tol 1e-8",
        worst <= 1e-8,
        f"worst excess {worst:.3e}",
    )
