"""Multicausal transport: recursion, LP oracle, couplings, certificates.

Core claims exercised:
    - the backward recursion and the brute-force LP agree on random
      instances (mutual oracle),
    - assembled couplings factorise exactly (direct-summation oracle),
    - the indicator test-function checker accepts every construction
      that must be multicausal and rejects an anticipative coupling
      with a named witness,
    - certificates satisfy duality and pointwise feasibility,
    - restriction and gluing preserve multicausality,
    - adapted Wasserstein distances satisfy the metric axioms,
    - constant cost shifts move values exactly and leave plans alone.
"""
from __future__ import annotations

import functools
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from treeot import (
    BudgetExceededError,
    IncompletePolicyError,
    SolverFailureError,
    ValidationError,
    assemble_coupling,
    aw_distance,
    brute_force_mcot,
    classical_ot,
    coupling_from_dense,
    coupling_from_id_atoms,
    glue,
    mc_dpp,
    multimarginal_ot,
    restrict_coupling,
    verify_certificate,
    verify_multicausal,
)
from treeot import costs as cm
from treeot import lp as lp_mod
from treeot import multicausal as mc
from treeot.barycenters import (
    PowerCost,
    causal_barycenter,
    causal_ot,
    causal_violation,
    cubic_pair,
)
from treeot.cli import run
from treeot.multicausal import (
    DualCertificate,
    KernelPolicy,
    MulticausalCoupling,
    causal_lp_rows,
    cost_table,
)
from treeot.randomgen import random_multicausal_coupling, random_policy, random_tree
from treeot.trees import ScenarioTree, chain_tree, dump_tree, tree_document

from helpers import atom_ids, operator_by_tuple


def product_policy(trees) -> KernelPolicy:
    """Independent kernels at every node tuple."""
    trees = tuple(trees)
    weights = []
    for t in range(1, trees[0].horizon + 1):
        dense = np.array(1.0)
        for tr in trees:
            dense = np.multiply.outer(dense, tr.probs[t - 1])
        weights.append(dense)
    return KernelPolicy(trees=trees, weights=tuple(weights))


def direct_summation(policy: KernelPolicy) -> dict[tuple[int, ...], float]:
    """Oracle: leaf-tuple weights by explicit nested products, children
    visited depth first in C order, in the order of the returned dict."""
    trees = policy.trees
    frontier = [((), 1.0)]
    for t, weights in enumerate(policy.weights):
        new = []
        for idx, w in frontier:
            if t == 0:
                children = [range(tr.level_size(1)) for tr in trees]
            else:
                children = [tr.children(t, k) for tr, k in zip(trees, idx)]
            for nxt in itertools.product(*children):
                if weights[nxt] > 0:
                    new.append((nxt, w * float(weights[nxt])))
        frontier = new
    out: dict[tuple[int, ...], float] = {}
    for idx, w in frontier:
        out[idx] = out.get(idx, 0.0) + w
    return out


def as_dict(coupling: MulticausalCoupling) -> dict[tuple[int, ...], float]:
    """The coupling's atoms as {leaf index tuple: weight}, in atom order."""
    return dict(zip(map(tuple, coupling.tuples.tolist()), coupling.weights.tolist()))


def relisted_specs(tree: ScenarioTree, orders) -> list[list[dict]]:
    """The node specs of ``tree`` with level t's listed in the order ``orders[t]``."""
    levels = tree_document(tree)["levels"]
    return [[level[k] for k in order] for level, order in zip(levels, orders, strict=True)]


def relisted(tree: ScenarioTree, orders) -> ScenarioTree:
    """The same process with level t's nodes listed in the order ``orders[t]``."""
    return ScenarioTree.from_levels(relisted_specs(tree, orders))


def shuffled_levels(rng, tree: ScenarioTree) -> ScenarioTree:
    """The same process with each level's nodes listed in random order."""
    return relisted(tree, [rng.permutation(len(ids)) for ids in tree.ids])


def block_plans(res):
    """(depth t, the tuple's children per tree, its one-step plan) for the
    root (t = 0) and every node tuple above the leaves."""
    trees = res.policy.trees
    out = [(0, [list(range(tr.level_size(1))) for tr in trees], res.policy.weights[0])]
    for t in range(1, trees[0].horizon):
        for idx in np.ndindex(*(tr.level_size(t) for tr in trees)):
            children = [tr.children(t, k) for tr, k in zip(trees, idx)]
            out.append((t, children, res.policy.weights[t][np.ix_(*children)]))
    return out


def anticipative_instance():
    """T=2 pair where the second process's first step copies the first
    process's second step; the coupling has correct marginals but is not
    multicausal."""
    tree1 = ScenarioTree.from_levels(
        [
            [{"id": "a", "parent": None, "p": 1.0, "x": [0.0]}],
            [
                {"id": "a1", "parent": "a", "p": 0.5, "x": [-1.0]},
                {"id": "a2", "parent": "a", "p": 0.5, "x": [1.0]},
            ],
        ]
    )
    tree2 = ScenarioTree.from_levels(
        [
            [
                {"id": "b1", "parent": None, "p": 0.5, "x": [-1.0]},
                {"id": "b2", "parent": None, "p": 0.5, "x": [1.0]},
            ],
            [
                {"id": "c1", "parent": "b1", "p": 1.0, "x": [0.0]},
                {"id": "c2", "parent": "b2", "p": 1.0, "x": [0.0]},
            ],
        ]
    )
    coupling = coupling_from_id_atoms(
        [tree1, tree2], [(("a1", "c1"), 0.5), (("a2", "c2"), 0.5)]
    )
    return tree1, tree2, coupling


# -- the tree arrays the solvers read ------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_tree_arrays_match_the_nodes(seed):
    rng = np.random.default_rng(80 + seed)
    # shuffled levels interleave the sibling groups
    base = random_tree(rng, horizon=4, dim=2, min_branch=1, max_branch=3)
    levels = relisted_specs(base, [rng.permutation(len(ids)) for ids in base.ids])
    tree = ScenarioTree.from_levels(levels)
    index = [{spec["id"]: k for k, spec in enumerate(level)} for level in levels]
    for t, level in enumerate(levels):
        assert tree.parents[t].dtype == np.intp
        assert tree.parents[t].tolist() == [index[t - 1][spec["parent"]] if t else 0
                                            for spec in level]
        assert tree.probs[t].tolist() == [spec["p"] for spec in level]
        assert tree.states[t].shape == (len(level), 2)
        assert np.array_equal(tree.states[t], [spec["x"] for spec in level])
    assert tree.ancestors.shape == (tree.n_leaves, tree.horizon)
    law = tree.leaf_law()
    for leaf in range(tree.n_leaves):
        path = [leaf]
        for t in range(tree.horizon - 1, 0, -1):
            path.insert(0, index[t - 1][levels[t][path[0]]["parent"]])
        assert tree.ancestors[leaf].tolist() == path
        mass = 1.0
        for t, k in enumerate(path):
            mass *= levels[t][k]["p"]
        assert law[leaf] == mass
    for a in (*tree.parents, *tree.probs, *tree.states, tree.ancestors):
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


# -- mc_dpp ---------------------------------------------------------------------


def test_dpp_identical_trees_zero_diagonal():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=3)
    res = mc_dpp([tree, tree, tree], cm.pairwise_power(1.0))
    assert res.value == pytest.approx(0.0, abs=1e-10)
    coupling = assemble_coupling(res.policy)
    assert all(len(set(idx)) == 1 for idx in coupling.tuples.tolist())


def test_dpp_single_period_reduces_to_multimarginal():
    rng = np.random.default_rng(2)
    trees = [random_tree(rng, horizon=1, dim=1, max_branch=3) for _ in range(3)]
    cost = cm.pairwise_power(2.0)
    res = mc_dpp(trees, cost)
    direct = multimarginal_ot([t.leaf_law() for t in trees], cost_table(trees, cost))
    assert res.value == pytest.approx(direct.value, abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_dpp_matches_brute_force_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n, horizon = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    trees = [random_tree(rng, horizon=horizon, dim=1, max_branch=2) for _ in range(n)]
    cost = cm.pairwise_power(2.0)
    v_dpp = mc_dpp(trees, cost).value
    v_lp, _, _ = brute_force_mcot(trees, cost)
    assert abs(v_dpp - v_lp) <= 1e-8 * (1 + abs(v_lp))


def test_dpp_value_function_terminal_layer_is_cost():
    rng = np.random.default_rng(3)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    cost = cm.pairwise_power(2.0)
    res = mc_dpp(trees, cost)
    terminal = res.tables[-1]
    assert np.array_equal(terminal, cost_table(trees, cost))
    assert all(np.all(np.isfinite(tbl)) for tbl in res.tables)
    # stored policy plans are feasible for their conditional marginals
    for t, children, plan in block_plans(res):
        for axis, (tree, ch) in enumerate(zip(trees, children)):
            kernel = tree.probs[t][ch]
            others = tuple(a for a in range(plan.ndim) if a != axis)
            assert 0.5 * np.abs(plan.sum(axis=others) - kernel).sum() <= 1e-9


def test_dpp_rejects_horizon_mismatch_and_budget():
    rng = np.random.default_rng(4)
    t1 = random_tree(rng, horizon=2, dim=1)
    t2 = random_tree(rng, horizon=3, dim=1)
    with pytest.raises(ValidationError, match="horizon"):
        mc_dpp([t1, t2], cm.pairwise_power(2.0))
    t3 = random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=2)
    with pytest.raises(BudgetExceededError):
        mc_dpp([t3, t3], cm.pairwise_power(2.0), tuple_budget=3)


def test_dpp_cost_shift_moves_value_exactly_and_keeps_policy():
    rng = np.random.default_rng(5)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=3) for _ in range(2)]
    base_cost = cm.pairwise_power(2.0)
    kappa = 7.25

    res0 = mc_dpp(trees, base_cost)
    res1 = mc_dpp(trees, lambda trees: base_cost(trees) + kappa)
    assert res1.value - res0.value == pytest.approx(kappa, abs=1e-12)
    for w0, w1 in zip(res0.policy.weights, res1.policy.weights, strict=True):
        assert np.array_equal(w0, w1)


def test_policy_perturbation_strictly_increases_cost():
    # two identical binary trees, metric cost: the diagonal policy is the
    # unique optimum; replacing the root plan by the product kernel must
    # strictly increase the assembled coupling's expected cost
    tree = ScenarioTree.from_levels(
        [
            [
                {"id": "u", "parent": None, "p": 0.5, "x": [0.0]},
                {"id": "v", "parent": None, "p": 0.5, "x": [1.0]},
            ],
            [
                {"id": "u1", "parent": "u", "p": 1.0, "x": [0.0]},
                {"id": "v1", "parent": "v", "p": 1.0, "x": [1.0]},
            ],
        ]
    )
    cost = cm.pairwise_power(1.0)
    res = mc_dpp([tree, tree], cost)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    weights = list(res.policy.weights)
    weights[0] = product_policy([tree, tree]).weights[0]
    perturbed = assemble_coupling(KernelPolicy(trees=(tree, tree), weights=tuple(weights)))
    assert perturbed.expectation(res.tables[-1]) > res.value + 0.1


def _depth_shapes(res, t):
    return {plan.shape for depth, _, plan in block_plans(res) if depth == t}


@pytest.mark.parametrize("n, horizon, max_branch", [(2, 3, 3), (3, 3, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_block_lp_mixed_shapes_matches_brute_force(seed, n, horizon, max_branch):
    rng = np.random.default_rng(900 + seed)
    trees = [
        random_tree(rng, horizon=horizon, dim=1, min_branch=1, max_branch=max_branch)
        for _ in range(n)
    ]
    cost = cm.pairwise_power(2.0)
    res = mc_dpp(trees, cost)
    assert any(len(_depth_shapes(res, t)) > 1 for t in range(1, horizon))
    v_lp, _, _ = brute_force_mcot(trees, cost)
    assert abs(res.value - v_lp) <= 1e-8 * (1 + abs(v_lp))
    assert verify_multicausal(assemble_coupling(res.policy)).passed


@pytest.mark.parametrize("columns", [1, 10])
def test_chunked_depths_match_single_block_lp(monkeypatch, columns):
    # three trees with 2-D states: their one-step blocks, bar those whose
    # north-west corner is optimal, go to the HiGHS block LP when the
    # simplex takes none
    monkeypatch.setattr(lp_mod, "_SIMPLEX_CELLS", 0)
    rng = np.random.default_rng(31)
    trees = [random_tree(rng, horizon=3, dim=2, max_branch=3) for _ in range(3)]
    cost = cm.pairwise_power(2.0)
    whole = mc_dpp(trees, cost)
    monkeypatch.setattr(lp_mod, "_BATCH_COLUMNS", columns)
    lp_mod.stats.reset()
    chunked = mc_dpp(trees, cost)
    assert lp_mod.stats.solves > trees[0].horizon
    # HiGHS pivots differently on differently stacked blocks, so plans may
    # differ in the last bit; supports must agree exactly
    assert chunked.value == pytest.approx(whole.value, rel=1e-12, abs=1e-14)
    for a, b in zip(whole.tables, chunked.tables, strict=True):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-14)
    for w, other in zip(whole.policy.weights, chunked.policy.weights, strict=True):
        assert np.array_equal(other > 0, w > 0)
        np.testing.assert_allclose(other, w, rtol=0, atol=1e-14)


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_dpp_solves_one_lp_per_depth(monkeypatch, horizon):
    rng = np.random.default_rng(40 + horizon)
    trees = [random_tree(rng, horizon=horizon, dim=1, min_branch=2, max_branch=3)
             for _ in range(2)]
    lp_mod.stats.reset()
    mc_dpp(trees, cm.pairwise_power(2.0))
    # two trees: every one-step block is certified at its north-west
    # corner or by the transportation simplex
    blocks = 1 + sum(trees[0].level_size(t) * trees[1].level_size(t) for t in range(1, horizon))
    assert lp_mod.stats.solves == 0
    assert lp_mod.stats.corner_blocks > 0
    assert lp_mod.stats.corner_blocks + lp_mod.stats.transport_blocks == blocks
    # three trees with 2-D states, whose corners are not optimal: the
    # transportation simplex certifies the blocks the corner fails
    trees = [random_tree(rng, horizon=horizon, dim=2, min_branch=2, max_branch=3)
             for _ in range(3)]
    lp_mod.stats.reset()
    value = mc_dpp(trees, cm.pairwise_power(2.0)).value
    assert lp_mod.stats.solves == 0 and lp_mod.stats.transport_blocks > 0
    # without the simplex, those of every depth share one HiGHS LP
    monkeypatch.setattr(lp_mod, "_SIMPLEX_CELLS", 0)
    lp_mod.stats.reset()
    assert mc_dpp(trees, cm.pairwise_power(2.0)).value == pytest.approx(value, rel=1e-12)
    assert lp_mod.stats.solves == horizon
    assert lp_mod.stats.transport_pivots == 0


def test_sibling_order_leaves_the_value_and_certificate():
    # three trees: the HiGHS blocks see their columns in state order
    rng = np.random.default_rng(63)
    trees = [random_tree(rng, horizon=3, dim=1, min_branch=1, max_branch=3)
             for _ in range(3)]
    # every sibling group listed in decreasing state order
    reverse = [relisted(tr, [np.argsort(-x[:, 0], kind="stable") for x in tr.states])
               for tr in trees]
    values = []
    for family in (trees, reverse):
        res = mc_dpp(family, cm.lp_sum(2.0))
        check = verify_certificate(assemble_coupling(res.policy), res.tables[-1],
                                   res.certificate)
        assert check["min_slack"] >= -lp_mod.CAUSALITY_TOL
        assert check["gap"] <= lp_mod.DUALITY_TOL * (1 + abs(res.value))
        values.append(res.value)
    assert abs(values[1] - values[0]) <= 1e-12 * (1 + abs(values[0]))


@pytest.mark.parametrize("cost", [cm.lp_sum(1.0), cm.lp_sum(2.0), cm.pairwise_power(2.0)],
                         ids=["lp_sum1", "lp_sum2", "pairwise_power2"])
@pytest.mark.parametrize("seed", range(3))
def test_leaf_depth_blocks_start_optimal(monkeypatch, cost, seed):
    # 1-D states, a cost convex in x - y: each leaf-depth block, its
    # children in state order, is a Monge matrix, so its north-west
    # corner is optimal and certified as it is: no block of the leaf
    # depth reaches the simplex
    rng = np.random.default_rng(70 + seed)
    trees = [random_tree(rng, horizon=3, dim=1, min_branch=2, max_branch=4) for _ in range(2)]
    depths = []  # per depth, leaves first: corner blocks, simplex blocks
    real_batch, real_simplex = mc.multimarginal_ot_batch, lp_mod._transport_simplex

    def batch(groups):
        lp_mod.stats.reset()
        depths.append([0, 0])
        out = real_batch(groups)
        depths[-1][0] = lp_mod.stats.corner_blocks
        return out

    def simplex(block_costs, *args):
        depths[-1][1] += len(block_costs)
        return real_simplex(block_costs, *args)

    monkeypatch.setattr(mc, "multimarginal_ot_batch", batch)
    monkeypatch.setattr(lp_mod, "_transport_simplex", simplex)
    mc_dpp(trees, cost)
    assert depths[0] == [trees[0].level_size(2) * trees[1].level_size(2), 0]


def test_multi_dimensional_states_keep_level_order():
    tree = random_tree(np.random.default_rng(64), horizon=3, dim=2, min_branch=1, max_branch=3)
    for t in range(tree.horizon):
        assert np.array_equal(mc._state_order(tree, t),
                              np.argsort(tree.parents[t], kind="stable"))


def test_level_order_leaves_values_and_pivots_bit_identical():
    # distinct states: every block, the root's included, reaches the
    # simplex in the same order however the levels are listed
    rng = np.random.default_rng(50)
    for _ in range(20):
        trees = [random_tree(rng, horizon=3, dim=1, min_branch=1, max_branch=3)
                 for _ in range(2)]
        runs = []
        for family in (trees, [shuffled_levels(rng, tr) for tr in trees]):
            lp_mod.stats.reset()
            runs.append((mc_dpp(family, cm.lp_sum(2.0)).value, lp_mod.stats.transport_pivots,
                         lp_mod.stats.transport_blocks))
        assert runs[1] == runs[0]


def test_block_gap_violation_raises_and_cli_exits_4(monkeypatch, tmp_path, capsys):
    # three trees with 2-D states: their one-step blocks, none optimal at
    # its north-west corner, go to the HiGHS block LP when the simplex
    # takes none
    monkeypatch.setattr(lp_mod, "_SIMPLEX_CELLS", 0)
    rng = np.random.default_rng(77)
    trees = [random_tree(rng, horizon=2, dim=2, min_branch=3, max_branch=4, prefix=p)
             for p in "abc"]
    shape = tuple(len(t.children(1, 0)) for t in trees)
    real = lp_mod.linprog
    seen = []

    def linprog(c, A_eq, b_eq, **kwargs):
        res = real(c, A_eq=A_eq, b_eq=b_eq, **kwargs)
        # mix block 0's plan with its product coupling: still feasible, but
        # off the optimal face by twice that block's gap tolerance
        n = int(np.prod(shape))
        ends = np.cumsum((0,) + shape)
        product = functools.reduce(
            np.multiply.outer, [b_eq[lo:hi] for lo, hi in zip(ends, ends[1:])]).ravel()
        own = float(c[:n] @ res.x[:n])
        eps = 2e-8 * (1 + own) / (float(c[:n] @ product) - own)
        x = np.array(res.x)
        x[:n] = (1 - eps) * x[:n] + eps * product
        whole = float(c @ x) - float(b_eq @ res.y) < 1e-8 * (1 + c @ x)
        seen.append((whole, kwargs["options"].get("simplex_scale_strategy")))
        res.x = x
        return res

    monkeypatch.setattr(lp_mod, "linprog", linprog)
    with pytest.raises(SolverFailureError) as exc:
        mc_dpp(trees, cm.pairwise_power(2.0))
    assert exc.value.details["block"] == 0
    # a check over the whole LP would have passed; the failed unscaled
    # solve is solved once more scaled, and that solve's failure is raised
    assert seen == [(True, 0), (True, None)]

    paths = []
    for name, tree in zip("abc", trees):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dump_tree(tree))
    seen.clear()
    capsys.readouterr()
    assert run(["mcot", *map(str, paths)]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "'gap'" in err and "'block': 0" in err


def test_highs_block_whose_clipped_plan_misses_its_marginals_is_refused(monkeypatch, tmp_path,
                                                                        capsys):
    # the three trees above; the first HiGHS solve moves 3e-9 around a 2x2
    # cycle of block 0 that starts at a zero cell: A x = b still holds and
    # the gaps pass, but the plan clipped at 0 misses its marginals by 3e-9
    monkeypatch.setattr(lp_mod, "_SIMPLEX_CELLS", 0)
    rng = np.random.default_rng(77)
    trees = [random_tree(rng, horizon=2, dim=2, min_branch=3, max_branch=4, prefix=p)
             for p in "abc"]
    shape = tuple(len(t.children(1, 0)) for t in trees)
    real = lp_mod.linprog
    solves = []

    def linprog(c, A_eq, b_eq, **kwargs):
        res = real(c, A_eq=A_eq, b_eq=b_eq, **kwargs)
        if not solves:
            x = res.x[:int(np.prod(shape))].reshape(shape)  # a view into res.x
            for i, j, k in np.argwhere(x > 3e-9):
                zeros = np.argwhere(x[:, :, k] == 0)
                zeros = zeros[(zeros[:, 0] != i) & (zeros[:, 1] != j)]
                if zeros.size:
                    break
            a, b = zeros[0]
            x[a, b, k] -= 3e-9
            x[i, j, k] -= 3e-9
            x[a, j, k] += 3e-9
            x[i, b, k] += 3e-9
            assert np.abs(A_eq @ res.x - b_eq).max() <= 1e-15
        solves.append(1)
        return res

    monkeypatch.setattr(lp_mod, "linprog", linprog)
    with pytest.raises(SolverFailureError, match="multimarginal block") as exc:
        mc_dpp(trees, cm.pairwise_power(2.0))
    assert exc.value.details["block"] == 0
    assert len(solves) == 1  # solve_lp accepted the LP as it was

    paths = []
    for name, tree in zip("abc", trees):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dump_tree(tree))
    solves.clear()
    capsys.readouterr()
    assert run(["mcot", *map(str, paths)]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "multimarginal block" in err and "'block': 0" in err


@pytest.mark.parametrize("horizon", [1, 2, 3])
def test_recursion_on_one_tree_is_the_expected_cost(horizon):
    # one tree: every one-step block, the root's included, has a single
    # marginal, so the value is the table's expectation under the leaf law
    rng = np.random.default_rng(90 + horizon)
    tree = random_tree(rng, horizon=horizon, dim=1, min_branch=1, max_branch=3)
    table = rng.normal(size=tree.n_leaves)
    res = mc_dpp([tree], table)
    assert abs(res.value - float(tree.leaf_law() @ table)) <= 1e-12
    check = verify_certificate(assemble_coupling(res.policy), table, res.certificate)
    assert check["min_slack"] >= -lp_mod.CAUSALITY_TOL
    assert check["support_slack"] <= lp_mod.CAUSALITY_TOL
    assert check["gap"] <= lp_mod.DUALITY_TOL * (1 + abs(res.value))


# -- assemble_coupling -------------------------------------------------------------


def test_assemble_dirac_trees_single_atom():
    a = chain_tree([[0.0], [1.0]], "a")
    b = chain_tree([[2.0], [3.0]], "b")
    res = mc_dpp([a, b], cm.pairwise_power(2.0))
    coupling = assemble_coupling(res.policy)
    assert as_dict(coupling) == {(0, 0): 1.0}


def test_assemble_product_policy_gives_product_law():
    rng = np.random.default_rng(6)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    coupling = assemble_coupling(product_policy(trees))
    laws = [t.leaf_law() for t in trees]
    for idx, w in as_dict(coupling).items():
        assert w == pytest.approx(laws[0][idx[0]] * laws[1][idx[1]], abs=1e-12)
    report = verify_multicausal(coupling)
    assert report.passed


@pytest.mark.parametrize("seed", range(5))
def test_assemble_matches_direct_summation_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    policy = random_policy(rng, trees)
    coupling = assemble_coupling(policy)
    oracle = direct_summation(policy)
    assert set(as_dict(coupling)) == set(oracle)
    for idx, w in oracle.items():
        assert as_dict(coupling)[idx] == pytest.approx(w, abs=1e-14)
    # atom order fixes the summation order of verify_certificate; levels
    # listed out of parent order must not change it
    shuffled = [shuffled_levels(rng, tr) for tr in
                (random_tree(rng, horizon=3, dim=1, min_branch=1, max_branch=3)
                 for _ in range(2))]
    res = mc_dpp(shuffled, cm.pairwise_power(2.0))
    for policy in (res.policy, random_policy(rng, shuffled)):
        coupling = assemble_coupling(policy)
        oracle = direct_summation(policy)
        assert list(as_dict(coupling)) == list(oracle)
        assert list(as_dict(coupling).values()) == list(oracle.values())


def test_assemble_optimal_policy_attains_dpp_value():
    rng = np.random.default_rng(7)
    trees = [random_tree(rng, horizon=3, dim=1, max_branch=2) for _ in range(2)]
    cost = cm.pairwise_power(2.0)
    res = mc_dpp(trees, cost)
    coupling = assemble_coupling(res.policy)
    assert coupling.expectation(cost_table(trees, cost)) == pytest.approx(res.value, abs=1e-8)
    assert verify_multicausal(coupling).passed


def test_assemble_incomplete_policy_raises():
    rng = np.random.default_rng(8)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    policy = random_policy(rng, trees)
    idx = tuple(np.argwhere(policy.weights[0] > 0)[-1])  # a reached tuple
    weights = [w.copy() for w in policy.weights]
    weights[1][np.ix_(*(tr.children(1, k) for tr, k in zip(trees, idx)))] = 0.0
    with pytest.raises(IncompletePolicyError, match="depth 1"):
        assemble_coupling(KernelPolicy(trees=policy.trees, weights=tuple(weights)))


def test_kernel_policy_rejects_malformed_weights():
    rng = np.random.default_rng(8)
    trees = [random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=3)
             for _ in range(2)]
    weights = random_policy(rng, trees).weights
    with pytest.raises(ValidationError, match="shapes"):
        KernelPolicy(trees=trees, weights=weights[:1])
    with pytest.raises(ValidationError, match="shapes"):
        KernelPolicy(trees=trees, weights=(weights[0][1:], weights[1]))
    negative = weights[1].copy()
    negative[0, 0] = -1e-12
    with pytest.raises(ValidationError, match="negative"):
        KernelPolicy(trees=trees, weights=(weights[0], negative))


# -- verify_multicausal --------------------------------------------------------------


def test_verify_accepts_assembled_and_product_couplings():
    rng = np.random.default_rng(9)
    trees = [random_tree(rng, horizon=3, dim=1, max_branch=2) for _ in range(2)]
    assert verify_multicausal(random_multicausal_coupling(rng, trees)).passed
    assert verify_multicausal(assemble_coupling(product_policy(trees))).passed


def test_verify_rejects_anticipative_coupling_with_witness():
    _, _, coupling = anticipative_instance()
    report = verify_multicausal(coupling)
    assert not report.passed
    assert report.worst_violation == pytest.approx(0.25, abs=1e-12)
    top = report.witnesses[0]
    assert top.process == 1
    assert top.t == 1
    assert top.violation == pytest.approx(0.25, abs=1e-12)


def test_verify_rejects_marginal_mismatch():
    rng = np.random.default_rng(10)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(2)]
    bad = MulticausalCoupling(trees=tuple(trees), tuples=[(0, 0)], weights=[1.0])
    with pytest.raises(ValidationError, match="marginal"):
        verify_multicausal(bad)


def test_verify_orders_tied_witnesses_by_key():
    # every violated row of the anticipative coupling violates by exactly 1/4
    _, _, coupling = anticipative_instance()
    reordered = MulticausalCoupling(
        trees=coupling.trees, tuples=coupling.tuples[::-1], weights=coupling.weights[::-1]
    )
    reports = [verify_multicausal(c) for c in (coupling, reordered)]
    assert reports[0] == reports[1]
    keys = [(w.process, w.t, w.others, w.child) for w in reports[0].witnesses]
    assert keys == sorted(keys)
    assert {w.violation for w in reports[0].witnesses} == {0.25}
    assert len(keys) == 4


@pytest.mark.parametrize("seed", range(3))
def test_causal_violation_agrees_with_verify_multicausal(seed):
    rng = np.random.default_rng(700 + seed)
    t1, t2 = (random_tree(rng, horizon=3, dim=1, min_branch=2, max_branch=2, prefix=p)
              for p in "ab")
    # an OT vertex for a random cost has the right marginals but is not causal
    _, dense = classical_ot(t1.leaf_law(), t2.leaf_law(),
                            rng.random((t1.n_leaves, t2.n_leaves)))
    coupling = coupling_from_dense((t1, t2), dense)
    flipped = MulticausalCoupling(trees=(t2, t1), tuples=coupling.tuples[:, ::-1],
                                  weights=coupling.weights)
    report = verify_multicausal(coupling, tol=0.0)
    for process, plan in enumerate([coupling, flipped], start=1):
        worst = max(w.violation for w in report.witnesses if w.process == process)
        assert worst > 1e-3
        assert causal_violation(plan) == pytest.approx(worst, rel=1e-12, abs=1e-15)


# -- the causality rows ------------------------------------------------------------


@pytest.mark.parametrize("case", ["pair-mixed", "triple", "single", "subset"])
def test_causality_operator_matches_per_tuple_rows(case):
    rng = np.random.default_rng(["pair-mixed", "triple", "single", "subset"].index(case))
    if case == "triple":
        trees = [random_tree(rng, horizon=2, dim=1, max_branch=2, prefix=p) for p in "abc"]
    elif case == "single":
        trees = [random_tree(rng, horizon=3, dim=1, max_branch=3)]
    else:
        trees = [random_tree(rng, horizon=3, dim=1, min_branch=1, max_branch=3, prefix=p)
                 for p in "ab"]
    processes = (1,) if case == "subset" else tuple(range(len(trees)))
    # a multicausal coupling is in the kernel of every causality row
    pi = np.zeros([t.n_leaves for t in trees])
    coupling = random_multicausal_coupling(rng, trees)
    pi[tuple(coupling.tuples.T)] = coupling.weights
    assert np.abs(operator_by_tuple(trees, processes) @ pi.ravel()).max() <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_factored_residuals_match_the_operator(seed):
    rng = np.random.default_rng(4000 + seed)
    trees = [random_tree(rng, horizon=3, dim=1, min_branch=1, max_branch=3, prefix=p)
             for p in "abc"[:2 + seed % 2]]
    # any measure: random weights on about a third of the leaf tuples
    shape = [t.n_leaves for t in trees]
    dense = np.where(rng.random(shape) < 1 / 3, rng.random(shape), 0.0)
    processes = [(0,), tuple(range(len(trees)))][seed % 2]
    op = operator_by_tuple(trees, processes)
    blocks = [(i, t) for i in processes for t in range(1, trees[0].horizon)]
    sizes = [int(np.prod(mc._coefficient_shape(trees, i, t))) for i, t in blocks]
    offsets = dict(zip(blocks, np.cumsum([0] + sizes)))
    residuals = np.zeros(op.shape[0])
    for i, t, rows, residual in mc._causal_residuals(coupling_from_dense(trees, dense),
                                                     processes):
        residuals[offsets[i, t] + rows] = residual
    np.testing.assert_allclose(residuals, op @ dense.ravel(), rtol=1e-13, atol=1e-15)


# -- causal_lp_rows: the independent rows an LP carries -------------------------------


def row_family(seed):
    """Two or three trees of one horizon (1 to 3) with 1 to 3 (pairs) or
    1 to 2 (triples) children per node, so single-child nodes occur."""
    rng = np.random.default_rng(4100 + seed)
    n, horizon = 2 + seed % 2, 1 + seed % 3
    return [random_tree(rng, horizon=horizon, dim=1, min_branch=1, max_branch=5 - n, prefix=p)
            for p in "abc"[:n]]


def marginal_operator(shape):
    """The marginal rows of every axis over the C-order cells of
    ``shape``, as a matrix (see :func:`treeot.lp._marginal_pattern`)."""
    rows, cols = lp_mod._marginal_pattern(shape)
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                         shape=(sum(shape), int(np.prod(shape))))


def dense_lp_rows(trees, processes):
    """The rows of :func:`causal_lp_rows` as a dense matrix."""
    rows, cols, vals, n_rows = causal_lp_rows(trees, processes)
    dense = np.zeros((n_rows, int(np.prod([t.n_leaves for t in trees]))))
    np.add.at(dense, (rows, cols), vals)
    return dense


def documented_kept(trees, processes):
    """The index among every causality row (:func:`operator_by_tuple`) of
    each row an LP keeps by the documented rule: row (A_{-i}, b) of
    process i at depth t, unless A_{-i} is the last raveled tuple of the
    others' nodes or b is the last child of its parent in level order."""
    kept, ofs = [], 0
    for i in processes:
        tree = trees[i]
        for t in range(1, tree.horizon):
            shape = mc._coefficient_shape(trees, i, t)
            for key in np.ndindex(*shape):
                b = key[-1]
                last_child = b == tree.children(t, tree.parents[t][b])[-1]
                last_others = key[:-1] == tuple(n - 1 for n in shape[:-1])
                if not (last_child or last_others):
                    kept.append(ofs + int(np.ravel_multi_index(key, shape)))
            ofs += int(np.prod(shape))
    return np.array(kept, dtype=np.intp)


def full_row_value(c, a_eq, b_eq) -> float:
    """The optimum of an LP whose rows hold every causality row."""
    c = np.ravel(c)
    x, _ = lp_mod.solve_lp(c, sp.csr_matrix(a_eq), b_eq, "every causality row")
    return float(c @ x)


def zero_at_dropped(coefficients, trees, processes):
    flat = np.concatenate([np.zeros(0)] + [np.ravel(c) for per in coefficients for c in per])
    assert flat.size == sum(int(np.prod(mc._coefficient_shape(trees, i, t)))
                            for i in processes for t in range(1, trees[0].horizon))
    dropped = np.setdiff1d(np.arange(flat.size), documented_kept(trees, processes))
    assert np.all(flat[dropped] == 0.0)


@pytest.mark.parametrize("seed", range(12))
def test_causal_lp_rows_keep_the_rank_of_every_row(seed):
    trees = row_family(seed)
    shape = tuple(t.n_leaves for t in trees)
    marginal = marginal_operator(shape).toarray()
    rank = np.linalg.matrix_rank
    for processes in dict.fromkeys([(0,), (0, 1), tuple(range(len(trees)))]):
        full = operator_by_tuple(trees, processes)
        dense, kept = dense_lp_rows(trees, processes), documented_kept(trees, processes)
        np.testing.assert_array_equal(dense[:sum(shape)], marginal)
        np.testing.assert_array_equal(dense[sum(shape):], full[kept])
        assert rank(np.vstack([marginal, full])) == rank(dense) == rank(marginal) + kept.size


@pytest.mark.parametrize("seed", range(12))
def test_lps_on_independent_rows_match_the_lps_on_every_row(seed):
    trees = row_family(seed)
    shape = tuple(t.n_leaves for t in trees)
    marginal = marginal_operator(shape)
    tol = lambda v: lp_mod.DUALITY_TOL * (1 + abs(v))

    # the oracle: every process causal
    table = cost_table(trees, cm.lp_sum(2.0))
    full = sp.csr_matrix(operator_by_tuple(trees, range(len(trees))))
    value, coupling, cert = brute_force_mcot(trees, cm.lp_sum(2.0))
    b_eq = np.concatenate([t.leaf_law() for t in trees] + [np.zeros(full.shape[0])])
    assert value == pytest.approx(
        full_row_value(table, sp.vstack([marginal, full]), b_eq), abs=tol(value))
    zero_at_dropped(cert.coefficients, trees, range(len(trees)))
    report = verify_certificate(coupling, table, cert)
    assert report["min_slack"] >= -1e-8
    assert report["gap"] <= tol(value)

    # causal transport from the first tree to the second
    pair = trees[:2]
    table = cost_table(pair, PowerCost())
    full = sp.csr_matrix(operator_by_tuple(pair, (0,)))
    value, plan, cert = causal_ot(*pair, PowerCost())
    b_eq = np.concatenate([t.leaf_law() for t in pair] + [np.zeros(full.shape[0])])
    assert value == pytest.approx(full_row_value(
        table, sp.vstack([marginal_operator(table.shape), full]), b_eq), abs=tol(value))
    assert causal_violation(plan) <= 1e-9
    assert cert.coefficients[1] == ()  # the second tree is not causal
    zero_at_dropped(cert.coefficients[:1], pair, (0,))
    report = verify_certificate(plan, table, cert)
    assert report["min_slack"] >= -1e-8
    assert report["gap"] <= tol(value)

    # the causal barycenter of the other trees on the last one's support
    *populations, task = trees
    costs = [PowerCost(weight=0.5)] * len(populations)
    sol = causal_barycenter(populations, task, costs)
    blocks, b_eq = [], []
    for i, tree in enumerate(populations):
        n_x, n_y = tree.n_leaves, task.n_leaves
        rows = sp.vstack([marginal_operator((n_x, n_y)), operator_by_tuple((tree, task), (0,))])
        link = sp.csr_matrix((-np.ones(n_y), (n_x + np.arange(n_y), np.arange(n_y))),
                             shape=(rows.shape[0], n_y))
        blocks.append([link] + [rows if j == i else None for j in range(len(populations))])
        b_eq += [tree.leaf_law(), np.zeros(rows.shape[0] - n_x)]
    c = np.concatenate([np.zeros(task.n_leaves)]
                       + [cost_table((tree, task), cost).ravel()
                          for tree, cost in zip(populations, costs)])
    reference = full_row_value(c, sp.bmat(blocks, format="csr"), np.concatenate(b_eq))
    assert sol.value == pytest.approx(reference, abs=tol(sol.value))
    check = mc.check_certificates(sol.plans, sol.tables, sol.certificates)
    assert check["min_dual_slack"] >= -1e-8
    assert check["worst_support_slack"] <= 1e-8


def test_causal_violation_sees_a_row_the_lp_drops():
    def node(node_id, parent, p):
        return {"id": node_id, "parent": parent, "p": p, "x": [0.0]}

    x = ScenarioTree.from_levels([[node("a", None, 1.0)],
                                  [node("b1", "a", 0.3), node("b2", "a", 0.7)]])
    y = ScenarioTree.from_levels([[node("A1", None, 0.5), node("A2", None, 0.5)],
                                  [node("c1", "A1", 1.0), node("c2", "A2", 1.0)]])
    pi = np.outer(x.leaf_law(), y.leaf_law())
    # more mass on (b1, c2): only the row (A2, b1), which the LP drops as
    # implied by the marginals, sees it
    pi[0, 1] += 1e-3
    dense = dense_lp_rows((x, y), (0,))
    assert documented_kept((x, y), (0,)).tolist() == [0]
    assert len(dense) == x.n_leaves + y.n_leaves + 1
    assert np.abs(dense[x.n_leaves + y.n_leaves:] @ pi.ravel()).max() <= 1e-16
    assert causal_violation(coupling_from_dense((x, y), pi)) == pytest.approx(0.7e-3, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_causal_lp_rows_count_their_entries_against_the_dense_budget(monkeypatch, seed):
    trees = row_family(seed)
    processes = tuple(range(len(trees)))
    size = int(np.prod([t.n_leaves for t in trees]))
    rows, _, _, _ = causal_lp_rows(trees, processes)
    built = rows.size - len(trees) * size  # every marginal row has one entry per column
    monkeypatch.setattr(lp_mod, "DENSE_BUDGET", built)
    assert causal_lp_rows(trees, processes)[0].size == rows.size
    if built:
        monkeypatch.setattr(lp_mod, "DENSE_BUDGET", built - 1)
        with pytest.raises(BudgetExceededError, match=f"causality rows have {built} entries"):
            causal_lp_rows(trees, processes)


def test_oversized_causality_rows_are_refused(monkeypatch, tmp_path, capsys):
    rng = np.random.default_rng(4200)
    trees = [random_tree(rng, horizon=2, dim=1, min_branch=3, max_branch=3, prefix=p)
             for p in "ab"]
    # 9 cells per one-step block, 108 causality entries per process: the
    # count adds up across blocks
    monkeypatch.setattr(lp_mod, "DENSE_BUDGET", 150)
    with pytest.raises(BudgetExceededError, match="causality rows have 216 entries"):
        brute_force_mcot(trees, cm.lp_sum(2.0))
    causal_barycenter(trees[:1], trees[1], [PowerCost()])
    monkeypatch.setattr(lp_mod, "DENSE_BUDGET", 100)
    with pytest.raises(BudgetExceededError, match="causality rows have 108 entries"):
        causal_barycenter(trees[:1], trees[1], [PowerCost()])

    paths = []
    for name, tree in zip("ab", trees):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dump_tree(tree))
    capsys.readouterr()
    monkeypatch.setattr(lp_mod, "DENSE_BUDGET", 150)
    assert run(["mcot", *map(str, paths), "--oracle"]) == 3
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "treeot: budget refused: causality rows have 216 entries > budget 150"]


@pytest.mark.parametrize("pair", ["candidate", "identical"])
def test_causal_lp_rows_memory_follows_the_kept_rows(pair):
    # every causality row of either pair is dropped: the other tree has one
    # node at depth 1; forming all rows would take 50,653,000 entries
    tree, candidate = cubic_pair(370)
    trees = (tree if pair == "candidate" else candidate, candidate)
    tracemalloc.start()
    try:
        causal_lp_rows(trees, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64e6


# -- brute_force_mcot ------------------------------------------------------------------


def test_brute_force_single_period_equals_multimarginal():
    rng = np.random.default_rng(11)
    trees = [random_tree(rng, horizon=1, dim=1, max_branch=3) for _ in range(2)]
    cost = cm.pairwise_power(2.0)
    v, coupling, cert = brute_force_mcot(trees, cost)
    assert v == pytest.approx(mc_dpp(trees, cost).value, abs=1e-10)
    assert not any(cert.coefficients)  # no causality constraints at T=1


def test_brute_force_identical_trees_metric_cost_zero():
    rng = np.random.default_rng(12)
    tree = random_tree(rng, horizon=2, dim=1, max_branch=2)
    v, _, _ = brute_force_mcot([tree, tree], cm.pairwise_power(1.0))
    assert v == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_brute_force_duality_and_certificate(seed):
    rng = np.random.default_rng(300 + seed)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(3)]
    cost = cm.pairwise_power(2.0)
    v, coupling, cert = brute_force_mcot(trees, cost)
    # dual value equals the primal value
    assert cert.potential_total(trees) == pytest.approx(v, abs=1e-8 * (1 + abs(v)))
    report = verify_certificate(coupling, cost_table(trees, cost), cert)
    assert report["min_slack"] >= -1e-8
    assert report["gap"] <= 1e-8 * (1 + abs(v))
    # F integrates to zero under any multicausal coupling
    assert abs(report["martingale_integral"]) <= 1e-8
    other = random_multicausal_coupling(rng, trees)
    mart = cert.martingale_values(trees)
    integral = sum(w * mart[idx] for idx, w in as_dict(other).items())
    assert abs(integral) <= 1e-8


def _direct_slack(trees, table, cert, idx):
    """c + F - (+)f at one leaf tuple, read key by key from the arrays."""
    paths = [t.ancestors[k].tolist() for t, k in zip(trees, idx)]
    total = table[idx]
    total -= sum(f[k] for f, k in zip(cert.potentials, idx))
    for i, tree in enumerate(trees):
        for t in range(1, tree.horizon):
            coef = cert.coefficients[i][t - 1]
            others = tuple(p[t - 1] for j, p in enumerate(paths) if j != i)
            total += coef[others + (paths[i][t],)]
            for b in tree.children(t, paths[i][t - 1]):
                total -= tree.probs[t][b] * coef[others + (b,)]
    return total


@pytest.mark.parametrize("seed", range(3))
def test_certificate_slacks_match_per_tuple_evaluation(seed):
    rng = np.random.default_rng(500 + seed)
    trees = [random_tree(rng, horizon=3, dim=1, max_branch=2, prefix=p) for p in "abc"]
    cost = cm.pairwise_power(2.0)
    table = cost_table(trees, cost)
    _, oracle_coupling, oracle_cert = brute_force_mcot(trees, cost)
    # the product coupling has every leaf tuple as an atom
    product = assemble_coupling(product_policy(trees))
    res = mc_dpp(trees, cost)
    for cert, optimal in ((res.certificate, assemble_coupling(res.policy)),
                          (oracle_cert, oracle_coupling)):
        slack = {idx: _direct_slack(trees, table, cert, idx)
                 for idx in itertools.product(*(range(t.n_leaves) for t in trees))}
        report = verify_certificate(product, table, cert)
        assert report["min_slack"] == pytest.approx(min(slack.values()), abs=1e-12)
        assert report["support_slack"] == pytest.approx(
            max(map(abs, slack.values())), abs=1e-12)
        report = verify_certificate(optimal, table, cert)
        assert report["support_slack"] == pytest.approx(
            max(abs(slack[idx]) for idx in map(tuple, optimal.tuples.tolist())), abs=1e-12)
        assert report["support_slack"] <= 1e-8


@pytest.mark.parametrize("seed", range(4))
def test_dpp_certificate_matches_oracle(seed):
    rng = np.random.default_rng(600 + seed)
    n = 2 + seed % 2
    trees = [random_tree(rng, horizon=3, dim=1, max_branch=3 if n == 2 else 2)
             for _ in range(n)]
    cost = cm.lp_sum(1.0)
    res = mc_dpp(trees, cost)
    report = verify_certificate(
        assemble_coupling(res.policy), cost_table(trees, cost), res.certificate
    )
    v, _, oracle_cert = brute_force_mcot(trees, cost)
    assert report["min_slack"] >= -1e-8
    assert report["gap"] <= 1e-8 * (1 + abs(res.value))
    assert abs(report["martingale_integral"]) <= 1e-8
    assert report["dual_value"] == pytest.approx(
        oracle_cert.potential_total(trees), abs=1e-8 * (1 + abs(v))
    )


def test_certificate_check_builds_the_martingale_once(monkeypatch):
    rng = np.random.default_rng(640)
    trees = [random_tree(rng, horizon=3, dim=1, max_branch=2) for _ in range(3)]
    table = cost_table(trees, cm.lp_sum(2.0))
    res = mc_dpp(trees, cm.lp_sum(2.0))
    coupling = assemble_coupling(res.policy)
    cert = res.certificate
    martingale = cert.martingale_values(trees)
    slack = table + martingale
    for i, f in enumerate(cert.potentials):
        slack -= f.reshape((-1,) + (1,) * (len(trees) - 1 - i))
    integral = coupling.expectation(martingale)
    calls = []
    real = DualCertificate.martingale_values
    monkeypatch.setattr(DualCertificate, "martingale_values",
                        lambda self, trees: calls.append(1) or real(self, trees))
    report = verify_certificate(coupling, table, cert)
    assert len(calls) == 1
    assert report["min_slack"] == float(slack.min())
    assert report["support_slack"] == float(np.abs(slack[tuple(coupling.tuples.T)]).max())
    assert report["martingale_integral"] == integral
    assert report["gap"] == abs(coupling.expectation(table) - cert.potential_total(trees))


@pytest.fixture(scope="module")
def deep_pair():
    """Two horizon-3 trees of branching 7 (117,649 leaf tuples, beyond the
    oracle), their ``mc_dpp`` solve under lp_sum(2), and the state of the
    generator after drawing them."""
    rng = np.random.default_rng(7)
    trees = [random_tree(rng, horizon=3, dim=1, min_branch=7, max_branch=7, prefix=p)
             for p in "ab"]
    return trees, mc_dpp(trees, cm.lp_sum(2.0)), rng.bit_generator.state


def test_dpp_certificate_beyond_oracle_size(deep_pair):
    trees, res, _ = deep_pair
    table = res.tables[-1]
    assert table.size == 117_649
    report = verify_certificate(assemble_coupling(res.policy), table, res.certificate)
    assert report["min_slack"] >= -1e-8
    assert report["gap"] <= 1e-8 * (1 + abs(res.value))
    assert report["dual_value"] == pytest.approx(res.value, abs=1e-8 * (1 + abs(res.value)))


def test_check_certificates_sums_the_plans_and_fails_on_nan():
    rng = np.random.default_rng(1332)
    pairs = [[random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=3, prefix=p)
              for p in "ab"] for _ in range(2)]
    solves = [mc_dpp(trees, cm.lp_sum(2.0)) for trees in pairs]
    args = ([assemble_coupling(res.policy) for res in solves], [res.tables[-1] for res in solves],
            [res.certificate for res in solves])
    reports = [verify_certificate(*entry) for entry in zip(*args)]
    check = mc.check_certificates(*args)
    assert check["min_dual_slack"] == min(r["min_slack"] for r in reports)
    assert check["worst_support_slack"] == max(r["support_slack"] for r in reports)
    assert check["dual_value"] == reports[0]["dual_value"] + reports[1]["dual_value"]
    assert check["duality_gap"] == abs(sum(r["primal_value"] for r in reports)
                                       - check["dual_value"])
    # a NaN coefficient leaves the dual value and the gap finite, but not
    # the slacks, whichever plan it is in
    for k in range(2):
        certificates = list(args[2])
        (first, *rest), *others = args[2][k].coefficients
        certificates[k] = DualCertificate(
            potentials=args[2][k].potentials,
            coefficients=((np.full_like(first, np.nan), *rest), *others))
        with pytest.raises(SolverFailureError, match="dual certificate fails verification"):
            mc.check_certificates(args[0], args[1], certificates)


def test_martingale_values_do_not_depend_on_the_chunk_size(monkeypatch, deep_pair):
    rng = np.random.default_rng(1330)
    triple = [random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=4, prefix=p)
              for p in "abc"]
    trees, res, _ = deep_pair
    for family, cert in ((trees, res.certificate), (triple, mc_dpp(triple, cm.lp_sum(2.0)).certificate)):
        size = int(np.prod([tree.n_leaves for tree in family]))
        values = []
        for chunk in (1, 1000, size):  # one leaf of the first tree per chunk, ..., one chunk
            monkeypatch.setattr(cm, "_CHUNK", chunk)
            values.append(cert.martingale_values(family))
        assert all(np.array_equal(v, values[0]) for v in values)


def test_verify_certificate_memory_is_bounded_by_the_table():
    # the martingale table is the one leaf-tuple-sized array it makes:
    # each (process, depth) term is gathered in chunks of the first tree
    rng = np.random.default_rng(1331)
    trees = [random_tree(rng, horizon=3, min_branch=10, max_branch=10, prefix=p) for p in "ab"]
    res = mc_dpp(trees, cm.lp_sum(2.0))
    coupling, table = assemble_coupling(res.policy), res.tables[-1]
    tracemalloc.start()
    try:
        verify_certificate(coupling, table, res.certificate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * table.nbytes


def test_check_certificates_memory_is_linear_in_a_wide_level():
    # the wide tree's depth-1 coefficients have 40,000 entries below 200
    # nodes: a dense (children x nodes) kernel of them would take 64 MB
    wide = random_tree(np.random.default_rng(1332), horizon=2, min_branch=200, max_branch=200,
                       prefix="w")
    trees = [chain_tree([[0.0], [0.0]], "c"), wide]
    res = mc_dpp(trees, cm.lp_sum(2.0))
    coupling = assemble_coupling(res.policy)
    tracemalloc.start()
    try:
        check = mc.check_certificates([coupling], [res.tables[-1]], [res.certificate])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
    assert check["min_dual_slack"] >= -lp_mod.CAUSALITY_TOL


def _reordered_copy(tree, rng, shift, prefix):
    """``tree`` with every sibling group (the roots included) in a random
    order, fresh node ids, and every state at depth t moved by shift[t-1]."""
    levels, names, parents = [], {}, [None]
    for t in range(1, tree.horizon + 1):
        level, order = [], []
        for parent in parents:
            kids = range(tree.level_size(1)) if parent is None else tree.children(t - 1, parent)
            for k in rng.permutation(list(kids)).tolist():
                names[(t, k)] = f"{prefix}{len(names)}"
                level.append({
                    "id": names[(t, k)],
                    "parent": None if parent is None else names[(t - 1, parent)],
                    "p": float(tree.probs[t - 1][k]),
                    "x": (tree.states[t - 1][k] + shift[t - 1]).tolist(),
                })
                order.append(k)
        levels.append(level)
        parents = order
    return ScenarioTree.from_levels(levels)


def test_aw_invariance_beyond_oracle_size(deep_pair):
    # the 117,649-tuple pair above, with siblings reordered, ids relabelled
    # and both trees translated by the same path
    trees, res, state = deep_pair
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    shift = rng.normal(size=(3, 1))
    moved = [_reordered_copy(t, rng, shift, p) for t, p in zip(trees, "cd")]
    for tree, copy in zip(trees, moved):
        assert not set(tree.leaf_ids()) & set(copy.leaf_ids())
        assert not np.array_equal(tree.leaf_law(), copy.leaf_law())
        assert np.sort(tree.leaf_law()) == pytest.approx(np.sort(copy.leaf_law()), abs=1e-15)
    v = max(res.value, 0.0) ** 0.5  # aw_distance(*trees)
    assert aw_distance(*moved) == pytest.approx(v, abs=1e-8 * (1 + abs(v)))


def _scaled(tree, lam):
    """``tree`` with every state multiplied by ``lam``."""
    levels = tree_document(tree)["levels"]
    for level, states in zip(levels, tree.states):
        for spec, x in zip(level, states):
            spec["x"] = (lam * x).tolist()
    return ScenarioTree.from_levels(levels)


def test_aw_scales_with_the_states_beyond_oracle_size(deep_pair):
    trees, res, _ = deep_pair
    v = max(res.value, 0.0) ** 0.5
    doubled = aw_distance(*(_scaled(t, 2.0) for t in trees))
    assert doubled == pytest.approx(2.0 * v, abs=1e-8 * (1 + 2.0 * v))


def test_aw_is_symmetric_beyond_oracle_size(deep_pair):
    trees, res, _ = deep_pair
    v = max(res.value, 0.0) ** 0.5
    assert aw_distance(trees[1], trees[0]) == pytest.approx(v, abs=1e-8 * (1 + v))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_aw_triangle_inequality_beyond_oracle_size(deep_pair, p):
    # the 117,649-tuple pair above and a third such tree
    (x, y), res, state = deep_pair
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    z = random_tree(rng, horizon=3, dim=1, min_branch=7, max_branch=7, prefix="c")
    d_xy = max(res.value, 0.0) ** 0.5 if p == 2.0 else aw_distance(x, y, p)
    d_xz, d_yz = aw_distance(x, z, p), aw_distance(y, z, p)
    assert d_xz <= d_xy + d_yz + 1e-8
    assert d_xy <= d_xz + d_yz + 1e-8
    assert d_yz <= d_xy + d_xz + 1e-8


def test_oracle_equivalence_family():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        horizon = int(rng.integers(2, 4))
        trees = [
            random_tree(rng, horizon=horizon, dim=1, max_branch=3 if horizon == 2 else 2)
            for _ in range(n)
        ]
        cost = cm.pairwise_power(2.0) if rng.random() < 0.5 else cm.lp_sum(1.0)
        v_dpp = mc_dpp(trees, cost).value
        v_lp, _, _ = brute_force_mcot(trees, cost)
        assert abs(v_dpp - v_lp) <= 1e-8 * (1 + abs(v_lp))


# -- couplings as arrays, against a dict of atoms -------------------------------------


def summed(pairs) -> dict[tuple[int, ...], float]:
    """(index tuple, weight) pairs as a dict: repeated tuples keep their
    first place and add their weights in input order."""
    out: dict[tuple[int, ...], float] = {}
    for idx, w in pairs:
        out[tuple(idx)] = out.get(tuple(idx), 0.0) + w
    return out


def dict_glue(pi: dict, gamma: dict, marg_gamma: np.ndarray) -> dict:
    """Gluing atom by atom: gamma's kernel below each positive atom of pi."""
    kernel: dict[int, list] = {}
    for idx, w in gamma.items():
        if w > 0.0:
            kernel.setdefault(idx[0], []).append((idx[1:], w / marg_gamma[idx[0]]))
    return summed((idx + rest, w * k) for idx, w in pi.items() if w > 0.0
                  for rest, k in kernel.get(idx[-1], ()))


def assert_matches_dict(coupling: MulticausalCoupling, atoms: dict, table: np.ndarray):
    """Atom order, marginals, the leaf ids of :func:`helpers.atom_ids` and
    ``expectation`` equal, bit for bit, what the dict gives summed atom by
    atom in its order."""
    trees = coupling.trees
    assert list(as_dict(coupling)) == list(atoms)
    assert coupling.weights.tolist() == list(atoms.values())
    for i, tree in enumerate(trees):
        marginal = np.zeros(tree.n_leaves)
        for idx, w in atoms.items():
            marginal[idx[i]] += w
        assert coupling.marginal(i).tolist() == marginal.tolist()
    leaf_ids = [tree.leaf_ids() for tree in trees]
    assert atom_ids(coupling) == [
        (tuple(ids[k] for ids, k in zip(leaf_ids, idx)), w) for idx, w in sorted(atoms.items())]
    expected = 0.0
    for idx, w in atoms.items():
        expected += w * table[idx]
    assert coupling.expectation(table) == expected


@pytest.mark.parametrize("n_trees", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_coupling_arrays_match_a_dict_of_atoms(n_trees, seed):
    rng = np.random.default_rng(1300 + seed)
    trees = [shuffled_levels(rng, random_tree(rng, horizon=4 - n_trees, dim=2, min_branch=1,
                                              max_branch=3, prefix=p))
             for p in "abc"[:n_trees]]
    policy = random_policy(rng, trees)
    coupling = assemble_coupling(policy)
    atoms = direct_summation(policy)
    assert_matches_dict(coupling, atoms, cost_table(trees, cm.lp_sum(2.0)))
    # restriction and gluing, atom by atom
    subset = [n_trees - 1, 0]
    assert_matches_dict(
        restrict_coupling(coupling, subset),
        summed((tuple(idx[i] for i in subset), w) for idx, w in atoms.items()),
        cost_table([trees[i] for i in subset], cm.lp_sum(1.0)))
    other = random_tree(rng, horizon=trees[0].horizon, dim=2, min_branch=1, max_branch=3,
                        prefix="z")
    gamma = random_multicausal_coupling(rng, [trees[-1], other])
    assert_matches_dict(
        glue(coupling, gamma),
        dict_glue(atoms, as_dict(gamma), gamma.marginal(0)),
        cost_table([*trees, other], cm.lp_sum(2.0)))


def test_coupling_from_repeated_id_atoms_sums_them_in_input_order():
    rng = np.random.default_rng(1310)
    trees = [random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=3, prefix=p)
             for p in "ab"]
    coupling = random_multicausal_coupling(rng, trees)
    # every atom cut into up to three pieces, shuffled
    pieces = []
    for idx, w in as_dict(coupling).items():
        cuts = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
        pieces += [(idx, float(w * c)) for c in cuts]
    pieces = [pieces[k] for k in rng.permutation(len(pieces))]
    leaf_ids = [tree.leaf_ids() for tree in trees]
    rebuilt = coupling_from_id_atoms(
        trees, [([ids[k] for ids, k in zip(leaf_ids, idx)], w) for idx, w in pieces])
    assert len(rebuilt.weights) == len(coupling.weights)
    assert_matches_dict(rebuilt, summed(pieces), cost_table(trees, cm.lp_sum(2.0)))


@pytest.mark.parametrize("tuples, weights, match", [
    ([[0, 0]], [-1.0], "negative or not finite"),
    ([[0, 0], [1, 1]], [0.5, np.nan], "negative or not finite"),
    ([[0, 0]], [np.inf], "negative or not finite"),
    ([[0, -1]], [1.0], "outside"),
    ([[0, 99]], [1.0], "outside"),
])
def test_coupling_refuses_bad_weights_and_leaf_indices(tuples, weights, match):
    rng = np.random.default_rng(1320)
    trees = [random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=2, prefix=p)
             for p in "ab"]
    with pytest.raises(ValidationError, match=match):
        MulticausalCoupling(trees, tuples, weights)
    if match != "outside":
        # id atoms reach the same check
        leaf_ids = [tree.leaf_ids() for tree in trees]
        with pytest.raises(ValidationError, match=match):
            coupling_from_id_atoms(trees, [([ids[k] for ids, k in zip(leaf_ids, idx)], w)
                                           for idx, w in zip(tuples, weights)])


def test_coupling_from_id_atoms_refuses_a_negative_atom_its_repeat_outweighs():
    rng = np.random.default_rng(1322)
    trees = [random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=2, prefix=p)
             for p in "ab"]
    ids = [tree.leaf_ids()[0] for tree in trees]
    # summed, the tuple would weigh 1.0
    with pytest.raises(ValidationError, match="coupling weight -0.1 is negative or not finite"):
        coupling_from_id_atoms(trees, [(ids, -0.1), (ids, 1.1)])


def test_expectation_refuses_a_table_of_another_shape():
    rng = np.random.default_rng(1321)
    trees = [random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=2, prefix=p)
             for p in "ab"]
    coupling = random_multicausal_coupling(rng, trees)
    with pytest.raises(ValidationError, match="leaf counts"):
        coupling.expectation(np.zeros((trees[0].n_leaves + 1, trees[1].n_leaves)))


# -- restriction and gluing ---------------------------------------------------------


def test_restrict_identity_and_product():
    rng = np.random.default_rng(14)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(3)]
    coupling = random_multicausal_coupling(rng, trees)
    same = restrict_coupling(coupling, [0, 1, 2])
    assert as_dict(same) == as_dict(coupling)
    product = assemble_coupling(product_policy(trees))
    restricted = restrict_coupling(product, [0, 2])
    laws = [trees[0].leaf_law(), trees[2].leaf_law()]
    for idx, w in as_dict(restricted).items():
        assert w == pytest.approx(laws[0][idx[0]] * laws[1][idx[1]], abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_restrict_preserves_multicausality(seed):
    rng = np.random.default_rng(400 + seed)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(3)]
    coupling = random_multicausal_coupling(rng, trees)
    restricted = restrict_coupling(coupling, [0, 1])
    report = verify_multicausal(restricted)
    assert report.passed and report.worst_violation <= 1e-8


def test_restrict_rejects_empty_subset():
    rng = np.random.default_rng(15)
    trees = [random_tree(rng, horizon=2, dim=1) for _ in range(2)]
    with pytest.raises(ValidationError):
        restrict_coupling(random_multicausal_coupling(rng, trees), [])


def test_glue_with_identity_self_coupling_duplicates_coordinate():
    rng = np.random.default_rng(16)
    t1 = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="a")
    t2 = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="b")
    pi = random_multicausal_coupling(rng, [t1, t2])
    identity = MulticausalCoupling(
        trees=(t2, t2),
        tuples=[(k, k) for k in range(t2.n_leaves)],
        weights=t2.leaf_law(),
    )
    glued = as_dict(glue(pi, identity))
    assert set(glued) == {idx + (idx[-1],) for idx in as_dict(pi)}
    for idx, w in as_dict(pi).items():
        assert glued[idx + (idx[-1],)] == pytest.approx(w, abs=1e-12)


def test_glue_products_gives_triple_product():
    rng = np.random.default_rng(17)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2, prefix=p) for p in "abc"]
    pi = assemble_coupling(product_policy(trees[:2]))
    ga = assemble_coupling(product_policy(trees[1:]))
    glued = glue(pi, ga)
    laws = [t.leaf_law() for t in trees]
    for idx, w in as_dict(glued).items():
        expected = laws[0][idx[0]] * laws[1][idx[1]] * laws[2][idx[2]]
        assert w == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_glue_random_bicausal_pair(seed):
    rng = np.random.default_rng(500 + seed)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=2, prefix=p) for p in "abc"]
    pi = random_multicausal_coupling(rng, trees[:2])
    ga = random_multicausal_coupling(rng, trees[1:])
    glued = glue(pi, ga)
    report = verify_multicausal(glued)
    assert report.passed and report.worst_violation <= 1e-8
    back_pi = restrict_coupling(glued, [0, 1])
    back_ga = restrict_coupling(glued, [1, 2])
    for back, ref in ((as_dict(back_pi), as_dict(pi)), (as_dict(back_ga), as_dict(ga))):
        tv = 0.5 * sum(
            abs(back.get(k, 0.0) - v)
            for k in set(back) | set(ref)
            for v in [ref.get(k, 0.0)]
        )
        assert tv <= 1e-9


def test_glue_rejects_mismatched_bridge():
    rng = np.random.default_rng(18)
    t1 = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="a")
    t2 = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="b")
    t3 = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="c")
    pi = random_multicausal_coupling(rng, [t1, t2])
    ga = random_multicausal_coupling(rng, [t3, t1])
    with pytest.raises(ValidationError):
        glue(pi, ga)


# -- adapted Wasserstein distance -------------------------------------------------------


def test_aw_identical_trees_is_zero():
    rng = np.random.default_rng(19)
    tree = random_tree(rng, horizon=3, dim=1, max_branch=2)
    assert aw_distance(tree, tree, 2.0) <= 1e-10


def test_aw_deterministic_paths_is_path_metric():
    a = chain_tree([[0.0], [1.0]], "a")
    b = chain_tree([[3.0], [5.0]], "b")
    # single coupling: distance is d(a, b) = |0-3| + |1-5| = 7 for any p
    for p in (1.0, 2.0):
        assert aw_distance(a, b, p) == pytest.approx(7.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_aw_matches_brute_force_root(seed):
    rng = np.random.default_rng(600 + seed)
    t1 = random_tree(rng, horizon=2, dim=1, max_branch=2)
    t2 = random_tree(rng, horizon=2, dim=1, max_branch=2)
    v_lp, _, _ = brute_force_mcot([t1, t2], cm.lp_sum(2.0))
    assert aw_distance(t1, t2, 2.0) == pytest.approx(max(v_lp, 0.0) ** 0.5, abs=1e-8)


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_aw_metric_axioms_on_random_triples(p):
    rng = np.random.default_rng(20)
    for _ in range(3):
        trees = [random_tree(rng, horizon=2, dim=1, max_branch=2) for _ in range(3)]
        d01 = aw_distance(trees[0], trees[1], p)
        d10 = aw_distance(trees[1], trees[0], p)
        d12 = aw_distance(trees[1], trees[2], p)
        d02 = aw_distance(trees[0], trees[2], p)
        assert abs(d01 - d10) <= 1e-10
        assert d02 <= d01 + d12 + 1e-8
        assert aw_distance(trees[0], trees[0], p) <= 1e-10


def test_aw_rejects_bad_exponent():
    rng = np.random.default_rng(21)
    tree = random_tree(rng, horizon=2, dim=1)
    for p in (0.5, np.inf, np.nan):  # p = inf made every distance below 1 read 1
        with pytest.raises(ValidationError, match="finite and >= 1"):
            aw_distance(tree, tree, p)
