"""LP engine and classical transport solvers.

Oracles used here:
    - exhaustive basic-feasible-solution enumeration for small equality
      LPs (every basis of the constraint matrix is solved and checked),
      fully independent of the HiGHS path under test;
    - hand-solved instances frozen as literals;
    - HiGHS, one LP per block, for the transportation simplex and the
      north-west corner, and residual checks written here for each.
"""
from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from treeot import (
    BudgetExceededError,
    PowerCost,
    SolverFailureError,
    ValidationError,
    classical_ot,
    multimarginal_ot,
    anticausal_barycenter,
    solve_lp,
)
from treeot import costs as cm
from treeot import lp as lp_mod
from treeot.lp import DUALITY_TOL, _marginal_pattern, multimarginal_ot_batch
from treeot.multicausal import cost_table, mc_dpp, verify_certificate
from treeot.randomgen import random_tree
from treeot.trees import ScenarioTree


def vertex_enumeration_min(a_eq: np.ndarray, b_eq: np.ndarray, c: np.ndarray) -> float:
    """Minimum of c.x over {Ax = b, x >= 0} by enumerating basis submatrices."""
    m, n = a_eq.shape
    rank = np.linalg.matrix_rank(a_eq)
    best = np.inf
    for basis in itertools.combinations(range(n), rank):
        sub = a_eq[:, basis]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        x_b, *_ = np.linalg.lstsq(sub, b_eq, rcond=None)
        if np.max(np.abs(sub @ x_b - b_eq)) > 1e-9:
            continue
        if np.min(x_b) < -1e-9:
            continue
        x = np.zeros(n)
        x[list(basis)] = np.clip(x_b, 0.0, None)
        best = min(best, float(c @ x))
    return best


def marginal_matrix_dense(shape):
    blocks = []
    for i in range(len(shape)):
        mats = [np.eye(n) if j == i else np.ones((1, n)) for j, n in enumerate(shape)]
        acc = mats[0]
        for m in mats[1:]:
            acc = np.kron(acc, m)
        blocks.append(acc)
    return np.vstack(blocks)


# -- solve_lp -------------------------------------------------------------------


def test_solve_lp_single_variable_dual():
    c = np.array([1.0])
    x, y = solve_lp(c, sp.eye(1, format="csr"), np.array([1.0]), "one variable")
    assert float(c @ x) == pytest.approx(1.0, abs=1e-12)
    assert y == pytest.approx([1.0], abs=1e-9)


def test_solve_lp_reports_infeasible_and_unbounded():
    lp_mod.stats.reset()
    with pytest.raises(SolverFailureError, match="^negative mass: LP is infeasible$"):
        solve_lp(np.array([1.0]), sp.eye(1, format="csr"), np.array([-1.0]), "negative mass")
    with pytest.raises(SolverFailureError, match="^free descent: LP is unbounded$"):
        solve_lp(np.array([-1.0]), sp.csr_matrix((1, 1)), np.array([0.0]), "free descent")
    # an unscaled solve that is not optimal is solved once more, scaled
    assert lp_mod.stats.solves == 4


def test_solve_lp_raises_the_outcome_of_the_second_try(monkeypatch):
    # the first try fails a residual check, the second ends infeasible:
    # only the second try's outcome is final
    real, calls = lp_mod.linprog, []

    def linprog(*args, **kwargs):
        calls.append(kwargs["options"].get("simplex_scale_strategy"))
        res = real(*args, **kwargs)
        if len(calls) == 1:
            res.x = res.x + 1e-6
        else:
            res.status, res.x, res.y = 2, None, None
        return res

    monkeypatch.setattr(lp_mod, "linprog", linprog)
    with pytest.raises(SolverFailureError, match="^two tries: LP is infeasible$"):
        solve_lp(np.array([1.0]), sp.eye(1, format="csr"), np.array([1.0]), "two tries")
    assert calls == [0, None]


def test_solve_lp_refuses_non_finite_data():
    a_eq = sp.eye(1, format="csr")
    with pytest.raises(ValidationError, match="non-finite right-hand side"):
        solve_lp(np.array([1.0]), a_eq, np.array([np.nan]), "nan rhs")
    with pytest.raises(ValidationError, match="non-finite objective coefficients"):
        solve_lp(np.array([np.inf]), a_eq, np.array([1.0]), "inf cost")


def test_linprog_refuses_arrays_that_do_not_match_the_matrix():
    # HiGHS reads as many entries as the matrix shape says
    a_eq = sp.csr_matrix(np.ones((1, 2)))
    res = lp_mod.linprog(c=np.array([1.0, 2.0]), A_eq=a_eq, b_eq=np.array([1.0]),
                         options=lp_mod._HIGHS_OPTIONS)
    assert (res.status, res.nit) == (0, 1)
    assert res.x.tolist() == [1.0, 0.0] and res.y.tolist() == [1.0]
    for c, a, b in [([1.0], a_eq, [1.0]), ([1.0, 2.0], a_eq, [1.0, 1.0]),
                    ([1.0, 2.0], a_eq.tocsc(), [1.0])]:
        with pytest.raises(ValidationError, match="CSR"):
            lp_mod.linprog(c=np.array(c), A_eq=a, b_eq=np.array(b), options={})


def test_solve_lp_residual_invariants_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(20):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        mu = rng.random(shape[0]) + 0.1
        nu = rng.random(shape[1]) + 0.1
        mu, nu = mu / mu.sum(), nu / nu.sum()
        c = rng.normal(size=shape).ravel()
        a_eq = sp.csr_matrix(marginal_matrix_dense(shape))
        b_eq = np.concatenate([mu, nu])
        x, y = solve_lp(c, a_eq, b_eq, "random transport")
        value = float(c @ x)
        assert np.abs(a_eq @ x - b_eq).max() <= 1e-9
        assert max(0.0, -float((c - a_eq.T @ y).min())) <= 1e-9
        assert abs(value - float(b_eq @ y)) <= 1e-8 * (1 + abs(value))


# -- multimarginal / classical OT ---------------------------------------------


def test_transport_2x2_permutation_instance():
    # cost [[0,1],[1,0]] with uniform marginals: the Birkhoff vertices are
    # the two permutation matrices, values 0 and 1.
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    mu = np.array([0.5, 0.5])
    oracle = vertex_enumeration_min(marginal_matrix_dense((2, 2)), np.concatenate([mu, mu]), cost.ravel())
    value, plan = classical_ot(mu, mu, cost)
    assert oracle == pytest.approx(0.0, abs=1e-12)
    assert value == pytest.approx(oracle, abs=1e-9)
    for axis in (0, 1):
        assert 0.5 * float(np.abs(plan.sum(axis=1 - axis) - mu).sum()) <= 1e-9


def test_multimarginal_all_dirac():
    value, plan = classical_ot(np.array([1.0]), np.array([1.0]), np.array([[3.5]]))
    assert value == pytest.approx(3.5, abs=1e-12)
    assert plan.tolist() == [[1.0]]


def test_multimarginal_discrete_metric_identical_marginals():
    mu = np.array([0.2, 0.3, 0.5])
    cost = 1.0 - np.eye(3)
    res = multimarginal_ot([mu, mu], cost)
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert set(map(tuple, np.argwhere(res.plan > 0).tolist())) == {(0, 0), (1, 1), (2, 2)}


@pytest.mark.parametrize("seed", range(6))
def test_multimarginal_three_marginals_vs_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    shape = (2, 2, 2)
    marginals = []
    for n in shape:
        w = rng.random(n) + 0.2
        marginals.append(w / w.sum())
    cost = rng.normal(size=shape)
    res = multimarginal_ot(marginals, cost)
    oracle = vertex_enumeration_min(
        marginal_matrix_dense(shape), np.concatenate(marginals), cost.ravel()
    )
    assert res.value == pytest.approx(oracle, abs=1e-9)
    # duality at the stated tolerance
    dual = sum(float(p @ w) for p, w in zip(res.potentials, marginals))
    assert abs(res.value - dual) <= 1e-8 * (1 + abs(res.value))


def test_multimarginal_permutation_invariance():
    rng = np.random.default_rng(5)
    marginals = [np.array([0.4, 0.6]), np.array([0.1, 0.9]), np.array([0.3, 0.7])]
    cost = rng.normal(size=(2, 2, 2))
    base = multimarginal_ot(marginals, cost).value
    perm = (2, 0, 1)
    permuted = multimarginal_ot(
        [marginals[i] for i in perm], np.transpose(cost, (2, 0, 1))
    ).value
    assert permuted == pytest.approx(base, abs=1e-9)


@given(kappa=st.floats(min_value=-50, max_value=50, allow_nan=False))
@settings(deadline=None, max_examples=20)
def test_multimarginal_cost_shift_exact(kappa):
    rng = np.random.default_rng(17)
    marginals = [np.array([0.25, 0.75]), np.array([0.6, 0.4])]
    cost = rng.normal(size=(2, 2))
    base = multimarginal_ot(marginals, cost)
    shifted = multimarginal_ot(marginals, cost + kappa)
    assert shifted.value - base.value == pytest.approx(kappa, abs=1e-12)
    assert np.array_equal(shifted.plan, base.plan)


def test_multimarginal_separable_cost_depends_on_marginals_only():
    rng = np.random.default_rng(23)
    marginals = [rng.random(3) + 0.1 for _ in range(3)]
    marginals = [m / m.sum() for m in marginals]
    f = [rng.normal(size=3) for _ in range(3)]
    cost = (
        f[0][:, None, None] + f[1][None, :, None] + f[2][None, None, :]
    )
    res = multimarginal_ot(marginals, cost)
    expected = sum(float(fi @ mi) for fi, mi in zip(f, marginals))
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_multimarginal_budget_refusal_without_allocation():
    marginals = [np.full(300, 1 / 300), np.full(300, 1 / 300), np.full(200, 1 / 200)]
    cost = np.broadcast_to(0.0, (300, 300, 200))
    with pytest.raises(BudgetExceededError):
        multimarginal_ot(marginals, cost)


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 3), (3, 1, 2), (2, 2, 2, 2)])
def test_marginal_pattern_matches_kron_operator(shape):
    rows, cols = _marginal_pattern(shape)
    dense = np.zeros((sum(shape), int(np.prod(shape))))
    dense[rows, cols] = 1.0
    assert rows.size == len(shape) * dense.shape[1]
    assert np.array_equal(dense, marginal_matrix_dense(shape))


def test_multimarginal_dimension_mismatch():
    with pytest.raises(ValidationError, match="shape"):
        multimarginal_ot([np.array([0.5, 0.5])], np.zeros((2, 2)))
    with pytest.raises(ValidationError, match="at least one marginal"):
        multimarginal_ot([], np.zeros(()))
    with pytest.raises(ValidationError, match="at least one marginal"):
        multimarginal_ot_batch([([], np.zeros(2))])


def test_classical_matches_multimarginal_on_random_instance():
    rng = np.random.default_rng(41)
    mu = rng.random(3) + 0.1
    nu = rng.random(3) + 0.1
    mu, nu = mu / mu.sum(), nu / nu.sum()
    cost = rng.normal(size=(3, 3))
    v1, _ = classical_ot(mu, nu, cost)
    v2 = multimarginal_ot([mu, nu], cost).value
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_classical_ot_forced_plan_two_atoms_to_one():
    mu = np.array([0.3, 0.7])
    nu = np.array([1.0])
    cost = np.array([[2.0], [5.0]])
    value, plan = classical_ot(mu, nu, cost)
    assert value == pytest.approx(0.3 * 2.0 + 0.7 * 5.0, abs=1e-12)


def test_classical_ot_zero_on_common_support():
    mu = np.array([0.5, 0.5])
    cost = np.array([[0.0, 4.0], [4.0, 0.0]])  # squared distance on {0, 2}
    value, _ = classical_ot(mu, mu, cost)
    assert value == pytest.approx(0.0, abs=1e-10)


# -- the transportation simplex ------------------------------------------------


def transport_batch(rng, nb, shape, kind):
    """``nb`` blocks of ``shape``, as their marginals and costs: random
    weights and costs, or degenerate ones ("uniform": uniform marginals
    with integer costs; "tied": random marginals with costs on a grid of
    step 1/2)."""
    weights = [rng.random((nb, n)) + 0.2 for n in shape]
    weights = [w / w.sum(axis=1, keepdims=True) for w in weights]
    if kind == "uniform":
        weights = [np.full((nb, n), 1 / n) for n in shape]
        return weights, rng.integers(0, 4, size=(nb,) + shape).astype(float)
    if kind == "tied":
        return weights, np.round(2 * rng.random((nb,) + shape)) / 2
    return weights, 10 * rng.normal(size=(nb,) + shape)


def highs_batch(monkeypatch, weights, cost):
    """The batch solved by HiGHS alone, one LP per block: no corner is
    certified, and so no block reaches the transportation simplex."""
    with monkeypatch.context() as patch:
        patch.setattr(lp_mod, "_corner_blocks",
                      lambda weights, costs, *_: np.zeros(len(costs), dtype=bool))
        [out] = multimarginal_ot_batch([(weights, cost)])
    return out


def assert_certified(weights, cost, values, plans, potentials):
    """Every check of a block solve, recomputed here per block, for any
    number of marginals."""
    n = len(weights)
    for k in range(len(values)):
        tol = 1e-8 * (1 + abs(values[k]))
        assert np.all(plans[k] >= 0)
        for i, w in enumerate(weights):
            others = tuple(j for j in range(n) if j != i)
            assert np.abs(plans[k].sum(axis=others) - w[k]).max() <= 1e-9
        assert abs(float((cost[k] * plans[k]).sum()) - values[k]) <= tol
        total = sum(phi[k].reshape([-1 if j == i else 1 for j in range(n)])
                    for i, phi in enumerate(potentials))
        assert (cost[k] - total).min() >= -1e-9
        dual = sum(float(phi[k] @ w[k]) for phi, w in zip(potentials, weights))
        assert abs(dual - values[k]) <= tol
        assert all(phi[k][0] == 0.0 for phi in potentials[1:])


@pytest.mark.parametrize("kind", ["random", "uniform", "tied"])
@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1), (2, 3), (4, 4), (7, 5), (10, 10),
                                   (2, 2, 2), (3, 1, 4), (4, 4, 4), (6, 6, 6), (2, 3, 2, 2),
                                   (2, 2, 2, 2, 2)])
def test_transport_simplex_matches_highs(monkeypatch, kind, shape):
    rng = np.random.default_rng(sum(shape) + 100 * len(kind))
    weights, cost = transport_batch(rng, 40, shape, kind)
    lp_mod.stats.reset()
    [(values, plans, potentials)] = multimarginal_ot_batch([(weights, cost)])
    assert lp_mod.stats.solves == 0
    assert (lp_mod.stats.transport_pivots > 0) == (sorted(shape)[-2] > 1)
    assert_certified(weights, cost, values, plans, potentials)
    reference, reference_plans, _ = highs_batch(monkeypatch, weights, cost)
    assert np.all(np.abs(values - reference) <= 1e-8 * (1 + np.abs(reference)))
    if kind == "random":  # the optimum is unique: so is the support
        assert np.array_equal(plans > 0, reference_plans > 0)


def test_transport_simplex_block_is_the_same_alone_and_in_a_batch(monkeypatch):
    # and across chunks, for any number of marginals
    for shape in [(6, 5), (3, 3, 3), (3, 1, 4), (2, 3, 2, 2), (2, 2, 2, 2, 2)]:
        weights, cost = transport_batch(np.random.default_rng(5), 30, shape, "tied")
        lp_mod.stats.reset()
        [whole] = multimarginal_ot_batch([(weights, cost)])
        assert lp_mod.stats.transport_blocks > 0 and lp_mod.stats.solves == 0
        with monkeypatch.context() as patch:
            patch.setattr(lp_mod, "_CHUNK_ENTRIES", 1)   # one block per chunk
            [chunked] = multimarginal_ot_batch([(weights, cost)])
        for k in (0, 11, 29):
            [one] = multimarginal_ot_batch([([w[k:k + 1] for w in weights], cost[k:k + 1])])
            for values, plans, potentials, at in ((*one, 0), (*chunked, k)):
                assert values[at] == whole[0][k]
                assert np.array_equal(plans[at], whole[1][k])
                assert all(np.array_equal(p[at], q[k]) for p, q in zip(potentials, whole[2]))
            alone = multimarginal_ot([w[k] for w in weights], cost[k])
            assert alone.value == whole[0][k] and np.array_equal(alone.plan, whole[1][k])


def test_highs_block_is_the_same_alone_and_in_a_batch(monkeypatch):
    # HiGHS solves each block as an LP of its own: a block gets the same
    # bits in a batch of several shapes as alone, without the simplex
    # (every block the corner fails) and with it (the 45 x 45 blocks)
    rng = np.random.default_rng(3)
    groups = [transport_batch(rng, 12, (4, 4, 4), "random"),
              transport_batch(rng, 12, (6, 5), "random"),
              corner_batch(rng, 4, (45, 45), "2-D")]
    for cells, highs in ((0, 28), (lp_mod._SIMPLEX_CELLS, 4)):
        monkeypatch.setattr(lp_mod, "_SIMPLEX_CELLS", cells)
        lp_mod.stats.reset()
        out = multimarginal_ot_batch(groups)
        assert (lp_mod.stats.solves, lp_mod.stats.corner_blocks) == (highs, 0)
        for (weights, cost), (values, plans, potentials) in zip(groups, out, strict=True):
            for k in range(len(cost)):
                alone = multimarginal_ot([w[k] for w in weights], cost[k])
                assert alone.value == values[k]
                assert np.array_equal(alone.plan, plans[k])
                assert all(np.array_equal(p, q[k])
                           for p, q in zip(alone.potentials, potentials, strict=True))


@pytest.mark.parametrize("fault, shape", [
    *(pytest.param(fault, (4, 5), id=fault) for fault in ("plan", "potential", "pivot cap")),
    *(pytest.param(fault, (3, 3, 3), id=f"{fault}, N=3")
      for fault in ("plan", "potential", "pivot cap")),
])
def test_failed_simplex_block_is_solved_again_by_highs(monkeypatch, fault, shape):
    rng = np.random.default_rng(8)
    weights, cost = transport_batch(rng, 12, shape, "random")
    [(values, plans, _)] = multimarginal_ot_batch([(weights, cost)])
    reference, _, _ = highs_batch(monkeypatch, [w[3:4] for w in weights], cost[3:4])
    real = lp_mod._transport_simplex

    def corrupted(*args):
        plan, phi, pivots, converged = real(*args)
        if fault == "plan":
            plan[3] *= 1.001          # off the marginals
        elif fault == "potential":
            phi[3, 0] += 1e-3         # above a basic cell's cost
        else:
            converged[3] = False      # stopped at the pivot cap
        return plan, phi, pivots, converged

    monkeypatch.setattr(lp_mod, "_transport_simplex", corrupted)
    lp_mod.stats.reset()
    [(again, again_plans, potentials)] = multimarginal_ot_batch([(weights, cost)])
    assert lp_mod.stats.solves == 1
    assert again[3] == reference[0]  # the HiGHS LP of block 3 alone
    assert abs(again[3] - values[3]) <= 1e-8 * (1 + abs(values[3]))
    keep = np.arange(12) != 3
    assert np.array_equal(again[keep], values[keep])
    assert np.array_equal(again_plans[keep], plans[keep])
    assert_certified(weights, cost, again, again_plans, potentials)


@pytest.mark.parametrize("shape", [(3, 3, 3), (2, 3, 2, 2)])
def test_simplex_block_with_no_leaving_cell_stops_and_goes_to_highs(monkeypatch, shape):
    # a zero float basis inverse (N >= 3; at N = 2 the int8 inverse is exact
    # and some basic flow always falls): no entering cell has a basic cell
    # whose flow falls, so every block stops unconverged at once, no step
    weights, cost = transport_batch(np.random.default_rng(8), 12, shape, "random")
    reference, _, _ = highs_batch(monkeypatch, weights, cost)
    zero = np.zeros_like(lp_mod._staircase_coefficients(shape))
    monkeypatch.setattr(lp_mod, "_staircase_coefficients", lambda _: zero)
    lp_mod.stats.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(values, plans, potentials)] = multimarginal_ot_batch([(weights, cost)])
    assert (lp_mod.stats.transport_pivots, lp_mod.stats.transport_blocks) == (0, 0)
    assert lp_mod.stats.solves == 12   # one HiGHS LP per block
    assert_certified(weights, cost, values, plans, potentials)
    assert np.all(np.abs(values - reference) <= 1e-8 * (1 + np.abs(reference)))


@pytest.mark.parametrize("shape", [(4,), (1, 3), (3, 4), (2, 1, 3), (3, 2, 4, 2)])
def test_staircase_coefficients_give_the_breakpoints(shape):
    # 0, the interior partial sums of each axis in turn, and the total
    rng = np.random.default_rng(len(shape))
    weights = [rng.integers(1, 5, size=n) for n in shape]
    weights = [w * (np.lcm.reduce([v.sum() for v in weights]) // w.sum()) for w in weights]
    coef = lp_mod._staircase_coefficients(shape)
    ends = [np.cumsum(w)[:-1] for w in weights]
    expected = np.concatenate([[0], *ends, [weights[0].sum()]])
    assert np.array_equal(coef.astype(np.int64) @ np.concatenate(weights), expected)
    assert not coef.flags.writeable


@pytest.mark.parametrize("seed", range(4))
def test_transport_simplex_matches_highs_through_mc_dpp(monkeypatch, seed):
    rng = np.random.default_rng(1200 + seed)
    trees = [random_tree(rng, horizon=3, dim=1, min_branch=1, max_branch=4) for _ in range(2)]
    lp_mod.stats.reset()
    res = mc_dpp(trees, cm.lp_sum(2.0))
    assert lp_mod.stats.solves == 0
    monkeypatch.setattr(lp_mod, "_corner_blocks",
                        lambda weights, costs, *_: np.zeros(len(costs), dtype=bool))
    reference = mc_dpp(trees, cm.lp_sum(2.0))
    shapes = {(len(trees[0].children(t, j)), len(trees[1].children(t, k)))
              for t in (1, 2)
              for j in range(trees[0].level_size(t)) for k in range(trees[1].level_size(t))}
    assert len(shapes) > 1
    for mine, theirs in zip(res.tables, reference.tables, strict=True):
        assert np.all(np.abs(mine - theirs) <= 1e-8 * (1 + np.abs(theirs)))
    for mine, theirs in zip(res.policy.weights, reference.policy.weights, strict=True):
        assert np.array_equal(mine > 0, theirs > 0)


# -- the north-west corner -------------------------------------------------------


def corner_batch(rng, nb, shape, kind):
    """``nb`` blocks of ``shape`` with random weights and the pairwise cost
    sum_{i<j} |x_i - x_j|^2 of random states.  The corner is optimal for
    1-D states in increasing order ("sorted"; "tied": states on a grid of
    step 1/2, so costs tie; "uniform": uniform weights, so partial sums
    tie), and need not be otherwise ("2-D": 2-D states in no order;
    "random": normal costs)."""
    weights = []
    for n in shape:
        w = np.ones((nb, n)) if kind == "uniform" else rng.random((nb, n)) + 0.2
        weights.append(w / w.sum(axis=1, keepdims=True))
    if kind == "random":
        return weights, 10 * rng.normal(size=(nb,) + shape)
    dim = 2 if kind == "2-D" else 1
    states = [rng.random((nb, n, dim)) for n in shape]
    if kind == "tied":
        states = [np.round(2 * x) / 2 for x in states]
    if dim == 1:
        states = [np.sort(x, axis=1) for x in states]
    on_axis = [x.reshape((nb,) + tuple(n if j == i else 1 for j in range(len(shape))) + (dim,))
               for i, (x, n) in enumerate(zip(states, shape))]
    cost = np.zeros((nb,) + shape)
    for i, j in itertools.combinations(range(len(shape)), 2):
        cost += ((on_axis[i] - on_axis[j]) ** 2).sum(axis=-1)
    return weights, cost


@pytest.mark.parametrize("kind", ["sorted", "tied", "uniform", "2-D", "random"])
@pytest.mark.parametrize("shape", [(3, 4), (5, 5), (2, 3, 4), (3, 3, 3), (2, 3, 2, 2),
                                   (3, 1, 4), (2, 2, 2, 2, 2)])
def test_corner_matches_highs(monkeypatch, kind, shape):
    rng = np.random.default_rng(sum(shape) + 10 * len(shape) + 100 * len(kind))
    nb = 20
    weights, cost = corner_batch(rng, nb, shape, kind)
    lp_mod.stats.reset()
    [(values, plans, potentials)] = multimarginal_ot_batch([(weights, cost)])
    assert_certified(weights, cost, values, plans, potentials)
    counts = (lp_mod.stats.corner_blocks, lp_mod.stats.transport_blocks, lp_mod.stats.solves)
    reference, _, _ = highs_batch(monkeypatch, weights, cost)
    assert np.all(np.abs(values - reference) <= 1e-8 * (1 + np.abs(reference)))
    if kind in ("sorted", "tied", "uniform"):
        assert counts == (nb, 0, 0)
        assert lp_mod.stats.transport_pivots == 0
        return
    # every block the corner fails is certified by the simplex, whatever its N
    assert counts[0] < nb and counts[0] + counts[1] == nb and counts[2] == 0
    # and, without the simplex, by HiGHS, one LP per block
    monkeypatch.setattr(lp_mod, "_SIMPLEX_CELLS", 0)
    lp_mod.stats.reset()
    [(values, plans, potentials)] = multimarginal_ot_batch([(weights, cost)])
    assert_certified(weights, cost, values, plans, potentials)
    assert lp_mod.stats.corner_blocks == counts[0]
    assert lp_mod.stats.transport_blocks == 0 and lp_mod.stats.solves >= 1
    assert np.all(np.abs(values - reference) <= 1e-8 * (1 + np.abs(reference)))


def test_degenerate_staircase_keeps_its_zero_mass_steps():
    # partial sums 0.5 | 0.25, 0.5 | 0.5: three breakpoints tie at 0.5,
    # so the staircase takes two zero-mass steps, the lower axis first
    weights = [np.array([[0.5, 0.5]]), np.array([[0.25, 0.25, 0.5]]), np.array([[0.5, 0.5]])]
    shape = (2, 3, 2)
    cost = np.random.default_rng(0).random((1,) + shape)
    cells, flows, order, phi = lp_mod._staircase(weights, cost)
    path = [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (1, 2, 1)]
    assert cells.tolist() == [np.ravel_multi_index(tuple(zip(*path)), shape).tolist()]
    assert flows.tolist() == [[0.25, 0.25, 0.0, 0.0, 0.5]]
    assert phi.shape == (1, sum(shape))


@pytest.mark.parametrize("shape", [(2, 4), (4, 4), (3, 3, 3), (2, 4, 2, 4)])
def test_uniform_staircase_has_sum_n_minus_n_plus_one_cells(shape):
    # uniform weights: every common partial sum is a tie
    weights = [np.full((3, n), 1 / n) for n in shape]
    cost = np.zeros((3,) + shape)
    cells, flows, order, _ = lp_mod._staircase(weights, cost)
    cells_per_block = sum(shape) - len(shape) + 1
    assert cells.shape == flows.shape == (3, cells_per_block)
    assert np.all(np.diff(cells, axis=1) > 0)   # a monotone path: no cell twice
    index = np.unravel_index(cells, shape)
    assert all(np.all(np.diff(i, axis=1) >= 0) for i in index)
    assert all(np.array_equal(i[:, -1], np.full(3, n - 1)) for i, n in zip(index, shape))
    assert np.all(flows >= 0)
    distinct = np.unique(np.concatenate([np.arange(1, n) / n for n in shape]))
    assert np.all((flows > 0).sum(axis=1) == distinct.size + 1)
    res = multimarginal_ot([w[0] for w in weights], cost[0])
    for axis, w in enumerate(weights):
        others = tuple(j for j in range(len(shape)) if j != axis)
        assert np.abs(res.plan.sum(axis=others) - w[0]).max() <= 1e-15


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 6), (3, 1, 4), (2, 3, 4), (3, 2, 2, 3)])
def test_corner_potentials_sum_to_the_cost_on_every_staircase_cell(shape):
    rng = np.random.default_rng(sum(shape))
    weights, cost = corner_batch(rng, 10, shape, "random")
    cells, _, _, phi = lp_mod._staircase(weights, cost)
    bounds = np.cumsum((0,) + shape)
    index = np.unravel_index(cells, shape)
    total = sum(np.take_along_axis(phi[:, lo:hi], i, axis=1)
                for lo, hi, i in zip(bounds, bounds[1:], index))
    on_path = np.take_along_axis(cost.reshape(10, -1), cells, axis=1)
    assert np.all(np.abs(total - on_path) <= 1e-12 * (1 + np.abs(cost).max()))
    assert np.array_equal(phi[:, 0], on_path[:, 0])
    assert np.all(phi[:, bounds[1:-1]] == 0.0)


@pytest.mark.parametrize("shape", [(5, 4), (3, 2, 4), (2, 3, 2, 2)])
def test_corner_block_is_the_same_alone_and_in_a_batch(shape):
    rng = np.random.default_rng(6)
    weights, cost = corner_batch(rng, 30, shape, "tied")
    lp_mod.stats.reset()
    [(values, plans, potentials)] = multimarginal_ot_batch([(weights, cost)])
    assert lp_mod.stats.corner_blocks == 30
    for k in (0, 11, 29):
        [(one, one_plan, one_potentials)] = multimarginal_ot_batch(
            [([w[k:k + 1] for w in weights], cost[k:k + 1])])
        assert one[0] == values[k]
        assert np.array_equal(one_plan[0], plans[k])
        assert all(np.array_equal(mine[0], theirs[k])
                   for mine, theirs in zip(one_potentials, potentials))
        alone = multimarginal_ot([w[k] for w in weights], cost[k])
        assert alone.value == values[k] and np.array_equal(alone.plan, plans[k])


@pytest.mark.parametrize("kind", ["sorted", "2-D"])
@pytest.mark.parametrize("shape", [(4, 5), (3, 3, 3)])
def test_chunked_corner_blocks_are_bit_identical(monkeypatch, kind, shape):
    # a chunk of one block each: the corner and the simplex see each block
    # at its own offset in the batch, and HiGHS gets the same blocks
    rng = np.random.default_rng(12)
    weights, cost = corner_batch(rng, 9, shape, kind)
    lp_mod.stats.reset()
    [whole] = multimarginal_ot_batch([(weights, cost)])
    counts = (lp_mod.stats.corner_blocks, lp_mod.stats.transport_blocks)
    monkeypatch.setattr(lp_mod, "_CHUNK_ENTRIES", 1)
    lp_mod.stats.reset()
    [chunked] = multimarginal_ot_batch([(weights, cost)])
    assert (lp_mod.stats.corner_blocks, lp_mod.stats.transport_blocks) == counts
    assert np.array_equal(chunked[0], whole[0]) and np.array_equal(chunked[1], whole[1])
    assert all(np.array_equal(a, b) for a, b in zip(chunked[2], whole[2]))
    assert_certified(weights, cost, *chunked)


@pytest.mark.parametrize("shape", [(4, 5), (3, 3, 3)])
def test_non_optimal_corner_falls_back_and_is_certified(monkeypatch, shape):
    rng = np.random.default_rng(9)
    weights, cost = corner_batch(rng, 12, shape, "sorted")
    [(clean, clean_plans, _)] = multimarginal_ot_batch([(weights, cost)])
    # block 3's cost turned concave in x_i - x_j: its corner, the
    # comonotone coupling, is now the worst coupling, not the best
    cost[3] = cost[3].max() - cost[3]
    reference, _, _ = highs_batch(monkeypatch, [w[3:4] for w in weights], cost[3:4])
    # the transportation simplex, from the same corner; without it
    # (no block is small enough), HiGHS
    for cells, counts in ((lp_mod._SIMPLEX_CELLS, (1, 0)), (0, (0, 1))):
        monkeypatch.setattr(lp_mod, "_SIMPLEX_CELLS", cells)
        lp_mod.stats.reset()
        [(values, plans, potentials)] = multimarginal_ot_batch([(weights, cost)])
        assert lp_mod.stats.corner_blocks == 11
        assert (lp_mod.stats.transport_blocks, lp_mod.stats.solves) == counts
        assert (lp_mod.stats.transport_pivots > 0) == (cells > 0)
        assert_certified(weights, cost, values, plans, potentials)
        assert abs(values[3] - reference[0]) <= 1e-8 * (1 + abs(reference[0]))
        keep = np.arange(12) != 3
        assert np.array_equal(values[keep], clean[keep])
        assert np.array_equal(plans[keep], clean_plans[keep])


# -- fixed-support barycenter ----------------------------------------------------
#
# On horizon-1 trees the anticausal barycenter is the classical barycenter
# on the task tree's leaves.


def horizon_one(prefix, points, probs=None):
    probs = np.full(len(points), 1.0 / len(points)) if probs is None else probs
    return ScenarioTree.from_levels([[
        {"id": f"{prefix}{k}", "parent": None, "p": float(p), "x": [float(x)]}
        for k, (x, p) in enumerate(zip(points, probs))
    ]])


def test_barycenter_single_measure_projects_to_nearest_atom():
    # support {0, 1}, measure on {0.2, 0.9}: per-atom minimisation sends
    # 0.2 -> 0 and 0.9 -> 1 with squared costs 0.04 and 0.01
    support = horizon_one("y", (0.0, 1.0))
    measure = horizon_one("x", (0.2, 0.9), (0.5, 0.5))
    res = anticausal_barycenter([measure], [PowerCost()], support)
    expected = 0.5 * 0.2**2 + 0.5 * 0.1**2
    assert res.value == pytest.approx(expected, abs=1e-9)
    assert res.nu == pytest.approx([0.5, 0.5], abs=1e-9)


def test_barycenter_equal_measures_on_support_is_free():
    support = horizon_one("y", (0.0, 1.0, 2.0))
    measure = horizon_one("x", (0.0, 1.0, 2.0), (0.2, 0.5, 0.3))
    cost = PowerCost(weight=0.5, exponent=1.0)
    res = anticausal_barycenter([measure, measure], [cost, cost], support)
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert res.nu == pytest.approx(measure.leaf_law(), abs=1e-9)


def test_barycenter_two_diracs_midpoint_hand_lp():
    # Diracs at 0 and 1, squared cost, support {0, 1/2, 1}: placing nu at
    # the midpoint costs 0.5*(1/4) + 0.5*(1/4) = 1/4; each endpoint or any
    # mixture is dominated (hand LP over the three Dirac candidates and
    # mixtures).
    support = horizon_one("y", (0.0, 0.5, 1.0))
    diracs = [horizon_one("a", (0.0,)), horizon_one("b", (1.0,))]
    res = anticausal_barycenter(diracs, [PowerCost(weight=0.5)] * 2, support)
    assert res.value == pytest.approx(0.25, abs=1e-9)
    assert res.nu == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)
    for plan, dirac in zip(res.plans, diracs):
        for axis, law in enumerate((dirac.leaf_law(), res.nu)):
            assert 0.5 * float(np.abs(plan.marginal(axis) - law).sum()) <= 1e-9


def fixed_support_barycenter_value(laws, costs) -> float:
    """min of sum_i <costs[i], gamma^i> over a measure nu on the rows of the
    (support, measure i) cost matrices and plans gamma^i with row sums nu
    and column sums ``laws[i]``: one joint LP, nu in its first columns."""
    m = costs[0].shape[0]
    blocks, rhs = [], []
    for i, mu in enumerate(laws):
        link = sp.csr_matrix((-np.ones(m), (np.arange(m), np.arange(m))),
                             shape=(m + len(mu), m))
        rows, cols = lp_mod._marginal_pattern((m, len(mu)))
        marginal = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                                 shape=(m + len(mu), m * len(mu)))
        blocks.append([link] + [marginal if j == i else None for j in range(len(laws))])
        rhs += [np.zeros(m), mu]
    c = np.concatenate([np.zeros(m)] + [np.ravel(cost) for cost in costs])
    x, _ = solve_lp(c, sp.bmat(blocks, format="csr"), np.concatenate(rhs),
                    "fixed-support barycenter")
    return float(c @ x)


@pytest.mark.parametrize("seed", range(8))
def test_anticausal_barycenter_is_the_fixed_support_barycenter_of_the_path_laws(seed):
    rng = np.random.default_rng(1300 + seed)
    horizon = 1 + seed % 3
    trees = [random_tree(rng, horizon=horizon, dim=1, max_branch=3) for _ in range(1 + seed % 3)]
    task = random_tree(rng, horizon=horizon, dim=1, max_branch=3)
    costs = [PowerCost(weight=float(rng.random()) + 0.1, exponent=1.0 + seed % 2)
             for _ in trees]
    res = anticausal_barycenter(trees, costs, task)
    tables = [cost_table((tree, task), cost) for tree, cost in zip(trees, costs)]
    reference = fixed_support_barycenter_value([t.leaf_law() for t in trees],
                                               [table.T for table in tables])
    tol = DUALITY_TOL * (1 + abs(reference))
    assert res.value == pytest.approx(reference, abs=tol)
    assert sum(c.potentials[0] @ t.leaf_law() for c, t in zip(res.certificates, trees)) == (
        pytest.approx(res.value, abs=tol))
    # plans run from the process leaves to the task leaves
    plan_cost = sum(w * table[jx, ky] for table, plan in zip(tables, res.plans)
                    for (jx, ky), w in zip(plan.tuples.tolist(), plan.weights))
    assert plan_cost == pytest.approx(res.value, abs=tol)
    # each certificate holds on every leaf pair and is tight on its plan
    for table, plan, cert in zip(tables, res.plans, res.certificates):
        check = verify_certificate(plan, table, cert)
        assert check["min_slack"] >= -1e-8 and check["support_slack"] <= 1e-8
