"""Cost tables: every builtin against a per-tuple reference, the shape
and finiteness checks of ``cost_table``, and one table build per solve.

The references below evaluate each cost one leaf tuple at a time with
the scalar formulas the builtins were first written with: np.linalg.norm
per time step, Python sums from 0 left to right, and a linear scan over
the grid for table lookups and grid selectors.  Powers follow the
builtins' one rule (``ref_power``): x*x for a square, which is correctly
rounded, and Python float pow, which is libm pow, for any other exponent.
"""
from __future__ import annotations

import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from treeot import (
    PowerCost,
    TableCost,
    ValidationError,
    aggregate_cost,
    aw_distance,
    brute_force_mcot,
    grid_selector,
    mc_dpp,
    phi0_quadratic,
)
from treeot import costs as cm
from treeot.multicausal import cost_table
from treeot.randomgen import random_tree
from treeot.trees import ScenarioTree, chain_tree, tree_document

#: (N, horizon, state dimension) of the test families; branching 1 to 3
FAMILIES = [(2, 3, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2)]


def family(n: int, horizon: int, dim: int, seed: int = 0) -> list[ScenarioTree]:
    rng = np.random.default_rng([n, horizon, dim, seed])
    return [random_tree(rng, horizon=horizon, dim=dim, min_branch=1, max_branch=3, prefix=p)
            for p in "abc"[:n]]


def per_tuple(trees, path_cost) -> np.ndarray:
    """``path_cost(paths)`` evaluated at every leaf tuple, one at a time."""
    paths = [[tuple(x[k] for x, k in zip(t.states, path)) for path in t.ancestors] for t in trees]
    out = np.empty(tuple(t.n_leaves for t in trees))
    for idx in np.ndindex(*out.shape):
        out[idx] = path_cost(tuple(p[k] for p, k in zip(paths, idx)))
    return out


def ref_power(v: float, p: float) -> float:
    return v * v if p == 2 else v ** p


def ref_lp_sum(p):
    def cost(paths):
        total = 0.0
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                d = float(sum(np.linalg.norm(a - b) for a, b in zip(paths[i], paths[j])))
                total += ref_power(d, p)
        return total
    return cost


def ref_pairwise_power(p):
    def cost(paths):
        total = 0.0
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                total += sum(ref_power(float(np.linalg.norm(a - b)), p)
                             for a, b in zip(paths[i], paths[j]))
        return total
    return cost


def ref_power_at(weight, exponent):
    def at(_t, x, y):
        d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
        return weight * float(np.sum([ref_power(float(v), exponent) for v in d]))
    return at


def ref_find(atoms, v) -> int:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    for k, a in enumerate(atoms):
        a = np.atleast_1d(np.asarray(a, dtype=float))
        if a.shape == v.shape and np.max(np.abs(a - v)) <= 1e-9:
            return k
    raise LookupError(v)


def ref_table_at(tables):
    def at(t, x, y):
        x_atoms, y_atoms, mat = tables[t - 1]
        return float(mat[ref_find(x_atoms, x), ref_find(y_atoms, y)])
    return at


def ref_separable(at):
    """The pair path cost sum_t at(t, x_t, y_t)."""
    return lambda paths: float(sum(at(t + 1, x, y) for t, (x, y) in enumerate(zip(*paths))))


def ref_grid_selector(ats, grids):
    def select(t, xs):
        best, best_val = 0, np.inf
        for k, y in enumerate(grids[t - 1]):
            val = sum(at(t, x, np.asarray(y, dtype=float)) for at, x in zip(ats, xs))
            if val < best_val:
                best, best_val = k, val
        return np.asarray(grids[t - 1][best], dtype=float)
    return select


def ref_phi0(lam):
    return lambda _t, xs: sum(w * np.asarray(x, dtype=float) for w, x in zip(lam, xs))


def ref_aggregate(ats, select):
    def cost(paths):
        total = 0.0
        for t in range(1, len(paths[0]) + 1):
            xs = tuple(p[t - 1] for p in paths)
            y = select(t, xs)
            total += sum(at(t, x, y) for at, x in zip(ats, xs))
        return total
    return cost


def assert_same_table(table, ref, dim):
    """Bit for bit for 1-D states.  For 2-D states the norm may be summed
    in another order than the reference's: within 1e-14 relative."""
    assert table.shape == ref.shape
    if dim == 1:
        assert np.array_equal(table, ref)
    else:
        np.testing.assert_allclose(table, ref, rtol=1e-14, atol=0.0)


# -- builtins against the per-tuple reference ------------------------------------


@pytest.mark.parametrize("n, horizon, dim", FAMILIES)
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_lp_sum_table_matches_reference(n, horizon, dim, p):
    trees = family(n, horizon, dim)
    assert_same_table(cost_table(trees, cm.lp_sum(p)), per_tuple(trees, ref_lp_sum(p)), dim)


@pytest.mark.parametrize("n, horizon, dim", FAMILIES)
@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_pairwise_power_table_matches_reference(n, horizon, dim, p):
    trees = family(n, horizon, dim)
    assert_same_table(cost_table(trees, cm.pairwise_power(p)),
                      per_tuple(trees, ref_pairwise_power(p)), dim)


@pytest.mark.parametrize("n, horizon, dim", FAMILIES)
@pytest.mark.parametrize("weight, exponent", [(1.0, 1.0), (0.37, 2.0), (2.5, 3.0)])
def test_power_cost_pair_table_matches_reference(n, horizon, dim, weight, exponent):
    x, y = family(n, horizon, dim)[-2:]
    table = cost_table((x, y), PowerCost(weight=weight, exponent=exponent))
    ref = per_tuple((x, y), ref_separable(ref_power_at(weight, exponent)))
    assert np.array_equal(table, ref)


@pytest.mark.parametrize("n, horizon, dim", FAMILIES)
def test_table_cost_pair_table_matches_reference(n, horizon, dim):
    rng = np.random.default_rng(horizon * 10 + dim)
    x, y = family(n, horizon, dim)[-2:]
    tables = []
    for t in range(1, horizon + 1):
        # each tree's states at depth t, shuffled, behind an off-grid decoy,
        # and each followed by a copy within 1e-9 whose row must not be read
        grids = []
        for tree in (x, y):
            states = tree.states[t - 1].tolist()
            states = [states[k] for k in rng.permutation(len(states))]
            decoy = [[v + 100.0 for v in states[0]]]
            near = [[v + 1e-12 for v in s] for s in states]
            grids.append(decoy + states + near)
        tables.append((grids[0], grids[1], rng.normal(size=(len(grids[0]), len(grids[1])))))
    table = cost_table((x, y), TableCost(tables))
    assert np.array_equal(table, per_tuple((x, y), ref_separable(ref_table_at(tables))))


def test_table_cost_lookup_refuses_off_grid_states():
    cost = TableCost([([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]], np.array([[1.0], [2.0]]))])
    assert np.array_equal(cost.at(1, np.array([[[1.0, 0.0]], [[0.0, 0.0]]]), [0.0, 0.0]),
                          [[2.0], [1.0]])
    with pytest.raises(ValidationError, match=re.escape("array([0.5, 0. ])")):
        cost.at(1, np.array([[1.0, 0.0], [0.5, 0.0]]), [0.0, 0.0])
    with pytest.raises(ValidationError, match="not on the declared cost grid"):
        cost.at(1, [1.0], [0.0])  # a state of another dimension


@pytest.mark.parametrize("n, horizon, dim", FAMILIES)
def test_aggregate_quadratic_table_matches_reference(n, horizon, dim):
    trees = family(n, horizon, dim)
    lam = np.arange(1.0, n + 1.0) / sum(range(1, n + 1))
    costs = [PowerCost(weight=float(w), exponent=2.0) for w in lam]
    ats = [ref_power_at(float(w), 2.0) for w in lam]
    table = cost_table(trees, aggregate_cost(costs, phi0_quadratic(lam)))
    assert np.array_equal(table, per_tuple(trees, ref_aggregate(ats, ref_phi0(lam))))


def grid_family(n: int, dim: int) -> list[ScenarioTree]:
    """Trees whose states are small integers, so that grid points at
    half-integers tie exactly."""
    rng = np.random.default_rng([n, dim, 1])
    trees = family(n, 2, dim, seed=1)
    docs = [tree_document(tree) for tree in trees]
    for doc in docs:
        for level in doc["levels"]:
            for spec in level:
                spec["x"] = rng.integers(-2, 3, size=dim).astype(float).tolist()
    return [ScenarioTree.from_levels(doc["levels"]) for doc in docs]


@pytest.mark.parametrize("n, dim", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_aggregate_grid_table_and_selector_match_reference(n, dim):
    trees = grid_family(n, dim)
    grids = [[[g] * dim for g in np.arange(-2.5, 3.0, 1.0)], [[g] * dim for g in (1.5, 0.5, -0.5)]]
    costs = [PowerCost(weight=1.0, exponent=2.0)] * n
    ats = [ref_power_at(1.0, 2.0)] * n
    selector, ref_select = grid_selector(costs, grids), ref_grid_selector(ats, grids)
    table = cost_table(trees, aggregate_cost(costs, selector))
    assert np.array_equal(table, per_tuple(trees, ref_aggregate(ats, ref_select)))
    # the selector itself, over every leaf tuple at once: ties go to the
    # first grid point, and there are ties
    last_wins = ref_grid_selector(ats, [grid[::-1] for grid in grids])
    ties = 0
    for t in (1, 2):
        states = [tr.leaf_states()[t - 1] for tr in trees]
        xs = tuple(s.reshape((1,) * i + s.shape[:1] + (1,) * (n - 1 - i) + s.shape[1:])
                   for i, s in enumerate(states))
        chosen = selector(t, xs)
        for idx in np.ndindex(*chosen.shape[:-1]):
            point = tuple(s[k] for s, k in zip(states, idx))
            assert np.array_equal(chosen[idx], ref_select(t, point))
            ties += not np.array_equal(chosen[idx], last_wins(t, point))
    assert ties > 0


# -- cost_table's checks -------------------------------------------------------------


@pytest.mark.parametrize("solver", [mc_dpp, brute_force_mcot])
@pytest.mark.parametrize("shape", [(5, 5), (2, 2), (4, 4, 1), (16,)])
def test_table_of_wrong_shape_is_refused(solver, shape):
    rng = np.random.default_rng(30)
    trees = [random_tree(rng, horizon=2, min_branch=2, max_branch=2, prefix=p) for p in "ab"]
    with pytest.raises(ValidationError, match=re.escape(f"{shape}") + ".*" + re.escape("(4, 4)")):
        solver(trees, np.ones(shape))
    with pytest.raises(ValidationError, match=re.escape(f"{shape}") + ".*" + re.escape("(4, 4)")):
        solver(trees, lambda trees: np.ones(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_with_a_non_finite_entry_is_refused(bad):
    rng = np.random.default_rng(31)
    trees = [random_tree(rng, horizon=2, min_branch=2, max_branch=2, prefix=p) for p in "ab"]
    table = np.ones((4, 4))
    table[2, 1] = bad
    with pytest.raises(ValidationError, match="not finite"):
        mc_dpp(trees, table)


@pytest.mark.parametrize("cost", [
    cm.lp_sum(1.0), cm.pairwise_power(2.0), PowerCost(weight=1.0, exponent=2.0),
    TableCost([([[1.0]], [[1.0]], np.zeros((1, 1))), ([[2.0]], [[2.0, 5.0]], np.zeros((1, 1)))]),
    aggregate_cost([PowerCost(), PowerCost()], phi0_quadratic([0.5, 0.5])),
], ids=["lp_sum", "pairwise_power", "power", "table", "aggregate"])
def test_states_of_different_dimensions_are_refused(cost):
    # the trees differ in dimension only at time 2, where a cost would
    # broadcast the state 2 against (2, 5); a given table compares no
    # states and stays allowed
    trees = [chain_tree([[1.0], [2.0]], "a"), chain_tree([[1.0], [2.0, 5.0]], "b")]
    with pytest.raises(ValidationError,
                       match=re.escape("states at time 2 have different dimensions [1, 2]")):
        cost_table(trees, cost)
    assert mc_dpp(trees, np.ones((1, 1))).value == 1.0


def test_states_of_two_and_three_dimensions_are_refused_by_name():
    trees = [chain_tree([[0.0, 0.0]], "a"), chain_tree([[0.0, 0.0, 0.0]], "b")]
    with pytest.raises(ValidationError,
                       match=re.escape("states at time 1 have different dimensions [2, 3]")):
        aw_distance(*trees, p=1.0)


@pytest.mark.parametrize("cost", [cm.lp_sum(1e308), cm.pairwise_power(2000.0)])
def test_cost_past_the_float_range_is_refused(cost):
    # the power is inf past the float range, and cost_table refuses it
    trees = [chain_tree([[0.0], [0.0]], "a"), chain_tree([[0.0], [5.0]], "b")]
    with pytest.raises(ValidationError, match="not finite"):
        cost_table(trees, cost)
    with pytest.raises(ValidationError, match="not finite"):
        aw_distance(*trees, p=1000.0)


@pytest.mark.parametrize("p", [0.5, np.inf, np.nan])
def test_exponents_outside_one_to_inf_are_refused(p):
    # p = inf would make every distance below 1 cost 0
    for build in (cm.lp_sum, cm.pairwise_power, lambda p: PowerCost(exponent=p),
                  lambda p: cm.parse_cost_spec(f"lp_sum:{p}")):
        with pytest.raises(ValidationError, match="finite and >= 1"):
            build(p)


@pytest.mark.parametrize("weight", [0.0, -1.0, np.inf, np.nan])
def test_power_cost_weights_outside_zero_to_inf_are_refused(weight):
    with pytest.raises(ValidationError, match="finite and positive"):
        PowerCost(weight=weight)


@pytest.mark.parametrize("cost", [cm.lp_sum(2.0), cm.pairwise_power(2.0)])
@pytest.mark.parametrize("far", [[[0.0], [1e200]], [[1e154], [1e154]]])
def test_square_past_the_float_range_is_refused(cost, far):
    # 1e200: the norm is already inf; 1e154 twice: the norms are finite,
    # and their sum's square (lp_sum) or the sum of squares overflows
    trees = [chain_tree([[0.0], [0.0]], "a"), chain_tree(far, "b")]
    with pytest.raises(ValidationError, match="not finite"):
        cost_table(trees, cost)


# -- the exponentiation rule ---------------------------------------------------------


def test_squares_are_correctly_rounded():
    # libm pow(x, 2.0) is 0.13134695247455286 here, one ulp off
    x = 0.3624182010806754
    square = 0.13134695247455289
    assert float(Fraction(x) ** 2) == square
    trees = [chain_tree([[0.0]], "a"), chain_tree([[x]], "b")]
    for cost in (cm.lp_sum(2), cm.pairwise_power(2.0), PowerCost(exponent=2.0)):
        assert cost_table(trees, cost)[0, 0] == square


@pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0, 7.3])
def test_other_powers_are_python_float_pow(p):
    rng = np.random.default_rng(35)
    x = np.abs(rng.normal(size=20_000)) * np.exp(rng.uniform(-5.0, 5.0, size=20_000))
    x[:3] = (0.0, 5e-324, 1.0)
    assert cm.power(x, p).tolist() == [v ** p for v in x.tolist()]


@pytest.mark.parametrize("cost", [cm.lp_sum(2.0), cm.lp_sum(1.5), cm.pairwise_power(3.0),
                                  PowerCost(1.0, 1.5)])
@pytest.mark.parametrize("n, horizon, dim", [(2, 3, 1), (3, 2, 2)])
def test_tables_do_not_depend_on_the_chunk_size(monkeypatch, cost, n, horizon, dim):
    trees = family(n, horizon, dim)
    if isinstance(cost, PowerCost):  # a cost of a pair
        trees = trees[:2]
    whole = cost(trees)
    monkeypatch.setattr(cm, "_CHUNK", 5)  # one leaf of the first tree per chunk
    assert np.array_equal(cost(trees), whole)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def wide_pair() -> list[ScenarioTree]:
    """Two horizon-3 trees of branching 10: an 8 MB table."""
    rng = np.random.default_rng(36)
    return [random_tree(rng, horizon=3, min_branch=10, max_branch=10, prefix=p) for p in "ab"]


@pytest.mark.parametrize("cost", [cm.lp_sum(2.0), cm.lp_sum(1.5), cm.pairwise_power(3.0),
                                  PowerCost(1.0, 2.0), PowerCost(1.0, 1.5)])
def test_table_memory_is_bounded_by_the_table(wide_pair, cost):
    # the cost adds chunks into its one output table, which cost_table
    # takes as it is built
    table_bytes = 8 * wide_pair[0].n_leaves * wide_pair[1].n_leaves
    assert traced_peak(lambda: cost(wide_pair)) <= 1.5 * table_bytes
    assert traced_peak(lambda: cost_table(wide_pair, cost)) <= 1.5 * table_bytes


def test_cost_table_takes_a_built_table_as_it_is():
    rng = np.random.default_rng(37)
    trees = [random_tree(rng, horizon=2, min_branch=2, max_branch=2, prefix=p) for p in "ab"]
    built = np.arange(16.0).reshape(4, 4)
    assert cost_table(trees, lambda _: built) is built


def test_cost_table_leaves_the_given_array_alone():
    rng = np.random.default_rng(32)
    trees = [random_tree(rng, horizon=2, min_branch=2, max_branch=2, prefix=p) for p in "ab"]
    given = np.arange(16.0).reshape(4, 4)
    table = cost_table(trees, given)
    assert np.array_equal(table, given) and table is not given
    brute_force_mcot(trees, given)
    assert np.array_equal(given, np.arange(16.0).reshape(4, 4))


# -- one table build per solve ---------------------------------------------------------


def test_each_solve_builds_its_cost_table_once(monkeypatch):
    # the callable lp_sum returns, wrapped in a plain counting function the
    # way a tracer wraps it, is called once per solve
    calls = []
    lp_sum = cm.lp_sum

    def counting_lp_sum(p):
        fn = lp_sum(p)

        def counted(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        return counted

    rng = np.random.default_rng(33)
    trees = [random_tree(rng, horizon=2, max_branch=3, prefix=p) for p in "ab"]
    cost = counting_lp_sum(2.0)
    mc_dpp(trees, cost)
    assert len(calls) == 1
    brute_force_mcot(trees, cost)
    assert len(calls) == 2
    monkeypatch.setattr(cm, "lp_sum", counting_lp_sum)
    aw_distance(*trees)
    assert len(calls) == 3
