"""Scenario-tree construction, validation, arrays and quantization.

Oracles used here:
    - standard-normal moments via the double-factorial recursion
      m_0 = 1, m_k = (k - 1) m_{k-2} (k even), m_k = 0 (k odd),
      independent of the quadrature under test.
"""
from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss

from treeot import trees as trees_mod
from treeot import (
    ScenarioTree,
    TreeFormatError,
    ValidationError,
    counterexample_demo,
    dump_tree,
    load_tree,
    quantize_gauss_hermite,
)
from treeot.randomgen import random_tree
from treeot.trees import GAUSS_HERMITE_MAX_N


def normal_moment(k: int) -> float:
    """(k-1)!! for even k, 0 for odd k, by the recursion m_k = (k-1) m_{k-2}."""
    if k % 2 == 1:
        return 0.0
    m = 1.0
    for j in range(2, k + 1, 2):
        m *= j - 1
    return m


# -- load_tree ---------------------------------------------------------------


def test_load_minimal_tree():
    tree = load_tree(b'{"horizon": 1, "levels": [[{"id": "a", "parent": null, "p": 1.0, "x": [0.0]}]]}')
    assert tree.horizon == 1
    assert tree.n_leaves == 1
    assert tree.states[0][0] == pytest.approx([0.0])


def test_load_two_leaf_symmetric():
    doc = {
        "horizon": 1,
        "levels": [
            [
                {"id": "a", "parent": None, "p": 0.5, "x": [1.0]},
                {"id": "b", "parent": None, "p": 0.5, "x": [-1.0]},
            ]
        ],
    }
    tree = load_tree(json.dumps(doc))
    assert tree.leaf_law() == pytest.approx([0.5, 0.5])


def test_load_rejects_bad_child_sum():
    doc = {
        "horizon": 2,
        "levels": [
            [{"id": "r", "parent": None, "p": 1.0, "x": [0.0]}],
            [
                {"id": "a", "parent": "r", "p": 0.6, "x": [0.0]},
                {"id": "b", "parent": "r", "p": 0.5, "x": [0.0]},
            ],
        ],
    }
    with pytest.raises(ValidationError, match="sum 1.1"):
        load_tree(json.dumps(doc))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["levels"][1].__setitem__(0, {"id": "a", "parent": "zz", "p": 1.0, "x": [0]}), "unknown parent"),
        (lambda d: d["levels"][1][0].update(p=0.0), "strictly positive"),
        (lambda d: d["levels"][1][0].update(p=-0.2), "strictly positive"),
        (lambda d: d["levels"][1].append({"id": "a", "parent": "r", "p": 1.0, "x": [0]}), "duplicate|sum"),
        (lambda d: d["levels"][1][0].update(p=None), "must be numbers"),
        (lambda d: d["levels"][1][0].update(x="up"), "p and x"),
        (lambda d: d["levels"][1][0].update(parent=[]), r"unknown parent \["),
        (lambda d: d["levels"].__setitem__(1, -1), "list of levels"),
    ],
)
def test_load_rejects_structural_faults(mutate, message):
    doc = {
        "horizon": 2,
        "levels": [
            [{"id": "r", "parent": None, "p": 1.0, "x": [0.0]}],
            [{"id": "a", "parent": "r", "p": 1.0, "x": [0.0]}],
        ],
    }
    mutate(doc)
    with pytest.raises((ValidationError, TreeFormatError), match=message):
        load_tree(json.dumps(doc))


def faultless_doc() -> dict:
    """Two roots, one with two children and one with one."""
    return {"horizon": 2, "levels": [
        [{"id": "r", "parent": None, "p": 0.5, "x": [0.0]},
         {"id": "s", "parent": None, "p": 0.5, "x": [1.0]}],
        [{"id": "a", "parent": "r", "p": 0.25, "x": [0.0]},
         {"id": "b", "parent": "r", "p": 0.75, "x": [1.0]},
         {"id": "c", "parent": "s", "p": 1.0, "x": [2.0]}],
    ]}


def _set(t, k, **fields):
    return lambda d: d["levels"][t][k].update(fields)


@pytest.mark.parametrize(
    "mutate, error, message",
    [
        (lambda d: d["levels"][1][1].pop("id"), TreeFormatError,
         "level 2, node #1: missing field 'id'"),
        (lambda d: d["levels"][1][1].pop("p"), TreeFormatError,
         "level 2, node #1: missing field 'p'"),
        (lambda d: d["levels"][0][1].pop("x"), TreeFormatError,
         "level 1, node #1: missing field 'x'"),
        (lambda d: d["levels"][1].__setitem__(2, ["c", "s", 1.0, [2.0]]), TreeFormatError,
         "level 2, node #2: missing field list indices must be integers or slices, not str"),
        (_set(1, 1, id=""), TreeFormatError, "level 2, node #1: id must be a nonempty string"),
        (_set(1, 1, id=7), TreeFormatError, "level 2, node #1: id must be a nonempty string"),
        (_set(1, 1, p=None), TreeFormatError,
         "level 2, node 'b': p and x must be numbers "
         "(float() argument must be a string or a real number, not 'NoneType')"),
        (_set(1, 1, p="abc"), TreeFormatError,
         "level 2, node 'b': p and x must be numbers (could not convert string to float: 'abc')"),
        (_set(1, 1, x="up"), TreeFormatError,
         "level 2, node 'b': p and x must be numbers (could not convert string to float: 'up')"),
        (_set(1, 1, p=10 ** 400), TreeFormatError,
         "level 2, node 'b': p and x must be numbers (int too large to convert to float)"),
        (_set(0, 1, parent="r"), TreeFormatError,
         "level 1, node 's': parent must be null at t=1"),
        (_set(1, 2, parent="zz"), TreeFormatError, "level 2, node 'c': unknown parent 'zz'"),
        (_set(1, 2, parent=[]), TreeFormatError, "level 2, node 'c': unknown parent []"),
        (_set(1, 2, parent=None), TreeFormatError, "level 2, node 'c': unknown parent None"),
        (_set(1, 2, id="r"), ValidationError, "duplicate node id 'r'"),
        (_set(1, 1, x=[1.0, 2.0]), ValidationError, "level 2, node 'b': state dimension 2 != 1"),
        (_set(1, 1, x=[float("nan")]), ValidationError,
         "level 2, node 'b': non-finite state value"),
        (lambda d: (_set(1, 0, p=0.0)(d), _set(1, 1, p=1.0)(d)), ValidationError,
         "level 2, node 'a': transition probability 0.0 must be strictly positive"),
        (_set(1, 2, p=-1.0), ValidationError,
         "level 2, node 'c': transition probability -1.0 must be strictly positive"),
        (_set(1, 2, p=float("inf")), ValidationError,
         "level 2, node 'c': transition probability inf must be strictly positive"),
        (_set(1, 2, p=1.5), ValidationError,
         "level 2, node 'c': transition probability 1.5 exceeds 1"),
        (_set(1, 1, p=0.8), ValidationError, "level 2: children of 'r' sum 1.05, expected 1"),
        (_set(0, 1, p=0.25), ValidationError, "level 1: root distribution sum 0.75, expected 1"),
        (lambda d: d["levels"][1].pop(2), ValidationError,
         "level 1, node 's': no children below the horizon"),
        (lambda d: d["levels"].__setitem__(1, []), ValidationError,
         "tree must have at least one node per level"),
    ],
)
def test_single_fault_names_its_node(mutate, error, message):
    # each input has one fault; its error type and message are pinned exactly
    doc = faultless_doc()
    load_tree(json.dumps(doc))
    mutate(doc)
    with pytest.raises(error) as info:
        load_tree(json.dumps(doc))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize(
    "levels, error, message",
    [
        ([[{"id": "a", "parent": None, "p": Fraction(1, 3), "x": [0.0]},
           {"id": "b", "parent": None, "p": "3/4", "x": [0.0]}]],
         ValidationError, "level 1: root distribution sum 13/12 != 1 (exact mode)"),
        ([[{"id": "a", "parent": None, "p": "1/0", "x": [0.0]}]],
         TreeFormatError, "level 1, node 'a': p and x must be numbers (Fraction(1, 0))"),
        # within the float tolerance, but not exactly 1
        ([[{"id": k, "parent": None, "p": p, "x": [0.0]}
           for k, p in zip("abc", [Fraction(1, 3), "1/3", Fraction(1, 3) + Fraction(1, 10**15)])]],
         ValidationError,
         "level 1: root distribution sum 1000000000000001/1000000000000000 != 1 (exact mode)"),
    ],
)
def test_exact_mode_single_fault_names_its_node(levels, error, message):
    with pytest.raises(error) as info:
        ScenarioTree.from_levels(levels, exact=True)
    assert type(info.value) is error
    assert str(info.value) == message


def test_load_rejects_malformed_json():
    with pytest.raises(TreeFormatError, match="malformed"):
        load_tree(b"{not json")


def test_childless_internal_node_rejected():
    doc = {
        "horizon": 2,
        "levels": [
            [
                {"id": "r", "parent": None, "p": 0.5, "x": [0.0]},
                {"id": "s", "parent": None, "p": 0.5, "x": [0.0]},
            ],
            [{"id": "a", "parent": "r", "p": 1.0, "x": [0.0]}],
        ],
    }
    with pytest.raises(ValidationError, match="no children"):
        load_tree(json.dumps(doc))


def test_exact_rational_mode():
    levels = [
        [
            {"id": f"n{k}", "parent": None, "p": Fraction(1, 3), "x": [float(k)]}
            for k in range(3)
        ]
    ]
    tree = ScenarioTree.from_levels(levels, exact=True)
    assert tree.leaf_law() == pytest.approx([1 / 3] * 3)
    levels[0][0]["p"] = Fraction(1, 4)
    with pytest.raises(ValidationError, match="exact"):
        ScenarioTree.from_levels(levels, exact=True)


# -- quantization ---------------------------------------------------------------


def test_quantize_single_node_is_mean():
    z, w = quantize_gauss_hermite(1)
    assert z.tolist() == [0.0]
    assert w == pytest.approx([1.0])


def test_quantize_two_nodes_solved_by_hand():
    # symmetric two-point system: nodes +-z, weights 1/2; matching E Z^2 = 1
    # forces z = 1
    z, w = quantize_gauss_hermite(2)
    assert z == pytest.approx([-1.0, 1.0])
    assert w == pytest.approx([0.5, 0.5])


def test_quantize_four_nodes_matches_moment_oracle():
    z, w = quantize_gauss_hermite(4)
    assert float(w @ z**2) == pytest.approx(normal_moment(2), abs=1e-9)
    assert float(w @ z**6) == pytest.approx(normal_moment(6), abs=1e-9)


@given(n=st.integers(min_value=1, max_value=8))
@settings(deadline=None, max_examples=10)
def test_quantize_moment_exactness_up_to_order(n):
    z, w = quantize_gauss_hermite(n)
    for k in range(2 * n):
        assert float(w @ z**k) == pytest.approx(normal_moment(k), abs=1e-9)


@pytest.mark.parametrize("n", [10, 12])
def test_quantize_large_orders_exact_to_float_precision(n):
    # beyond order ~15 the summands reach 1e14, so 1e-9 absolute is below
    # float64 resolution; accuracy stays at rounding level of the sum scale
    z, w = quantize_gauss_hermite(n)
    for k in range(2 * n):
        expected = normal_moment(k)
        got = float(w @ z**k)
        scale = float(w @ np.abs(z) ** k)
        assert got == pytest.approx(expected, abs=1e-9 + 1e-11 * scale)


def test_quantize_rejects_nonpositive_order():
    with pytest.raises(ValidationError):
        quantize_gauss_hermite(0)


# -- global invariants ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_random_tree_invariants(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, horizon=3, dim=2, max_branch=3)
    # kernels sum to one
    for t in range(1, tree.horizon):
        for idx in range(tree.level_size(t)):
            kernel = tree.probs[t][tree.children(t, idx)]
            assert sum(kernel.tolist()) == pytest.approx(1.0, abs=1e-12)
    # leaf-path probabilities sum to one
    assert float(tree.leaf_law().sum()) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_expect_is_the_per_node_sum_in_child_order(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, horizon=4, dim=1, min_branch=1, max_branch=4)
    for t in range(tree.horizon):
        n = tree.level_size(t) if t else 1
        for lead in [(), (3,), (2, 3)]:
            values = rng.normal(size=lead + (len(tree.ids[t]),))
            expected = np.zeros(lead + (n,))
            for k in range(n):
                total = np.zeros(lead)
                for b in tree.children(t, k).tolist():
                    total = total + tree.probs[t][b] * values[..., b]
                expected[..., k] = total
            assert np.array_equal(tree.expect(t, values), expected)
            # the best response hands over a transposed view
            assert np.array_equal(tree.expect(t, np.asfortranarray(values)), expected)


def test_level_size_is_defined_on_depths_one_to_horizon():
    tree = random_tree(np.random.default_rng(0), horizon=2, min_branch=2, max_branch=3)
    assert [tree.level_size(t) for t in (1, 2)] == [len(ids) for ids in tree.ids]
    for t in (0, -1, 3):
        with pytest.raises(ValidationError, match=r"outside 1\.\.2"):
            tree.level_size(t)


def spec_levels(rng, kind: str) -> list[list[dict]]:
    """Node specs of a horizon-3 tree: ``uniform`` (branching 3),
    ``ragged`` (1 to 3 children), ``multi-dim`` (3-D states, 1 to 3
    children) or ``exact`` (probabilities 1/m as Fractions and strings)."""
    levels, parents, count = [], [None], 0
    dim = 3 if kind == "multi-dim" else 1
    for t in range(3):
        level = []
        for parent in parents:
            m = 3 if kind == "uniform" else int(rng.integers(1, 4))
            if kind == "exact":
                probs = [Fraction(1, m) if b % 2 else f"1/{m}" for b in range(m)]
            else:
                raw = rng.random(m) + 0.2
                raw /= raw.sum()
                raw[-1] = 1.0 - raw[:-1].sum()
                probs = raw.tolist()
            for p in probs:
                level.append({"id": f"n{count}", "parent": parent, "p": p,
                              "x": rng.normal(size=dim).tolist()})
                count += 1
        levels.append([level[k] for k in rng.permutation(len(level))])
        parents = [spec["id"] for spec in level]
    return levels


@pytest.mark.parametrize("kind", ["uniform", "ragged", "multi-dim", "exact"])
def test_tree_arrays_follow_the_node_specs(kind):
    rng = np.random.default_rng(["uniform", "ragged", "multi-dim", "exact"].index(kind))
    levels = spec_levels(rng, kind)
    tree = ScenarioTree.from_levels(levels, exact=kind == "exact")
    index = [{spec["id"]: k for k, spec in enumerate(level)} for level in levels]
    for t, level in enumerate(levels):
        assert tree.ids[t] == tuple(spec["id"] for spec in level)
        parents = [0 if t == 0 else index[t - 1][spec["parent"]] for spec in level]
        np.testing.assert_array_equal(tree.parents[t], parents)
        assert tree.probs[t].tolist() == [float(Fraction(spec["p"])) for spec in level]
        assert tree.states[t].tolist() == [spec["x"] for spec in level]
        for arr in (tree.parents[t], tree.probs[t], tree.states[t]):
            assert not arr.flags.writeable
        if t:
            for k, up in enumerate(levels[t - 1]):
                assert tree.children(t, k).tolist() == [
                    j for j, spec in enumerate(level) if spec["parent"] == up["id"]]
    # each leaf's probability is the product down its path, from the root
    law = []
    for spec in levels[-1]:
        path = [spec]
        for t in range(len(levels) - 1, 0, -1):
            path.insert(0, levels[t - 1][index[t - 1][path[0]["parent"]]])
        mass = float(Fraction(path[0]["p"]))
        for node in path[1:]:
            mass = float(Fraction(node["p"])) * mass
        law.append(mass)
    assert tree.leaf_law().tolist() == law
    assert tree.leaf_ids() == tree.ids[-1]
    assert [tree.locate(spec["id"]) for spec in levels[1]] == [(2, k) for k in range(len(levels[1]))]
    canonical = dump_tree(tree)
    assert load_tree(canonical) == tree
    assert dump_tree(load_tree(canonical)) == canonical


@pytest.mark.parametrize("seed", range(4))
def test_serialization_round_trip_is_bit_identical(seed):
    rng = np.random.default_rng(seed)
    tree = random_tree(rng, horizon=3, dim=1, max_branch=3)
    canonical = dump_tree(tree)
    assert dump_tree(load_tree(canonical)) == canonical
    assert load_tree(canonical) == tree


def test_quantization_range_ends_where_the_weights_do(monkeypatch):
    # the range ends exactly: the last size whose weights normalise, then the first that does not
    z, w = quantize_gauss_hermite(GAUSS_HERMITE_MAX_N)
    assert np.isfinite(w).all() and np.isfinite(z).all()
    with np.errstate(all="ignore"):
        w = hermegauss(GAUSS_HERMITE_MAX_N + 1)[1]
        assert not np.isfinite(w / w.sum()).all()

    def unreachable(n):
        raise AssertionError("hermegauss called past the range")

    monkeypatch.setattr(trees_mod, "hermegauss", unreachable)
    with pytest.raises(ValidationError, match=f"supports n <= {GAUSS_HERMITE_MAX_N}, got"):
        counterexample_demo(GAUSS_HERMITE_MAX_N + 1)


def test_quantization_refuses_non_finite_weights():
    # the Gauss-Hermite weights overflow to NaN at this size
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite"):
        quantize_gauss_hermite(500)
