"""CLI behaviour: commands, exit codes, determinism of reports."""
from __future__ import annotations

import ast
import base64
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from treeot import barycenters as bary
from treeot import cli
from treeot import costs as cm
from treeot import lp
from treeot import matching as matching_mod
from treeot import multicausal as mc
from treeot.cli import run
from treeot.randomgen import random_multicausal_coupling, random_tree
from treeot.trees import GAUSS_HERMITE_MAX_N, ScenarioTree, chain_tree, dump_tree, load_tree

from helpers import atom_ids


@pytest.fixture()
def tree_files(tmp_path):
    rng = np.random.default_rng(42)
    t1 = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="a")
    t2 = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="b")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    p1.write_text(dump_tree(t1))
    p2.write_text(dump_tree(t2))
    return t1, t2, str(p1), str(p2)


def _random_cost(tmp_path, paths, seed=0):
    """A ``--cost`` spec of a random tensor over the leaf tuples of the
    tree files ``paths``: the north-west corners of its one-step blocks
    are not optimal, so they go on to the transportation simplex, or to
    HiGHS LPs with ``lp._SIMPLEX_CELLS`` at 0."""
    shape = tuple(load_tree(Path(p).read_text()).n_leaves for p in paths)
    path = tmp_path / "cost.npy"
    np.save(path, np.random.default_rng(seed).random(shape))
    return f"tensor:{path}"


def _run_to_file(tmp_path, args, name="out.json"):
    out = tmp_path / name
    code = run([*args, "--output", str(out)])
    return code, out


def test_awdist_identical_trees(tmp_path, tree_files):
    _, _, p1, _ = tree_files
    code, out = _run_to_file(tmp_path, ["awdist", p1, p1, "--p", "2"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "4"
    assert report["values"]["aw_distance"] == pytest.approx(0.0, abs=1e-10)


def test_mcot_with_oracle_gap(tmp_path, tree_files):
    _, _, p1, p2 = tree_files
    code, out = _run_to_file(tmp_path, ["mcot", p1, p2, "--cost", "lp_sum:2", "--oracle"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["values"]["dpp_oracle_gap"] <= 1e-8
    assert report["verification"]["multicausal"] is True
    assert report["certificate"]["duals"]["potentials"]


@pytest.mark.parametrize("command", ["awdist", "mcot"])
def test_default_run_takes_no_lp_and_no_oracle(tmp_path, tree_files, command):
    t1, t2, p1, p2 = tree_files
    code, out = _run_to_file(tmp_path, [command, p1, p2])
    assert code == 0
    report = json.loads(out.read_text())
    # two trees: every one-step block is certified at its north-west
    # corner or by the transportation simplex, none by HiGHS
    blocks = 1 + sum(t1.level_size(t) * t2.level_size(t) for t in range(1, t1.horizon))
    solver = report["solver"]
    assert solver["lp_solves"] == 0
    assert solver["corner_blocks"] > 0
    assert solver["corner_blocks"] + solver["transport_blocks"] == blocks
    assert "oracle_value" not in report["values"]
    assert report["values"]["duality_gap"] <= 1e-8 * (1 + abs(report["values"]["dpp_value"]))
    assert report["verification"]["min_dual_slack"] >= -1e-8
    assert report["certificate"]["duals"]["coefficients"]


@pytest.mark.parametrize("command", ["awdist", "bary-bc"])
def test_corrupted_one_step_potential_exits_4(tmp_path, tree_files, monkeypatch, capsys,
                                              command):
    _, _, p1, p2 = tree_files
    real = mc.multimarginal_ot_batch

    def corrupted(groups):
        results = real(groups)
        # move process 1's potential in the first block by a mean-zero
        # step: every one-step value and gap stays, but the tight dual
        # constraints at its first child are now violated
        _, _, potentials = results[0]
        weights = groups[0][0][0][0]
        potentials[0][0] += 1e-3 * ((np.arange(weights.size) == 0) - weights[0])
        return results

    monkeypatch.setattr(mc, "multimarginal_ot_batch", corrupted)
    capsys.readouterr()
    assert run([command, p1, p2]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: solver failure: dual certificate")
    assert "'min_slack'" in err


@pytest.mark.parametrize("command", ["bary-c", "match"])
def test_corrupted_martingale_coefficient_exits_4(tree_files, monkeypatch, capsys, command):
    _, _, p1, p2 = tree_files
    market = str(Path(__file__).parent / "fixtures" / "market_seed602.json")
    argv = {"bary-c": ["bary-c", p1, p2, "--tasks", p1], "match": ["match", market]}[command]
    real = bary.causal_barycenter

    def corrupted(*args, **kwargs):
        sol = real(*args, **kwargs)
        # raise population 0's depth-1 coefficient at a process node with
        # siblings: G^0 drops by p_b * 1e6 below each sibling
        parents = sol.plans[0].trees[0].parents[1]
        b = int(np.flatnonzero(np.bincount(parents)[parents] > 1)[0])
        sol.certificates[0].coefficients[0][0][0, b] += 1e6
        return sol

    monkeypatch.setattr(bary, "causal_barycenter", corrupted)
    monkeypatch.setattr(matching_mod, "causal_barycenter", corrupted)
    capsys.readouterr()
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: solver failure: dual certificate")
    assert "'min_slack'" in err


@pytest.mark.parametrize("command", ["bary-c", "match", "bary-anticausal"])
def test_corrupted_task_potential_exits_4(tree_files, monkeypatch, capsys, command):
    _, _, p1, p2 = tree_files
    market = str(Path(__file__).parent / "fixtures" / "market_seed602.json")
    argv = {"bary-c": ["bary-c", p1, p2, "--tasks", p1], "match": ["match", market],
            "bary-anticausal": ["bary-anticausal", p1, p2, "--tasks", p1]}[command]
    solver = "anticausal_barycenter" if command == "bary-anticausal" else "causal_barycenter"
    real = getattr(bary, solver)

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        # raise population 1's wage at a task leaf of its plan: the slack
        # of that atom, 0 before, drops to -1e-3
        y = res.plans[1].tuples[0, 1]
        res.certificates[1].potentials[1][y] += 1e-3
        return res

    monkeypatch.setattr(bary, solver, corrupted)
    monkeypatch.setattr(matching_mod, solver, corrupted, raising=False)
    capsys.readouterr()
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: solver failure: dual certificate")
    details = ast.literal_eval(err[err.index("{"):])
    assert details["min_slack"] < -1e-8


def test_corrupted_causal_transport_dual_exits_4(monkeypatch, capsys):
    real = bary.causal_ot

    def corrupted(*args, **kwargs):
        value, plan, cert = real(*args, **kwargs)
        # raise the first potential at a leaf: every slack in its row drops
        cert.potentials[0][0] += 1e-3
        return value, plan, cert

    monkeypatch.setattr(bary, "causal_ot", corrupted)
    capsys.readouterr()
    assert run(["counterexample", "--n", "4"]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: solver failure: dual certificate")
    assert "'min_slack'" in err


@pytest.mark.parametrize("command", ["awdist", "mcot", "bary-bc", "bary-c", "match",
                                     "bary-anticausal", "counterexample"])
def test_support_slack_above_tolerance_exits_4(tree_files, monkeypatch, capsys, command):
    _, _, p1, p2 = tree_files
    market = str(Path(__file__).parent / "fixtures" / "market_seed602.json")
    argv = {"awdist": ["awdist", p1, p2], "mcot": ["mcot", p1, p2, p1],
            "bary-bc": ["bary-bc", p1, p2], "bary-c": ["bary-c", p1, p2, "--tasks", p1],
            "match": ["match", market],
            "bary-anticausal": ["bary-anticausal", p1, p2, "--tasks", p1],
            "counterexample": ["counterexample", "--n", "4"]}[command]
    # the solver whose first certificate is corrupted
    module, solver = {"awdist": (mc, "mc_dpp"), "mcot": (mc, "mc_dpp"),
                      "bary-bc": (bary, "mc_dpp"), "counterexample": (bary, "causal_ot"),
                      "bary-anticausal": (bary, "anticausal_barycenter")}.get(
        command, (bary, "causal_barycenter"))
    real = getattr(module, solver)

    def corrupted(*args, **kwargs):
        res = real(*args, **kwargs)
        if isinstance(res, mc.McotResult):
            tree, cert = res.policy.trees[0], res.certificate
        elif isinstance(res, tuple):  # causal_ot's (value, plan, certificate)
            tree, cert = res[1].trees[0], res[2]
        else:
            tree, cert = res.plans[0].trees[0], res.certificates[0]
        # lower the first potential at the least likely leaf by 2e-8: every
        # slack in its row rises by 2e-8, so none turns negative and the
        # dual value drops by less than the gap tolerance, but the plan's
        # support is no longer tight
        cert.potentials[0][np.argmin(tree.leaf_law())] -= 2e-8
        return res

    monkeypatch.setattr(module, solver, corrupted)
    monkeypatch.setattr(matching_mod, solver, corrupted, raising=False)
    capsys.readouterr()
    assert run(argv) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: solver failure: dual certificate")
    details = ast.literal_eval(err[err.index("{"):])
    assert details["min_slack"] >= -1e-8 and details["support_slack"] > 1e-8
    assert details["gap"] <= lp.DUALITY_TOL * (1 + abs(details["value"]))


@pytest.mark.parametrize("command", ["bary-c", "bary-anticausal", "match"])
def test_barycenter_commands_build_each_cost_table_once(tmp_path, tree_files, monkeypatch,
                                                        command):
    _, _, p1, p2 = tree_files
    argv = {"bary-c": ["bary-c", p1, p2, "--tasks", p1], "match": ["match", str(MARKET)],
            "bary-anticausal": ["bary-anticausal", p1, p2, "--tasks", p1]}[command]
    populations = 1 + len(json.loads(MARKET.read_text())["agents"]) if command == "match" else 2
    real, calls = bary.SeparableCost.__call__, []

    def counted(self, trees):
        calls.append(None)
        return real(self, trees)

    monkeypatch.setattr(bary.SeparableCost, "__call__", counted)
    code, _ = _run_to_file(tmp_path, argv)
    assert code == 0
    # the certificate gate reads the tables the solve was built on
    assert len(calls) == populations


def test_match_refuses_by_budget_before_any_cost_is_evaluated(monkeypatch, capsys):
    real, calls = bary.SeparableCost.__call__, []

    def counted(self, trees):
        calls.append(None)
        return real(self, trees)

    monkeypatch.setattr(bary.SeparableCost, "__call__", counted)
    capsys.readouterr()
    assert run(["match", str(MARKET), "--budget", "5"]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        "treeot: budget refused: causal barycenter LP: 2187 leaf tuples exceed budget 5"]
    assert calls == []


def test_mcot_oracle_evaluates_the_cost_once(tmp_path, tree_files, monkeypatch):
    _, _, p1, p2 = tree_files
    parse, calls = cm.parse_cost_spec, []

    def counting(spec):
        cost = parse(spec)

        def fn(trees):
            calls.append(None)
            return cost(trees)
        return fn

    monkeypatch.setattr(cm, "parse_cost_spec", counting)
    code, out = _run_to_file(tmp_path, ["mcot", p1, p2, "--oracle"])
    assert code == 0
    assert json.loads(out.read_text())["values"]["dpp_oracle_gap"] <= 1e-8
    assert len(calls) == 1


def test_bary_c_gates_the_causality_of_its_plans(tmp_path, tree_files, monkeypatch, capsys):
    t1, t2, p1, p2 = tree_files
    code, out = _run_to_file(tmp_path, ["bary-c", p1, p2, "--tasks", p1])
    assert code == 0
    sol = bary.causal_barycenter([t1, t2], t1, [bary.PowerCost(1.0, 2.0)] * 2)
    worst = json.loads(out.read_text())["verification"]["worst_causality"]
    assert worst == max(bary.causal_violation(plan) for plan in sol.plans) <= 1e-8

    monkeypatch.setattr(bary, "causal_violation", lambda plan: 2 * lp.CAUSALITY_TOL)
    capsys.readouterr()
    assert run(["bary-c", p1, p2, "--tasks", p1]) == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: solver failure: a barycenter plan fails the causality check")
    assert ast.literal_eval(err[err.index("{"):]) == {"worst_causality": 2 * lp.CAUSALITY_TOL}


def test_bary_bc_is_certified_by_its_recursion(tmp_path, tree_files):
    _, _, p1, p2 = tree_files
    code, out = _run_to_file(tmp_path, ["bary-bc", p1, p2])
    assert code == 0
    report = json.loads(out.read_text())
    # the recursion, then one recursion per process for the recomputed
    # value: all of two trees, so all certified at the north-west corner
    # or by the transportation simplex
    assert report["solver"]["lp_solves"] == 0
    assert report["solver"]["corner_blocks"] > 0
    values = report["values"]
    assert "oracle_value" not in values
    assert values["duality_gap"] <= 1e-8 * (1 + abs(values["barycenter_value"]))
    assert report["verification"]["min_dual_slack"] >= -1e-8
    assert report["certificate"]["duals"]["coefficients"]
    # the barycenter is written in the canonical tree form
    block = report["barycenter"]
    assert json.loads(dump_tree(load_tree(json.dumps(block)))) == block


@pytest.mark.parametrize("tol", ["nan", "inf"])
@pytest.mark.parametrize("command", ["mcot", "verify-coupling"])
def test_non_finite_tolerance_exits_2_with_one_line(tmp_path, tree_files, capsys, command, tol):
    t1, t2, p1, p2 = tree_files
    coupling = random_multicausal_coupling(np.random.default_rng(3), [t1, t2])
    path = tmp_path / "coupling.json"
    path.write_text(json.dumps(
        {"atoms": [{"leaves": list(ids), "w": w} for ids, w in atom_ids(coupling)]}
    ))
    argv = {
        "mcot": ["mcot", p1, p2],
        "verify-coupling": ["verify-coupling", str(path), "--trees", p1, p2],
    }[command]
    code, out = _run_to_file(tmp_path, [*argv, "--tol", tol])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    # only verify-coupling takes --tol; mcot refuses it whatever its value
    assert err.startswith({
        "mcot": "treeot: invalid input: treeot: unrecognized arguments: --tol",
        "verify-coupling": "treeot: invalid input: tolerance must be finite and positive",
    }[command])
    assert not out.exists()


@pytest.mark.parametrize("p", ["inf", "nan"])
def test_non_finite_exponent_exits_2_with_one_line(tmp_path, capsys, p):
    # the path distance is 0.2; with p = inf the value 0.2 ** p is 0, and
    # its root 0 ** (1 / p) would be reported as a distance of 1
    files = []
    for name, x in (("x", 0.1), ("y", 0.2)):
        path = tmp_path / f"{name}.json"
        path.write_text(dump_tree(chain_tree([[x], [x]], name)))
        files.append(str(path))
    code, out = _run_to_file(tmp_path, ["awdist", *files, "--p", p])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [
        f"treeot: invalid input: exponent p must be finite and >= 1, got {p}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["awdist", "mcot", "bary-bc", "bary-c", "bary-anticausal",
                                     "match", "counterexample", "verify-coupling"])
def test_only_verify_coupling_takes_a_tolerance(tmp_path, tree_files, capsys, command):
    t1, t2, p1, p2 = tree_files
    coupling = random_multicausal_coupling(np.random.default_rng(3), [t1, t2])
    path = tmp_path / "coupling.json"
    path.write_text(json.dumps(
        {"atoms": [{"leaves": list(ids), "w": w} for ids, w in atom_ids(coupling)]}
    ))
    argv = {"awdist": ["awdist", p1, p2], "mcot": ["mcot", p1, p2],
            "bary-bc": ["bary-bc", p1, p2], "bary-c": ["bary-c", p1, p2, "--tasks", p1],
            "bary-anticausal": ["bary-anticausal", p1, p2, "--tasks", p1],
            "match": ["match", str(MARKET)], "counterexample": ["counterexample"],
            "verify-coupling": ["verify-coupling", str(path), "--trees", p1, p2]}[command]
    code, out = _run_to_file(tmp_path, argv)
    assert code == 0
    tolerance = json.loads(out.read_text())["config"]["tolerance"]
    assert tolerance == (lp.CAUSALITY_TOL if command == "verify-coupling" else None)
    capsys.readouterr()
    code, out = _run_to_file(tmp_path, [*argv, "--tol", "1e-6"], "tol.json")
    err = capsys.readouterr().err
    if command == "verify-coupling":
        assert code == 0
        assert json.loads(out.read_text())["config"]["tolerance"] == 1e-6
    else:
        assert code == 2
        assert err.strip() == "treeot: invalid input: treeot: unrecognized arguments: --tol 1e-6"
        assert not out.exists()


def test_bary_anticausal_kernel_rows_sum_to_one(tmp_path):
    rng = np.random.default_rng(45)
    paths = []
    for name in ("f", "g", "y"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(dump_tree(random_tree(rng, horizon=2, dim=1, min_branch=2,
                                                   max_branch=3, prefix=name)))
    f, g, y = map(str, paths)
    code, out = _run_to_file(tmp_path, ["bary-anticausal", f, g, "--tasks", y])
    assert code == 0
    report = json.loads(out.read_text())
    support = {leaf for leaf, w in report["nu"].items() if w > 0}
    assert len(report["kernels"]) == 2
    for kernel in report["kernels"]:
        assert set(kernel) == support
        for row in kernel.values():
            assert abs(math.fsum(row.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("weight", ["nan", "negative", "outweighed"])
def test_verify_coupling_refuses_a_bad_weight_with_one_line(tmp_path, tree_files, capsys,
                                                            weight):
    t1, t2, p1, p2 = tree_files
    coupling = random_multicausal_coupling(np.random.default_rng(3), [t1, t2])
    atoms = [{"leaves": list(ids), "w": w} for ids, w in atom_ids(coupling)]
    if weight == "outweighed":
        # a negative atom and a repeat of its tuple that outweighs it
        atoms.append({"leaves": atoms[0]["leaves"], "w": atoms[0]["w"] + 0.1})
        atoms[0]["w"] = -0.1
    else:
        atoms[0]["w"] = {"nan": float("nan"), "negative": -atoms[0]["w"]}[weight]
    path = tmp_path / "coupling.json"
    path.write_text(json.dumps({"atoms": atoms}))
    capsys.readouterr()
    code, out = _run_to_file(tmp_path, ["verify-coupling", str(path), "--trees", p1, p2])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: invalid input: coupling weight")
    assert not out.exists()


def test_counterexample_command(tmp_path):
    code, out = _run_to_file(tmp_path, ["counterexample", "--n", "4"])
    assert code == 0
    values = json.loads(out.read_text())["values"]
    assert values["cost_phi0_construction"] == pytest.approx(15.5, abs=1e-9)
    assert values["cost_canonical_candidate"] == pytest.approx(1.0, abs=1e-9)


def test_counterexample_past_the_budget_exits_3_with_one_line(tmp_path, capsys):
    # refused before the quadrature builds its n x n matrix (80 GB here)
    code, out = _run_to_file(tmp_path, ["counterexample", "--n", "100000"])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: budget refused: counterexample:")
    assert not out.exists()


@pytest.mark.parametrize("budget, expected", [("1", 3), ("15", 3), ("16", 0)])
def test_counterexample_honours_the_budget(tmp_path, capsys, budget, expected):
    # n = 4 makes 16 leaf pairs
    code, out = _run_to_file(tmp_path, ["counterexample", "--n", "4", "--budget", budget])
    err = capsys.readouterr().err
    assert code == expected
    if expected == 3:
        assert err.strip().splitlines() == [
            f"treeot: budget refused: counterexample: 16 leaf pairs exceed budget {budget}"]
        assert not out.exists()
    else:
        assert err == "" and out.exists()


def test_tree_with_a_float_overflowing_probability_exits_2(tmp_path, capsys):
    bad = tmp_path / "big.json"
    bad.write_text('{"horizon": 1, "levels": [[{"id": "x", "parent": null, "p": 1' + "0" * 400
                   + ', "x": [0]}]]}')
    code = run(["awdist", str(bad), str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.strip().splitlines() == [
        f"treeot: invalid input: level 1, node 'x': p and x must be numbers "
        "(int too large to convert to float)"]


def test_counterexample_past_the_quadrature_exits_2_with_one_line(tmp_path, capsys):
    code, out = _run_to_file(tmp_path, ["counterexample", "--n", str(GAUSS_HERMITE_MAX_N + 1)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: invalid input: Gauss-Hermite quantization supports "
                          f"n <= {GAUSS_HERMITE_MAX_N}, got {GAUSS_HERMITE_MAX_N + 1}")
    assert not out.exists()


@pytest.mark.parametrize("tables", ["all", "one-too-few", "none", "one-too-many"])
def test_matrix_cost_must_list_one_table_per_time(tmp_path, capsys, tables):
    # the principal's quadratic utility as a matrix cost over the state
    # grids of the fixture; a table list of another length than the
    # horizon exits 2 with one line
    path = Path(__file__).parent / "fixtures" / "market_seed602.json"
    doc = json.loads(path.read_text())
    principal, tasks = doc["principal"]["tree"], doc["tasks"]
    grids = [([node["x"] for node in principal["levels"][t]],
              [node["x"] for node in tasks["levels"][t]]) for t in range(principal["horizon"])]
    listed = [{"x": xs, "y": ys, "c": [[(x[0] - y[0]) ** 2 for y in ys] for x in xs]}
              for xs, ys in grids]
    listed = {"all": listed, "one-too-few": listed[:-1], "none": [],
              "one-too-many": listed + listed[-1:]}[tables]
    doc["principal"]["utility"] = {"kind": "matrix", "tables": listed}
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps(doc))
    capsys.readouterr()
    code, out = _run_to_file(tmp_path, ["match", str(matrix)])
    err = capsys.readouterr().err
    if tables == "all":
        assert code == 0
        _, power = _run_to_file(tmp_path, ["match", str(path)], "power.json")
        values = json.loads(out.read_text())["values"]["agent_values"]
        assert values == pytest.approx(
            json.loads(power.read_text())["values"]["agent_values"], abs=1e-8)
        return
    assert code == 2
    assert err.strip().splitlines() == [
        f"treeot: invalid input: matrix cost lists {len(listed)} tables for horizon 3"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["awdist", "mcot", "bary-bc", "bary-c", "match"])
def test_states_of_different_dimensions_exit_2_with_one_line(tmp_path, capsys, command):
    # x = (0) against y = (3, 4): no state cost compares them
    x, y = tmp_path / "x.json", tmp_path / "y.json"
    x.write_text(dump_tree(chain_tree([[0.0]], "x")))
    y.write_text(dump_tree(chain_tree([[3.0, 4.0]], "y")))
    quadratic = {"kind": "power", "p": 2, "weight": 1.0}
    market = tmp_path / "market.json"
    market.write_text(json.dumps({
        "principal": {"tree": json.loads(x.read_text()), "utility": quadratic},
        "agents": [{"tree": json.loads(dump_tree(chain_tree([[1.0]], "g"))), "cost": quadratic}],
        "tasks": json.loads(y.read_text()),
    }))
    argv = {"awdist": ["awdist", x, y, "--p", "1"],
            "mcot": ["mcot", x, y, "--cost", "pairwise_power:2"],
            "bary-bc": ["bary-bc", x, y],
            "bary-c": ["bary-c", x, x, "--tasks", y],
            "match": ["match", market]}[command]
    capsys.readouterr()
    code, out = _run_to_file(tmp_path, list(map(str, argv)))
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "treeot: invalid input: states at time 1 have different dimensions [1, 2]"]
    assert not out.exists()


def test_reports_are_byte_identical(tmp_path, tree_files):
    _, _, p1, p2 = tree_files
    _, out = _run_to_file(tmp_path, ["mcot", p1, p2, "--cost", "lp_sum:2"], "r.json")
    first = out.read_bytes()
    _run_to_file(tmp_path, ["mcot", p1, p2, "--cost", "lp_sum:2"], "r.json")
    assert out.read_bytes() == first


def test_cached_parser_leaves_reports_unchanged_after_a_bad_command_line(tmp_path,
                                                                         tree_files):
    _, _, p1, p2 = tree_files
    _, first = _run_to_file(tmp_path, ["awdist", p1, p2], "first.json")
    assert run(["awdist", p1, "--p", "two"]) == 2
    _, last = _run_to_file(tmp_path, ["awdist", p1, p2], "last.json")
    assert last.read_bytes().replace(b"last.json", b"first.json") == first.read_bytes()


@pytest.fixture()
def three_tree_files(tmp_path):
    rng = np.random.default_rng(11)
    trees = [random_tree(rng, horizon=3, dim=1, max_branch=2, prefix=p) for p in "abc"]
    paths = [tmp_path / f"{p}3.json" for p in "abc"]
    for tree, path in zip(trees, paths):
        path.write_text(dump_tree(tree))
    return trees, [str(p) for p in paths]


MARKET = Path(__file__).parent / "fixtures" / "market_seed602.json"


def _market_pairs():
    """Per population of the market fixture, its pair (population tree,
    task tree) and cost table."""
    doc = json.loads(MARKET.read_text())
    parse = lambda tree: ScenarioTree.from_levels(tree["levels"])
    instance = matching_mod.MatchingInstance(
        principal=parse(doc["principal"]["tree"]),
        utility=cli._parse_separable_cost(doc["principal"]["utility"]),
        agents=[parse(a["tree"]) for a in doc["agents"]],
        agent_costs=[cli._parse_separable_cost(a["cost"]) for a in doc["agents"]],
        tasks=parse(doc["tasks"]),
    )
    return [((tree, instance.tasks), table)
            for tree, table in zip(instance.populations, instance.cost_tables)]


def _certified(command, trees, paths):
    """A certified command's argv after its name on the three trees, and
    per certificate it reports, the trees and the cost it certifies."""
    quadratic = bary.PowerCost(1.0, 2.0)
    barycenter = ([*paths[:2], "--tasks", paths[2]],
                  [((tree, trees[2]), quadratic) for tree in trees[:2]])
    return {
        "awdist": ([*paths[:2], "--p", "2"], [(trees[:2], cm.lp_sum(2.0))]),
        "mcot": ([*paths, "--cost", "lp_sum:2"], [(trees, cm.lp_sum(2.0))]),
        "bary-bc": (paths[:2], [(trees[:2], bary.aggregate_cost(
            [quadratic] * 2, bary.phi0_quadratic([0.5, 0.5])))]),
        "bary-c": barycenter,
        "bary-anticausal": barycenter,
        "match": ([str(MARKET)], _market_pairs()),
    }[command]


def _decode(s: str, shape) -> np.ndarray:
    """A report's certificate array: the inverse of ``cli._b64``."""
    return np.frombuffer(base64.b64decode(s), "<f8").reshape(shape)


def _report_atoms(entry) -> list[tuple[list[str], float]]:
    """The atoms of a report's plan as (leaf ids, weight), its leaf
    indices read as the potentials' ids."""
    ids = [p["ids"] for p in entry["duals"]["potentials"]]
    return [([ids[k][j] for k, j in enumerate(per_atom)], w)
            for per_atom, w in zip(zip(*entry["coupling"]["leaves"]),
                                   _decode(entry["coupling"]["w"], -1).tolist())]


def _certificate_from_report(trees, duals) -> mc.DualCertificate:
    """The certificate a report writes, placed by node id alone; a tree
    with no coefficient blocks gets ``()``."""
    def positions(tree, depth, ids):
        where = [tree.locate(node_id) for node_id in ids]
        assert all(d == depth for d, _ in where)
        k = [k for _, k in where]
        assert sorted(k) == list(range(tree.level_size(depth)))
        return np.array(k)

    potentials = []
    for tree, entry in zip(trees, duals["potentials"]):
        f = np.empty(tree.n_leaves)
        f[positions(tree, tree.horizon, entry["ids"])] = _decode(entry["values"], len(entry["ids"]))
        potentials.append(f)
    blocks = {}
    for entry in duals["coefficients"]:
        i, t = entry["i"] - 1, entry["t"]
        axes = [(tr, t) for j, tr in enumerate(trees) if j != i] + [(trees[i], t + 1)]
        coef = np.empty([tr.level_size(depth) for tr, depth in axes])
        coef[np.ix_(*(positions(tr, depth, ids)
                      for (tr, depth), ids in zip(axes, entry["axes"])))] = _decode(
            entry["values"], tuple(map(len, entry["axes"])))
        assert (i, t) not in blocks
        blocks[i, t] = coef
    coefficients = []
    for i, tree in enumerate(trees):
        depths = [t for t in range(1, tree.horizon) if (i, t) in blocks]
        assert depths in ([], list(range(1, tree.horizon)))
        coefficients.append(tuple(blocks[i, t] for t in depths))
    assert len(blocks) == sum(map(len, coefficients))
    return mc.DualCertificate(tuple(potentials), tuple(coefficients))


def _assert_report_holds(entry, plan, cert):
    """Every array of a report's certificate entry, decoded, equals the
    plan and certificate it was written from, bit for bit."""
    leaves = np.array(entry["coupling"]["leaves"]).T
    w = _decode(entry["coupling"]["w"], len(leaves))
    rebuilt = mc.MulticausalCoupling(plan.trees, leaves, w)
    assert np.array_equal(rebuilt.tuples, plan.tuples)
    assert np.array_equal(rebuilt.weights, plan.weights)
    duals = entry["duals"]
    assert len(duals["potentials"]) == len(cert.potentials)
    for tree, written, f in zip(plan.trees, duals["potentials"], cert.potentials):
        assert written["ids"] == list(tree.leaf_ids())
        assert np.array_equal(_decode(written["values"], len(written["ids"])), f)
    blocks = [coef for per_depth in cert.coefficients for coef in per_depth]
    assert len(duals["coefficients"]) == len(blocks)
    for written, coef in zip(duals["coefficients"], blocks):
        assert np.array_equal(
            _decode(written["values"], tuple(map(len, written["axes"]))), coef)


@pytest.mark.parametrize("command", ["awdist", "bary-anticausal", "bary-bc", "bary-c", "match",
                                     "mcot"])
def test_certificate_round_trips_through_the_report(tmp_path, three_tree_files, monkeypatch,
                                                    command):
    argv, certified = _certified(command, *three_tree_files)
    written, real = [], cli._certificate_json

    def recording(plan, cert):
        written.append((plan, cert))
        return real(plan, cert)

    monkeypatch.setattr(cli, "_certificate_json", recording)
    code, out = _run_to_file(tmp_path, [command, *argv])
    assert code == 0
    report = json.loads(out.read_text())
    entries = report["certificate"]
    entries = entries if isinstance(entries, list) else [entries]
    assert len(entries) == len(certified) == len(written)
    plans, tables, certificates = [], [], []
    for entry, (trees, cost), (plan, cert) in zip(entries, certified, written):
        _assert_report_holds(entry, plan, cert)
        certificates.append(_certificate_from_report(trees, entry["duals"]))
        plans.append(mc.coupling_from_id_atoms(trees, _report_atoms(entry)))
        tables.append(mc.cost_table(trees, cost))
    check = mc.check_certificates(plans, tables, certificates)
    # every command writes its slacks under "verification", and its gap
    # next to the value it certifies, or there where its values hold none
    verification = report["verification"]
    assert check["min_dual_slack"] == verification["min_dual_slack"]
    assert check["worst_support_slack"] == verification["worst_support_slack"]
    gap = report["values"].get("duality_gap", verification.get("duality_gap"))
    assert check["duality_gap"] == gap
    # a rerun writes the same bytes
    first = out.read_bytes()
    _run_to_file(tmp_path, [command, *argv])
    assert out.read_bytes() == first


def test_report_coupling_passes_verify_coupling(tmp_path, three_tree_files):
    _, paths = three_tree_files
    _, out = _run_to_file(tmp_path, ["awdist", *paths[:2]], "r.json")
    entry = json.loads(out.read_text())["certificate"]
    path = tmp_path / "coupling.json"
    path.write_text(json.dumps(
        {"atoms": [{"leaves": ids, "w": w} for ids, w in _report_atoms(entry)]}))
    code, out = _run_to_file(tmp_path, ["verify-coupling", str(path), "--trees", *paths[:2]])
    assert code == 0
    assert json.loads(out.read_text())["values"]["pass"] is True


def _leaf_keys(obj, path=()):
    """Dotted paths to every non-dict value of a JSON document."""
    if not isinstance(obj, dict):
        return [".".join(path)]
    return [key for k, v in obj.items() for key in _leaf_keys(v, (*path, k))]


@pytest.mark.parametrize("command", ["awdist", "bary-bc", "mcot"])
def test_text_format_writes_one_line_per_key(tmp_path, three_tree_files, command):
    argv = [command, *_certified(command, *three_tree_files)[0]]
    _, out = _run_to_file(tmp_path, argv, "r.json")
    keys = _leaf_keys(json.loads(out.read_text()))
    _, out = _run_to_file(tmp_path, [*argv, "--format", "text"], "r.txt")
    lines = out.read_text().splitlines()
    assert [line.split(" = ", 1)[0] for line in lines] == sorted(keys)
    assert {"certificate.duals.coefficients", "certificate.coupling.leaves",
            "certificate.coupling.w"} <= set(keys)


def test_validation_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"horizon": 1, "levels": [[{"id": "x", "parent": null, "p": 0.6, "x": [0]},'
        '{"id": "y", "parent": null, "p": 0.5, "x": [0]}]]}'
    )
    code = run(["awdist", str(bad), str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "case", ["match", "coupling", "grid", "tensor", "atom", "grid-not-list", "leaves-not-list"]
)
def test_unreadable_inputs_exit_2_with_one_line(tmp_path, tree_files, capsys, case):
    _, _, p1, p2 = tree_files
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "atom": {"atoms": [{"leaves": ["x", "y"]}]},
        "grid-not-list": 5,
        "leaves-not-list": {"atoms": [{"leaves": 5, "w": 1.0}]},
    }.get(case)))
    argv = {
        "match": ["match", missing],
        "coupling": ["verify-coupling", missing, "--trees", p1, p2],
        "grid": ["bary-bc", p1, p2, "--grid", missing],
        "tensor": ["mcot", p1, p2, "--cost", f"tensor:{missing}"],
        "atom": ["verify-coupling", str(bad), "--trees", p1, p2],
        "grid-not-list": ["bary-bc", p1, p2, "--grid", str(bad)],
        "leaves-not-list": ["verify-coupling", str(bad), "--trees", p1, p2],
    }[case]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: invalid input:")
    assert {"atom": "'w'", "grid-not-list": "bad.json",
            "leaves-not-list": "bad.json"}.get(case, "missing.json") in err


def test_budget_exit_code(tmp_path, tree_files):
    _, _, p1, p2 = tree_files
    code = run(["mcot", p1, p2, "--budget", "1"])
    assert code == 3


def test_bary_commands(tmp_path, tree_files):
    _, _, p1, p2 = tree_files
    code, out = _run_to_file(tmp_path, ["bary-bc", p1, p2, "--cost", "power:2:0.5,0.5"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["values"]["recomputed_value_at_barycenter"] == pytest.approx(
        report["values"]["barycenter_value"], abs=1e-8
    )
    code, out = _run_to_file(
        tmp_path, ["bary-c", p1, p2, "--tasks", p1, "--cost", "power:2:0.5,0.5"], "c.json"
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["values"]["duality_gap"] <= 1e-8
    causal_value = report["values"]["barycenter_value"]
    code, out = _run_to_file(
        tmp_path,
        ["bary-anticausal", p1, p2, "--tasks", p1, "--cost", "power:2:0.5,0.5"],
        "ac.json",
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["values"]["barycenter_value"] <= causal_value + 1e-8


def counting_linprog(monkeypatch):
    """Wrap ``lp.linprog``, the one HiGHS entry point, and return the list
    of the HiGHS options of each call."""
    real, calls = lp.linprog, []

    def linprog(*args, **kwargs):
        calls.append(kwargs["options"])
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "linprog", linprog)
    return calls


def test_match_command(tmp_path, tree_files, monkeypatch):
    t1, t2, p1, p2 = tree_files
    rng = np.random.default_rng(7)
    tasks = random_tree(rng, horizon=2, dim=1, max_branch=2, prefix="y")
    instance = {
        "principal": {
            "tree": json.loads(dump_tree(t1)),
            "utility": {"kind": "power", "p": 2, "weight": 1.0},
        },
        "agents": [
            {
                "tree": json.loads(dump_tree(t2)),
                "cost": {"kind": "power", "p": 2, "weight": 1.0},
            }
        ],
        "tasks": json.loads(dump_tree(tasks)),
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    calls = counting_linprog(monkeypatch)
    code, out = _run_to_file(tmp_path, ["match", str(path)])
    assert code == 0
    report = json.loads(out.read_text())
    # every HiGHS LP goes through the one patch point
    assert len(calls) == report["solver"]["lp_solves"] == 1
    assert report["values"]["equilibrium_ok"] is True
    assert report["verification"]["clearing_ok"] is True
    for wages in report["wages"].values():
        assert sum(wages) == pytest.approx(0.0, abs=1e-12)


def test_match_wages_keep_task_paths_apart(tmp_path, tree_files):
    # joined plainly, the task paths (a/b, c) and (a, b/c) would share the
    # key a/b/c
    t1, t2, _, _ = tree_files

    def node(node_id, parent):
        return {"id": node_id, "parent": parent, "p": 0.5 if parent is None else 1.0, "x": [0.0]}

    tasks = {"horizon": 2, "levels": [[node("a/b", None), node("a", None)],
                                      [node("c", "a/b"), node("b/c", "a")]]}
    quadratic = {"kind": "power", "p": 2, "weight": 1.0}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "principal": {"tree": json.loads(dump_tree(t1)), "utility": quadratic},
        "agents": [{"tree": json.loads(dump_tree(t2)), "cost": quadratic}],
        "tasks": tasks,
    }))
    code, out = _run_to_file(tmp_path, ["match", str(path)])
    assert code == 0
    assert set(json.loads(out.read_text())["wages"]) == {r"a\/b/c", r"a/b\/c"}


def test_market_seed602_certifies_on_the_first_solve(tmp_path, monkeypatch):
    # benchmark market seed 602, instance 0: with every causality row in
    # the LP, the scaled dual simplex left a dual residual of 1.2e-9, above
    # DUAL_TOL; with the independent rows only the first solve, unscaled,
    # certifies at once
    path = Path(__file__).parent / "fixtures" / "market_seed602.json"
    calls = counting_linprog(monkeypatch)
    code, out = _run_to_file(tmp_path, ["match", str(path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solver"]["lp_solves"] == len(calls) == 1
    assert calls[0].get("simplex_scale_strategy") == 0
    assert report["values"]["equilibrium_ok"] is True
    assert report["verification"]["min_dual_slack"] >= -1e-8
    assert report["verification"]["worst_support_slack"] <= 1e-8


def test_residual_failure_is_solved_again_scaled(tmp_path, monkeypatch):
    path = Path(__file__).parent / "fixtures" / "market_seed602.json"
    real, calls = lp.linprog, []

    def linprog(*args, **kwargs):
        calls.append(kwargs["options"])
        res = real(*args, **kwargs)
        if len(calls) == 1:
            # the first solve leaves a primal residual of 1e-6
            res.x = np.array(res.x)
            res.x[0] += 1e-6
        return res

    monkeypatch.setattr(lp, "linprog", linprog)
    code, out = _run_to_file(tmp_path, ["match", str(path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solver"]["lp_solves"] == 2
    # unscaled first, then HiGHS's default scaling
    assert [options.get("simplex_scale_strategy") for options in calls] == [0, None]
    assert report["values"]["equilibrium_ok"] is True
    assert report["verification"]["min_dual_slack"] >= -1e-8
    assert report["verification"]["worst_support_slack"] <= 1e-8


def test_solver_dust_outside_nus_support_is_dropped(tmp_path, monkeypatch):
    # HiGHS can leave an atom of ~1e-14 in a plan at a task leaf where nu
    # is clipped to 0; the zero-sum normalisation puts that leaf's column
    # excess on process 0's task potential, so the atom would read as a
    # support slack of order 1 and exit 4
    path = Path(__file__).parent / "fixtures" / "market_seed602.json"
    doc = json.loads(path.read_text())
    task_ids = [node["id"] for node in doc["tasks"]["levels"][-1]]
    real, planted = lp.linprog, []

    def linprog(*args, **kwargs):
        res = real(*args, **kwargs)
        y = int(np.flatnonzero(res.x[:len(task_ids)] <= 0)[0])
        # process 0's plan: its first leaf, task leaf y
        res.x = np.array(res.x)
        res.x[len(task_ids) + y] = 1e-14
        planted.append(task_ids[y])
        return res

    monkeypatch.setattr(lp, "linprog", linprog)
    code, out = _run_to_file(tmp_path, ["match", str(path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verification"]["worst_support_slack"] <= 1e-8
    assert report["nu"][planted[0]] == 0.0
    for entry in report["certificate"]:
        task_ids = entry["duals"]["potentials"][1]["ids"]
        assert planted[0] not in {task_ids[k] for k in entry["coupling"]["leaves"][1]}


@pytest.mark.parametrize("status", [2, 3, 4])
def test_solve_that_is_not_optimal_is_solved_again_scaled(tmp_path, monkeypatch, status):
    # scaling off once made an LP look infeasible: a first solve that ends
    # infeasible, unbounded or failed is solved once more, scaled
    path = Path(__file__).parent / "fixtures" / "market_seed602.json"
    real, calls = lp.linprog, []

    def linprog(*args, **kwargs):
        calls.append(kwargs["options"])
        res = real(*args, **kwargs)
        if len(calls) == 1:
            res.status, res.x, res.y = status, None, None
        return res

    monkeypatch.setattr(lp, "linprog", linprog)
    code, out = _run_to_file(tmp_path, ["match", str(path)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solver"]["lp_solves"] == 2
    assert [options.get("simplex_scale_strategy") for options in calls] == [0, None]
    assert report["values"]["equilibrium_ok"] is True
    assert report["verification"]["worst_support_slack"] <= 1e-8


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["x", "duals"])
@pytest.mark.parametrize("command", ["match", "mcot-oracle", "mcot3", "bary-c",
                                     "bary-anticausal", "counterexample"])
def test_non_finite_lp_result_exits_4_with_one_line(tmp_path, tree_files, monkeypatch, capsys,
                                                    command, field, value):
    # every tolerance gate fails on NaN, so one non-finite entry in a HiGHS
    # primal or dual is a solver failure, not a report
    _, _, p1, p2 = tree_files
    market = str(Path(__file__).parent / "fixtures" / "market_seed602.json")
    argv = {
        "match": ["match", market],
        "mcot-oracle": ["mcot", p1, p2, "--oracle"],
        "mcot3": ["mcot", p1, p2, p1, "--cost", _random_cost(tmp_path, [p1, p2, p1])],
        "bary-c": ["bary-c", p1, p2, "--tasks", p1],
        "bary-anticausal": ["bary-anticausal", p1, p2, "--tasks", p2],
        "counterexample": ["counterexample", "--n", "4"],
    }[command]
    if command == "mcot3":  # the blocks the corner fails go to HiGHS, not the simplex
        monkeypatch.setattr(lp, "_SIMPLEX_CELLS", 0)
    real = lp.linprog

    def linprog(*args, **kwargs):
        res = real(*args, **kwargs)
        if field == "x":
            res.x = np.array(res.x)
            res.x[-1] = value
        else:
            res.y = np.array(res.y)
            res.y[-1] = value
        return res

    monkeypatch.setattr(lp, "linprog", linprog)
    capsys.readouterr()
    code, out = _run_to_file(tmp_path, argv)
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: solver failure:")
    assert not out.exists()


def test_missing_highs_binding_exits_4_with_one_line(tmp_path, monkeypatch, capsys):
    # the binding is a private scipy module; without it a HiGHS LP is a
    # solver failure that names the scipy range, not a traceback
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    market = str(Path(__file__).parent / "fixtures" / "market_seed602.json")
    capsys.readouterr()
    code, out = _run_to_file(tmp_path, ["match", market])
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("treeot: solver failure: cannot import the HiGHS binding")
    assert "scipy>=1.15,<1.18" in err
    assert not out.exists()


def test_no_command_calls_scipys_linprog_wrapper(tmp_path, tree_files, monkeypatch):
    # HiGHS is called through its binding directly, so scipy's linprog
    # wrapper and its OptimizeWarning never come up
    import scipy.optimize

    def refuse(*args, **kwargs):
        raise AssertionError("scipy.optimize.linprog was called")

    monkeypatch.setattr(scipy.optimize, "linprog", refuse)
    # the three-tree blocks the corner fails go to HiGHS, not the simplex
    monkeypatch.setattr(lp, "_SIMPLEX_CELLS", 0)
    _, _, p1, p2 = tree_files
    third = tmp_path / "c.json"
    third.write_text(dump_tree(random_tree(np.random.default_rng(5), horizon=2, dim=1,
                                           max_branch=2, prefix="c")))
    market = str(Path(__file__).parent / "fixtures" / "market_seed602.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error", scipy.optimize.OptimizeWarning)
        three = [p1, p2, str(third)]
        mcot3 = ["mcot", *three, "--cost", _random_cost(tmp_path, three)]
        for argv in (["match", market], mcot3, ["mcot", p1, p2, "--oracle"],
                     ["counterexample", "--n", "16"]):
            code, out = _run_to_file(tmp_path, argv)
            assert code == 0, argv
            assert json.loads(out.read_text())["solver"]["lp_solves"] > 0, argv


def test_verify_coupling_command(tmp_path, tree_files):
    t1, t2, p1, p2 = tree_files
    rng = np.random.default_rng(3)
    coupling = random_multicausal_coupling(rng, [t1, t2])
    doc = {"atoms": [{"leaves": list(ids), "w": w} for ids, w in atom_ids(coupling)]}
    path = tmp_path / "coupling.json"
    path.write_text(json.dumps(doc))
    code, out = _run_to_file(tmp_path, ["verify-coupling", str(path), "--trees", p1, p2])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["values"]["pass"] is True

    # anticipative coupling must fail with a witness
    anticipative = {
        "atoms": [
            {"leaves": [t1.leaf_ids()[0], t2.leaf_ids()[0]], "w": None},
        ]
    }
    # build a genuinely anticipative example on purpose-built trees instead
    from treeot.trees import ScenarioTree

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
    q1, q2 = tmp_path / "t1.json", tmp_path / "t2.json"
    q1.write_text(dump_tree(tree1))
    q2.write_text(dump_tree(tree2))
    bad = {"atoms": [{"leaves": ["a1", "c1"], "w": 0.5}, {"leaves": ["a2", "c2"], "w": 0.5}]}
    bad_path = tmp_path / "bad_coupling.json"
    bad_path.write_text(json.dumps(bad))
    code, out = _run_to_file(
        tmp_path, ["verify-coupling", str(bad_path), "--trees", str(q1), str(q2)], "w.json"
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["values"]["pass"] is False
    assert report["witnesses"][0]["t"] == 1
    assert report["witnesses"][0]["i"] == 1


def test_text_format_runs(tmp_path, tree_files):
    _, _, p1, _ = tree_files
    code, out = _run_to_file(tmp_path, ["awdist", p1, p1, "--format", "text"], "t.txt")
    assert code == 0
    assert "values.aw_distance" in out.read_text()


def test_thread_env_var_changes_nothing(tmp_path, tree_files, monkeypatch):
    _, _, p1, p2 = tree_files
    _, out = _run_to_file(tmp_path, ["awdist", p1, p2], "serial.json")
    serial = json.loads(out.read_text())["values"]["aw_distance"]
    monkeypatch.setenv("TREEOT_THREADS", "2")
    _, out = _run_to_file(tmp_path, ["awdist", p1, p2], "threaded.json")
    threaded = json.loads(out.read_text())["values"]["aw_distance"]
    assert threaded == pytest.approx(serial, abs=1e-12)


def test_json_cost_descriptor_accepted(tmp_path, tree_files):
    _, _, p1, p2 = tree_files
    spec = '{"kind": "power", "p": 2, "weights": [0.5, 0.5]}'
    code, out = _run_to_file(tmp_path, ["bary-bc", p1, p2, "--cost", spec], "j.json")
    assert code == 0
    report = json.loads(out.read_text())
    assert report["values"]["barycenter_value"] == pytest.approx(
        report["values"]["recomputed_value_at_barycenter"], abs=1e-8
    )


@pytest.mark.parametrize("suffix", [".npy", ".json"])
@pytest.mark.parametrize("shape", [(4, 4), (2, 2), (5, 5), (4, 4, 1), (16,)])
def test_tensor_cost_must_have_the_leaf_counts_as_shape(tmp_path, capsys, shape, suffix):
    rng = np.random.default_rng(5)
    paths = []
    for prefix in "ab":
        tree = random_tree(rng, horizon=2, dim=1, min_branch=2, max_branch=2, prefix=prefix)
        paths.append(tmp_path / f"{prefix}.json")
        paths[-1].write_text(dump_tree(tree))
    tensor = tmp_path / f"tensor{suffix}"
    if suffix == ".npy":
        np.save(tensor, np.ones(shape))
    else:
        tensor.write_text(json.dumps(np.ones(shape).tolist()))
    argv = ["mcot", *map(str, paths), "--cost", f"tensor:{tensor}"]
    if shape == (4, 4):
        assert _run_to_file(tmp_path, argv)[0] == 0
        return
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert str(shape) in err[0] and "(4, 4)" in err[0]


@pytest.mark.parametrize("suffix", [".npy", ".json"])
def test_tensor_cost_is_read_once_and_never_past_the_budget(tmp_path, tree_files, capsys,
                                                            monkeypatch, suffix):
    t1, t2, p1, p2 = tree_files
    n = t1.n_leaves * t2.n_leaves
    tensor = tmp_path / f"tensor{suffix}"
    if suffix == ".npy":
        np.save(tensor, np.ones((t1.n_leaves, t2.n_leaves)))
    else:
        tensor.write_text(json.dumps(np.ones((t1.n_leaves, t2.n_leaves)).tolist()))
    reads = []

    def spied(read):
        def fn(*args, **kwargs):
            reads.append(args)
            return read(*args, **kwargs)
        return fn

    monkeypatch.setattr(np.lib.format, "open_memmap", spied(np.lib.format.open_memmap))
    monkeypatch.setattr(cli, "_read_json", spied(cli._read_json))
    argv = ["mcot", p1, p2, "--cost", f"tensor:{tensor}", "--oracle"]
    capsys.readouterr()
    assert run([*argv, "--budget", str(n - 1)]) == 3
    assert capsys.readouterr().err.strip().splitlines() == [
        f"treeot: budget refused: mc_dpp: {n} leaf tuples exceed budget {n - 1}"]
    assert reads == []
    assert _run_to_file(tmp_path, argv)[0] == 0
    assert len(reads) == 1


def test_module_entry_point_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "treeot.cli", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)

    done = module("counterexample", "--n", "4")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["command"] == "counterexample"
    done = module("no-such-command")
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.strip().splitlines()) == 1
