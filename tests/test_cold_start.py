"""Cold start: scipy is loaded only by the commands that build a HiGHS LP.

Each case runs in a fresh interpreter, because the test process itself
has scipy loaded.  The recursion (``awdist``, and ``mcot`` and
``bary-bc`` on two or three trees), whose one-step blocks the corner or
the transportation simplex certifies, and ``verify-coupling`` solve no
HiGHS LP, so they must not pay for importing ``scipy.optimize`` and
``scipy.sparse``; ``match`` solves one and must load them.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from treeot.randomgen import random_multicausal_coupling, random_tree
from treeot.trees import dump_tree

from helpers import atom_ids

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints [exit code, the scipy modules loaded]; no argv means import only
_PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv:
    from treeot.cli import run
    code = run(argv)
else:
    import treeot
    code = 0
loaded = [m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules]
print(json.dumps([code, loaded]))
"""


def probe(argv, cwd):
    done = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          env={**os.environ, "PYTHONPATH": SRC}, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    return json.loads(done.stdout)


@pytest.fixture()
def files(tmp_path):
    rng = np.random.default_rng(11)
    trees = [random_tree(rng, horizon=2, dim=1, max_branch=3, prefix=p) for p in "aby"]
    paths = {}
    # three trees whose 2 x 2 x 2 root block the corner fails, under
    # mcot's and bary-bc's costs: it goes on to the transportation simplex
    family = np.random.default_rng(0)
    trees += [random_tree(family, horizon=2, min_branch=2, max_branch=2, prefix=p) for p in "pqr"]
    for name, tree in zip("abypqr", trees):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(dump_tree(tree))
    coupling = random_multicausal_coupling(rng, trees[:2])
    paths["coupling"] = tmp_path / "coupling.json"
    paths["coupling"].write_text(json.dumps(
        {"atoms": [{"leaves": list(ids), "w": w} for ids, w in atom_ids(coupling)]}))
    power = {"kind": "power", "p": 2, "weight": 1.0}
    paths["market"] = tmp_path / "market.json"
    paths["market"].write_text(json.dumps({
        "principal": {"tree": json.loads(dump_tree(trees[0])), "utility": power},
        "agents": [{"tree": json.loads(dump_tree(trees[1])), "cost": power}],
        "tasks": json.loads(dump_tree(trees[2])),
    }))
    return {name: str(path) for name, path in paths.items()}


def test_import_loads_no_scipy(tmp_path):
    assert probe([], tmp_path) == [0, []]


@pytest.mark.parametrize("command", ["awdist", "mcot", "bary-bc", "verify-coupling",
                                     "mcot3", "bary-bc3"])
def test_commands_without_an_lp_load_no_scipy(tmp_path, files, command):
    a, b = files["a"], files["b"]
    three = [files[name] for name in "pqr"]
    argv = {
        "awdist": ["awdist", a, b],
        "mcot": ["mcot", a, b],
        "bary-bc": ["bary-bc", a, b],
        "verify-coupling": ["verify-coupling", files["coupling"], "--trees", a, b],
        "mcot3": ["mcot", *three],
        "bary-bc3": ["bary-bc", *three],
    }[command]
    assert probe([*argv, "--output", str(tmp_path / "out.json")], tmp_path) == [0, []]
    assert json.loads((tmp_path / "out.json").read_text())["command"] == argv[0]


def test_match_loads_scipy(tmp_path, files):
    argv = ["match", files["market"], "--output", str(tmp_path / "out.json")]
    assert probe(argv, tmp_path) == [0, ["scipy.optimize", "scipy.sparse"]]
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["values"]["equilibrium_ok"] is True
    assert report["solver"]["lp_solves"] == 1
