"""Cold start: scipy is loaded only by the commands that build a HiGHS LP.

Each case runs in a fresh interpreter, because the test process itself
has scipy loaded.  The two-tree recursion (``awdist``, two-tree ``mcot``
and ``bary-bc``) and ``verify-coupling`` solve no HiGHS LP, so they must
not pay for importing ``scipy.optimize`` and ``scipy.sparse``; ``match``
solves one and must load them.
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
    for name, tree in zip("aby", trees):
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


@pytest.mark.parametrize("command", ["awdist", "mcot", "bary-bc", "verify-coupling"])
def test_commands_without_an_lp_load_no_scipy(tmp_path, files, command):
    a, b = files["a"], files["b"]
    argv = {
        "awdist": ["awdist", a, b],
        "mcot": ["mcot", a, b],
        "bary-bc": ["bary-bc", a, b],
        "verify-coupling": ["verify-coupling", files["coupling"], "--trees", a, b],
    }[command]
    assert probe([*argv, "--output", str(tmp_path / "out.json")], tmp_path) == [0, []]
    assert json.loads((tmp_path / "out.json").read_text())["command"] == command


def test_match_loads_scipy(tmp_path, files):
    argv = ["match", files["market"], "--output", str(tmp_path / "out.json")]
    assert probe(argv, tmp_path) == [0, ["scipy.optimize", "scipy.sparse"]]
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["values"]["equilibrium_ok"] is True
    assert report["solver"]["lp_solves"] == 1
