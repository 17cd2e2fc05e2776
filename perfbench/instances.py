"""Seeded instance generation for the benchmark workloads.

Instances are generated here, not with ``treeot.randomgen``, so that a
change to the program cannot change the benchmark's inputs.  The same
seed always yields the same files, byte for byte.
"""
from __future__ import annotations

import json
import os

import numpy as np


def tree_doc(rng: np.random.Generator, horizon: int, branching: int, prefix: str) -> dict:
    """A tree in the JSON file format with uniform branching.

    States follow a Gaussian random walk; every sibling group gets
    probabilities bounded away from zero that sum to 1 in float
    arithmetic (the last sibling takes the remainder).
    """
    levels = []
    parents = [(None, 0.0)]
    counter = 0
    for t in range(1, horizon + 1):
        level = []
        for parent_id, parent_x in parents:
            raw = rng.random(branching) + 0.2
            probs = raw / raw.sum()
            probs[-1] = 1.0 - float(probs[:-1].sum())
            steps = rng.normal(0.0, 1.0, size=branching)
            for b in range(branching):
                level.append({
                    "id": f"{prefix}{t}_{counter}",
                    "parent": parent_id,
                    "p": float(probs[b]),
                    "x": [parent_x + float(steps[b])],
                })
                counter += 1
        levels.append(level)
        parents = [(node["id"], node["x"][0]) for node in level]
    return {"horizon": horizon, "levels": levels}


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def aw_deep(rng, workdir: str) -> dict:
    """Two trees, horizon 3, branching 4: 64 leaves each, 4,096 leaf tuples."""
    files = [
        _write(os.path.join(workdir, f"{name}.json"), tree_doc(rng, 3, 4, name))
        for name in ("a", "b")
    ]
    return {"files": files, "argv": ["awdist", *files, "--p", "2"]}


def mcot_wide(rng, workdir: str) -> dict:
    """Three trees, horizon 2, branching 5: 25 leaves each, 15,625 leaf tuples."""
    files = [
        _write(os.path.join(workdir, f"{name}.json"), tree_doc(rng, 2, 5, name))
        for name in ("x1_", "x2_", "x3_")
    ]
    return {"files": files, "argv": ["mcot", *files, "--cost", "lp_sum:2"]}


def market(rng, workdir: str) -> dict:
    """A principal and 2 agents (horizon 3, branching 3, 27 leaves each)
    and a task tree of the same shape; quadratic utility and costs."""
    quadratic = {"kind": "power", "p": 2, "weight": 1.0}
    doc = {
        "principal": {"tree": tree_doc(rng, 3, 3, "p"), "utility": quadratic},
        "agents": [
            {"tree": tree_doc(rng, 3, 3, f"a{i}_"), "cost": quadratic} for i in range(2)
        ],
        "tasks": tree_doc(rng, 3, 3, "y"),
    }
    path = _write(os.path.join(workdir, "instance.json"), doc)
    return {"files": [path], "argv": ["match", path]}


GENERATORS = {"aw-deep": aw_deep, "mcot-wide": mcot_wide, "market": market}


def generate(workload: str, seed: int, count: int, root: str) -> list[dict]:
    """``count`` instances of ``workload`` under ``root``, one directory each."""
    rng = np.random.default_rng([seed, sorted(GENERATORS).index(workload)])
    out = []
    for k in range(count):
        workdir = os.path.join(root, f"i{k}")
        os.makedirs(workdir)
        out.append(GENERATORS[workload](rng, workdir))
    return out
