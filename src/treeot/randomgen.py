"""Random instances for the test harness and the acceptance suite.

All generators take an explicit ``numpy.random.Generator`` so that runs
are reproducible from a single seed.
"""
from __future__ import annotations

import numpy as np

from .lp import multimarginal_ot
from .multicausal import KernelPolicy, MulticausalCoupling, assemble_coupling
from .trees import ScenarioTree


def random_tree(
    rng: np.random.Generator,
    horizon: int = 2,
    dim: int = 1,
    max_branch: int = 3,
    min_branch: int = 1,
    prefix: str = "n",
) -> ScenarioTree:
    """Random tree with per-node branching in [min_branch, max_branch].

    Transition probabilities are bounded away from zero; values are
    standard Gaussians.
    """
    levels = []
    counter = 0
    prev: list[str] = []
    for t in range(1, horizon + 1):
        nodes = []
        parents = prev if t > 1 else [None]
        for parent in parents:
            width = int(rng.integers(min_branch, max_branch + 1))
            raw = rng.random(width) + 0.2
            probs = raw / raw.sum()
            probs[-1] = 1.0 - float(probs[:-1].sum())  # exact unit sum
            for b in range(width):
                nodes.append(
                    {
                        "id": f"{prefix}{t}_{counter}",
                        "parent": parent,
                        "p": float(probs[b]),
                        "x": [float(v) for v in rng.normal(0.0, 1.0, size=dim)],
                    }
                )
                counter += 1
        levels.append(nodes)
        prev = [n["id"] for n in nodes]
    return ScenarioTree.from_levels(levels)


def random_policy(rng: np.random.Generator, trees) -> KernelPolicy:
    """A random feasible kernel policy (hence a random multicausal coupling).

    At every node tuple the one-step coupling is a mixture of the
    product kernel and an optimal-transport vertex for a random cost,
    which samples both interior and extreme points of the polytope.
    """
    trees = tuple(trees)
    weights = []
    for t in range(1, trees[0].horizon + 1):
        w = np.zeros(tuple(tr.level_size(t) for tr in trees))
        if t == 1:
            blocks = [[list(range(tr.level_size(1))) for tr in trees]]
        else:
            blocks = [[tr.children(t - 1, k) for tr, k in zip(trees, idx)]
                      for idx in np.ndindex(*(tr.level_size(t - 1) for tr in trees))]
        for children in blocks:
            kernels = [tr.probs[t - 1][ch] for tr, ch in zip(trees, children)]
            shape = tuple(len(ch) for ch in children)
            vertex = multimarginal_ot(kernels, rng.normal(size=shape)).plan
            alpha = float(rng.random())
            product = kernels[0]
            for k in kernels[1:]:
                product = np.multiply.outer(product, k)
            w[np.ix_(*children)] = alpha * vertex + (1.0 - alpha) * product
        weights.append(w)
    return KernelPolicy(trees=trees, weights=tuple(weights))


def random_multicausal_coupling(rng, trees) -> MulticausalCoupling:
    return assemble_coupling(random_policy(rng, trees))
