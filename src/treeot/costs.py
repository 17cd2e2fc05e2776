"""Costs for multicausal transport.

A cost is the table it induces on the leaf paths: an array with one axis
per tree, in leaf order, whose entry at a tuple of leaves is the cost of
the tuple of paths to them.  It is given either as that array or as a
callable ``cost(trees) -> ndarray`` that builds it;
:func:`treeot.multicausal.cost_table` turns either into the checked table.
The builtins build their tables by broadcasting over each tree's leaf
states (:meth:`ScenarioTree.leaf_states`).  The path metric throughout is
d(x, y) = sum_t |x_t - y_t|_2, matching the metric under which adapted
Wasserstein distances are defined here.
"""
from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np

from .errors import ValidationError
from .trees import ScenarioTree

#: a table with one axis per tree, or ``cost(trees)`` that builds it
Cost = Union[np.ndarray, Callable[[Sequence[ScenarioTree]], np.ndarray]]

# Python's float pow is libm pow, which numpy's ``**`` is not in every
# last bit; the builtins exponentiate with it to keep their tables exact
_pow = np.frompyfunc(pow, 2, 1)


def _pairwise(trees: Sequence[ScenarioTree], per_pair) -> np.ndarray:
    """sum_{i<j} per_pair(norms) on every leaf tuple, pairs in order, where
    ``norms`` lists |x^i_t - x^j_t|_2 per time on every leaf pair (i, j)."""
    trees = tuple(trees)
    states = [tr.leaf_states() for tr in trees]
    total = np.zeros(tuple(tr.n_leaves for tr in trees))
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            norms = []
            for x, y in zip(states[i], states[j]):
                diff = (x[:, None, :] - y[None, :, :])[..., None, :]
                # one dot product per pair, as np.linalg.norm takes it: same bits
                norms.append(np.sqrt(diff @ diff.swapaxes(-1, -2))[..., 0, 0])
            pair = per_pair(norms)
            total = total + pair.reshape([
                tr.n_leaves if k in (i, j) else 1 for k, tr in enumerate(trees)
            ])
    return total


def lp_sum(p: float = 2.0) -> Cost:
    """Pairwise cost  sum_{i<j} d(x^i, x^j)^p  with d the summed path metric."""
    if p < 1:
        raise ValidationError("exponent p must be >= 1")

    def cost(trees):
        return _pairwise(trees, lambda norms: _pow(sum(norms), p).astype(float))

    return cost


def pairwise_power(p: float = 2.0) -> Cost:
    """Time-separable pairwise cost  sum_{i<j} sum_t |x^i_t - x^j_t|_2^p."""
    if p < 1:
        raise ValidationError("exponent p must be >= 1")

    def cost(trees):
        return _pairwise(trees, lambda norms: sum(_pow(n, p).astype(float) for n in norms))

    return cost


def parse_cost_spec(spec: str) -> Cost:
    """Builtin cost specs: ``lp_sum:p`` or ``pairwise_power:p``."""
    kind, _, arg = spec.partition(":")
    if kind == "lp_sum":
        return lp_sum(float(arg) if arg else 2.0)
    if kind == "pairwise_power":
        return pairwise_power(float(arg) if arg else 2.0)
    raise ValidationError(f"unknown cost spec {spec!r}")
