"""Costs for multicausal transport.

A cost is the table it induces on the leaf paths: an array with one axis
per tree, in leaf order, whose entry at a tuple of leaves is the cost of
the tuple of paths to them.  It is given either as that array or as a
callable ``cost(trees) -> ndarray`` that builds it;
:func:`treeot.multicausal.cost_table` turns either into the checked table.
The builtins build their tables by broadcasting over each tree's leaf
states (:meth:`ScenarioTree.leaf_states`), which must have one dimension
per time across the trees.  The path metric throughout is
d(x, y) = sum_t |x_t - y_t|_2, matching the metric under which adapted
Wasserstein distances are defined here.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence, Union

import numpy as np

from .errors import ValidationError
from .trees import ScenarioTree

#: a table with one axis per tree, or ``cost(trees)`` that builds it
Cost = Union[np.ndarray, Callable[[Sequence[ScenarioTree]], np.ndarray]]

# The one exponentiation rule of every builtin cost: a square is one
# multiply, x*x, which IEEE 754 rounds correctly; libm's pow is not
# correctly rounded (pow(x, 2.0) misses x*x in the last bit for about 1 in
# 1,200 draws).  Any other power is libm pow, through np.float_power's
# plain loop over the C function Python's float pow also calls: the same
# bits, with no Python float per entry.  numpy's ``**`` is not libm pow:
# it dispatches to SIMD code whose last bits depend on the CPU.

#: leaf pairs per chunk of a cost table: the temporaries of a chunk (its
#: differences, norms and powers) stay this size whatever the table's
_CHUNK = 1 << 15


def power(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p entrywise by the rule above, as a new float array."""
    x = np.asarray(x, dtype=float)
    return np.square(x) if p == 2 else np.float_power(x, p)


def _check_dimensions(trees: Sequence[ScenarioTree]) -> None:
    """Raise :class:`ValidationError` unless, at each time, the states of
    all ``trees`` have one dimension: a state cost compares them."""
    for t, states in enumerate(zip(*(tr.states for tr in trees)), start=1):
        dims = [s.shape[1] for s in states]
        if len(set(dims)) > 1:
            raise ValidationError(f"states at time {t} have different dimensions {dims}")


def _pairwise(trees: Sequence[ScenarioTree], per_pair) -> np.ndarray:
    """sum_{i<j} per_pair(states) on every leaf tuple, pairs in order, where
    ``states`` lists per time the states (x^i_t, x^j_t) of a block of leaf
    pairs (i, j): a chunk of tree i's leaves on axis 0 against all of tree
    j's on axis 1, states on the last axis.  Each block is added in place
    into the one output table.  An entry past the float range is inf,
    which :func:`cost_table` refuses."""
    trees = tuple(trees)
    _check_dimensions(trees)
    states = [tr.leaf_states() for tr in trees]
    total = np.zeros(tuple(tr.n_leaves for tr in trees))
    with np.errstate(over="ignore"):
        for i, j in itertools.combinations(range(len(trees)), 2):
            shape = [-1 if k == i else tr.n_leaves if k == j else 1
                     for k, tr in enumerate(trees)]
            rows = max(1, _CHUNK // trees[j].n_leaves)
            for start in range(0, trees[i].n_leaves, rows):
                block = slice(start, start + rows)
                pairs = [(x[block, None, :], y[None, :, :]) for x, y in zip(states[i], states[j])]
                total[(slice(None),) * i + (block,)] += per_pair(pairs).reshape(shape)
    return total


def _norms(pairs) -> list[np.ndarray]:
    """|x_t - y_t|_2 per time of a block of :func:`_pairwise`."""
    norms = []
    for x, y in pairs:
        diff = (x - y)[..., None, :]
        # one dot product per pair, as np.linalg.norm takes it: same bits
        norms.append(np.sqrt(diff @ diff.swapaxes(-1, -2))[..., 0, 0])
    return norms


def lp_sum(p: float = 2.0) -> Cost:
    """Pairwise cost  sum_{i<j} d(x^i, x^j)^p  with d the summed path metric."""
    if not 1 <= p < math.inf:
        raise ValidationError(f"exponent p must be finite and >= 1, got {p!r}")

    def cost(trees):
        return _pairwise(trees, lambda pairs: power(sum(_norms(pairs)), p))

    return cost


def pairwise_power(p: float = 2.0) -> Cost:
    """Time-separable pairwise cost  sum_{i<j} sum_t |x^i_t - x^j_t|_2^p."""
    if not 1 <= p < math.inf:
        raise ValidationError(f"exponent p must be finite and >= 1, got {p!r}")

    def cost(trees):
        return _pairwise(trees, lambda pairs: sum(power(n, p) for n in _norms(pairs)))

    return cost


def parse_cost_spec(spec: str) -> Cost:
    """Builtin cost specs: ``lp_sum:p`` or ``pairwise_power:p``."""
    kind, _, arg = spec.partition(":")
    if kind == "lp_sum":
        return lp_sum(float(arg) if arg else 2.0)
    if kind == "pairwise_power":
        return pairwise_power(float(arg) if arg else 2.0)
    raise ValidationError(f"unknown cost spec {spec!r}")
