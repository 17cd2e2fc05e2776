"""Path-cost functions for multicausal transport.

A path cost receives the per-process leaf indices together with the
per-process value paths (tuples of per-time state vectors) and returns a
float.  Builtins ignore the indices; dense-tensor costs ignore the
values.  The path metric throughout is  d(x, y) = sum_t |x_t - y_t|_2,
matching the metric under which adapted Wasserstein distances are
defined here.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError

PathValues = Sequence[np.ndarray]
#: cost(leaf_indices, value_paths) -> float
PathCost = Callable[[tuple[int, ...], tuple[PathValues, ...]], float]


def value_cost(fn: Callable[..., float]) -> PathCost:
    """Wrap a cost written on value paths only: fn(path_1, ..., path_N)."""

    def cost(_leaves, paths):
        return float(fn(*paths))

    return cost


def path_metric(x: PathValues, y: PathValues) -> float:
    """d(x, y) = sum_t |x_t - y_t|_2."""
    return float(sum(np.linalg.norm(np.asarray(a) - np.asarray(b)) for a, b in zip(x, y)))


def lp_sum(p: float = 2.0) -> PathCost:
    """Pairwise cost  sum_{i<j} d(x^i, x^j)^p  with d the summed path metric."""
    if p < 1:
        raise ValidationError("exponent p must be >= 1")

    def cost(_leaves, paths):
        total = 0.0
        n = len(paths)
        for i in range(n):
            for j in range(i + 1, n):
                total += path_metric(paths[i], paths[j]) ** p
        return total

    return cost


def pairwise_power(p: float = 2.0) -> PathCost:
    """Time-separable pairwise cost  sum_{i<j} sum_t |x^i_t - x^j_t|_2^p."""
    if p < 1:
        raise ValidationError("exponent p must be >= 1")

    def cost(_leaves, paths):
        total = 0.0
        n = len(paths)
        for i in range(n):
            for j in range(i + 1, n):
                total += sum(
                    float(np.linalg.norm(np.asarray(a) - np.asarray(b)) ** p)
                    for a, b in zip(paths[i], paths[j])
                )
        return total

    return cost


def dense_tensor(tensor: np.ndarray) -> PathCost:
    """Cost read off a dense per-leaf-tuple tensor (one axis per process)."""
    arr = np.asarray(tensor, dtype=float)

    def cost(leaves, _paths):
        if len(leaves) != arr.ndim:
            raise ValidationError(
                f"cost tensor has {arr.ndim} axes but {len(leaves)} processes given"
            )
        return float(arr[leaves])

    return cost


def parse_cost_spec(spec: str) -> PathCost:
    """Builtin cost specs: ``lp_sum:p`` or ``pairwise_power:p``."""
    kind, _, arg = spec.partition(":")
    if kind == "lp_sum":
        return lp_sum(float(arg) if arg else 2.0)
    if kind == "pairwise_power":
        return pairwise_power(float(arg) if arg else 2.0)
    raise ValidationError(f"unknown cost spec {spec!r}")
