"""Helpers shared by the test modules."""
from __future__ import annotations

import itertools

import numpy as np

from treeot.multicausal import MulticausalCoupling


def atom_ids(coupling: MulticausalCoupling) -> list[tuple[tuple[str, ...], float]]:
    """The atoms of ``coupling`` keyed by leaf node ids, in lexicographic
    order of their leaf indices: the input of ``treeot verify-coupling``."""
    order = np.lexsort(coupling.tuples.T[::-1])
    ids = [np.array(tree.leaf_ids(), dtype=object)[coupling.tuples[order, i]].tolist()
           for i, tree in enumerate(coupling.trees)]
    return list(zip(zip(*ids), coupling.weights[order].tolist()))


def operator_by_tuple(trees, processes) -> np.ndarray:
    """Every causality row of ``processes`` as a dense matrix, built one
    leaf tuple and one key at a time: row (i, t, A_{-i}, b) in the
    certificate layout, +1 at the own child, -p_b at every child of the
    own node at t.  One column per leaf tuple, in C order."""
    tuples = list(itertools.product(*(range(t.n_leaves) for t in trees)))
    horizon = trees[0].horizon
    blocks = [(i, t) for i in processes for t in range(1, horizon)]
    shapes = [
        tuple(tr.level_size(t) for j, tr in enumerate(trees) if j != i)
        + (trees[i].level_size(t + 1),)
        for i, t in blocks
    ]
    offsets = np.cumsum([0] + [int(np.prod(shape)) for shape in shapes])
    dense = np.zeros((offsets[-1], len(tuples)))
    for col, idx in enumerate(tuples):
        paths = [tr.ancestors[k].tolist() for tr, k in zip(trees, idx)]
        for (i, t), shape, ofs in zip(blocks, shapes, offsets):
            others = tuple(p[t - 1] for j, p in enumerate(paths) if j != i)
            dense[ofs + np.ravel_multi_index(others + (paths[i][t],), shape), col] += 1.0
            for b in trees[i].children(t, paths[i][t - 1]):
                row = ofs + np.ravel_multi_index(others + (b,), shape)
                dense[row, col] -= trees[i].probs[t][b]
    return dense
