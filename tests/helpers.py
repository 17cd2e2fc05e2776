"""Helpers shared by the test modules."""
from __future__ import annotations

import numpy as np

from treeot.multicausal import MulticausalCoupling


def atom_ids(coupling: MulticausalCoupling) -> list[tuple[tuple[str, ...], float]]:
    """The atoms of ``coupling`` keyed by leaf node ids, in lexicographic
    order of their leaf indices: the input of ``treeot verify-coupling``."""
    order = np.lexsort(coupling.tuples.T[::-1])
    ids = [np.array(tree.leaf_ids(), dtype=object)[coupling.tuples[order, i]].tolist()
           for i, tree in enumerate(coupling.trees)]
    return list(zip(zip(*ids), coupling.weights[order].tolist()))
