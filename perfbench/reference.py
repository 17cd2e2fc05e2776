"""Reference values for the benchmark's correctness gate.

    python3 perfbench/reference.py SRC INSTANCES_JSON

``SRC`` is the directory that holds the ``treeot`` package and
``INSTANCES_JSON`` a JSON list with one list of tree files per instance.
Prints a JSON list with each instance's value from one brute-force LP
(``treeot.brute_force_mcot`` with cost ``lp_sum(2)``).  ``run.py`` runs
this in a child process, so that the reference LPs do not count in the
benchmark process's peak memory.
"""
from __future__ import annotations

import json
import sys


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import treeot

    values = []
    for files in json.loads(sys.argv[2]):
        trees = []
        for path in files:
            with open(path, "rb") as fh:
                trees.append(treeot.load_tree(fh.read()))
        value, _, _ = treeot.brute_force_mcot(trees, treeot.lp_sum(2.0))
        values.append(value)
    print(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
