"""Machine-speed calibration for the gated timings.

The benchmark shares its machine with other tenants, and the speed of
one core drifts by ±25% in phases that last from seconds to minutes.  A
run lasts about 50 s, so raw wall times of runs made minutes apart can
spread by 30% (IQR over median, 10 runs).  That is more than any bound
that would still catch a regression.

The kernel below does a fixed amount of the kinds of work a treeot op
does: small and medium HiGHS solves through ``scipy.optimize.linprog``,
Python dictionary updates, and passes over a 16 MB array.  It uses
nothing from treeot, so no change to the program can change it.  Timed
between consecutive ops, it tracks the machine's current speed.  An
op's reference-speed time is its wall time scaled by ``REF_KERNEL_S``
over the mean kernel time just before and just after it.  On a machine
whose speed is steady, the scale factor is constant, and a change to
the program moves reference-speed times exactly as it moves wall times.

The kernel runs in the benchmark process, between ops, and its array
stays resident from before the first op to the end; ``run.py``
subtracts the array's size from the peak memory it reports.  A 2 MB
array, and the same kernel in a child process, both tracked the speed
of ``aw-deep`` ops worse: over 10 and 8 runs, their ``ref_solve_s.p50``
spreads were 0.085 and 0.12, against 0.010–0.024 with this kernel.
"""
from __future__ import annotations

import gc
import time

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

#: nominal kernel time; reference-speed seconds are wall seconds at a
#: machine speed where the kernel takes exactly this long
REF_KERNEL_S = 0.035


def _transport_lp(n: int, rng: np.random.Generator):
    ones = np.ones((1, n))
    a_eq = sp.vstack([sp.kron(sp.identity(n), ones), sp.kron(ones, sp.identity(n))]).tocsr()
    return rng.random(n * n), a_eq, np.full(2 * n, 1.0 / n)


class Kernel:
    """Fixed work: 4 transport LPs of 6x6, one of 40x40, 20,000 dict
    updates and 3 passes over a 16 MB array."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = _transport_lp(6, rng)
        self.medium = _transport_lp(40, rng)
        self.array = rng.random(2_000_000)

    def seconds(self) -> float:
        """Wall time of one pass of the kernel.

        Garbage left by the last op is collected first, so that no
        collection of it lands inside the timed pass.
        """
        gc.collect()
        start = time.perf_counter()
        for c, a_eq, b_eq in [self.small] * 4 + [self.medium]:
            linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs-ds")
        table: dict[tuple[int, int], float] = {}
        for i in range(20_000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, 0.0) + 0.5 * i
        for _ in range(3):
            np.multiply(self.array, 1.0000001, out=self.array)
        self.array.sum()
        return time.perf_counter() - start
