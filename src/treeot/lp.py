"""Exact LP engine and classical (multi)marginal transport solvers.

Everything downstream (dynamic programming, causality-constrained LPs,
barycenters, matching) reduces to equality-form linear programs

    min c.x   s.t.  A x = b,  x >= 0,

solved here.  Every transport problem is first offered its north-west
corner, the comonotone coupling of its marginals (:func:`_corner_blocks`),
whose potentials follow by substitution; it is optimal for 1-D states in
increasing order under a cost convex in their differences.  Problems of
at most ``_SIMPLEX_CELLS`` cells, of any N, whose corner fails go on to a
batched exact transportation simplex from that corner
(:func:`_transport_simplex`); every other LP, and any transport problem
that neither certifies, goes to HiGHS dual simplex without presolve (on
these LPs presolve only adds time).  The solver contract is the residual
tolerances on returned solutions, not the algorithm:

* primal feasibility  ||Ax - b||_inf <= 1e-9,
* dual feasibility    min reduced cost >= -1e-9,
* complementary-slackness gap |c.x - b.y| <= 1e-8 * (1 + |c.x|), taken
  per diagonal block when the LP stacks independent problems, and per
  problem for the corner and the simplex.  One function, :func:`_accept`,
  runs every block's checks, HiGHS blocks included, on the plan it writes.

HiGHS solves first with scaling off (``simplex_scale_strategy`` 0): on
the benchmark's ``match`` LPs that took a fifth fewer iterations.  A
solve that ends other than optimal (scaling off once made an LP look
infeasible), or whose solution fails one of these checks, is solved
once more with HiGHS's default scaling, and only that second solve's
outcome is final; the tolerances do not change.  :func:`solve_lp`
returns that outcome as the optimal primal and row duals ``(x, y)``, or
raises it as a :class:`SolverFailureError`: infeasible, unbounded,
failed, or off the residual tolerances.

Causal transport, the causal and anticausal barycenters and the
multicausal oracle are one family of LPs, built and solved by
:func:`treeot.multicausal.transport_lp`.  They carry only independent
rows: their rows come from :func:`treeot.multicausal.causal_lp_rows`,
which never forms a causality row that the sibling probabilities or
the marginal rows already imply, and refuses more than ``DENSE_BUDGET``
causality entries before building them.  The rows left out have
right-hand side 0, so their dual coefficient is 0 in every certificate
built from such an LP.

HiGHS is called directly through the binding scipy bundles
(``scipy.optimize._highspy._core``, scipy >= 1.15) by :func:`linprog`,
the one HiGHS entry point, which returns the raw outcome of one run
(``status``, ``message``, ``x``, ``y``, ``nit``); scipy's ``linprog``
wrapper is not used.  scipy is imported only where a HiGHS LP is built
or solved (importing ``scipy.optimize`` costs more than a two-tree
recursion), so the commands that never reach HiGHS never load it.

Transport costs are normalised by subtracting their minimum before the
solve and restoring it afterwards.  This makes the returned plan exactly
invariant under constant cost shifts (identical LP input, deterministic
backend) and realises the value shift c -> c + kappa exactly.

Dual potentials of a transport problem are defined up to additive
constants summing to zero; they are pinned by zeroing each potential at
its first atom for marginal blocks 2..N and compensating in block 1.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetExceededError, SolverFailureError, ValidationError

if TYPE_CHECKING:
    import scipy.sparse as sp

# Solver and verification tolerances are defined here only; other modules
# import them (the probability-sum tolerances of trees are in trees.py).
PRIMAL_TOL = 1e-9
DUAL_TOL = 1e-9
DUALITY_TOL = 1e-8      # |value - dual value| <= DUALITY_TOL * (1 + |value|)
MARGINAL_TOL = 1e-9
CAUSALITY_TOL = 1e-8
OPTIMALITY_TOL = 1e-7   # absorbs two LP solves being compared
PRICING_TOL = 1e-12     # a transport block prices optimal at min reduced cost >=
                        # -PRICING_TOL * (1 + max cost); a float cycle entry up to it is 0
GRID_TOL = 1e-9         # a state is on a cost grid within this per coordinate

#: refuse dense cost tensors, and causality rows, above this entry count
DENSE_BUDGET = 10_000_000

#: column cap of one block LP in :func:`multimarginal_ot_batch`; a batch
#: with more columns is split over several LPs (bounds solver memory)
_BATCH_COLUMNS = 1 << 16

#: blocks of at most this many cells, of any N, go to the transportation simplex, larger
#: ones to HiGHS: 10-block two-marginal batches gain up to it, lone blocks only to ~150
_SIMPLEX_CELLS = 1600

#: cost entries, and for the simplex basis-inverse entries, of one chunk of
#: blocks (bounds their memory)
_CHUNK_ENTRIES = 1 << 22

#: HiGHS option values of every solve: dual simplex, no presolve, silent
_HIGHS_OPTIONS = {
    "output_flag": False,
    "solver": "simplex",
    "presolve": "off",
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class _Stats:
    """LP counters, surfaced in CLI reports."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.solves = 0              # HiGHS LPs
        self.iterations = 0          # HiGHS simplex iterations
        self.corner_blocks = 0       # blocks certified at their north-west corner
        self.transport_pivots = 0    # transportation simplex pivots, over all blocks
        self.transport_blocks = 0    # blocks the transportation simplex certified


stats = _Stats()


def linprog(c, A_eq, b_eq, options):
    """Solve  min c.x  s.t.  A_eq x = b_eq, x >= 0  by one run of HiGHS
    through scipy's bundled binding, imported on the first call.  Every
    HiGHS LP goes through this module attribute, resolved at call time.

    ``A_eq`` is a CSR matrix, passed to HiGHS row-wise as it is;
    ``options`` maps HiGHS option names to values.  Returns ``status``
    (0 optimal, 2 infeasible, 3 unbounded, 4 any other model status),
    ``message`` (HiGHS's name of the model status), ``nit`` (simplex
    iterations) and, when optimal, ``x`` and the row duals ``y`` (None
    otherwise).
    """
    # a private scipy module: its _Highs class and the array overload of
    # passModel are pinned by the scipy range in pyproject.toml
    try:
        import scipy.optimize._highspy._core as highspy
    except ImportError as exc:
        raise SolverFailureError(f"cannot import the HiGHS binding of scipy "
                                 f"(treeot needs scipy>=1.15,<1.18): {exc}") from None

    # passModel reads as many entries as the sizes it is given say
    n_rows, n_cols = A_eq.shape
    if A_eq.format != "csr" or np.shape(c) != (n_cols,) or np.shape(b_eq) != (n_rows,):
        raise ValidationError(f"LP arrays do not match a {n_rows}x{n_cols} CSR matrix")
    highs = highspy._Highs()
    for name, value in options.items():
        if highs.setOptionValue(name, value) != highspy.HighsStatus.kOk:
            raise SolverFailureError(f"HiGHS rejects option {name}={value!r}")
    # the array overload of passModel reads the buffers directly, where the
    # fields of a HighsLp object are converted one entry at a time; it reads
    # one integrality flag per column (0: continuous)
    passed = highs.passModel(n_cols, n_rows, A_eq.nnz, highspy.MatrixFormat.kRowwise,
                             highspy.ObjSense.kMinimize, 0.0, c, np.zeros(n_cols),
                             np.full(n_cols, np.inf), b_eq, b_eq, A_eq.indptr,
                             A_eq.indices, A_eq.data, np.zeros(n_cols, dtype=np.int32))
    if passed == highspy.HighsStatus.kError:
        raise SolverFailureError("HiGHS rejects the LP", details={"shape": A_eq.shape})
    highs.run()
    model = highs.getModelStatus()
    status = {highspy.HighsModelStatus.kOptimal: 0, highspy.HighsModelStatus.kInfeasible: 2,
              highspy.HighsModelStatus.kUnbounded: 3}.get(model, 4)
    x = y = None
    if status == 0:
        solution = highs.getSolution()
        x, y = np.array(solution.col_value), np.array(solution.row_dual)
    return SimpleNamespace(status=status, message=highs.modelStatusToString(model), x=x, y=y,
                           nit=highs.getInfo().simplex_iteration_count)


def solve_lp(c: np.ndarray, a_eq: sp.csr_matrix, b_eq: np.ndarray, what: str,
             blocks=None) -> tuple[np.ndarray, np.ndarray]:
    """Solve  min c.x  s.t.  a_eq x = b_eq, x >= 0  (``a_eq`` a CSR
    matrix) and return the optimal x and row duals y.

    ``blocks``, if given, lists the (row slice, column slice) of each
    independent diagonal block of ``a_eq``; the duality gap is then
    checked per block against that block's own value.  The first solve
    runs with HiGHS's scaling off.  A solve that ends other than optimal,
    or whose solution fails a residual check, is solved once more with
    HiGHS's default scaling, and only that solve's outcome is final: its
    (x, y), or the :class:`SolverFailureError` it ends in (an infeasible
    or unbounded LP is named by ``what``).
    """
    if not np.all(np.isfinite(b_eq)):
        raise ValidationError("non-finite right-hand side")
    if not np.all(np.isfinite(c)):
        raise ValidationError("non-finite objective coefficients")
    spans = blocks or ((slice(None), slice(None)),)
    for options in ({**_HIGHS_OPTIONS, "simplex_scale_strategy": 0}, _HIGHS_OPTIONS):
        res = linprog(c=c, A_eq=a_eq, b_eq=b_eq, options=dict(options))
        stats.solves += 1
        stats.iterations += res.nit
        if res.status in (2, 3):
            failure = SolverFailureError(
                f"{what}: LP is {'infeasible' if res.status == 2 else 'unbounded'}")
            continue
        if res.status != 0:
            failure = SolverFailureError(f"LP backend failed: {res.message}",
                                         details={"status": int(res.status)})
            continue
        x, y = res.x, res.y
        primal = float(np.abs(a_eq @ x - b_eq).max(initial=0.0))
        reduced = c - a_eq.T @ y
        dual = float(np.maximum(0.0, -reduced.min())) if reduced.size else 0.0
        values = [float(c[cols] @ x[cols]) for _, cols in spans]
        gaps = [abs(v - float(b_eq[rows] @ y[rows])) for v, (rows, _) in zip(values, spans)]
        bad = [k for k, (v, g) in enumerate(zip(values, gaps)) if not _gap_ok(g, v)]
        if primal <= PRIMAL_TOL and dual <= DUAL_TOL and not bad:
            return x, y
        k = bad[0] if bad else int(np.argmax(gaps))
        details = {"primal_residual": primal, "dual_residual": dual,
                   "gap": gaps[k], "value": values[k]}
        if blocks is not None:
            details["block"] = k
        failure = SolverFailureError("LP solution violates residual tolerances",
                                     details=details)
    raise failure


def _gap_ok(gap, value):
    """Whether ``gap``, the distance of a dual value from ``value``, is at
    most DUALITY_TOL * (1 + |value|): the one duality-gap test, false on
    NaN and elementwise on arrays."""
    return gap <= DUALITY_TOL * (1 + np.abs(value))


def check_duality_gap(value: float, gap: float, what: str, details: dict) -> None:
    """Raise :class:`SolverFailureError` ``what`` with ``details`` unless
    ``gap`` passes :func:`_gap_ok` against ``value``."""
    if not _gap_ok(gap, value):
        raise SolverFailureError(what, details=details)


# -- multimarginal optimal transport ----------------------------------------


@functools.lru_cache(maxsize=256)
def _marginal_pattern(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the stacked marginal operators, one row
    block per axis, over C-order variables; all entries are 1."""
    size = int(np.prod(shape))
    index = np.unravel_index(np.arange(size), shape)
    offsets = np.cumsum((0,) + shape[:-1])
    rows = np.concatenate([ofs + idx for ofs, idx in zip(offsets, index)])
    cols = np.tile(np.arange(size), len(shape))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@dataclass(frozen=True)
class MultimarginalResult:
    """``plan`` is dense, one axis per marginal, clipped at 0."""

    value: float
    plan: np.ndarray
    potentials: tuple[np.ndarray, ...]


def multimarginal_ot(marginals, cost: np.ndarray) -> MultimarginalResult:
    """Exact multimarginal OT over the coupling polytope.

    ``marginals`` are weight vectors and ``cost`` is a dense tensor with
    one axis per marginal.  Returns the optimal value, the dense plan, and
    one dual potential per marginal atom with
    sum_i E_{mu_i}[phi_i] = value  within DUALITY_TOL.
    Refuses a cost tensor of more than ``DENSE_BUDGET`` entries.
    """
    [(values, plans, potentials)] = multimarginal_ot_batch(
        [([np.asarray(m, dtype=float)[None] for m in marginals], np.asarray(cost)[None])]
    )
    return MultimarginalResult(value=float(values[0]), plan=plans[0],
                               potentials=tuple(p[0] for p in potentials))


def classical_ot(mu, nu, cost: np.ndarray) -> tuple[float, np.ndarray]:
    """Two-marginal optimal transport: the value and the dense plan (rows
    over ``mu``, columns over ``nu``, clipped at 0); see
    :func:`multimarginal_ot`."""
    res = multimarginal_ot([mu, nu], np.asarray(cost, dtype=float))
    return res.value, res.plan


def multimarginal_ot_batch(groups):
    """:func:`multimarginal_ot` for batches of problems, one shape per batch.

    ``groups`` lists ``(marginals, costs)`` pairs: ``marginals[i]`` is a
    (B, n_i) array whose rows are positive weights summing to 1, and
    ``costs`` is (B, n_1, ..., n_N).  Returns one ``(values, plans,
    potentials)`` triple per group: values (B,), dense plans clipped at 0
    (B, n_1, ..., n_N) and one (B, n_i) potential array per marginal.

    Every block is first offered its north-west corner (:func:`_corner_blocks`),
    optimal for a block in state order under a cost convex in the state
    differences.  Blocks of at most ``_SIMPLEX_CELLS`` cells, of any N, that
    the corner fails go on to the transportation simplex
    (:func:`_transport_simplex`) from the same staircase.  Larger blocks, and
    any simplex block that fails a check, become the diagonal blocks of HiGHS
    LPs shared across groups, split when their columns exceed
    ``_BATCH_COLUMNS``.  Every block keeps the checks of a separate solve: its
    own cost shift, residuals and duality gap, all run by :func:`_accept`.
    """
    prepared = [_prepared(marginals, costs) for marginals, costs in groups]
    results, pending = [], []
    for g, (weights, costs, shifts) in enumerate(prepared):
        nb, shape = costs.shape[0], costs.shape[1:]
        results.append((np.empty(nb), np.empty(costs.shape),
                        tuple(np.empty((nb, n)) for n in shape)))
        todo = np.flatnonzero(~_corner_blocks(weights, costs, shifts, results[g]))
        if todo.size:
            pending.append((g, todo))
    for chunk in _column_chunks(prepared, pending):
        _highs_blocks(prepared, chunk, results)
    return results


def _prepared(marginals, costs):
    """Validated weights, shifted costs and per-block shifts of one group."""
    weights = [np.asarray(w, dtype=float) for w in marginals]
    if not weights:
        raise ValidationError("a transport problem needs at least one marginal")
    costs = np.asarray(costs)
    shape = tuple(w.shape[-1] for w in weights)
    nb = len(costs)
    if any(w.ndim != 2 or w.shape[0] != nb for w in weights) or costs.shape[1:] != shape:
        raise ValidationError(f"cost tensor shape {costs.shape[1:]} does not match "
                              f"marginal sizes {shape}")
    if int(np.prod(shape)) > DENSE_BUDGET:
        raise BudgetExceededError(
            f"dense cost tensor has {int(np.prod(shape))} entries > budget {DENSE_BUDGET}"
        )
    for w in weights:
        if not np.all(w > 0):
            raise ValidationError("marginal weights must be positive")
        off = np.abs(w.sum(axis=1) - 1.0)
        if not np.all(off <= MARGINAL_TOL):
            raise ValidationError(f"marginal sums to {float(w[np.argmax(off)].sum())!r}, expected 1")
    costs = np.asarray(costs, dtype=float)
    if not np.all(np.isfinite(costs)):
        raise ValidationError("non-finite objective coefficients")
    axes = tuple(range(1, costs.ndim))
    shifts = costs.min(axis=axes)
    return weights, costs - np.expand_dims(shifts, axes), shifts


def _split_potentials(duals: np.ndarray, shape, shift) -> tuple[np.ndarray, ...]:
    """One potential per marginal from the duals of its rows, along the
    last axis of ``duals``: potentials 2..N are pinned to 0 at their
    first atom, compensated in potential 1, which also gets ``shift``
    (a float, or one per row of a (B, sum(shape)) ``duals``)."""
    out, ofs = [], 0
    for n in shape:
        out.append(np.array(duals[..., ofs:ofs + n]))
        ofs += n
    shift = np.asarray(shift)[..., None]
    for i in range(1, len(out)):
        pin = out[i][..., :1]
        out[i] = out[i] - pin
        out[0] = out[0] + pin
    out[0] = out[0] + shift
    return tuple(out)


# -- the HiGHS block LP --------------------------------------------------------


def _column_chunks(prepared, pending):
    """Split the ``(group, block indices)`` pairs in ``pending`` into LPs of
    at most ``_BATCH_COLUMNS`` columns each, at least one block per LP."""
    chunks, columns = [[]], 0
    for g, todo in pending:
        size = prepared[g][1][0].size
        while todo.size:
            if columns and columns + size > _BATCH_COLUMNS:
                chunks.append([])
                columns = 0
            take = max(1, (_BATCH_COLUMNS - columns) // size)
            part, todo = todo[:take], todo[take:]
            chunks[-1].append((g, part))
            columns += part.size * size
    return [chunk for chunk in chunks if chunk]


def _highs_blocks(prepared, chunk, results) -> None:
    """Solve the blocks of ``chunk`` as the diagonal blocks of one HiGHS LP
    and write their plans, clipped at 0, through :func:`_accept`."""
    import scipy.sparse as sp

    rows, cols, costs, rhs, spans, parts = [], [], [], [], [], []
    row_ofs = col_ofs = 0
    for g, todo in chunk:
        weights, cost, _ = prepared[g]
        shape = cost.shape[1:]
        n_rows, size = sum(shape), int(np.prod(shape))
        pattern_rows, pattern_cols = _marginal_pattern(shape)
        r0 = row_ofs + n_rows * np.arange(todo.size)
        c0 = col_ofs + size * np.arange(todo.size)
        rows.append((r0[:, None] + pattern_rows).ravel())
        cols.append((c0[:, None] + pattern_cols).ravel())
        costs.append(cost[todo].ravel())
        rhs.append(np.concatenate([w[todo] for w in weights], axis=1).ravel())
        spans += [(slice(r, r + n_rows), slice(c, c + size)) for r, c in zip(r0, c0)]
        row_ofs += n_rows * todo.size
        col_ofs += size * todo.size
        parts.append((slice(r0[0], row_ofs), slice(c0[0], col_ofs)))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    x, y = solve_lp(
        np.concatenate(costs),
        sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(row_ofs, col_ofs)),
        np.concatenate(rhs), "multimarginal transport", blocks=spans,
    )
    # solve_lp has bounded the dual residual of the whole LP
    for (g, todo), (r, c) in zip(chunk, parts):
        weights, cost, shifts = prepared[g]
        cost = cost[todo]
        plan = x[c].reshape(cost.shape)
        ok = _accept(todo, True, [w[todo] for w in weights], cost, shifts[todo],
                     np.where(plan > 0, plan, 0.0), y[r].reshape(todo.size, -1),
                     np.zeros(todo.size), results[g])
        if not ok.all():
            raise SolverFailureError("multimarginal block violates residual tolerances",
                                     details={"block": int(todo[np.argmin(ok)])})


# -- the north-west corner -----------------------------------------------------


def _corner_blocks(weights, costs, shifts, results) -> np.ndarray:
    """Certify the north-west corner of each block (:func:`_staircase`) and
    write those that pass every check of :func:`solve_lp` into ``results``.
    A corner is priced first (min reduced cost >= -``PRICING_TOL`` * (1 +
    max cost)), so a failed one costs one pricing pass; failed blocks of at
    most ``_SIMPLEX_CELLS`` cells go on to :func:`_transport_simplex` from
    that pricing.  A chunk holds at most ``_CHUNK_ENTRIES`` cost entries and
    as many basis-inverse entries.  Returns which blocks passed.
    """
    nb, shape = costs.shape[0], costs.shape[1:]
    size = int(np.prod(shape))
    simplex = size <= _SIMPLEX_CELLS
    # a basis inverse has a row per staircase cell and a column per atom
    step = max(1, _CHUNK_ENTRIES // max(size, simplex * (sum(shape) - len(shape) + 1) * sum(shape)))
    passed = np.zeros(nb, dtype=bool)
    for k0 in range(0, nb, step):
        part = slice(k0, k0 + step)
        w, cost = [x[part] for x in weights], costs[part]
        cells, flows, order, phi = _staircase(w, cost)
        reduced = _reduced(cost, phi).reshape(len(cost), -1)
        low = reduced.min(axis=1)
        tol = PRICING_TOL * (1.0 + cost.reshape(len(cost), -1).max(axis=1))
        priced = np.flatnonzero(low >= -tol)
        if priced.size:
            plan = np.zeros((priced.size, size))
            plan[np.arange(priced.size)[:, None], cells[priced]] = np.maximum(flows[priced], 0.0)
            ok = _accept(k0 + priced, True, [x[priced] for x in w], cost[priced],
                         shifts[part][priced], plan.reshape((priced.size,) + shape),
                         phi[priced], -low[priced], results)
            passed[k0 + priced[ok]] = True
            stats.corner_blocks += int(ok.sum())
        rest = np.flatnonzero(~passed[part]) if simplex else ()
        if len(rest):
            cost = cost[rest]
            plan, phi, pivots, converged = _transport_simplex(
                cost, cells[rest], flows[rest], order[rest], phi[rest], reduced[rest])
            stats.transport_pivots += int(pivots.sum())
            dual = -_reduced(cost, phi).reshape(rest.size, -1).min(axis=1)
            ok = _accept(k0 + rest, converged, [x[rest] for x in w], cost, shifts[part][rest],
                         plan, phi, dual, results)
            passed[k0 + rest[ok]] = True
            stats.transport_blocks += int(ok.sum())
    return passed


@functools.lru_cache(maxsize=256)
def _staircase_layout(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Per breakpoint of a staircase over ``shape`` (axis 0's first, see
    :func:`_staircase`): the C-order stride of its axis and the atom it
    advances to, as a column of the potentials concatenated over the
    axes.  Per axis: the (start, stop) columns of its potential and the
    shape that puts a batch of them on that axis of a batch of blocks."""
    bounds = np.cumsum((0,) + shape).tolist()
    axis = np.repeat(np.arange(len(shape)), np.subtract(shape, 1))
    strides = np.cumprod((1,) + shape[:0:-1])[::-1][axis]
    atoms = np.concatenate([np.arange(lo + 1, hi, dtype=np.intp)
                            for lo, hi in zip(bounds, bounds[1:])])
    strides.flags.writeable = atoms.flags.writeable = False
    views = [(-1,) + tuple(n if j == k else 1 for j, n in enumerate(shape))
             for k in range(len(shape))]
    return strides, atoms, tuple(zip(bounds, bounds[1:], views))


def _staircase(weights, costs):
    """The north-west corner of each block and its potentials.

    The staircase walks the merged interior partial sums of every
    marginal, sorted stably, so that on ties the lower axis advances
    first and the tie is a zero-mass step; a block thus always has
    sum(n_k) - N + 1 cells.  Each cell carries the mass between two
    consecutive breakpoints.  The potentials follow by substitution
    along the staircase: phi_1(0) is the cost of cell 0, phi_k(0) = 0
    for k >= 2, and each step adds the rise in cost from the cell before
    to the potential of the axis it advances, so they sum to the cost on
    every cell.

    Returns the cells (B, S) as C-order indices, their flows (B, S), the
    sorted order of the breakpoints (B, S-1; axis k's breakpoints follow
    those of the axes before it) and the potentials concatenated over
    the axes (B, sum(n_k)).
    """
    nb, shape = costs.shape[0], costs.shape[1:]
    strides, atoms, columns = _staircase_layout(shape)
    rows = np.arange(nb)[:, None]
    sums = [np.cumsum(w, axis=1) for w in weights]
    ends = np.concatenate([s[:, :-1] for s in sums], axis=1)
    order = np.argsort(ends, axis=1, kind="stable")  # ties: the lower axis first
    points = np.concatenate([np.zeros((nb, 1)), ends[rows, order], sums[0][:, -1:]], axis=1)
    cells = np.zeros((nb, order.shape[1] + 1), dtype=np.intp)
    np.cumsum(strides[order], axis=1, out=cells[:, 1:])
    path = costs.reshape(nb, -1)[rows, cells]
    phi = np.zeros((nb, sum(shape)))
    phi[:, 0] = path[:, 0]
    phi[rows, atoms[order]] = path[:, 1:] - path[:, :-1]
    for lo, hi, _ in columns:
        np.cumsum(phi[:, lo:hi], axis=1, out=phi[:, lo:hi])
    return cells, points[:, 1:] - points[:, :-1], order, phi


def _accept(blocks, optimal, weights, cost, shifts, plan, phi, dual, results):
    """Write into ``results`` the blocks (indices ``blocks``) that are
    ``optimal`` and whose plan (B, n_1, ..., n_N) and unpinned
    potentials ``phi`` (B, sum(n_k)) pass every check of
    :func:`solve_lp`: primal residual, dual residual ``dual`` (-min
    reduced cost) and their own gap.  Returns which passed."""
    axes = range(1, plan.ndim)
    primal = functools.reduce(np.maximum, (
        np.abs(plan.sum(axis=tuple(j for j in axes if j != k)) - w).max(axis=1)
        for k, w in zip(axes, weights)))
    value = (cost * plan).reshape(len(plan), -1).sum(axis=1) + shifts
    split = _split_potentials(phi, plan.shape[1:], shifts)
    dual_value = sum((p * w).sum(axis=1) for p, w in zip(split, weights))
    ok = (optimal & (primal <= PRIMAL_TOL) & (dual <= DUAL_TOL)
          & _gap_ok(np.abs(value - dual_value), value))
    values, plans, potentials = results
    done = blocks[ok]
    values[done], plans[done] = value[ok], plan[ok]
    for out, p in zip(potentials, split):
        out[done] = p[ok]
    return ok


# -- the transportation simplex ------------------------------------------------


def _transport_simplex(cost, cells, flows, order, phi, reduced):
    """Dantzig's transportation simplex on B blocks of one shape in lock-step.

    Each block of ``cost`` (B, n_1, ..., n_N) starts from its north-west
    corner: :func:`_staircase`'s cells, flows, breakpoint order and
    potentials ``phi`` (B, sum(n_k)), priced as ``reduced`` (B, n_1 * ...
    * n_N).  It pivots in the cell of most negative reduced cost (the
    first in C order on ties) until none is below -``PRICING_TOL`` * (1 +
    max cost) or it has made n_1 * ... * n_N + sum(n_k) pivots.  The
    basis inverse has a column per atom, zero for the first atom of every
    axis but the first (whose potential is pinned to 0), so a cell's
    column in the basis is the sum of its N atoms' columns.  For N = 2 it
    is int8 and exact (every pivot element is 1).  For N >= 3 it is float:
    the leaving row is divided by its pivot element, cycle entries up to
    ``PRICING_TOL`` are rounding noise, and a block left with no cell to
    leave stops unconverged.  Blocks leave the lock-step as they finish and
    their arithmetic never mixes: a block's result does not hang on its batch.

    Returns the plans (B, n_1, ..., n_N), the final basis's potentials
    (B, sum(n_k)), the pivots per block and whether each stopped optimal.
    ``cells`` and ``phi`` may be overwritten.
    """
    (nb, size), shape = reduced.shape, cost.shape[1:]
    offsets, cap = np.cumsum((0,) + shape[:-1]).tolist(), size + sum(shape)
    unimodular = len(shape) == 2    # every pivot element is 1
    # each breakpoint is a signed sum of marginal entries, so the rows of
    # the corner's inverse are differences of those sums' coefficient rows
    picks = np.concatenate([np.zeros((nb, 1), np.intp), order + 1,
                            np.full((nb, 1), order.shape[1] + 1)], axis=1)
    inverse = np.diff(_staircase_coefficients(shape)[picks], axis=1).astype(
        np.int8 if unimodular else float, copy=False)
    basic_cost = cost.reshape(nb, -1)[np.arange(nb)[:, None], cells]
    pivots, converged = np.zeros(nb, dtype=np.intp), np.zeros(nb, dtype=bool)
    plan, potentials = np.zeros((nb, size)), np.zeros((nb, sum(shape)))
    # the live blocks and their pivots made and optimality tolerances
    live, live_cost, made = np.arange(nb), cost, pivots.copy()
    tol = PRICING_TOL * (1.0 + cost.reshape(nb, -1).max(axis=1))
    at, stuck = np.arange(nb), None
    while True:
        enter = reduced.argmin(axis=1)
        best = reduced[at, enter]
        optimal = best >= -tol
        stop = optimal | (made >= cap)
        if stuck is not None:
            stop, stuck = stop | stuck, None
        if stop.any():
            done = live[stop]
            converged[done], pivots[done] = optimal[stop], made[stop]
            plan[done[:, None], cells[stop]] = np.maximum(flows[stop], 0.0)
            # the potentials of the basis: its basic costs times its inverse
            potentials[done] = (basic_cost[stop][:, :, None] * inverse[stop]).sum(axis=1)
            if stop.all():
                break
            keep = ~stop
            live, live_cost, made, tol, enter, best, phi, reduced = (
                x[keep] for x in (live, live_cost, made, tol, enter, best, phi, reduced))
            cells, flows, inverse, basic_cost = (
                x[keep] for x in (cells, flows, inverse, basic_cost))
            at = at[:live.size]
        # the entering cell's representation in the basis: its cycle
        atoms = np.unravel_index(enter, shape)
        direction = inverse[at, :, atoms[0]]
        for ofs, i in zip(offsets[1:], atoms[1:]):
            direction += inverse[at, :, ofs + i]
        if unimodular:    # each entry > 0 is 1; np.where is the faster call
            step = np.where(direction > 0, flows, np.inf)
        else:
            step = np.divide(flows, direction, out=np.full(flows.shape, np.inf),
                             where=direction > PRICING_TOL)
        leave = step.argmin(axis=1)
        theta = step[at, leave]
        row = inverse[at, leave]
        if not unimodular:
            stuck = theta == np.inf    # a drifted float inverse: stop it, unpivoted
            if stuck.any():
                continue
            stuck = None
            row = row / direction[at, leave][:, None]
        flows = flows - theta[:, None] * direction
        flows[at, leave] = theta
        phi += best[:, None] * row
        inverse -= direction[:, :, None] * row[:, None, :]
        inverse[at, leave] = row
        cells[at, leave] = enter
        basic_cost[at, leave] = live_cost[(at,) + atoms]
        made += 1
        reduced = _reduced(live_cost, phi).reshape(live.size, -1)
    return plan.reshape(cost.shape), potentials, pivots, converged


def _reduced(cost, phi) -> np.ndarray:
    """The reduced costs c - sum_k phi_k of ``cost`` (B, n_1, ..., n_N)
    under the potentials ``phi`` (B, sum(n_k)) concatenated over the axes."""
    (lo, hi, view), *rest = _staircase_layout(cost.shape[1:])[2]
    reduced = cost - phi[:, lo:hi].reshape(view)
    for lo, hi, view in rest:
        reduced -= phi[:, lo:hi].reshape(view)
    return reduced


@functools.lru_cache(maxsize=256)
def _staircase_coefficients(shape: tuple[int, ...]) -> np.ndarray:
    """Read-only int8 coefficient rows, over the weights concatenated over
    the axes, of the breakpoints of a staircase over ``shape`` in the order
    of :func:`_staircase`: 0, the interior partial sums of axis 0, those of
    each later axis (the total less the weights after them; the first atom
    of every axis but the first has a zero column) and the total."""
    bounds = np.cumsum((0,) + shape)
    coef = np.zeros((bounds[-1] - len(shape) + 2, bounds[-1]), dtype=np.int8)
    coef[1:shape[0], :shape[0]] = np.tri(shape[0] - 1, shape[0], dtype=np.int8)
    coef[shape[0]:, :shape[0]] = 1
    for k, (lo, hi) in enumerate(zip(bounds[1:], bounds[2:]), start=1):
        coef[lo - k + 1:hi - k, lo + 1:hi] = -np.tri(hi - lo - 1, dtype=np.int8).T
    coef.flags.writeable = False
    return coef
