"""Exact LP engine and classical (multi)marginal transport solvers.

Everything downstream (dynamic programming, causality-constrained LPs,
barycenters, matching) reduces to equality-form linear programs

    min c.x   s.t.  A x = b,  x >= 0,

solved here through HiGHS dual simplex.  The solver contract is the
residual tolerances on returned solutions, not the algorithm:

* primal feasibility  ||Ax - b||_inf <= 1e-9,
* dual feasibility    min reduced cost >= -1e-9,
* complementary-slackness gap |c.x - b.y| <= 1e-8 * (1 + |c.x|), taken
  per diagonal block when the LP stacks independent problems.

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

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import BudgetExceededError, SolverFailureError, ValidationError
from .trees import DiscreteDistribution

# Solver and verification tolerances are defined here only; other modules
# import them (the probability-sum tolerances of trees are in trees.py).
PRIMAL_TOL = 1e-9
DUAL_TOL = 1e-9
DUALITY_TOL = 1e-8      # |value - dual value| <= DUALITY_TOL * (1 + |value|)
MARGINAL_TOL = 1e-9
CAUSALITY_TOL = 1e-8
OPTIMALITY_TOL = 1e-7   # absorbs two LP solves being compared

#: refuse dense cost tensors above this entry count
DENSE_BUDGET = 10_000_000

#: column cap of one block LP in :func:`multimarginal_ot_batch`; a batch
#: with more columns is split over several LPs (bounds solver memory)
_BATCH_COLUMNS = 1 << 16

_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class _Stats:
    """LP counters, surfaced in CLI reports."""

    def __init__(self):
        self.solves = 0
        self.iterations = 0

    def reset(self):
        self.solves = 0
        self.iterations = 0


stats = _Stats()


@dataclass
class LpProblem:
    """Equality-form LP: min c.x s.t. A x = b, x >= 0.

    ``blocks``, if given, lists the (row slice, column slice) of each
    independent diagonal block of A; the duality gap is then checked per
    block against that block's own value.
    """

    c: np.ndarray
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    blocks: tuple[tuple[slice, slice], ...] | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.a_eq = sp.csr_matrix(self.a_eq)
        if self.a_eq.shape != (self.b_eq.shape[0], self.c.shape[0]):
            raise ValidationError(
                f"constraint matrix shape {self.a_eq.shape} does not match "
                f"{self.b_eq.shape[0]} rhs entries and {self.c.shape[0]} variables"
            )
        if not np.all(np.isfinite(self.b_eq)):
            raise ValidationError("non-finite right-hand side")
        if not np.all(np.isfinite(self.c)):
            raise ValidationError("non-finite objective coefficients")


@dataclass(frozen=True)
class LpSolution:
    """Solution bundle with dual multipliers per constraint."""

    status: str                       # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    duals: np.ndarray | None
    value: float | None
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    gap: float = np.nan
    iterations: int = 0


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve an equality-form LP, returning primal values and duals."""
    res = linprog(
        c=problem.c,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=(0, None),
        method="highs-ds",
        options=dict(_HIGHS_OPTIONS),
    )
    stats.solves += 1
    stats.iterations += int(getattr(res, "nit", 0) or 0)
    if res.status == 2:
        return LpSolution(status="infeasible", x=None, duals=None, value=None)
    if res.status == 3:
        return LpSolution(status="unbounded", x=None, duals=None, value=None)
    if res.status != 0:
        raise SolverFailureError(
            f"LP backend failed: {res.message}", details={"status": int(res.status)}
        )
    x = np.asarray(res.x, dtype=float)
    y = np.asarray(res.eqlin.marginals, dtype=float)
    value = float(problem.c @ x)
    primal = _inf_norm(problem.a_eq @ x - problem.b_eq)
    reduced = problem.c - problem.a_eq.T @ y
    dual = max(0.0, float(-(reduced.min()))) if reduced.size else 0.0
    spans = problem.blocks or ((slice(None), slice(None)),)
    values = [float(problem.c[cols] @ x[cols]) for _, cols in spans]
    gaps = [abs(v - float(problem.b_eq[rows] @ y[rows])) for v, (rows, _) in zip(values, spans)]
    bad = [k for k, (v, g) in enumerate(zip(values, gaps)) if g > DUALITY_TOL * (1 + abs(v))]
    if primal > PRIMAL_TOL or dual > DUAL_TOL or bad:
        k = bad[0] if bad else int(np.argmax(gaps))
        details = {
            "primal_residual": primal,
            "dual_residual": dual,
            "gap": gaps[k],
            "value": values[k],
        }
        if problem.blocks is not None:
            details["block"] = k
        raise SolverFailureError("LP solution violates residual tolerances", details=details)
    gap = max(gaps)
    return LpSolution(
        status="optimal",
        x=x,
        duals=y,
        value=value,
        primal_residual=primal,
        dual_residual=dual,
        gap=gap,
        iterations=int(getattr(res, "nit", 0) or 0),
    )


def _inf_norm(v) -> float:
    v = np.asarray(v)
    return float(np.max(np.abs(v))) if v.size else 0.0


def check_duality_gap(value: float, gap: float, what: str, details: dict) -> None:
    """Raise :class:`SolverFailureError` ``what`` with ``details`` when
    ``gap``, the distance of a dual value from ``value``, exceeds
    DUALITY_TOL * (1 + |value|)."""
    if gap > DUALITY_TOL * (1 + abs(value)):
        raise SolverFailureError(what, details=details)


def _solve_optimal(problem: LpProblem, what: str) -> LpSolution:
    sol = solve_lp(problem)
    if sol.status != "optimal":
        raise SolverFailureError(f"{what}: LP is {sol.status}")
    return sol


# -- transport plans -------------------------------------------------------


@dataclass(frozen=True)
class TransportPlan:
    """Sparse nonnegative measure on a product of finite supports."""

    shape: tuple[int, ...]
    atoms: tuple[tuple[int, ...], ...]
    weights: np.ndarray
    marginals: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if np.any(self.weights < 0):
            raise ValidationError("transport plan has a negative weight")

    def pushforward(self, axis: int) -> np.ndarray:
        out = np.zeros(self.shape[axis])
        for idx, w in zip(self.atoms, self.weights):
            out[idx[axis]] += w
        return out

    def marginal_error(self) -> float:
        """Worst total-variation distance to the declared marginals."""
        worst = 0.0
        for axis, mu in enumerate(self.marginals):
            worst = max(worst, 0.5 * float(np.abs(self.pushforward(axis) - mu).sum()))
        return worst

    def as_dict(self) -> dict[tuple[int, ...], float]:
        return {idx: float(w) for idx, w in zip(self.atoms, self.weights)}


def plan_from_dense(x: np.ndarray, shape, marginals=()) -> TransportPlan:
    x = np.asarray(x, dtype=float).reshape(shape)
    return TransportPlan(  # solver dust at the bound is dropped
        shape=tuple(shape),
        atoms=tuple(map(tuple, np.argwhere(x > 0).tolist())),
        weights=x[x > 0],
        marginals=tuple(np.asarray(m, dtype=float) for m in marginals),
    )


# -- multimarginal optimal transport ----------------------------------------


def _as_weights(m) -> np.ndarray:
    if isinstance(m, DiscreteDistribution):
        return np.asarray(m.weights, dtype=float)
    w = np.asarray(m, dtype=float)
    if w.ndim != 1 or np.any(w <= 0):
        raise ValidationError("marginal must be a 1-D vector of positive weights")
    if abs(float(w.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"marginal sums to {float(w.sum())!r}, expected 1")
    return w


@functools.lru_cache(maxsize=256)
def _marginal_pattern(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the stacked pushforward operators, one row
    block per axis, over C-order variables; all entries are 1."""
    size = int(np.prod(shape))
    index = np.unravel_index(np.arange(size), shape)
    offsets = np.cumsum((0,) + shape[:-1])
    rows = np.concatenate([ofs + idx for ofs, idx in zip(offsets, index)])
    cols = np.tile(np.arange(size), len(shape))
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _marginal_operator(shape: tuple[int, ...]) -> sp.csr_matrix:
    """:func:`_marginal_pattern` as a matrix: one pushforward row block per
    axis over the C-order variables of ``shape``."""
    rows, cols = _marginal_pattern(shape)
    return sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                         shape=(sum(shape), int(np.prod(shape))))


@dataclass(frozen=True)
class MultimarginalResult:
    """``plan`` is dense, one axis per marginal, clipped at 0."""

    value: float
    plan: np.ndarray
    potentials: tuple[np.ndarray, ...]


def multimarginal_ot(marginals, cost: np.ndarray) -> MultimarginalResult:
    """Exact multimarginal OT over the coupling polytope.

    ``cost`` is a dense tensor with one axis per marginal.  Returns the
    optimal value, the dense plan, and one dual potential per marginal
    atom with  sum_i E_{mu_i}[phi_i] = value  within DUALITY_TOL.
    Refuses a cost tensor of more than ``DENSE_BUDGET`` entries.
    """
    return multimarginal_ot_batch([(marginals, cost)])[0]


def multimarginal_ot_batch(problems) -> list[MultimarginalResult]:
    """:func:`multimarginal_ot` for each ``(marginals, cost)`` pair.

    The problems become the diagonal blocks of one LP, or of several when
    their columns exceed ``_BATCH_COLUMNS``.  Each block keeps every check
    of a separate solve: its own cost shift, its own duality gap.
    """
    blocks = []
    for marginals, cost in problems:
        weights = [_as_weights(m) for m in marginals]
        shape = tuple(len(w) for w in weights)
        if tuple(np.shape(cost)) != shape:
            raise ValidationError(
                f"cost tensor shape {tuple(np.shape(cost))} does not match marginal sizes {shape}"
            )
        size = int(np.prod(shape))
        if size > DENSE_BUDGET:
            raise BudgetExceededError(
                f"dense cost tensor has {size} entries > budget {DENSE_BUDGET}"
            )
        cost = np.asarray(cost, dtype=float)
        shift = float(cost.min())
        blocks.append((weights, shape, (cost - shift).ravel(), shift))
    chunks, columns = [[]], 0
    for block in blocks:
        size = block[2].size  # the block's shifted cost vector
        if columns and columns + size > _BATCH_COLUMNS:
            chunks.append([])
            columns = 0
        chunks[-1].append(block)
        columns += size
    return [res for chunk in chunks if chunk for res in _solve_blocks(chunk)]


def _solve_blocks(blocks) -> list[MultimarginalResult]:
    weights, shapes, costs, shifts = zip(*blocks)
    row_ofs = np.cumsum([0] + [sum(shape) for shape in shapes])
    col_ofs = np.cumsum([0] + [c.size for c in costs])
    patterns = [_marginal_pattern(shape) for shape in shapes]
    rows = np.concatenate([r + ofs for (r, _), ofs in zip(patterns, row_ofs)])
    cols = np.concatenate([c + ofs for (_, c), ofs in zip(patterns, col_ofs)])
    spans = tuple(
        (slice(r0, r1), slice(c0, c1))
        for r0, r1, c0, c1 in zip(row_ofs, row_ofs[1:], col_ofs, col_ofs[1:])
    )
    problem = LpProblem(
        c=np.concatenate(costs),
        a_eq=sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                           shape=(row_ofs[-1], col_ofs[-1])),
        b_eq=np.concatenate([w for ws in weights for w in ws]),
        blocks=spans,
    )
    sol = _solve_optimal(problem, "multimarginal transport")
    out = []
    for k, (ws, shape, c, shift, (rows, cols)) in enumerate(
        zip(weights, shapes, costs, shifts, spans)
    ):
        x = sol.x[cols]
        value = float(c @ x) + shift
        plan = np.where(x > 0, x, 0.0).reshape(shape)  # clip solver dust at the bound
        potentials = _split_potentials(sol.duals[rows], shape, shift)
        dual_value = sum(float(p @ w) for p, w in zip(potentials, ws))
        check_duality_gap(value, abs(value - dual_value),
                          "multimarginal duality gap exceeds tolerance",
                          {"value": value, "dual_value": dual_value, "block": k})
        out.append(MultimarginalResult(value=value, plan=plan, potentials=potentials))
    return out


def _split_potentials(duals: np.ndarray, shape, shift: float) -> tuple[np.ndarray, ...]:
    out, ofs = [], 0
    for n in shape:
        out.append(np.array(duals[ofs:ofs + n]))
        ofs += n
    for i in range(1, len(out)):
        pin = out[i][0]
        out[i] = out[i] - pin
        out[0] = out[0] + pin
    out[0] = out[0] + shift
    return tuple(out)


def classical_ot(mu, nu, cost: np.ndarray) -> tuple[float, TransportPlan]:
    """Two-marginal optimal transport; see :func:`multimarginal_ot`."""
    res = multimarginal_ot([mu, nu], np.asarray(cost, dtype=float))
    return res.value, plan_from_dense(res.plan, res.plan.shape,
                                      marginals=(_as_weights(mu), _as_weights(nu)))


# -- fixed-support Wasserstein barycenter ------------------------------------


@dataclass(frozen=True)
class BarycenterLpResult:
    """``potentials[i]`` are the duals of measure i's marginal block;
    sum_i potentials[i] @ mu_i equals the value (LP duality)."""

    value: float
    barycenter: DiscreteDistribution
    plans: tuple[TransportPlan, ...]
    potentials: tuple[np.ndarray, ...]


def wasserstein_barycenter_fixed_support(
    measures, weights, costs, support
) -> BarycenterLpResult:
    """Classical barycenter over measures on a fixed finite support.

    Solved as one joint LP in (nu, gamma^1, ..., gamma^N): each plan
    gamma^i couples nu with measure i, all plans share the first marginal
    nu, and the objective is  sum_i lambda_i <costs[i], gamma^i>  with
    costs[i] of shape (len(support), len(measure_i)).
    """
    if len(support) == 0:
        raise ValidationError("empty barycenter support")
    lam = np.asarray(weights, dtype=float)
    if lam.ndim != 1 or len(lam) != len(measures):
        raise ValidationError("one weight per measure required")
    if np.any(lam <= 0) or abs(float(lam.sum()) - 1.0) > 1e-9:
        raise ValidationError("weights must be positive and sum to 1")
    mus = [_as_weights(m) for m in measures]
    m = len(support)
    mats = [np.asarray(c, dtype=float) for c in costs]
    for i, c in enumerate(mats):
        if c.shape != (m, len(mus[i])):
            raise ValidationError(
                f"cost {i} has shape {c.shape}, expected {(m, len(mus[i]))}"
            )
    n_plan = [m * len(mu) for mu in mus]
    n_vars = m + sum(n_plan)
    offsets = np.cumsum([m] + n_plan)[:-1]

    # per measure: row sums equal nu (m rows), then column sums equal mu_i
    blocks, rhs = [], []
    for i, mu in enumerate(mus):
        link = sp.csr_matrix((-np.ones(m), (np.arange(m), np.arange(m))),
                             shape=(m + len(mu), m))
        blocks.append([link] + [_marginal_operator((m, len(mu))) if j == i else None
                                for j in range(len(mus))])
        rhs += [np.zeros(m), mu]
    a_eq = sp.bmat(blocks, format="csr")
    c_vec = np.zeros(n_vars)
    for i, c in enumerate(mats):
        c_vec[offsets[i]:offsets[i] + n_plan[i]] = (lam[i] * c).ravel()
    sol = _solve_optimal(
        LpProblem(c=c_vec, a_eq=a_eq, b_eq=np.concatenate(rhs)), "barycenter LP"
    )
    nu = np.where(sol.x[:m] > 0, sol.x[:m], 0.0)
    total = float(nu.sum())
    if abs(total - 1.0) > MARGINAL_TOL:
        raise SolverFailureError(f"barycenter mass {total!r} != 1")
    nu = nu / total
    plans = tuple(
        plan_from_dense(
            sol.x[offsets[i]:offsets[i] + n_plan[i]], (m, len(mus[i])),
            marginals=(nu, mus[i]),
        )
        for i in range(len(mus))
    )
    potentials = []
    row = 0
    for mu in mus:
        row += m  # skip the nu-linking block
        potentials.append(np.array(sol.duals[row:row + len(mu)]))
        row += len(mu)
    dual_value = sum(float(p @ mu) for p, mu in zip(potentials, mus))
    check_duality_gap(sol.value, abs(dual_value - sol.value),
                      "barycenter duality gap exceeds tolerance",
                      {"value": sol.value, "dual_value": dual_value})
    return BarycenterLpResult(
        value=sol.value,
        barycenter=DiscreteDistribution(support=tuple(support), weights=nu),
        plans=plans,
        potentials=tuple(potentials),
    )
