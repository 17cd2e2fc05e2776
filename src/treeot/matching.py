"""Dynamic matching equilibria.

A principal population (utility u per task path, cost c^0 = -u) and N
agent populations (costs c^i) must agree on a task distribution over a
finite task tree.  Types are private, so contracts are wage functions of
the realised task path only.  An equilibrium is a wage vector per
population, a task distribution nu and causal plans pi^i such that

* clearing: the wages sum to zero on every task path, and
* optimality: each plan attains the population's best-response value
  V^i(w^i) = inf { E_pi[c^i - w^i] : pi causal from X^i, task marginal free }.

Equilibria are constructed from the causal barycenter over all N+1
populations: the primal gives nu and the plans, the dual task
potentials give the wages, and complementary slackness makes each plan
a best response.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .barycenters import causal_barycenter, causal_violation
from .errors import ValidationError
from .lp import CAUSALITY_TOL, MARGINAL_TOL, OPTIMALITY_TOL
from .multicausal import (TUPLE_BUDGET, DualCertificate, MulticausalCoupling,
                          check_certificates, cost_table)
from .trees import ScenarioTree, join_ids


@dataclass(frozen=True)
class MatchingInstance:
    """Principal + agent populations with a shared finite task tree."""

    principal: ScenarioTree
    utility: object                      # u(x^0, y), a cost of (principal, tasks)
    agents: tuple[ScenarioTree, ...]
    agent_costs: tuple
    tasks: ScenarioTree

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "agent_costs", tuple(self.agent_costs))
        if len(self.agents) != len(self.agent_costs):
            raise ValidationError("one cost per agent population required")
        horizon = self.principal.horizon
        for tree in (*self.agents, self.tasks):
            if tree.horizon != horizon:
                raise ValidationError("all populations and tasks must share the horizon")

    @property
    def populations(self) -> tuple[ScenarioTree, ...]:
        return (self.principal, *self.agents)

    @cached_property
    def cost_tables(self) -> tuple[np.ndarray, ...]:
        """Population costs c^0 = -u, c^1, ..., c^N on every (population
        leaf, task leaf) pair, built once per instance and shared read-only."""
        tables = (
            -cost_table((self.principal, self.tasks), self.utility),
            *(cost_table((tree, self.tasks), cost)
              for tree, cost in zip(self.agents, self.agent_costs)),
        )
        for table in tables:
            table.flags.writeable = False
        return tables


@dataclass(frozen=True)
class Equilibrium:
    """Task distribution, causal plans and their certificates over the
    pairs (population tree, task tree), one per population.  ``nu`` has
    one weight per task leaf, in leaf order.

    ``certificates[i]`` is laid out as in
    :class:`~treeot.barycenters.BarycenterSolution`: the potential
    f^i on the population's leaves, the wage w^i on the task leaves, and
    the coefficients of G^i; it certifies that ``plans[i]`` is a best
    response to w^i.  The principal's wage is by construction the negated
    sum of the agent wages, so clearing holds exactly.  Every wage has
    mean zero under ``nu`` (see :func:`solve_matching`), so ``values[i]``,
    E_pi[c^i - w^i] under the equilibrium plan, is the plan's expected
    cost E_pi[c^i].
    """

    instance: MatchingInstance
    nu: np.ndarray
    plans: tuple[MulticausalCoupling, ...]
    values: tuple[float, ...]
    certificates: tuple[DualCertificate, ...]

    @property
    def wages(self) -> tuple[np.ndarray, ...]:
        return tuple(cert.potentials[1] for cert in self.certificates)

    def wage_table(self) -> dict[str, list[float]]:
        """Wages keyed by the task path's :func:`join_ids` by ``/``, per population 0..N."""
        tasks, wages = self.instance.tasks, self.wages
        paths = ([tasks.ids[t][k] for t, k in enumerate(path)] for path in tasks.ancestors.tolist())
        return {join_ids(path, "/"): [float(w[j]) for w in wages] for j, path in enumerate(paths)}


def solve_matching(
    instance: MatchingInstance, tuple_budget: int = TUPLE_BUDGET
) -> Equilibrium:
    """Construct an equilibrium from the joint causal barycenter.

    Wages are the barycenter's task potentials w^i, with its
    normalisation (see :class:`~treeot.barycenters.BarycenterSolution`):
    every agent's wage has mean zero under nu and the principal's is the
    negated sum of the agents', so the market clears exactly.  Plans and
    nu come from the barycenter primal.
    """
    # each cost reads the instance's table when the barycenter asks for it,
    # after its budget check, and hands it over without a copy
    costs = [lambda _, i=i: instance.cost_tables[i] for i in range(len(instance.populations))]
    solution = causal_barycenter(
        instance.populations, instance.tasks, costs, tuple_budget=tuple_budget
    )
    values = tuple(
        plan.expectation(table - cert.potentials[1])
        for plan, table, cert in zip(solution.plans, solution.tables, solution.certificates)
    )
    return Equilibrium(instance=instance, nu=solution.nu, plans=solution.plans,
                       values=values, certificates=solution.certificates)


def best_response(
    instance: MatchingInstance, i: int, wage: np.ndarray
) -> tuple[float, MulticausalCoupling]:
    """V^i(w^i): cheapest causal plan against a wage, task marginal free.

    ``i`` indexes populations with 0 the principal.  A causal plan moves
    the population by its own kernel and picks Y_{t} from X_{1:t}, so
    V^i(w^i) is the backward recursion on the pair (population tree,
    task tree) over the table c^i - w^i:

        V[x_{t+1}, y_t] = min over children y' of y_t of V[x_{t+1}, y'],
        V[x_t, y_t]     = sum over children x' of x_t of p(x') V[x', y_t],

    from the leaf pairs up to the two roots.  Ties go to the first task
    child in level order.  The returned plan is deterministic: it sends
    each population leaf, with its probability, to the task leaf its
    path of first minimisers reaches.
    """
    populations = instance.populations
    if not 0 <= i < len(populations):
        raise ValidationError(f"population index {i} out of range")
    tree, tasks = populations[i], instance.tasks
    wage = np.asarray(wage, dtype=float)
    if wage.shape != (tasks.n_leaves,):
        raise ValidationError(
            f"wage vector must have one entry per task leaf ({tasks.n_leaves})"
        )
    if not np.all(np.isfinite(wage)):
        raise ValidationError("wage must be finite on the task support")

    value = instance.cost_tables[i] - wage[None, :]
    own, up = tree.parents, tasks.parents
    choices = []
    for t in range(tree.horizon - 1, -1, -1):
        # rows: population nodes at depth t+1; each task node at depth t
        # takes the first cheapest of its children, in level order
        order = np.argsort(up[t], kind="stable")
        parent = up[t][order]
        starts = np.flatnonzero(np.diff(parent, prepend=-1))
        ranked = value[:, order]
        value = np.minimum.reduceat(ranked, starts, axis=1)
        first = np.where(ranked == value[:, parent], np.arange(order.size), order.size)
        choices.append(order[np.minimum.reduceat(first, starts, axis=1)])
        # rows: population nodes at depth t, moving by their own kernel
        value = tree.expect(t, value.T).T

    task = np.zeros(1, dtype=np.intp)   # the task node of each population node
    for t, choice in enumerate(reversed(choices)):
        task = choice[np.arange(own[t].size), task[own[t]]]
    leaves = np.column_stack([np.arange(tree.n_leaves), task])
    return float(value[0, 0]), MulticausalCoupling((tree, tasks), leaves, tree.leaf_law())


@dataclass(frozen=True)
class EquilibriumReport:
    clearing_ok: bool
    worst_clearing: float
    clearing_witnesses: tuple[str, ...]
    optimality_gaps: tuple[float, ...]
    optimality_ok: bool
    common_marginal_ok: bool
    worst_marginal_tv: float
    worst_causality: float

    @property
    def passed(self) -> bool:
        return (self.clearing_ok and self.optimality_ok and self.common_marginal_ok
                and self.worst_causality <= CAUSALITY_TOL)


def verify_equilibrium(instance: MatchingInstance, equilibrium: Equilibrium) -> EquilibriumReport:
    """Check clearing (exactly), per-population optimality (within
    ``OPTIMALITY_TOL``), the common marginal and the causality of every
    plan (within ``CAUSALITY_TOL``).

    Clearing recomputes the agents' wage sum in the construction order,
    so an equilibrium built by :func:`solve_matching` clears to exactly
    zero in float arithmetic.
    """
    tasks = instance.tasks
    wages = [np.asarray(w, dtype=float) for w in equilibrium.wages]
    agent_sum = (
        reduce(np.add, wages[1:]) if len(wages) > 1 else np.zeros(tasks.n_leaves)
    )
    residual = wages[0] + agent_sum
    clearing_witnesses = tuple(
        tasks.leaf_ids()[j] for j in np.nonzero(residual != 0.0)[0]
    )
    worst_clearing = float(np.max(np.abs(residual))) if residual.size else 0.0

    worst_tv = 0.0
    worst_causality = 0.0
    gaps = []
    for i, (plan, table, wage) in enumerate(zip(equilibrium.plans, instance.cost_tables, wages)):
        worst_tv = max(worst_tv, 0.5 * float(np.abs(plan.marginal(1) - equilibrium.nu).sum()))
        worst_causality = max(worst_causality, causal_violation(plan))
        achieved = plan.expectation(table - wage)
        best, _ = best_response(instance, i, wage)
        gaps.append(achieved - best)

    return EquilibriumReport(
        clearing_ok=not clearing_witnesses,
        worst_clearing=worst_clearing,
        clearing_witnesses=clearing_witnesses,
        optimality_gaps=tuple(float(g) for g in gaps),
        optimality_ok=all(abs(g) <= OPTIMALITY_TOL for g in gaps),
        common_marginal_ok=worst_tv <= MARGINAL_TOL,
        worst_marginal_tv=float(worst_tv),
        worst_causality=float(worst_causality),
    )


def complementary_slackness(instance: MatchingInstance, equilibrium: Equilibrium) -> dict:
    """:func:`check_certificates` of the equilibrium on the population
    cost tables.  Slack of population i at a leaf pair is c^i - w^i +
    G^i - f^i; dual feasibility keeps it above -1e-8 and it vanishes on
    the support of the equilibrium plan."""
    return check_certificates(equilibrium.plans, instance.cost_tables, equilibrium.certificates)
