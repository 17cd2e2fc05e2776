"""Exception hierarchy shared by all solver modules.

The CLI maps these onto exit codes: validation problems exit 2, budget
refusals exit 3, solver failures exit 4.
"""
from __future__ import annotations


class TreeOTError(Exception):
    """Base class for all library errors."""


class ValidationError(TreeOTError):
    """Malformed or inconsistent input (trees, couplings, configs)."""


class TreeFormatError(ValidationError):
    """Unparseable or structurally invalid tree document."""


class BudgetExceededError(TreeOTError):
    """An enumeration or dense-tensor budget would be exceeded.

    Raised *before* any work is attempted, by :func:`refuse_above` only;
    the operation refuses rather than silently subsampling.
    """


def refuse_above(count: int, budget: int, what: str, unit: str) -> None:
    """The one refusal rule: raise :class:`BudgetExceededError` when
    ``count`` ``unit`` of ``what`` exceed ``budget``."""
    if count > budget:
        raise BudgetExceededError(f"{what}: {count} {unit} exceed budget {budget}")


class SolverFailureError(TreeOTError):
    """The LP backend returned an unusable solution.

    Carries residual diagnostics in ``details`` when available.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = dict(details or {})


class IncompletePolicyError(ValidationError):
    """A kernel policy lacks a plan for a reachable node tuple."""
