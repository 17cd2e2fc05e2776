"""Causal, bicausal and multicausal optimal transport on scenario trees."""

from .barycenters import (
    BarycenterProcess,
    BarycenterSolution,
    BcBarycenterResult,
    CounterexampleReport,
    PowerCost,
    SeparableCost,
    TableCost,
    aggregate_cost,
    anticausal_barycenter,
    bc_barycenter,
    bc_bary_value,
    causal_barycenter,
    causal_ot,
    counterexample_demo,
    grid_selector,
    phi0_quadratic,
)
from .costs import lp_sum, pairwise_power
from .errors import (
    BudgetExceededError,
    IncompletePolicyError,
    SolverFailureError,
    TreeFormatError,
    TreeOTError,
    ValidationError,
)
from .lp import (
    classical_ot,
    multimarginal_ot,
    solve_lp,
)
from .matching import (
    Equilibrium,
    EquilibriumReport,
    MatchingInstance,
    best_response,
    complementary_slackness,
    solve_matching,
    verify_equilibrium,
)
from .multicausal import (
    CausalityReport,
    DualCertificate,
    KernelPolicy,
    MulticausalCoupling,
    assemble_coupling,
    aw_distance,
    brute_force_mcot,
    check_certificates,
    cost_table,
    coupling_from_dense,
    coupling_from_id_atoms,
    glue,
    mc_dpp,
    restrict_coupling,
    verify_certificate,
    verify_multicausal,
)
from .trees import (
    ScenarioTree,
    dump_tree,
    load_tree,
    quantize_gauss_hermite,
)

__version__ = "0.1.0"
