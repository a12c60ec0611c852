"""Time-parallel and space-time-parallel parabolic solvers with adjoint-based
a posteriori decomposition of the terminal-time quantity-of-interest error.

The solver pairs Parareal in time with (optionally) overlapping additive
Schwarz in space; the estimator splits the QoI error into discretization,
time-parallel and space-parallel contributions whose sum matches the true
error up to higher-order adjoint approximation effects.
"""

from .mesh import (
    AssembledOperator,
    FeSpace,
    FormCache,
    NodalField,
    SpatialMesh,
    assemble_load,
    assemble_matrix,
    assemble_operators,
    embed,
    eval_field,
    project_field,
    qoi_eval,
)
from .timestepping import (
    CgTrajectory,
    TimePartition,
    Trajectory,
    dg0_equivalence_check,
    propagate_be,
    propagate_cg,
)
from .parareal import PararealState, par_standard, vpar
from .schwarz import (
    AdditiveSchwarz,
    OverlapDecomposition,
    SchwarzSweepRecord,
    decompose_domain,
    subdomain_dof_sets,
)
from .adjoint import (
    SpaceTimeAdjoint,
    SpatialAdjointSolver,
    solve_auxiliary_adjoints,
    solve_backward_cg,
    solve_coarse_adjoint,
    solve_fine_adjoints,
)
from .estimator import (
    ErrorBreakdown,
    ResidualEvaluator,
    STPA_COMPONENTS,
    TPA_COMPONENTS,
    effectivity,
    stpa_breakdown,
    tpa_breakdown,
)
from .harness import (
    ExperimentConfig,
    ManufacturedProblem,
    RunRecord,
    TABLE_REGISTRY,
    build_manufactured,
    emit_report,
    reproduce_table,
    run_experiment,
    run_sweep,
)
from .selftest import run_selftest

__version__ = "0.1.0"

__all__ = [
    "AssembledOperator", "FeSpace", "FormCache", "NodalField", "SpatialMesh",
    "assemble_load", "assemble_matrix", "assemble_operators", "embed",
    "eval_field", "project_field", "qoi_eval",
    "CgTrajectory", "TimePartition", "Trajectory", "dg0_equivalence_check",
    "propagate_be", "propagate_cg",
    "PararealState", "par_standard", "vpar",
    "AdditiveSchwarz", "OverlapDecomposition", "SchwarzSweepRecord",
    "decompose_domain", "subdomain_dof_sets",
    "SpaceTimeAdjoint", "SpatialAdjointSolver", "solve_auxiliary_adjoints",
    "solve_backward_cg", "solve_coarse_adjoint", "solve_fine_adjoints",
    "ErrorBreakdown", "ResidualEvaluator", "STPA_COMPONENTS",
    "TPA_COMPONENTS", "effectivity",
    "stpa_breakdown", "tpa_breakdown",
    "ExperimentConfig", "ManufacturedProblem", "RunRecord", "TABLE_REGISTRY",
    "build_manufactured", "emit_report", "reproduce_table", "run_experiment",
    "run_sweep",
    "run_selftest",
]
