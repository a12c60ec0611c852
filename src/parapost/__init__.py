"""Time-parallel and space-time-parallel parabolic solvers with adjoint-based
a posteriori decomposition of the terminal-time quantity-of-interest error.

The solver pairs Parareal in time with (optionally) overlapping additive
Schwarz in space; the estimator splits the QoI error into discretization,
time-parallel and space-parallel contributions whose sum matches the true
error up to higher-order adjoint approximation effects.
"""

from .mesh import FeSpace, FormCache, SpatialMesh, qoi_eval
from .timestepping import TimePartition, propagate
from .parareal import vpar
from .schwarz import decompose_domain
from .adjoint import (
    solve_auxiliary_adjoints,
    solve_coarse_adjoint,
    solve_fine_adjoints,
)
from .estimator import ResidualEvaluator, stpa_breakdown
from .harness import (
    ExperimentConfig,
    build_manufactured,
    reproduce_table,
    run_experiment,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig", "run_experiment", "run_sweep", "reproduce_table",
    "build_manufactured",
    "SpatialMesh", "FeSpace", "FormCache", "TimePartition",
    "propagate", "decompose_domain", "vpar",
    "solve_coarse_adjoint", "solve_fine_adjoints", "solve_auxiliary_adjoints",
    "ResidualEvaluator", "stpa_breakdown", "qoi_eval",
]
