"""Structured LQR synthesis for continuous-time LTI systems.

Model-based structured policy iteration and its trajectory-data-driven
counterpart that never reads the state matrix, plus scenario fixtures for
a 6-agent diffusive network benchmark.
"""

from .learning import (DataMatrices, PlantHandle, RankDeficientError,
                       RankReport, SrlConfig, check_rank, collect,
                       hide_state_matrix, make_exploration, required_samples,
                       solve_iteration, srl_synthesize)
from .model_based import (BoundReport, ConvergenceError, IterationRecord,
                          SynthesisResult, kleinman_structured,
                          modified_are_residual, solve_lyapunov,
                          solve_unstructured_lqr, suboptimality_bound)
from .structure import SparsityMask, check_membership, off_pattern, on_pattern
from .system import (CostWeights, ExplorationSignal, InputPolicy, LtiSystem,
                     SimulationDiverged, Trajectory, UnstableClosedLoopError,
                     evaluate_cost, evaluate_cost_analytic, simulate)

__all__ = [
    "BoundReport", "ConvergenceError", "CostWeights", "DataMatrices",
    "ExplorationSignal", "InputPolicy", "IterationRecord", "LtiSystem",
    "PlantHandle", "RankDeficientError", "RankReport", "SimulationDiverged",
    "SparsityMask",
    "SrlConfig", "SynthesisResult", "Trajectory",
    "UnstableClosedLoopError", "check_membership", "check_rank", "collect",
    "evaluate_cost", "evaluate_cost_analytic", "hide_state_matrix",
    "kleinman_structured",
    "make_exploration", "modified_are_residual", "off_pattern", "on_pattern",
    "required_samples", "simulate", "solve_iteration", "solve_lyapunov",
    "solve_unstructured_lqr", "srl_synthesize",
    "suboptimality_bound",
]

__version__ = "0.1.0"
