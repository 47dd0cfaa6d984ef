"""Exact solving of mixed-integer mean-risk knapsack problems.

Conditional-gradient relaxations over the capped unit simplex inside a
depth-first branch-and-bound with value-fixing branching.
"""

__version__ = "0.1.0"

from .bnb import (
    BnbConfig,
    Incumbent,
    SolveReport,
    SolveStatus,
    WarmstartRule,
    greedy_upper_bound,
    solve,
)
from .fw import (
    OriginCheck,
    RelaxationResult,
    RelaxationStatus,
    origin_optimality_check,
    solve_relaxation,
)
from .instances import generate_instance, load_instance, save_instance
from .model import (
    ExpThresholdRisk,
    FixedSubproblem,
    LinearRisk,
    MeanRiskInstance,
    QuadraticRisk,
    RISK_KINDS,
    RiskWeighting,
    SimplexProblem,
    eval_f,
    fix_variable,
    grad_f,
    objective_max,
    objective_min,
    risk_from_dict,
    simplex_transform,
)
from .oracle import oracle_solve
from .projection import project_capped_simplex

__all__ = [
    "__version__",
    "BnbConfig",
    "Incumbent",
    "SolveReport",
    "SolveStatus",
    "WarmstartRule",
    "greedy_upper_bound",
    "solve",
    "OriginCheck",
    "RelaxationResult",
    "RelaxationStatus",
    "origin_optimality_check",
    "solve_relaxation",
    "generate_instance",
    "load_instance",
    "save_instance",
    "ExpThresholdRisk",
    "FixedSubproblem",
    "LinearRisk",
    "MeanRiskInstance",
    "QuadraticRisk",
    "RISK_KINDS",
    "RiskWeighting",
    "SimplexProblem",
    "eval_f",
    "fix_variable",
    "grad_f",
    "objective_max",
    "objective_min",
    "risk_from_dict",
    "simplex_transform",
    "oracle_solve",
    "project_capped_simplex",
]
