"""Tangent-kernel alignment for graph filters and graph neural networks."""

__version__ = "0.1.0"

from .alignment import (
    alignment_filt,
    alignment_lin,
    alignment_lower_bound,
    alignment_report,
    optimality_sweep,
    run_inequality_sweeps,
)
from .core import (
    Dataset,
    DivergenceError,
    NtkMatrix,
    ShiftOperator,
    stack,
)
from .dataio import (
    PairExtractionConfig,
    VarProcessConfig,
    extract_pairs,
    generate_var,
    load_csv,
    planted_transition,
    save_csv,
)
from .hermite import (
    beta_constant,
    beta_first_layer,
    expansion_constants,
    sigma_hat,
)
from .models import (
    FilterParams,
    InitConfig,
    TwoLayerGnnParams,
    init_filter,
    init_gnn2,
)
from .ntk import (
    empirical_ntk,
    filter_ntk,
    gnn_infinite_ntk,
)
from .shiftops import (
    AsymmetricShift,
    GsoSolution,
    covariance,
    cross_covariance,
    mu_from_budget,
    solve_optimal_gso,
)
from .training import (
    GsoComparison,
    TrainConfig,
    TrainTrace,
    check_training_sandwich,
    compare_gso,
    kappa_for_budget,
    linearized_dynamics,
    ntk_drift,
    predicted_param_movement,
    train,
)

__all__ = [
    "AsymmetricShift",
    "Dataset",
    "DivergenceError",
    "FilterParams",
    "GsoComparison",
    "GsoSolution",
    "InitConfig",
    "NtkMatrix",
    "PairExtractionConfig",
    "ShiftOperator",
    "TrainConfig",
    "TrainTrace",
    "TwoLayerGnnParams",
    "VarProcessConfig",
    "alignment_filt",
    "alignment_lin",
    "alignment_lower_bound",
    "alignment_report",
    "beta_constant",
    "beta_first_layer",
    "check_training_sandwich",
    "compare_gso",
    "covariance",
    "cross_covariance",
    "empirical_ntk",
    "expansion_constants",
    "extract_pairs",
    "filter_ntk",
    "generate_var",
    "gnn_infinite_ntk",
    "init_filter",
    "init_gnn2",
    "kappa_for_budget",
    "linearized_dynamics",
    "load_csv",
    "mu_from_budget",
    "ntk_drift",
    "optimality_sweep",
    "planted_transition",
    "predicted_param_movement",
    "run_inequality_sweeps",
    "save_csv",
    "sigma_hat",
    "solve_optimal_gso",
    "stack",
    "train",
    "__version__",
]
