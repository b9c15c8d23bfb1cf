"""Hawkes processes with latent geometric excitation structure.

Event types live at hidden Euclidean coordinates; how strongly one type's
events excite another's decays with the distance between them.  The package
simulates such processes, fits them by expectation-maximization (with the
embedding itself re-estimated inside the M-step, or frozen, or replaced by a
full-rank excitation matrix), and checks fits with residual and attribution
diagnostics.
"""

from .diagnostics import (
    EvalSplit,
    background_qq,
    categorical_accuracy,
    hellinger_divergence,
    kendall_distance_correlation,
    phi_rmse,
    split_eval,
)
from .em import (
    MODES,
    BranchingStructure,
    DegenerateEventError,
    FitConfig,
    FitReport,
    FullRankParams,
    GammaPrior,
    NumericalError,
    complete_data_loglik,
    e_step,
    fit,
)
from .io import (
    CountSeries,
    DataFormatError,
    discretize_counts,
    load_counts_csv,
    load_embedding_csv,
    load_events_csv,
    load_model,
    load_report,
    save_events_csv,
    save_model,
    save_report,
    write_curve_csv,
    write_embedding_csv,
    write_qq_csv,
)
from .model import (
    EmbeddingPair,
    EventRecord,
    KernelBank,
    ModelParams,
    NumericsWarning,
    compensator,
    influence_matrix,
    intensity,
    log_likelihood,
    response,
)
from .simulate import (
    GroundTruth,
    ground_truth_branching,
    sample_ground_truth,
    simulate_thinning,
)
from .spectral import diffusion_embed, init_params

__all__ = [
    "BranchingStructure",
    "CountSeries",
    "DataFormatError",
    "DegenerateEventError",
    "EmbeddingPair",
    "EvalSplit",
    "EventRecord",
    "FitConfig",
    "FitReport",
    "FullRankParams",
    "GammaPrior",
    "GroundTruth",
    "KernelBank",
    "MODES",
    "ModelParams",
    "NumericalError",
    "NumericsWarning",
    "background_qq",
    "categorical_accuracy",
    "compensator",
    "complete_data_loglik",
    "diffusion_embed",
    "discretize_counts",
    "e_step",
    "fit",
    "ground_truth_branching",
    "hellinger_divergence",
    "influence_matrix",
    "init_params",
    "intensity",
    "kendall_distance_correlation",
    "load_counts_csv",
    "load_embedding_csv",
    "load_events_csv",
    "load_model",
    "load_report",
    "log_likelihood",
    "phi_rmse",
    "response",
    "sample_ground_truth",
    "save_events_csv",
    "save_model",
    "save_report",
    "simulate_thinning",
    "split_eval",
    "write_curve_csv",
    "write_embedding_csv",
    "write_qq_csv",
]

__version__ = "0.1.0"
