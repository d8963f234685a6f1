"""Trajectory statistics and generalization bounds for small-model training."""

from .bounds import (
    BoundReport,
    ConstantEstimates,
    bound_stability_baseline,
    bound_trajectory_main,
    bound_trajectory_relaxed,
    bound_trajectory_smooth,
    estimate_constants,
    reevaluate_bound,
    write_bounds_csv,
)
from .config import ExperimentConfig, default_config, emit_config, parse_config
from .data import Dataset, ToyConfig, generate_toy, inject_label_noise
from .errors import (
    ConfigError,
    DataSchemaError,
    DimensionMismatchError,
    DivergedError,
    IncompleteTrajectoryError,
    InvalidArgumentError,
    NumericDomainError,
    TrajboundError,
)
from .models import (
    ModelSpec,
    grad_mean,
    hessian_operator,
    hessian_vector_product,
    init_params,
    linear_spec,
    loss_grad_stats,
    losses_batch,
    mlp_spec,
    per_sample_grads,
)
from .numerics import RngStream, power_iteration_top_eig
from .optim import OptimConfig, Schedule, TrainResult, lr_at, train
from .trajectory import (
    SubsetEstimatorConfig,
    TrajectoryRecorder,
    TrajectorySnapshot,
    complexity_update,
    gamma_tilde,
    gen_decomposition,
    grad_trace_sigma,
    noise_cov_scale,
    replay_trajectory,
    rp_trp_gd,
    write_trajectory_csv,
)

__version__ = "0.1.0"
