"""Federated-learning simulator with loss-landscape constant probing,
convergence-bound evaluation, and node-usefulness analysis."""

from .analysis import (
    CDFSeries,
    UsefulnessRecord,
    correlate,
    empirical_cdf,
    node_usefulness,
    select_nodes,
)
from .bound import BoundParams, convergence_bound, estimate_initial_distance
from .config import CifarSource, ConfigError, ExperimentConfig, load_config
from .data import SyntheticSpec, gen_synthetic, gen_synthetic_nodes, load_cifar10
from .flsim import (
    FLRun,
    RoundRecord,
    ScenarioConfig,
    fedavg,
    local_round,
    partition_dataset,
    run_federated,
    run_federated_partitioned,
)
from .model import (
    Dataset,
    ModelSpec,
    gradient,
    init_params,
    loss,
    mlp_spec,
    param_dim,
    quadratic_spec,
    sgd_epoch,
    softmax_spec,
)
from .probe import (
    ConstantsEstimate,
    GaussianPerturbationSampler,
    InitDistributionSampler,
    ProbeSample,
    aggregate_global,
    compute_g,
    compute_m,
    draw_probe_pair,
    estimate_constants,
)

__version__ = "0.1.0"
