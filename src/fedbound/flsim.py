"""FedAvg state machine: partition, probe, local training, averaging, records.

A run proceeds in three phases. :func:`probe_phase` probes every node's
local loss landscape at the initial parameter distribution, yielding
per-node and worst-case global (mu, L, G) estimates. :func:`training_phase`
runs T rounds of broadcast, one-or-more local SGD epochs per node, and
coordinate-wise averaging, keeping per-round losses, usefulness deltas, and
gradient-norm traces for later analysis; it never reads the probes.
:func:`bound_phase` then gives each round's bound value, once the optimum
proxy (the best-training-loss parameters seen anywhere in the run) is known.

Rounds run in lockstep: every node of a round starts from the same global
vector and holds equally many rows, so the N nodes train as one ``(N, dim)``
stack, one stacked gradient call per SGD step. A round's usefulness losses
are one kernel call over the one test set, and its training loss is one
stacked loss call. Each stack row equals the node's own single-vector
computation bit for bit.

All randomness derives from (config seed, phase, round, node), so serial
and parallel schedules produce identical results.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .bound import BoundParams, convergence_bound, estimate_initial_distance
from .csvio import write_csv
from .model import (
    Dataset,
    ModelSpec,
    ParamVector,
    _loss_and_grad_stacked,
    init_params,
    loss,
    sgd_epoch_traced,
)
from .probe import (
    G_FORMULAS,
    ConstantsEstimate,
    GaussianPerturbationSampler,
    InitDistributionSampler,
    ProbeSample,
    aggregate_global,
    collect_probes,
    constants_from_samples,
)
from .rng import derive_seed, spawn_rng

PROBE_SAMPLER_KINDS = ("init", "perturb")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one federated run depends on, including probe settings."""

    n_nodes: int
    samples_per_node: int
    rounds: int
    model: ModelSpec | None = None
    lr: float = 0.05
    batch_size: int = 32
    local_epochs_per_round: int = 1
    missing_classes: frozenset[int] = frozenset()
    test_fraction: float = 0.1
    n_probes: int = 100
    probe_sampler: str = "init"
    perturb_sigma: float = 0.1
    g_formula: str = "gradient-norm"
    squared_distance: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.samples_per_node < 1:
            raise ValueError("samples_per_node must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.lr < 0.0:
            raise ValueError("lr must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.local_epochs_per_round < 1:
            raise ValueError("local_epochs_per_round must be >= 1")
        if not 0.0 <= self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in [0, 1)")
        if self.n_probes < 2:
            raise ValueError("n_probes must be >= 2")
        if not (math.isfinite(self.perturb_sigma) and self.perturb_sigma > 0.0):
            raise ValueError("perturb_sigma must be a finite number > 0")
        if self.probe_sampler not in PROBE_SAMPLER_KINDS:
            raise ValueError(f"probe_sampler must be one of {PROBE_SAMPLER_KINDS}")
        if self.g_formula not in G_FORMULAS:
            raise ValueError(f"g_formula must be one of {G_FORMULAS}")
        if self.model is not None and self.model.kind != "quadratic":
            k = self.model.num_classes
            bad = sorted(c for c in self.missing_classes if c < 0 or c >= k)
            if bad:
                raise ValueError(f"missing_classes {bad} outside [0, {k})")


@dataclass(frozen=True)
class RoundRecord:
    """Observables of one federated round (losses at the aggregated model).

    ``per_node_usefulness[i]`` is node i's delta in global test loss, and row
    i of the ``(N, steps)`` array ``training_g_values`` its batch-gradient
    norms, one per SGD step, in step order.
    """

    t: int
    train_loss: float
    test_loss: float
    bound_value: float
    per_node_usefulness: np.ndarray
    training_g_values: np.ndarray

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("round index starts at 1")
        if not (np.isfinite(self.train_loss) and np.isfinite(self.test_loss)):
            raise ValueError("losses must be finite")
        if not np.isfinite(self.per_node_usefulness).all():
            raise ValueError("usefulness must be finite")


@dataclass(frozen=True)
class FLRun:
    """A finished federated run with everything the analysis stage consumes;
    ``node_constants[i]`` and ``probe_samples[i]`` are node i's."""

    config: ScenarioConfig
    rounds: tuple[RoundRecord, ...]
    final_params: ParamVector
    global_constants: ConstantsEstimate
    node_constants: tuple[ConstantsEstimate, ...]
    probe_samples: tuple[tuple[ProbeSample, ...], ...]
    wstar_proxy: ParamVector
    init_distance: float

    def __post_init__(self):
        if len(self.rounds) != self.config.rounds:
            raise ValueError(
                f"run has {len(self.rounds)} rounds, config says {self.config.rounds}"
            )

    def training_g_pooled(self) -> np.ndarray:
        """Every training norm, round by round and node by node within a round."""
        return np.concatenate([record.training_g_values for record in self.rounds], axis=None)

    def probe_g_pooled(self) -> np.ndarray:
        return np.array([s.g_value for samples in self.probe_samples for s in samples])


def held_out_size(cfg: ScenarioConfig, n: int) -> int:
    """Rows :func:`partition_dataset` holds out for testing from ``n`` rows."""
    return int(round(cfg.test_fraction * n))


def partition_dataset(
    data: Dataset, cfg: ScenarioConfig, rng_seed: int
) -> tuple[Dataset, list[Dataset]]:
    """Split a global dataset into a held-out test set and disjoint node sets.

    The test split keeps every class; only the training side drops samples
    of the configured missing classes.
    """
    n = len(data)
    rng = spawn_rng("partition", rng_seed)
    order = rng.permutation(n)
    n_test = held_out_size(cfg, n)
    test_idx = order[:n_test]
    pool = order[n_test:]
    if cfg.missing_classes:
        keep = ~np.isin(data.labels[pool], sorted(cfg.missing_classes))
        pool = pool[keep]
    need = cfg.n_nodes * cfg.samples_per_node
    if len(pool) < need:
        raise ValueError(
            f"insufficient data: need {need} training samples after filtering, have {len(pool)}"
        )
    nodes = [
        data.subset(pool[i * cfg.samples_per_node : (i + 1) * cfg.samples_per_node])
        for i in range(cfg.n_nodes)
    ]
    return data.subset(test_idx), nodes


def fedavg(models) -> ParamVector:
    """Coordinate-wise arithmetic mean of equally-weighted parameter vectors."""
    models = [np.asarray(m, dtype=np.float64) for m in models]
    if not models:
        raise ValueError("need at least one model")
    dim = models[0].shape
    if any(m.shape != dim for m in models):
        raise ValueError("parameter vectors differ in shape")
    return np.mean(np.stack(models), axis=0)


def local_round(
    rows: Dataset,
    test_data: Dataset,
    global_params: ParamVector,
    cfg: ScenarioConfig,
    rng_seeds: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Replace every node's model with the global one and resume local training.

    ``rows`` holds the N nodes' equal row blocks, which train in lockstep as
    one stack, node i's epochs seeded from ``rng_seeds[i]``. Returns the
    ``(N, dim)`` trained stack, each trained row's loss on ``test_data`` as
    an ``(N,)`` array, and the ``(N, steps)`` array of each node's
    batch-gradient norms, one per SGD step.
    """
    stack = np.tile(np.asarray(global_params, dtype=np.float64), (len(rng_seeds), 1))
    norms = []
    for epoch in range(cfg.local_epochs_per_round):
        seeds = [derive_seed(seed, epoch) for seed in rng_seeds]
        stack, epoch_norms = sgd_epoch_traced(cfg.model, stack, rows, cfg.lr, cfg.batch_size, seeds)
        norms.append(epoch_norms)
    # Every trained row on the one test set, in one kernel call; row i equals
    # loss(cfg.model, stack[i], test_data) bit for bit. sgd_epoch_traced
    # has checked that every row is finite.
    after, _ = _loss_and_grad_stacked(cfg.model, stack, test_data.features, test_data.labels, False)
    return stack, after, np.concatenate(norms).T


def _check_equal_sizes(node_datasets: Sequence[Dataset]) -> None:
    """The bound is for equally weighted FedAvg, so every node holds equally many rows."""
    sizes = [len(local) for local in node_datasets]
    if len(set(sizes)) > 1:
        raise ValueError(f"node datasets differ in size: {sizes}")


def probe_phase(
    cfg: ScenarioConfig, node_datasets: Sequence[Dataset]
) -> tuple[
    ParamVector,
    tuple[tuple[ProbeSample, ...], ...],
    tuple[ConstantsEstimate, ...],
    ConstantsEstimate,
]:
    """Phase 1 of a run: probe every node's loss landscape around w1.

    Node i probes with seed ``derive_seed(cfg.seed, "probe", i)``, drawing
    fresh parameter vectors or jitter around w1 per ``cfg.probe_sampler``.
    Returns w1 (the initial global parameters), then in node order each
    node's probe samples and (mu, L, G), and their worst-case global aggregate.
    """
    if cfg.model is None:
        raise ValueError("config has no model spec")
    if len(node_datasets) != cfg.n_nodes:
        raise ValueError(f"expected {cfg.n_nodes} node datasets, got {len(node_datasets)}")
    _check_equal_sizes(node_datasets)
    w1 = init_params(cfg.model, derive_seed(cfg.seed, "init"))
    if cfg.probe_sampler == "init":
        sampler = InitDistributionSampler()
    else:
        sampler = GaussianPerturbationSampler(center=tuple(w1), sigma=cfg.perturb_sigma)
    probe_samples = tuple(
        collect_probes(
            cfg.model, local, cfg.n_probes, sampler,
            derive_seed(cfg.seed, "probe", i), cfg.g_formula,
        )
        for i, local in enumerate(node_datasets)
    )
    node_constants = tuple(map(constants_from_samples, probe_samples))
    return w1, probe_samples, node_constants, aggregate_global(node_constants)


def training_phase(
    cfg: ScenarioConfig, w1: ParamVector, test_data: Dataset, node_datasets: Sequence[Dataset]
) -> tuple[tuple[RoundRecord, ...], ParamVector, ParamVector]:
    """Phase 2 of a run: ``cfg.rounds`` FedAvg rounds from w1 over the given nodes,
    which must hold equally many rows (the bound is for equally weighted FedAvg).

    Node i of round t trains with seed ``derive_seed(cfg.seed, "round", t, i)``;
    the probes are never read, so a subset of a run's nodes trains the same
    whether or not they were probed first. Returns the round records (their
    ``bound_value`` is NaN until :func:`bound_phase` gives it), the final
    global parameters, and the optimum proxy: the parameters, w1 included,
    with the lowest mean training loss over the nodes.
    """
    _check_equal_sizes(node_datasets)
    rows = Dataset.concat(node_datasets)
    n_nodes = len(node_datasets)

    def train_loss_at(params: ParamVector) -> float:
        return float(np.mean(loss(cfg.model, np.tile(params, (n_nodes, 1)), rows)))

    current = w1
    candidates = [(train_loss_at(w1), w1)]
    test_loss = loss(cfg.model, w1, test_data)
    records = []
    for t in range(1, cfg.rounds + 1):
        seeds = [derive_seed(cfg.seed, "round", t, i) for i in range(n_nodes)]
        trained, after, norms = local_round(rows, test_data, current, cfg, seeds)
        deltas = test_loss - after
        current = fedavg(trained)
        train_loss = train_loss_at(current)
        test_loss = loss(cfg.model, current, test_data)
        candidates.append((train_loss, current))
        records.append(
            RoundRecord(
                t=t,
                train_loss=train_loss,
                test_loss=test_loss,
                bound_value=float("nan"),
                per_node_usefulness=deltas,
                training_g_values=norms,
            )
        )
    wstar_proxy = min(candidates, key=lambda pair: pair[0])[1]
    return tuple(records), current, wstar_proxy


def bound_phase(
    cfg: ScenarioConfig, global_constants: ConstantsEstimate, init_distance: float
) -> list[float]:
    """Phase 3 of a run: the convergence bound of rounds 1..T, all NaN (with
    a warning) unless the probed mu is positive. It assumes one local epoch
    per round, and warns if the config runs more."""
    if cfg.local_epochs_per_round != 1:
        warnings.warn(
            "bound values assume one local epoch per round; this config uses "
            f"{cfg.local_epochs_per_round}",
            stacklevel=3,
        )
    if not global_constants.mu > 0.0:
        warnings.warn(
            "probed mu is not positive; bound values are undefined for this run",
            stacklevel=3,
        )
        return [float("nan")] * cfg.rounds
    params = BoundParams(
        mu=global_constants.mu,
        L=global_constants.L,
        G=global_constants.G,
        init_distance=init_distance,
        squared_distance=cfg.squared_distance,
    )
    return [convergence_bound(t, params) for t in range(1, cfg.rounds + 1)]


def run_federated_partitioned(
    cfg: ScenarioConfig, test_data: Dataset, node_datasets
) -> FLRun:
    """The FedAvg engine, given already-built per-node datasets: probe, train, bound."""
    nodes = list(node_datasets)
    w1, probe_samples, node_constants, global_constants = probe_phase(cfg, nodes)
    rounds, final_params, wstar_proxy = training_phase(cfg, w1, test_data, nodes)
    dist = estimate_initial_distance(w1, wstar_proxy)
    bounds = bound_phase(cfg, global_constants, dist)
    return FLRun(
        config=cfg,
        rounds=tuple(replace(r, bound_value=b) for r, b in zip(rounds, bounds)),
        final_params=final_params,
        global_constants=global_constants,
        node_constants=node_constants,
        probe_samples=probe_samples,
        wstar_proxy=wstar_proxy,
        init_distance=dist,
    )


def run_federated(cfg: ScenarioConfig, data: Dataset) -> FLRun:
    """Partition a global dataset per the config, then run the engine."""
    test_data, node_datasets = partition_dataset(data, cfg, derive_seed(cfg.seed, "partition"))
    return run_federated_partitioned(cfg, test_data, node_datasets)


def save_run(run: FLRun, run_dir: Path | str, config_lines: Sequence[str]) -> None:
    """Serialize a run: ``config_lines`` as config.txt, plus rounds/usefulness/
    gtrace/constants/probes CSVs."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text("\n".join(config_lines) + "\n", encoding="utf-8")
    rounds = run.rounds
    write_csv(
        run_dir / "rounds.csv",
        ("t", "train_loss", "test_loss", "bound_value"),
        (
            [r.t for r in rounds],
            [r.train_loss for r in rounds],
            [r.test_loss for r in rounds],
            [r.bound_value for r in rounds],
        ),
    )
    deltas = np.stack([r.per_node_usefulness for r in rounds])
    n_rounds, n_nodes = deltas.shape
    write_csv(
        run_dir / "usefulness.csv",
        ("t", "node_id", "delta"),
        (
            np.repeat([r.t for r in rounds], n_nodes),
            np.tile(np.arange(n_nodes), n_rounds),
            deltas.ravel(),
        ),
    )
    # gtrace.csv: every node's probe g values, then every round's training
    # norms node by node.
    probe_counts = [len(samples) for samples in run.probe_samples]
    probe_ids = np.repeat(np.arange(len(probe_counts)), probe_counts)
    steps = rounds[0].training_g_values.shape[1]
    training_ids = np.tile(np.repeat(np.arange(n_nodes), steps), n_rounds)
    probe_g, training_g = run.probe_g_pooled(), run.training_g_pooled()
    write_csv(
        run_dir / "gtrace.csv",
        ("source", "node_id", "value"),
        (
            ["probe"] * probe_g.size + ["training"] * training_g.size,
            np.concatenate([probe_ids, training_ids]),
            np.concatenate([probe_g, training_g]),
        ),
    )

    estimates = (*run.node_constants, run.global_constants)
    write_csv(
        run_dir / "constants.csv",
        ("node_id", "mu", "L", "G", "n_probes"),
        (
            [*range(len(run.node_constants)), -1],
            [c.mu for c in estimates],
            [c.L for c in estimates],
            [c.G for c in estimates],
            [c.n_probes for c in estimates],
        ),
    )
    write_csv(
        run_dir / "probes.csv",
        ("node_id", "probe_index", "m_value", "g_value"),
        (
            probe_ids,
            np.concatenate([np.arange(count) for count in probe_counts]),
            [s.m_value for samples in run.probe_samples for s in samples],
            probe_g,
        ),
    )
