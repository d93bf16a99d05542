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
from itertools import chain
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
    write_probes_csv,
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

    ``training_g_values[i]`` holds node i's batch-gradient norms, one per
    SGD step, in step order.
    """

    t: int
    train_loss: float
    test_loss: float
    bound_value: float
    per_node_usefulness: dict[int, float]
    training_g_values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("round index starts at 1")
        if not (np.isfinite(self.train_loss) and np.isfinite(self.test_loss)):
            raise ValueError("losses must be finite")


@dataclass(frozen=True)
class FLRun:
    """A finished federated run with everything the analysis stage consumes."""

    config: ScenarioConfig
    rounds: tuple[RoundRecord, ...]
    final_params: ParamVector
    global_constants: ConstantsEstimate
    node_constants: dict[int, ConstantsEstimate]
    probe_samples: dict[int, tuple[ProbeSample, ...]]
    initial_params: ParamVector
    wstar_proxy: ParamVector
    init_distance: float

    def __post_init__(self):
        if len(self.rounds) != self.config.rounds:
            raise ValueError(
                f"run has {len(self.rounds)} rounds, config says {self.config.rounds}"
            )

    def training_g_pooled(self) -> np.ndarray:
        """Every training norm, round by round and node by node within a round."""
        traces = [trace for record in self.rounds for trace in record.training_g_values]
        return _pooled(traces)

    def probe_g_pooled(self) -> np.ndarray:
        return np.array([s.g_value for samples in self.probe_samples.values() for s in samples])


def _pooled(segments: list[Sequence[float]]) -> np.ndarray:
    """The segments one after another as one float64 array, read in one pass
    (np.concatenate would first make an array of each short segment)."""
    return np.fromiter(chain.from_iterable(segments), np.float64, sum(map(len, segments)))


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
    global_test_loss: float,
) -> tuple[np.ndarray, list[float], list[list[float]]]:
    """Replace every node's model with the global one and resume local training.

    ``rows`` holds the N nodes' equal row blocks, which train in lockstep as
    one stack, node i's epochs seeded from ``rng_seeds[i]``. The caller gives
    ``global_test_loss = loss(cfg.model, global_params, test_data)`` once for
    all nodes. Returns, in node order, the ``(N, dim)`` trained stack, each
    node's usefulness delta (global test loss before minus after its local
    epochs), and each node's batch-gradient norms, one per SGD step.
    """
    stack = np.tile(np.asarray(global_params, dtype=np.float64), (len(rng_seeds), 1))
    traces: list[list[float]] = [[] for _ in rng_seeds]
    for epoch in range(cfg.local_epochs_per_round):
        seeds = [derive_seed(seed, epoch) for seed in rng_seeds]
        stack, norms = sgd_epoch_traced(cfg.model, stack, rows, cfg.lr, cfg.batch_size, seeds)
        for trace, node_norms in zip(traces, zip(*norms)):
            trace.extend(node_norms)
    # Every trained row on the one test set, in one kernel call; row i equals
    # loss(cfg.model, stack[i], test_data) bit for bit. sgd_epoch_traced
    # has checked that every row is finite.
    after, _ = _loss_and_grad_stacked(cfg.model, stack, test_data.features, test_data.labels, False)
    deltas = [global_test_loss - float(value) for value in after]
    return stack, deltas, traces


def probe_phase(
    cfg: ScenarioConfig, node_datasets: Sequence[Dataset]
) -> tuple[
    ParamVector,
    dict[int, tuple[ProbeSample, ...]],
    dict[int, ConstantsEstimate],
    ConstantsEstimate,
]:
    """Phase 1 of a run: probe every node's loss landscape around w1.

    Node i probes with seed ``derive_seed(cfg.seed, "probe", i)``, drawing
    fresh parameter vectors or jitter around w1 per ``cfg.probe_sampler``.
    Returns w1 (the initial global parameters), each node's probe samples,
    each node's (mu, L, G) and their worst-case global aggregate.
    """
    if cfg.model is None:
        raise ValueError("config has no model spec")
    if len(node_datasets) != cfg.n_nodes:
        raise ValueError(f"expected {cfg.n_nodes} node datasets, got {len(node_datasets)}")
    w1 = init_params(cfg.model, derive_seed(cfg.seed, "init"))
    if cfg.probe_sampler == "init":
        sampler = InitDistributionSampler()
    else:
        sampler = GaussianPerturbationSampler(center=tuple(w1), sigma=cfg.perturb_sigma)
    probe_samples = {
        i: collect_probes(
            cfg.model, local, cfg.n_probes, sampler,
            derive_seed(cfg.seed, "probe", i), cfg.g_formula,
        )
        for i, local in enumerate(node_datasets)
    }
    node_constants = {i: constants_from_samples(s) for i, s in probe_samples.items()}
    return w1, probe_samples, node_constants, aggregate_global(node_constants.values())


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
    sizes = [len(local) for local in node_datasets]
    if len(set(sizes)) > 1:
        raise ValueError(f"node datasets differ in size: {sizes}")
    rows = Dataset.concat(node_datasets)
    n_nodes = len(sizes)

    def train_loss_at(params: ParamVector) -> float:
        return float(np.mean(loss(cfg.model, np.tile(params, (n_nodes, 1)), rows)))

    current = w1
    candidates = [(train_loss_at(w1), w1)]
    test_loss = loss(cfg.model, w1, test_data)
    records = []
    for t in range(1, cfg.rounds + 1):
        seeds = [derive_seed(cfg.seed, "round", t, i) for i in range(n_nodes)]
        trained, deltas, node_traces = local_round(rows, test_data, current, cfg, seeds, test_loss)
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
                per_node_usefulness=dict(enumerate(deltas)),
                training_g_values=tuple(map(tuple, node_traces)),
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
        initial_params=w1,
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
    useful = [(r, sorted(r.per_node_usefulness)) for r in rounds]
    write_csv(
        run_dir / "usefulness.csv",
        ("t", "node_id", "delta"),
        (
            [r.t for r, ids in useful for _ in ids],
            [i for _, ids in useful for i in ids],
            [r.per_node_usefulness[i] for r, ids in useful for i in ids],
        ),
    )
    # gtrace.csv: every node's probe g values, then every round's training
    # norms node by node, one segment per (source, node).
    probe_ids = sorted(run.probe_samples)
    probe_g = [[s.g_value for s in run.probe_samples[i]] for i in probe_ids]
    training_ids = [i for r in rounds for i in range(len(r.training_g_values))]
    training_g = [trace for r in rounds for trace in r.training_g_values]
    segments = probe_g + training_g
    n_probe = sum(map(len, probe_g))
    values = _pooled(segments)
    write_csv(
        run_dir / "gtrace.csv",
        ("source", "node_id", "value"),
        (
            ["probe"] * n_probe + ["training"] * (values.size - n_probe),
            np.repeat(probe_ids + training_ids, list(map(len, segments))),
            values,
        ),
    )

    estimates = sorted(run.node_constants.items()) + [(-1, run.global_constants)]
    write_csv(
        run_dir / "constants.csv",
        ("node_id", "mu", "L", "G", "n_probes"),
        (
            [i for i, _ in estimates],
            [c.mu for _, c in estimates],
            [c.L for _, c in estimates],
            [c.G for _, c in estimates],
            [c.n_probes for _, c in estimates],
        ),
    )
    write_probes_csv(run_dir / "probes.csv", run.probe_samples)
