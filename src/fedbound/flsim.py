"""FedAvg state machine: partition, probe, local training, averaging, records.

A run proceeds in two phases. First every node probes its local loss
landscape at the initial parameter distribution, yielding per-node and
worst-case global (mu, L, G) estimates. Then T rounds of broadcast,
one-or-more local SGD epochs per node, and coordinate-wise averaging,
with per-round losses, usefulness deltas, and gradient-norm traces kept
for later analysis. Bound values per round are filled in after the run
finishes, once the optimum proxy (the best-training-loss parameters seen
anywhere in the run) is known.

Rounds run in lockstep: every node of a round starts from the same global
vector, so the nodes that hold equally many rows train as one ``(P, dim)``
stack, one stacked gradient call per SGD step. A round's usefulness losses
are one kernel call over the one test set, and its training loss is one
stacked loss call per group. Each stack row equals the node's own
single-vector computation bit for bit, so results do not depend on how
nodes are grouped.

All randomness derives from (config seed, phase, round, node), so serial
and parallel schedules produce identical results.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bound import BoundParams, convergence_bound, estimate_initial_distance
from .csvio import write_csv
from .model import (
    Dataset,
    ModelSpec,
    ParamVector,
    _check_params,
    _loss_and_grad_stacked,
    init_params,
    loss,
    sgd_epoch_traced,
)
from .probe import (
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
        if self.probe_sampler not in PROBE_SAMPLER_KINDS:
            raise ValueError(f"probe_sampler must be one of {PROBE_SAMPLER_KINDS}")
        if self.model is not None and self.model.kind != "quadratic":
            bad = [c for c in self.missing_classes if c < 0 or c >= self.model.num_classes]
            if bad:
                raise ValueError(f"missing class indices {bad} outside [0, num_classes)")


@dataclass(frozen=True)
class RoundRecord:
    """Observables of one federated round (losses at the aggregated model)."""

    t: int
    train_loss: float
    test_loss: float
    bound_value: float
    per_node_usefulness: dict[int, float]
    training_g_values: tuple[tuple[int, float], ...]

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

    def training_g_pooled(self) -> list[float]:
        return [g for record in self.rounds for _, g in record.training_g_values]

    def probe_g_pooled(self) -> list[float]:
        return [s.g_value for samples in self.probe_samples.values() for s in samples]


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


@dataclass(frozen=True)
class RoundData:
    """The rows every round of a run reads, stacked once per run.

    ``groups`` holds, for each set of nodes with equally many rows (in order
    of first appearance), their indices and their rows one block after
    another; ``test`` is the test set.
    """

    groups: tuple[tuple[list[int], Dataset], ...]
    test: Dataset

    @property
    def n_nodes(self) -> int:
        return sum(len(group) for group, _ in self.groups)


def round_data(nodes: Sequence[Dataset], test_data: Dataset) -> RoundData:
    by_size: dict[int, list[int]] = {}
    for i, local in enumerate(nodes):
        by_size.setdefault(len(local), []).append(i)
    groups = tuple(
        (group, Dataset.concat(nodes[i] for i in group)) for group in by_size.values()
    )
    return RoundData(groups, test_data)


def local_round(
    data: RoundData,
    global_params: ParamVector,
    cfg: ScenarioConfig,
    rng_seeds: Sequence[int],
    global_test_loss: float,
) -> tuple[np.ndarray, list[float], list[list[float]]]:
    """Replace every node's model with the global one and resume local training.

    ``data`` is ``round_data(nodes, test_data)``; ``rng_seeds[i]`` seeds node
    i's epochs. Nodes with equally many rows train in lockstep as one stack.
    ``global_test_loss`` is ``loss(cfg.model, global_params, test_data)``,
    which is the same for every node, so the caller computes it once. Returns,
    in node order, the ``(N, dim)`` stack of trained parameters, each node's
    usefulness delta (global test loss before minus after its local epochs),
    and each node's batch-gradient norms, one per SGD step.
    """
    n_nodes = data.n_nodes
    if len(rng_seeds) != n_nodes:
        raise ValueError(f"got {len(rng_seeds)} seeds for {n_nodes} nodes")
    start = np.asarray(global_params, dtype=np.float64)
    trained = np.empty((n_nodes, start.size))
    traces: list[list[float]] = [[] for _ in range(n_nodes)]
    for group, rows in data.groups:
        stack = np.tile(start, (len(group), 1))
        for epoch in range(cfg.local_epochs_per_round):
            seeds = [derive_seed(rng_seeds[i], epoch) for i in group]
            stack, norms = sgd_epoch_traced(
                cfg.model, stack, rows, cfg.lr, cfg.batch_size, seeds
            )
            for i, trace in zip(group, zip(*norms)):
                traces[i].extend(trace)
        trained[group] = stack
    # Every trained row on the one test set, in one kernel call; row i equals
    # loss(cfg.model, trained[i], data.test) bit for bit.
    trained = _check_params(cfg.model, trained, allow_stack=True)
    after, _ = _loss_and_grad_stacked(
        cfg.model, trained, data.test.features, data.test.labels, False
    )
    deltas = [global_test_loss - float(value) for value in after]
    return trained, deltas, traces


def local_sgd_seed(cfg_seed: int, round_index: int, node_id: int, epoch: int) -> int:
    """Seed of one node's SGD epoch within a round; for external reference runs."""
    return derive_seed(derive_seed(cfg_seed, "round", round_index, node_id), epoch)


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


def run_federated_partitioned(
    cfg: ScenarioConfig, test_data: Dataset, node_datasets
) -> FLRun:
    """The FedAvg engine, given already-built per-node datasets."""
    nodes = list(node_datasets)
    w1, probe_samples, node_constants, global_constants = probe_phase(cfg, nodes)
    if cfg.local_epochs_per_round != 1:
        warnings.warn(
            "bound values assume one local epoch per round; this config uses "
            f"{cfg.local_epochs_per_round}",
            stacklevel=2,
        )

    data = round_data(nodes, test_data)

    def train_loss_at(params: ParamVector) -> float:
        per_node = np.empty(len(nodes))
        for group, rows in data.groups:
            per_node[group] = loss(cfg.model, np.tile(params, (len(group), 1)), rows)
        return float(np.mean(per_node))

    current = w1
    candidates = [(train_loss_at(w1), w1)]
    test_loss = loss(cfg.model, w1, test_data)
    raw_rounds = []
    for t in range(1, cfg.rounds + 1):
        seeds = [derive_seed(cfg.seed, "round", t, i) for i in range(len(nodes))]
        trained, deltas, node_traces = local_round(data, current, cfg, seeds, test_loss)
        usefulness = dict(enumerate(deltas))
        traces = [(i, g) for i, trace in enumerate(node_traces) for g in trace]
        current = fedavg(trained)
        train_loss = train_loss_at(current)
        test_loss = loss(cfg.model, current, test_data)
        candidates.append((train_loss, current))
        raw_rounds.append(
            dict(
                t=t,
                train_loss=train_loss,
                test_loss=test_loss,
                per_node_usefulness=usefulness,
                training_g_values=tuple(traces),
            )
        )

    wstar_proxy = min(candidates, key=lambda pair: pair[0])[1]
    dist = estimate_initial_distance(w1, wstar_proxy)
    if global_constants.mu > 0.0:
        params = BoundParams(
            mu=global_constants.mu,
            L=global_constants.L,
            G=global_constants.G,
            init_distance=dist,
            squared_distance=cfg.squared_distance,
        )
        bounds = {t: convergence_bound(t, params) for t in range(1, cfg.rounds + 1)}
    else:
        warnings.warn(
            "probed mu is not positive; bound values are undefined for this run",
            stacklevel=2,
        )
        bounds = {t: float("nan") for t in range(1, cfg.rounds + 1)}

    records = tuple(RoundRecord(bound_value=bounds[r["t"]], **r) for r in raw_rounds)
    return FLRun(
        config=cfg,
        rounds=records,
        final_params=current,
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


def config_echo_lines(cfg: ScenarioConfig, extra: dict[str, str] | None = None) -> list[str]:
    """Plain-text key = value echo of a scenario, stable order."""
    model = cfg.model
    pairs: list[tuple[str, str]] = [
        ("scenario.n_nodes", str(cfg.n_nodes)),
        ("scenario.samples_per_node", str(cfg.samples_per_node)),
        ("scenario.rounds", str(cfg.rounds)),
        ("scenario.lr", format(cfg.lr, ".9g")),
        ("scenario.batch_size", str(cfg.batch_size)),
        ("scenario.local_epochs_per_round", str(cfg.local_epochs_per_round)),
        ("scenario.missing_classes", ",".join(str(c) for c in sorted(cfg.missing_classes))),
        ("scenario.test_fraction", format(cfg.test_fraction, ".9g")),
        ("scenario.seed", str(cfg.seed)),
        ("probe.n_probes", str(cfg.n_probes)),
        ("probe.sampler", cfg.probe_sampler),
        ("probe.perturb_sigma", format(cfg.perturb_sigma, ".9g")),
        ("probe.g_formula", cfg.g_formula),
        ("bound.squared_distance", "true" if cfg.squared_distance else "false"),
        ("model.kind", model.kind if model else ""),
        ("model.feature_dim", str(model.feature_dim) if model else ""),
        ("model.num_classes", str(model.num_classes) if model else ""),
        ("model.hidden_width", str(model.hidden_width) if model else ""),
        ("model.l2", format(model.l2_coefficient, ".9g") if model else ""),
    ]
    if cfg.local_epochs_per_round != 1:
        pairs.append(("warning.bound_assumptions", "local_epochs_per_round != 1"))
    for key in sorted(extra or {}):
        pairs.append((key, (extra or {})[key]))
    return [f"{key} = {value}" for key, value in pairs]


def save_run(run: FLRun, run_dir: Path | str, extra_config: dict[str, str] | None = None) -> None:
    """Serialize a run: config echo plus rounds/usefulness/gtrace/constants/probes CSVs."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(
        "\n".join(config_echo_lines(run.config, extra_config)) + "\n", encoding="utf-8"
    )
    write_csv(
        run_dir / "rounds.csv",
        ("t", "train_loss", "test_loss", "bound_value"),
        [(r.t, r.train_loss, r.test_loss, r.bound_value) for r in run.rounds],
    )
    write_csv(
        run_dir / "usefulness.csv",
        ("t", "node_id", "delta"),
        [
            (r.t, node_id, r.per_node_usefulness[node_id])
            for r in run.rounds
            for node_id in sorted(r.per_node_usefulness)
        ],
    )
    gtrace_rows: list[tuple[str, int, float]] = []
    for node_id in sorted(run.probe_samples):
        gtrace_rows.extend(("probe", node_id, s.g_value) for s in run.probe_samples[node_id])
    for record in run.rounds:
        gtrace_rows.extend(("training", node_id, g) for node_id, g in record.training_g_values)
    write_csv(run_dir / "gtrace.csv", ("source", "node_id", "value"), gtrace_rows)

    constants_rows = [
        (i, c.mu, c.L, c.G, c.n_probes) for i, c in sorted(run.node_constants.items())
    ]
    g = run.global_constants
    constants_rows.append((-1, g.mu, g.L, g.G, g.n_probes))
    write_csv(run_dir / "constants.csv", ("node_id", "mu", "L", "G", "n_probes"), constants_rows)
    write_probes_csv(run_dir / "probes.csv", run.probe_samples)
