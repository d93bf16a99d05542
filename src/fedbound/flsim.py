"""FedAvg state machine: partition, probe, local training, averaging, records.

A run proceeds in three phases. :func:`probe_phase` probes every node's
local loss landscape, on a view of its rows, at the initial parameter
distribution, yielding per-node and worst-case global (mu, L, G) estimates.
:func:`training_phase` runs T rounds of broadcast, one-or-more local SGD
epochs per node, and coordinate-wise averaging, keeping per-round losses,
usefulness deltas, and gradient-norm traces as arrays with one row per round;
it never reads the probes. :func:`bound_phase` then gives each round's bound
value, once the optimum proxy (the best-training-loss parameters seen anywhere
in the run) is known, and its caveats as notes that :class:`FLRun` keeps in
``bound_notes``.

Rounds run in lockstep: node i holds rows ``i * n`` to ``(i + 1) * n`` of one
node-major block, never split into per-node copies, and every node of a round
starts from the same global vector, so the N nodes train as one ``(N, dim)``
stack, one stacked gradient call per SGD step. A round's test losses, those
of the N trained rows and of their average, are one kernel call over the one
test set, and its training loss is one stacked loss call. Each stack row
equals the node's own single-vector computation bit for bit.

All randomness derives from (config seed, phase, round, node), so results do
not depend on the order in which seeds, rounds or nodes run. The generators
of every SGD shuffle of a run are seeded in one vectorized pass before its
first round.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .bound import BoundParams, convergence_bound, estimate_initial_distance
from .csvio import RUN_TABLES, write_csv
from .data import CifarSource, SyntheticSpec, gen_synthetic, gen_synthetic_nodes
from .model import (
    Dataset,
    DivergenceError,
    ModelSpec,
    ParamVector,
    init_params,
    loss,
    sgd_epoch_traced,
    shared_data_loss,
)
from .probe import (
    G_FORMULAS,
    ConstantsEstimate,
    ProbeFailure,
    aggregate_global,
    collect_probes,
    constants_from_samples,
)
from .rng import derive_seed, derive_seeds, permutations, seed_states, spawn_rng

PROBE_SAMPLER_KINDS = ("init", "perturb")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one federated run depends on, including probe settings."""

    n_nodes: int
    samples_per_node: int
    rounds: int
    model: ModelSpec
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
        if not 0.0 <= self.lr < math.inf:
            raise ValueError("lr must be finite and >= 0")
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
        if self.model.kind != "quadratic":
            k = self.model.num_classes
            bad = sorted(c for c in self.missing_classes if c < 0 or c >= k)
            if bad:
                raise ValueError(f"missing_classes {bad} outside [0, {k})")


@dataclass(frozen=True)
class Probed:
    """A :func:`probe_phase` result: w1, the initial global parameters; the ``(N, n_probes, 2)``
    array of every node's (m, g) samples in probe order; each node's (mu, L, G) and their
    worst-case global aggregate."""

    w1: ParamVector
    samples: np.ndarray
    node_constants: tuple[ConstantsEstimate, ...]
    global_constants: ConstantsEstimate


@dataclass(frozen=True)
class Trained:
    """A :func:`training_phase` result. Round t's observables sit at row t - 1 of
    each column: ``train_loss`` and ``test_loss`` are ``(T,)``, the losses at the
    aggregated model, ``usefulness[t - 1, i]`` is node i's delta in global test
    loss and ``training_g[t - 1, i]`` its batch-gradient norms, one per SGD step
    in step order. ``final_params`` are the last global parameters and
    ``wstar_proxy`` the optimum proxy."""

    train_loss: np.ndarray
    test_loss: np.ndarray
    usefulness: np.ndarray
    training_g: np.ndarray
    final_params: ParamVector
    wstar_proxy: ParamVector

    def __post_init__(self):
        columns = (self.train_loss, self.test_loss, self.usefulness, self.training_g)
        rounds = sorted({len(column) for column in columns})
        if len(rounds) > 1:
            raise ValueError(f"training columns differ in round count: {rounds}")
        if not (np.isfinite(self.train_loss).all() and np.isfinite(self.test_loss).all()):
            raise ValueError("losses must be finite")
        if not np.isfinite(self.usefulness).all():
            raise ValueError("usefulness must be finite")


@dataclass(frozen=True)
class FLRun:
    """A finished federated run with everything the analysis stage consumes:
    ``probed``, the probe result it trained after; ``trained``, its training
    result; ``bound_value``, round t's bound at row t - 1; and ``bound_notes``,
    the caveats of :func:`bound_phase`."""

    config: ScenarioConfig
    probed: Probed
    trained: Trained
    bound_value: np.ndarray
    bound_notes: tuple[str, ...] = ()

    def __post_init__(self):
        for column in (self.trained.train_loss, self.bound_value):
            if len(column) != self.config.rounds:
                raise ValueError(f"run has {len(column)} rounds, config says {self.config.rounds}")


class ShortfallError(ValueError):
    """A shared pool leaves too few training rows for the nodes."""


class EmptyTestSplitError(ValueError):
    """The held-out share of a shared pool rounds to zero rows."""


def partition_dataset(
    data: Dataset | CifarSource, cfg: ScenarioConfig, rng_seed: int
) -> tuple[Dataset, Dataset]:
    """Split a global pool into a held-out test set and a node-major block of node sets.

    Only the pool's ``labels`` and ``subset`` are read, one ``subset`` call a
    split, so of a :class:`CifarSource` only the gathered rows become float64,
    once. The test split keeps every class; only the training side drops
    samples of the configured missing classes. Too few training rows for the
    nodes raise :class:`ShortfallError`, then a test split of no row
    :class:`EmptyTestSplitError`.
    """
    n = len(data.labels)
    rng = spawn_rng("partition", rng_seed)
    order = rng.permutation(n)
    n_test = int(round(cfg.test_fraction * n))
    test_idx = order[:n_test]
    pool = order[n_test:]
    if cfg.missing_classes:
        keep = ~np.isin(data.labels[pool], sorted(cfg.missing_classes))
        pool = pool[keep]
    need = cfg.n_nodes * cfg.samples_per_node
    if len(pool) < need:
        dropped = f" and leaving out classes {sorted(cfg.missing_classes)}"
        raise ShortfallError(
            f"insufficient data: need {need} training samples, have {len(pool)} of {n} "
            f"after holding out {n_test}{dropped if cfg.missing_classes else ''}"
        )
    if n_test == 0:
        raise EmptyTestSplitError(
            f"test_fraction {cfg.test_fraction:g} leaves the test split empty"
        )
    return data.subset(test_idx), data.subset(pool[:need])


def node_datasets(
    source: SyntheticSpec | CifarSource, cfg: ScenarioConfig
) -> tuple[Dataset, Dataset]:
    """The test set and the node-major block of training rows of a run of ``cfg``.

    CIFAR-10 and a synthetic pool without ``feature_scale`` are partitioned;
    a synthetic spec with ``feature_scale`` generates each node on its own, then
    joins them, with a test set sized to ``test_fraction`` of all rows.
    """
    pool = source
    if isinstance(source, SyntheticSpec):
        if source.feature_scale:
            total_train = cfg.n_nodes * cfg.samples_per_node
            frac = cfg.test_fraction
            n_test = max(1, int(round(frac / (1.0 - frac) * total_train)))
            test, nodes = gen_synthetic_nodes(
                source, cfg.n_nodes, cfg.samples_per_node, n_test, cfg.seed, cfg.missing_classes
            )
            return test, Dataset.concat(nodes)
        pool = gen_synthetic(source, cfg.seed)
    return partition_dataset(pool, cfg, derive_seed(cfg.seed, "partition"))


def fedavg(models) -> ParamVector:
    """Coordinate-wise arithmetic mean of the rows of an ``(N, dim)`` stack of
    equally-weighted parameter vectors."""
    models = np.asarray(models, dtype=np.float64)
    if models.ndim != 2 or not len(models):
        raise ValueError(f"need an (N, dim) stack of N >= 1 models, got shape {models.shape}")
    return models.mean(axis=0)


def shuffle_states(round_seeds: Sequence[Sequence[int]], epochs: int) -> np.ndarray:
    """The generators of every SGD shuffle of some rounds, seeded in one pass.

    ``round_seeds[r][i]`` is node i's seed in round r. Returns the
    ``(rounds, epochs, N, 4)`` array of :func:`rng.seed_states` whose entry
    ``[r, e, i]`` is ``spawn_rng("sgd", derive_seed(round_seeds[r][i], e))``:
    32 bytes a generator, not the ``(rounds, epochs, N, n)`` row orders.
    """
    seeds = [
        derive_seed(seed, epoch)
        for nodes in round_seeds
        for epoch in range(epochs)
        for seed in nodes
    ]
    return seed_states("sgd", seeds).reshape(len(round_seeds), epochs, -1, 4)


def local_round(
    rows: Dataset, global_params: ParamVector, cfg: ScenarioConfig, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Replace every node's model with the global one and resume local training.

    ``rows`` holds the N nodes' equal row blocks, which train in lockstep as
    one stack. ``states`` is one round of :func:`shuffle_states`: epoch e
    orders node i's block by the ``permutation(n)`` drawn from ``states[e, i]``.
    Returns the ``(N, dim)`` trained stack and the ``(N, steps)`` array of each
    node's batch-gradient norms, one per SGD step. A ValueError names the node,
    the epoch if there are several, and the SGD step that left non-finite parameters.
    """
    epochs, n_nodes, _ = states.shape
    stack = np.tile(np.asarray(global_params, dtype=np.float64), (n_nodes, 1))
    n = len(rows) // n_nodes
    norms = []
    for epoch, epoch_states in enumerate(states, 1):
        order = permutations(epoch_states, n)
        try:
            stack, epoch_norms = sgd_epoch_traced(
                cfg.model, stack, rows, cfg.lr, cfg.batch_size, order
            )
        except DivergenceError as exc:
            where = f"node {exc.row}: " + (f"epoch {epoch}: " if epochs > 1 else "")
            raise ValueError(f"{where}SGD step {exc.step} left non-finite parameters") from exc
        norms.append(epoch_norms)
    return stack, np.concatenate(norms).T


def initial_params(cfg: ScenarioConfig) -> ParamVector:
    """w1, the global parameters every run of seed ``cfg.seed`` starts from."""
    return init_params(cfg.model, derive_seed(cfg.seed, "init"))


def _rows_per_node(cfg: ScenarioConfig, rows: Dataset) -> int:
    """Each node's rows in a node-major block; the bound is for equally weighted FedAvg."""
    n, rest = divmod(len(rows), cfg.n_nodes)
    if rest:
        raise ValueError(f"{len(rows)} rows do not split into {cfg.n_nodes} equal node blocks")
    return n


@dataclass(frozen=True)
class Setup:
    """A seed's set-up: the seeded scenario it was built for, its test set, the
    node-major block of its nodes' training rows and their probe result."""

    scenario: ScenarioConfig
    test: Dataset
    rows: Dataset
    probed: Probed


def probe_phase(cfg: ScenarioConfig, rows: Dataset) -> Probed:
    """Phase 1 of a run: probe every node's loss landscape around w1.

    Node i probes its view ``rows.subset(slice(i * n, (i + 1) * n))`` with seed
    ``derive_seed(cfg.seed, "probe", i)``, drawing fresh parameter vectors under
    ``cfg.probe_sampler`` ``init`` and ``w1 + cfg.perturb_sigma * z`` under
    ``perturb``. A :class:`ProbeFailure` names the node whose probe failed.
    """
    n = _rows_per_node(cfg, rows)
    w1 = initial_params(cfg)
    affine = {} if cfg.probe_sampler == "init" else {"center": w1, "scale": cfg.perturb_sigma}
    node_seeds = derive_seeds((cfg.seed, "probe"), range(cfg.n_nodes))
    samples = []
    for node, node_seed in enumerate(node_seeds):
        local = rows.subset(slice(node * n, (node + 1) * n))
        try:
            samples.append(
                collect_probes(cfg.model, local, cfg.n_probes, node_seed, cfg.g_formula, **affine)
            )
        except ProbeFailure as exc:
            raise ProbeFailure(exc.probe_index, exc.reason, node) from exc.__cause__
    probe_samples = np.stack(samples)
    node_constants = tuple(map(constants_from_samples, probe_samples))
    return Probed(w1, probe_samples, node_constants, aggregate_global(node_constants))


@np.errstate(all="ignore")
def training_phase(
    cfg: ScenarioConfig, w1: ParamVector, test_data: Dataset, rows: Dataset
) -> Trained:
    """Phase 2 of a run: ``cfg.rounds`` FedAvg rounds from w1 over ``rows``, the
    node-major block of ``cfg.n_nodes`` equal node blocks, trained as it is.

    Node i of round t trains with seed ``derive_seed(cfg.seed, "round", t, i)``
    (see :func:`shuffle_states`); the probes are never read, so a subset of a
    run's nodes trains the same whether or not they were probed first. Every
    shuffle of the run is seeded before the first round. The optimum proxy of the
    :class:`Trained` result is the earliest parameters, w1 included, with the
    lowest mean training loss over the nodes. numpy's floating-point errors are
    off: non-finite parameters, losses or deltas raise the run's own ValueError.
    """
    _rows_per_node(cfg, rows)
    n_nodes = cfg.n_nodes

    def train_loss_at(params: ParamVector) -> float:
        return float(np.mean(loss(cfg.model, np.tile(params, (n_nodes, 1)), rows)))

    shuffles = shuffle_states(
        [derive_seeds((cfg.seed, "round", t), range(n_nodes)) for t in range(1, cfg.rounds + 1)],
        cfg.local_epochs_per_round,
    )
    current = wstar_proxy = w1
    best_loss = train_loss_at(w1)
    test_loss = float(loss(cfg.model, w1[None], test_data)[0])
    train_losses, test_losses, deltas, norms = [], [], [], []
    for t, states in enumerate(shuffles, 1):
        try:
            trained, round_norms = local_round(rows, current, cfg, states)
        except ValueError as exc:
            raise ValueError(f"round {t}: {exc}") from exc
        current = fedavg(trained)
        # The trained rows and their average on the one test set, in one
        # kernel call; row i equals loss(cfg.model, row[None], test_data) bit for bit.
        scores = shared_data_loss(cfg.model, np.vstack((trained, current)), test_data)
        deltas.append(test_loss - scores[:-1])
        test_loss = float(scores[-1])
        train_loss = train_loss_at(current)
        if train_loss < best_loss:
            best_loss, wstar_proxy = train_loss, current
        train_losses.append(train_loss)
        test_losses.append(test_loss)
        norms.append(round_norms)
    return Trained(
        np.array(train_losses), np.array(test_losses), np.stack(deltas), np.stack(norms),
        current, wstar_proxy,
    )


def bound_phase(
    cfg: ScenarioConfig, global_constants: ConstantsEstimate, init_distance: float
) -> tuple[list[float], tuple[str, ...]]:
    """Phase 3 of a run: the convergence bound of rounds 1..T and its caveats as notes.
    The bound assumes one local epoch per round, noted if the config runs more;
    unless the probed mu is positive, every value is NaN, noted too."""
    notes = []
    if cfg.local_epochs_per_round != 1:
        notes.append(
            "bound values assume one local epoch per round; this config uses "
            f"{cfg.local_epochs_per_round}"
        )
    if not global_constants.mu > 0.0:
        notes.append("probed mu is not positive; bound values are undefined for this run")
        return [float("nan")] * cfg.rounds, tuple(notes)
    params = BoundParams(
        mu=global_constants.mu,
        L=global_constants.L,
        G=global_constants.G,
        init_distance=init_distance,
        squared_distance=cfg.squared_distance,
    )
    return [convergence_bound(t, params) for t in range(1, cfg.rounds + 1)], tuple(notes)


def run_federated_partitioned(setup: Setup) -> FLRun:
    """The FedAvg engine, given a seed's set-up: train, bound."""
    cfg, probed = setup.scenario, setup.probed
    trained = training_phase(cfg, probed.w1, setup.test, setup.rows)
    dist = estimate_initial_distance(probed.w1, trained.wstar_proxy)
    bound_value, bound_notes = bound_phase(cfg, probed.global_constants, dist)
    return FLRun(cfg, probed, trained, np.array(bound_value), bound_notes)


def run_federated(cfg: ScenarioConfig, data: Dataset) -> FLRun:
    """Partition a global dataset per the config, probe the nodes, then run the engine."""
    test_data, rows = partition_dataset(data, cfg, derive_seed(cfg.seed, "partition"))
    return run_federated_partitioned(Setup(cfg, test_data, rows, probe_phase(cfg, rows)))


def save_run(run: FLRun, run_dir: Path | str, config_lines: Sequence[str]) -> None:
    """Serialize a run: ``config_lines`` as config.txt, plus rounds/usefulness/
    gtrace/constants/probes CSVs."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text("\n".join(config_lines) + "\n", encoding="utf-8")
    trained = run.trained
    n_rounds, n_nodes, steps = trained.training_g.shape
    t = np.arange(1, n_rounds + 1)
    # gtrace.csv: every node's probe g values, then every round's training
    # norms node by node.
    probe_nodes, n_probes, _ = run.probed.samples.shape
    probe_ids = np.repeat(np.arange(probe_nodes), n_probes)
    training_ids = np.tile(np.repeat(np.arange(n_nodes), steps), n_rounds)
    probe_g, training_g = run.probed.samples[:, :, 1].ravel(), trained.training_g.ravel()
    estimates = (*run.probed.node_constants, run.probed.global_constants)
    tables = {
        "rounds.csv": (t, trained.train_loss, trained.test_loss, run.bound_value),
        "usefulness.csv": (
            np.repeat(t, n_nodes), np.tile(np.arange(n_nodes), n_rounds),
            trained.usefulness.ravel(),
        ),
        "gtrace.csv": (
            ["probe"] * probe_g.size + ["training"] * training_g.size,
            np.concatenate([probe_ids, training_ids]),
            np.concatenate([probe_g, training_g]),
        ),
        # Node i's row, then the global one as node -1; astuple gives mu, L, G, n_probes.
        "constants.csv": ([*range(probe_nodes), -1], *zip(*map(astuple, estimates))),
        "probes.csv": (
            probe_ids,
            np.tile(np.arange(n_probes), probe_nodes),
            run.probed.samples[:, :, 0].ravel(),
            probe_g,
        ),
    }
    for name, columns in tables.items():
        write_csv(run_dir / name, RUN_TABLES[name], columns)
