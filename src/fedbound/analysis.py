"""Post-run analysis: node usefulness, constants-vs-usefulness correlations,
gradient-magnitude CDFs, constant-driven node selection policies, and the
per-run rows of an output directory's summary.csv and ``report`` tables.

Selection uses nothing but the probed (mu, L, G) triples, so it requires no
information about node dataset sizes or contents.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, load_config
from .csvio import RUN_TABLES, read_csv, write_csv
from .flsim import FLRun
from .probe import ConstantsEstimate
from .rng import spawn_rng

SELECTION_POLICIES = ("top-L", "top-G", "bottom-mu", "random", "all")
CONSTANT_NAMES = ("mu", "L", "G")
SUMMARY_HEADER = (
    "scenario",
    "seed",
    "final_train_loss",
    "final_test_loss",
    "final_bound",
    "pearson_mu",
    "spearman_mu",
    "pearson_L",
    "spearman_L",
    "pearson_G",
    "spearman_G",
)


def usefulness_from_rounds(deltas) -> np.ndarray:
    """Each node's mean per-round improvement in global test loss, as an
    ``(N,)`` array in node order, from the ``(T, N)`` per-round deltas."""
    deltas = np.asarray(deltas, dtype=np.float64)
    if not len(deltas):
        raise ValueError("run has no rounds")
    # Row i holds node i's deltas contiguously in round order, so its mean
    # sums them as np.mean of that 1-D array would.
    return np.ascontiguousarray(deltas.T).mean(axis=1)


def _unit_centred(v: np.ndarray) -> np.ndarray:
    """``v`` less its mean, scaled to unit norm, in scipy.stats.pearsonr's order
    of operations (the max-abs rescale guards the norm against overflow)."""
    centred = v - np.mean(v, keepdims=True)
    peak = np.max(np.abs(centred), keepdims=True)
    # axis=-1 keeps the same summation as scipy; without it norm takes a dot.
    return centred / (peak * np.linalg.norm(centred / peak, axis=-1, keepdims=True))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of the positions they span."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=v.size)
    ranks = np.empty(v.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2, counts)
    return ranks


def correlate(x, y) -> tuple[float, float]:
    """Pearson and Spearman coefficients (average ranks on ties).

    Both follow scipy.stats.pearsonr/spearmanr's arithmetic step for step, so
    they return the same bits without importing scipy. As there, a NaN input
    gives NaN for both.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D of equal length")
    if x.size < 3:
        raise ValueError("need at least 3 points")
    # All-equal values can leave a rounding-sized std; scipy gives NaN there. Past about 1e154
    # the std's squares overflow to inf (not zero); a sum past the float max makes Pearson NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        if any(np.std(v) == 0.0 or (v == v[0]).all() for v in (x, y)):
            raise ValueError("inputs must have nonzero variance")
        pearson = float(np.clip(np.dot(_unit_centred(x), _unit_centred(y)), -1.0, 1.0))
    if np.isnan(x).any() or np.isnan(y).any():
        return pearson, float("nan")
    # The [1, 0] entry of the (n, 2) column layout, as spearmanr takes it:
    # the other entry divides by the two deviations in the other order.
    ranks = np.column_stack((_average_ranks(x), _average_ranks(y)))
    spearman = float(np.corrcoef(ranks, rowvar=False)[1, 0])
    return pearson, spearman


def _cdf_arrays(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and the fraction of samples <= each; both
    empty for no samples."""
    distinct, counts = np.unique(values, return_counts=True)
    fractions = np.cumsum(counts) / values.size
    fractions[-1:] = 1.0
    return distinct, fractions


def select_nodes(estimates, k: int, policy: str, rng_seed: int | None = None) -> set[int]:
    """Pick k node positions by a constants-only policy; ties break by
    ascending position.

    ``estimates`` is a sequence of each node's ConstantsEstimate in node
    order. The ``random`` policy needs ``rng_seed``; ``all`` returns every node.
    """
    n = len(estimates)
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"policy must be one of {SELECTION_POLICIES}")
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}]")
    if policy == "all":
        return set(range(n))
    if policy == "random":
        if rng_seed is None:
            raise ValueError("random policy needs rng_seed")
        return set(spawn_rng("select", rng_seed).choice(n, size=k, replace=False).tolist())
    key = {
        "top-L": lambda c: c.L,
        "top-G": lambda c: c.G,
        "bottom-mu": lambda c: -c.mu,
    }[policy]
    # A stable sort keeps equal keys in ascending position.
    return set(sorted(range(n), key=lambda i: -key(estimates[i]))[:k])


# ---------------------------------------------------------------------------
# Report emission


@dataclass(frozen=True)
class ReportInputs:
    """Everything the report CSVs are computed from; buildable from an FLRun
    or parsed back out of a saved run directory.

    ``usefulness[i]`` and ``node_constants[i]`` are node i's. ``probe_g`` and
    ``training_g`` are float64 arrays of the pooled g values. ``selection_k``
    is the subset size of selection.csv; None means half the nodes, rounded up.
    """

    usefulness: np.ndarray
    node_constants: tuple[ConstantsEstimate, ...]
    probe_g: np.ndarray
    training_g: np.ndarray
    seed: int
    selection_k: int | None = None


def report_inputs_from_run(run: FLRun) -> ReportInputs:
    return ReportInputs(
        usefulness=usefulness_from_rounds(run.trained.usefulness),
        node_constants=run.probed.node_constants,
        probe_g=run.probed.samples[:, :, 1].ravel(),
        training_g=run.trained.training_g.ravel(),
        seed=run.config.seed,
    )


def _read_gtrace(run_dir: Path, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The probe and the training g values of ``run_dir/gtrace.csv``, a run of
    ``n_nodes`` nodes; a source cell other than ``probe`` or ``training``, a
    node id outside ``0..n_nodes - 1``, or a kind without rows, raises a
    ValueError naming the file."""
    path = run_dir / "gtrace.csv"
    source, nodes, values = read_csv(path, RUN_TABLES["gtrace.csv"])
    probe, training = source == "probe", source == "training"
    other = np.flatnonzero(~(probe | training))
    if other.size:
        i = other[0]
        raise ValueError(f"{path}: line {i + 2}: source {source[i]!r} is not probe or training")
    outside = np.flatnonzero((nodes < 0) | (nodes >= n_nodes))
    if outside.size:
        i = outside[0]
        raise ValueError(f"{path}: line {i + 2}: node id {nodes[i]} lies outside 0..{n_nodes - 1}")
    for kind, rows in (("probe", probe), ("training", training)):
        if not rows.any():
            raise ValueError(f"{path}: no {kind} rows")
    return values[probe], values[training]


def _check_t(path: Path, t: np.ndarray, expected: np.ndarray) -> None:
    """Reject a ``t`` column other than ``expected``, naming its first wrong line."""
    wrong = np.flatnonzero(t != expected)
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"{path}: line {i + 2}: t = {t[i]}, expected {expected[i]}")


def _read_node_constants(run_dir: Path, n_nodes: int) -> tuple[ConstantsEstimate, ...]:
    """The ``n_nodes`` node rows of ``run_dir/constants.csv``, node i's at
    position i; a row that is no :class:`ConstantsEstimate` names its line."""
    path = run_dir / "constants.csv"
    columns = (column.tolist() for column in read_csv(path, RUN_TABLES["constants.csv"]))
    # Node rows carry ids 0..N-1 in order; the global row carries -1.
    rows = [(i, row) for i, row in enumerate(zip(*columns), start=2) if row[0] >= 0]
    ids = [row[0] for _, row in rows]
    if not ids:
        raise ValueError(f"{path}: no node rows")
    if ids != list(range(n_nodes)):
        raise ValueError(f"{path}: node ids {ids} do not run 0..{n_nodes - 1} in order")
    estimates = []
    for line, (_, *values) in rows:
        try:
            estimates.append(ConstantsEstimate(*values))
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from exc
    return tuple(estimates)


def _run_config(run_dir: Path) -> ExperimentConfig:
    """The config ``run_dir/config.txt`` records; a ValueError names a bad file."""
    try:
        return load_config(run_dir / "config.txt")
    except ValueError as exc:
        raise ValueError(f"{run_dir / 'config.txt'}: {exc}") from exc


def report_inputs_from_dir(run_dir: Path | str) -> ReportInputs:
    """Rebuild report inputs from a saved run directory's config.txt and CSV files.

    A ValueError names the first file at fault: a config.txt that does not
    load, a CSV whose header is not its ``RUN_TABLES`` entry's, constants.csv
    node rows other than ids 0..N-1 in order (N is ``scenario.n_nodes``) or
    one that is no :class:`ConstantsEstimate`, usefulness.csv rows other
    than those ids in every round with ``t`` running 1..T, a non-finite
    usefulness, or a gtrace.csv that :func:`_read_gtrace` rejects. Integer
    columns are read as int64, so a cell that is no integer names its line
    and column.
    """
    run_dir = Path(run_dir)
    cfg = _run_config(run_dir)
    node_constants = _read_node_constants(run_dir, cfg.scenario.n_nodes)
    ids = list(range(len(node_constants)))
    path = run_dir / "usefulness.csv"
    rounds, nodes, deltas = read_csv(path, RUN_TABLES["usefulness.csv"])
    found = sorted(set(nodes.tolist()))  # np.unique of integers imports numpy.ma
    if found != ids:
        raise ValueError(f"{path}: node ids {found} differ from constants.csv's {ids}")
    # save_run writes the (T, N) deltas round by round.
    n_rounds = len(nodes) // len(ids)
    if not np.array_equal(nodes, np.tile(ids, n_rounds)):
        raise ValueError(f"{path}: node ids do not run 0..{len(ids) - 1} in every round")
    _check_t(path, rounds, np.repeat(np.arange(1, n_rounds + 1), len(ids)))
    usefulness = usefulness_from_rounds(deltas.reshape(n_rounds, len(ids)))
    if not np.isfinite(usefulness).all():
        raise ValueError(f"{path}: usefulness must be finite")
    probe_g, training_g = _read_gtrace(run_dir, len(ids))
    seed, k = cfg.scenario.seed, cfg.selection_k
    return ReportInputs(usefulness, node_constants, probe_g, training_g, seed, k)


def correlation_rows(inputs: ReportInputs) -> list[tuple[str, float, float, int]]:
    """(quantity, pearson, spearman, n) per constant; nan when undefined."""
    rows = []
    for quantity in CONSTANT_NAMES:
        values = [getattr(c, quantity) for c in inputs.node_constants]
        try:
            pearson, spearman = correlate(values, inputs.usefulness)
        except ValueError:
            pearson = spearman = float("nan")
        rows.append((quantity, pearson, spearman, inputs.usefulness.size))
    return rows


def write_reports(run_dir: Path | str, inputs: ReportInputs) -> None:
    """Emit correlations.csv, cdf_probe.csv, cdf_training.csv and selection.csv.

    Every table is built before the first is written, so a table that cannot
    be built leaves each file as it was."""
    run_dir = Path(run_dir)
    estimates = inputs.node_constants
    k = inputs.selection_k if inputs.selection_k is not None else math.ceil(len(estimates) / 2)
    chosen = [
        ";".join(str(i) for i in sorted(select_nodes(estimates, k, policy, rng_seed=inputs.seed)))
        for policy in SELECTION_POLICIES
    ]
    tables = {
        "correlations.csv": list(zip(*correlation_rows(inputs))),
        "cdf_probe.csv": _cdf_arrays(inputs.probe_g),
        "cdf_training.csv": _cdf_arrays(inputs.training_g),
        "selection.csv": (SELECTION_POLICIES, [k] * len(SELECTION_POLICIES), chosen),
    }
    for name, columns in tables.items():
        write_csv(run_dir / name, RUN_TABLES[name], columns)


def run_dirs(out_dir: Path | str) -> list[Path]:
    """The ``<name>_seed<s>`` run directories of ``out_dir``, in name order.

    Hidden ones (a ``.tmp-`` staging or an ``.old-`` swapped-out directory)
    are skipped, and so is one without a ``config.txt``, with a ``warning:``
    line naming it on stderr: it is no run directory, and a summary of the
    runs beside it can still be built."""
    runs = []
    for path in sorted(Path(out_dir).iterdir()):
        if not (path.is_dir() and re.fullmatch(r"[^.].*_seed-?[0-9]+", path.name)):
            continue
        if (path / "config.txt").is_file():
            runs.append(path)
        else:
            print(f"warning: {path}: no config.txt; not a run directory", file=sys.stderr)
    return runs


def summary_row(run_dir: Path, cfg: ExperimentConfig) -> tuple:
    """A run directory's :data:`SUMMARY_HEADER` row: the scenario and seed of
    ``cfg``, the config its ``config.txt`` records, the last row of its
    ``rounds.csv``, and each constant's Pearson and Spearman coefficients
    from ``correlations.csv``."""
    path = run_dir / "rounds.csv"
    t, *finals = read_csv(path, RUN_TABLES["rounds.csv"])
    if not len(t):
        raise ValueError(f"{path}: run has no rounds")
    _check_t(path, t, np.arange(1, len(t) + 1))
    path = run_dir / "correlations.csv"
    quantity, pearson, spearman, _ = read_csv(path, RUN_TABLES["correlations.csv"])
    if tuple(quantity) != CONSTANT_NAMES:
        raise ValueError(f"{path}: quantities {list(quantity)} are not {list(CONSTANT_NAMES)}")
    coefficients = (c for pair in zip(pearson, spearman) for c in pair)
    return (cfg.scenario_name, cfg.scenario.seed, *(c[-1] for c in finals), *coefficients)


def output_rows(out_dir: Path | str) -> list[tuple]:
    """A row per run directory of ``out_dir``, sorted by (scenario, seed): its
    :func:`summary_row` with the Pearson coefficients before the Spearman ones,
    then the probe and training g medians of its ``gtrace.csv``, whose node
    ids its ``config.txt``'s ``scenario.n_nodes`` bounds."""
    rows = []
    for run_dir in run_dirs(out_dir):
        cfg = _run_config(run_dir)
        row = summary_row(run_dir, cfg)
        medians = [np.median(values) for values in _read_gtrace(run_dir, cfg.scenario.n_nodes)]
        rows.append((*row[:5], *row[5::2], *row[6::2], *medians))
    return sorted(rows, key=lambda row: row[:2])


def write_summary(out_dir: Path | str) -> None:
    """Rewrite ``out_dir/summary.csv`` from the run directories beside it: a
    :data:`SUMMARY_HEADER` row per run directory, sorted by (scenario, seed),
    and only the header when there is none. It reads no ``gtrace.csv``."""
    rows = [summary_row(run_dir, _run_config(run_dir)) for run_dir in run_dirs(out_dir)]
    rows.sort(key=lambda row: row[:2])
    columns = list(zip(*rows)) or [()] * len(SUMMARY_HEADER)
    write_csv(Path(out_dir) / "summary.csv", SUMMARY_HEADER, columns)
