"""Post-run analysis: node usefulness, constants-vs-usefulness correlations,
gradient-magnitude CDFs, constant-driven node selection policies, and the
rows of the tables that ``fedbound report`` prints for an output directory.

Selection uses nothing but the probed (mu, L, G) triples, so it requires no
information about node dataset sizes or contents.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import read_echo
from .csvio import read_csv, write_csv
from .flsim import FLRun
from .probe import ConstantsEstimate
from .rng import spawn_rng

SELECTION_POLICIES = ("top-L", "top-G", "bottom-mu", "random", "all")
CONSTANT_NAMES = ("mu", "L", "G")


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
    # All-equal values can leave a rounding-sized std; scipy gives NaN there.
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
        usefulness=usefulness_from_rounds(run.usefulness),
        node_constants=run.node_constants,
        probe_g=run.probe_samples[:, :, 1].ravel(),
        training_g=run.training_g.ravel(),
        seed=run.config.seed,
    )


def report_inputs_from_dir(run_dir: Path | str) -> ReportInputs:
    """Rebuild report inputs from a saved run directory's CSV files."""
    run_dir = Path(run_dir)
    path = run_dir / "constants.csv"
    _, constants = read_csv(path, (np.int64, np.float64, np.float64, np.float64, np.int64))
    # Node rows carry ids 0..N-1 in order; the global row carries -1.
    rows = [row for row in zip(*(column.tolist() for column in constants)) if row[0] >= 0]
    ids = [row[0] for row in rows]
    if not ids:
        raise ValueError(f"{path}: no node rows")
    if ids != list(range(len(ids))):
        raise ValueError(f"{path}: node ids {ids} do not run 0..{len(ids) - 1} in order")
    node_constants = tuple(ConstantsEstimate(*values) for _, *values in rows)

    path = run_dir / "usefulness.csv"
    _, (_, nodes, deltas) = read_csv(path, (None, np.int64, np.float64))
    found = np.unique(nodes).tolist()
    if found != ids:
        raise ValueError(f"{path}: node ids {found} differ from constants.csv's {ids}")
    # save_run writes the (T, N) deltas round by round.
    n_rounds = len(nodes) // len(ids)
    if not np.array_equal(nodes, np.tile(ids, n_rounds)):
        raise ValueError(f"{path}: node ids do not run 0..{len(ids) - 1} in every round")
    usefulness = usefulness_from_rounds(deltas.reshape(n_rounds, len(ids)))
    if not np.isfinite(usefulness).all():
        raise ValueError(f"{path}: usefulness must be finite")
    _, (source, _, values) = read_csv(run_dir / "gtrace.csv", (None, None, np.float64))
    probe_g = values[source == "probe"]
    training_g = values[source == "training"]
    path = run_dir / "config.txt"
    _, seed, selection_k = read_echo(path)
    if selection_k is not None and not 1 <= selection_k <= len(ids):
        raise ValueError(f"{path}: selection.k = {selection_k} lies outside [1, {len(ids)}]")
    return ReportInputs(usefulness, node_constants, probe_g, training_g, seed, selection_k)


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


def write_reports(
    run_dir: Path | str, inputs: ReportInputs
) -> list[tuple[str, float, float, int]]:
    """Emit correlations.csv, cdf_probe.csv, cdf_training.csv, selection.csv,
    and return the :func:`correlation_rows` written to correlations.csv.

    Every table is built before the first is written, so a table that cannot
    be built leaves each file as it was."""
    run_dir = Path(run_dir)
    estimates = inputs.node_constants
    k = inputs.selection_k if inputs.selection_k is not None else math.ceil(len(estimates) / 2)
    chosen = [
        ";".join(str(i) for i in sorted(select_nodes(estimates, k, policy, rng_seed=inputs.seed)))
        for policy in SELECTION_POLICIES
    ]
    rows = correlation_rows(inputs)
    correlations = list(zip(*rows))
    cdf_probe, cdf_training = _cdf_arrays(inputs.probe_g), _cdf_arrays(inputs.training_g)
    write_csv(run_dir / "correlations.csv", ("quantity", "pearson", "spearman", "n"), correlations)
    write_csv(run_dir / "cdf_probe.csv", ("value", "fraction"), cdf_probe)
    write_csv(run_dir / "cdf_training.csv", ("value", "fraction"), cdf_training)
    write_csv(
        run_dir / "selection.csv",
        ("policy", "k", "chosen"),
        (SELECTION_POLICIES, [k] * len(SELECTION_POLICIES), chosen),
    )
    return rows


def output_rows(out_dir: Path | str) -> list[tuple]:
    """A row per ``<name>_seed<s>`` run directory of ``out_dir`` (hidden ones
    skipped), sorted by (scenario, seed): its ``config.txt`` scenario and seed,
    final train loss, test loss and bound, the Pearson then the Spearman
    coefficients of mu, L and G, and the probe and training g medians."""
    rows = []
    for run_dir in Path(out_dir).iterdir():
        if not (run_dir.is_dir() and re.fullmatch(r"[^.].*_seed-?[0-9]+", run_dir.name)):
            continue
        name, seed, _ = read_echo(run_dir / "config.txt")
        path = run_dir / "rounds.csv"
        _, (_, *finals) = read_csv(path, (None, np.float64, np.float64, np.float64))
        if not len(finals[0]):
            raise ValueError(f"{path}: run has no rounds")
        path = run_dir / "correlations.csv"
        _, (quantity, pearson, spearman, _) = read_csv(path, (None, np.float64, np.float64, None))
        if tuple(quantity) != CONSTANT_NAMES:
            raise ValueError(f"{path}: quantities {list(quantity)} are not {list(CONSTANT_NAMES)}")
        _, (source, _, values) = read_csv(run_dir / "gtrace.csv", (None, None, np.float64))
        medians = [np.median(values[source == kind]) for kind in ("probe", "training")]
        rows.append((name, seed, *(c[-1] for c in finals), *pearson, *spearman, *medians))
    return sorted(rows, key=lambda row: row[:2])
