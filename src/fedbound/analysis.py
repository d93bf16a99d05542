"""Post-run analysis: node usefulness, constants-vs-usefulness correlations,
gradient-magnitude CDFs, and constant-driven node selection policies.

Selection uses nothing but the probed (mu, L, G) triples, so it requires no
information about node dataset sizes or contents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _read_echo
from .csvio import read_csv, write_csv
from .flsim import FLRun
from .probe import ConstantsEstimate
from .rng import spawn_rng

SELECTION_POLICIES = ("top-L", "top-G", "bottom-mu", "random", "all")
CONSTANT_NAMES = ("mu", "L", "G")


@dataclass(frozen=True)
class UsefulnessRecord:
    """A node's mean per-round improvement in global test loss."""

    node_id: int
    usefulness: float

    def __post_init__(self):
        if not math.isfinite(self.usefulness):
            raise ValueError("usefulness must be finite")


def usefulness_from_rounds(rounds) -> list[UsefulnessRecord]:
    rounds = tuple(rounds)
    if not rounds:
        raise ValueError("run has no rounds")
    node_ids = sorted(rounds[0].per_node_usefulness)
    return [
        UsefulnessRecord(
            node_id,
            float(np.mean([r.per_node_usefulness[node_id] for r in rounds])),
        )
        for node_id in node_ids
    ]


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
    """Pick k node ids by a constants-only policy; ties break by ascending id.

    ``estimates`` is a sequence of (node_id, ConstantsEstimate) pairs. The
    ``random`` policy needs ``rng_seed``; ``all`` returns every node.
    """
    pairs = list(estimates)
    if policy not in SELECTION_POLICIES:
        raise ValueError(f"policy must be one of {SELECTION_POLICIES}")
    if not 1 <= k <= len(pairs):
        raise ValueError(f"k must lie in [1, {len(pairs)}]")
    ids = [node_id for node_id, _ in pairs]
    if policy == "all":
        return set(ids)
    if policy == "random":
        if rng_seed is None:
            raise ValueError("random policy needs rng_seed")
        rng = spawn_rng("select", rng_seed)
        return set(int(i) for i in rng.choice(sorted(ids), size=k, replace=False))
    key = {
        "top-L": lambda c: c.L,
        "top-G": lambda c: c.G,
        "bottom-mu": lambda c: -c.mu,
    }[policy]
    ranked = sorted(pairs, key=lambda pair: (-key(pair[1]), pair[0]))
    return {node_id for node_id, _ in ranked[:k]}


# ---------------------------------------------------------------------------
# Report emission


@dataclass(frozen=True)
class ReportInputs:
    """Everything the report CSVs are computed from; buildable from an FLRun
    or parsed back out of a saved run directory.

    ``probe_g`` and ``training_g`` are float64 arrays of the pooled g values.
    ``selection_k`` is the subset size of selection.csv; None means half the
    nodes, rounded up.
    """

    usefulness: tuple[UsefulnessRecord, ...]
    node_constants: dict[int, ConstantsEstimate]
    probe_g: np.ndarray
    training_g: np.ndarray
    seed: int
    selection_k: int | None = None


def report_inputs_from_run(run: FLRun) -> ReportInputs:
    return ReportInputs(
        usefulness=tuple(usefulness_from_rounds(run.rounds)),
        node_constants=dict(run.node_constants),
        probe_g=run.probe_g_pooled(),
        training_g=run.training_g_pooled(),
        seed=run.config.seed,
    )


def _read_columns(path: Path, dtypes) -> list:
    """A run file's columns, each parsed to its entry of ``dtypes`` (None
    leaves the column's text unparsed); a malformed file raises a ValueError
    that names it."""
    header, columns = read_csv(path)
    if len(header) != len(dtypes):
        raise ValueError(f"{path}: {len(header)} columns, expected {len(dtypes)}")
    try:
        return [
            column if dtype is None else np.array(column, dtype=dtype)
            for column, dtype in zip(columns, dtypes)
        ]
    except ValueError as exc:
        # Name the first cell, in file order, that does not parse.
        bad = []
        for j, (column, dtype) in enumerate(zip(columns, dtypes)):
            for i, cell in enumerate(column if dtype is not None else ()):
                try:
                    np.array(cell, dtype=dtype)
                except ValueError as cell_exc:
                    bad.append((i, j, cell_exc))
                    break
        if not bad:
            raise ValueError(f"{path}: {exc}") from exc
        i, j, cell_exc = min(bad, key=lambda b: b[:2])
        raise ValueError(f"{path}: line {i + 2}, column {header[j]}: {cell_exc}") from exc


def report_inputs_from_dir(run_dir: Path | str) -> ReportInputs:
    """Rebuild report inputs from a saved run directory's CSV files."""
    run_dir = Path(run_dir)
    _, nodes, deltas = _read_columns(run_dir / "usefulness.csv", (None, np.int64, np.float64))
    # Each node's deltas in row order, so the mean sums them in that order.
    usefulness = tuple(
        UsefulnessRecord(node_id, float(np.mean(deltas[nodes == node_id])))
        for node_id in np.unique(nodes).tolist()
    )
    constants = _read_columns(
        run_dir / "constants.csv", (np.int64, np.float64, np.float64, np.float64, np.int64)
    )
    node_constants = {
        node_id: ConstantsEstimate(*values)
        for node_id, *values in zip(*(column.tolist() for column in constants))
        if node_id >= 0
    }
    source, _, values = _read_columns(run_dir / "gtrace.csv", (object, None, np.float64))
    probe_g = values[source == "probe"]
    training_g = values[source == "training"]
    seed, selection_k = _read_echo(run_dir / "config.txt")
    return ReportInputs(usefulness, node_constants, probe_g, training_g, seed, selection_k)


def _constant_values(inputs: ReportInputs, quantity: str) -> np.ndarray:
    getter = {"mu": lambda c: c.mu, "L": lambda c: c.L, "G": lambda c: c.G}[quantity]
    return np.array([getter(inputs.node_constants[r.node_id]) for r in inputs.usefulness])


def correlation_rows(inputs: ReportInputs) -> list[tuple[str, float, float, int]]:
    """(quantity, pearson, spearman, n) per constant; nan when undefined."""
    usefulness = np.array([r.usefulness for r in inputs.usefulness])
    rows = []
    for quantity in CONSTANT_NAMES:
        try:
            pearson, spearman = correlate(_constant_values(inputs, quantity), usefulness)
        except ValueError:
            pearson = spearman = float("nan")
        rows.append((quantity, pearson, spearman, usefulness.size))
    return rows


def write_reports(run_dir: Path | str, inputs: ReportInputs) -> None:
    """Emit correlations.csv, cdf_probe.csv, cdf_training.csv, selection.csv."""
    run_dir = Path(run_dir)
    write_csv(
        run_dir / "correlations.csv",
        ("quantity", "pearson", "spearman", "n"),
        list(zip(*correlation_rows(inputs))),
    )
    write_csv(run_dir / "cdf_probe.csv", ("value", "fraction"), _cdf_arrays(inputs.probe_g))
    write_csv(run_dir / "cdf_training.csv", ("value", "fraction"), _cdf_arrays(inputs.training_g))

    estimates = sorted(inputs.node_constants.items())
    n = len(estimates)
    k = inputs.selection_k if inputs.selection_k is not None else math.ceil(n / 2)
    chosen = [
        ";".join(str(i) for i in sorted(select_nodes(estimates, k, policy, rng_seed=inputs.seed)))
        for policy in SELECTION_POLICIES
    ]
    write_csv(
        run_dir / "selection.csv",
        ("policy", "k", "chosen"),
        (SELECTION_POLICIES, [k] * len(SELECTION_POLICIES), chosen),
    )
