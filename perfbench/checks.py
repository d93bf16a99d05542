"""Correctness gate for the run directories a benchmark run produces.

Every run directory must have the layout the README documents and satisfy
the invariants below; seeds with pinned reference values must also match
them. A seed that fails any check counts toward ``failed_frac``.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

HEADERS = {
    "rounds.csv": "t,train_loss,test_loss,bound_value",
    "usefulness.csv": "t,node_id,delta",
    "gtrace.csv": "source,node_id,value",
    "constants.csv": "node_id,mu,L,G,n_probes",
    "probes.csv": "node_id,probe_index,m_value,g_value",
    "correlations.csv": "quantity,pearson,spearman,n",
    "cdf_probe.csv": "value,fraction",
    "cdf_training.csv": "value,fraction",
    "selection.csv": "policy,k,chosen",
}
RUN_FILES = frozenset(HEADERS) | {"config.txt"}

# Relative tolerance for pinned floats: values pass through 9-significant-digit
# CSVs, so a last-digit drift stays inside it.
PINNED_RTOL = 1e-6


def tree_digest(run_dir: Path) -> str:
    """sha256 over the sorted (relative path, bytes) pairs of a run directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(run_dir)).encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def _rows(run_dir: Path, name: str) -> list[list[str]]:
    lines = (run_dir / name).read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        raise ValueError(f"{name}: missing final newline")
    if lines[0] != HEADERS[name]:
        raise ValueError(f"{name}: header {lines[0]!r}, expected {HEADERS[name]!r}")
    return [line.split(",") for line in lines[1:-1]]


def _config(run_dir: Path) -> dict[str, str]:
    pairs = {}
    for line in (run_dir / "config.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def run_summary(run_dir: Path) -> dict[str, float]:
    """The values pinned per seed: final losses and bound, global constants."""
    last = _rows(run_dir, "rounds.csv")[-1]
    glob = next(r for r in _rows(run_dir, "constants.csv") if r[0] == "-1")
    return {
        "final_train_loss": float(last[1]),
        "final_test_loss": float(last[2]),
        "final_bound": float(last[3]),
        "mu": float(glob[1]),
        "L": float(glob[2]),
        "G": float(glob[3]),
    }


def check_run_dir(run_dir: Path) -> list[str]:
    """Problems found in one run directory; empty when it is correct."""
    if not run_dir.is_dir():
        return [f"{run_dir.name}: missing"]
    present = {p.name for p in run_dir.iterdir()}
    if present != RUN_FILES:
        return [f"{run_dir.name}: files {sorted(present ^ RUN_FILES)} differ from the README set"]
    try:
        return [f"{run_dir.name}: {p}" for p in _invariant_problems(run_dir)]
    except (KeyError, IndexError, ValueError, OSError) as exc:
        return [f"{run_dir.name}: unreadable: {exc}"]


def _invariant_problems(run_dir: Path) -> list[str]:
    cfg = _config(run_dir)
    n_nodes = int(cfg["scenario.n_nodes"])
    rounds_t = int(cfg["scenario.rounds"])
    n_probes = int(cfg["probe.n_probes"])
    tables = {name: _rows(run_dir, name) for name in HEADERS}
    rounds, constants = tables["rounds.csv"], tables["constants.csv"]
    n_probe_rows = len(tables["probes.csv"])

    problems = []
    if len(rounds) != rounds_t:
        problems.append(f"rounds.csv has {len(rounds)} rows, expected {rounds_t}")
    if n_probe_rows != n_nodes * n_probes:
        problems.append(f"probes.csv has {n_probe_rows} rows, expected {n_nodes * n_probes}")
    if len(constants) != n_nodes + 1:
        problems.append(f"constants.csv has {len(constants)} rows, expected {n_nodes + 1}")

    if not all(math.isfinite(float(v)) for row in rounds for v in row[1:3]):
        problems.append("non-finite loss in rounds.csv")

    parsed = [(int(r[0]), float(r[1]), float(r[2]), float(r[3]), int(r[4])) for r in constants]
    for node_id, mu, ell, _, _ in parsed:
        if not mu <= ell:
            problems.append(f"constants.csv node {node_id}: mu {mu} > L {ell}")
    nodes = [row for row in parsed if row[0] >= 0]
    glob = [row for row in parsed if row[0] == -1]
    if nodes and len(glob) == 1:
        worst = (
            -1,
            min(r[1] for r in nodes),
            max(r[2] for r in nodes),
            max(r[3] for r in nodes),
            sum(r[4] for r in nodes),
        )
        if glob[0] != worst:
            problems.append(f"global constants {glob[0]} are not the node worst case {worst}")
    else:
        problems.append("constants.csv needs node rows and one global row")

    finite = [b for b in (float(r[3]) for r in rounds) if math.isfinite(b)]
    if any(b > a for a, b in zip(finite, finite[1:])):
        problems.append("finite bound values increase with t")
    return problems


def check_pinned(summary: dict[str, float], pinned: dict[str, float]) -> list[str]:
    """Differences between a run's summary and its pinned reference values."""
    problems = []
    for key, want in pinned.items():
        got = summary[key]
        if math.isnan(want) and math.isnan(got):
            continue
        if not math.isclose(got, want, rel_tol=PINNED_RTOL, abs_tol=0.0):
            problems.append(f"{key} = {got!r}, pinned {want!r}")
    return problems
