#!/usr/bin/env python3
"""Does picking nodes by probed constants pay off?

For each seed that ``fedbound run --config configs/hetero_eight_nodes.cfg``
saved, trains the nodes that its selection.csv lists for a policy (default:
largest local L) and the rest as two federations from the run's w1, and
compares their final test losses.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedbound.analysis import SELECTION_POLICIES, run_dirs
from fedbound.cli import first_difference
from fedbound.config import ExperimentConfig, echo_lines, load_config
from fedbound.csvio import RUN_TABLES, read_csv
from fedbound.flsim import initial_params, node_datasets, training_phase

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "hetero_eight_nodes.cfg"


def _selection(run_dir: Path, seeded: ExperimentConfig, policy: str) -> set[int]:
    """The nodes that ``run_dir``'s selection.csv lists for ``policy``; a
    ValueError says why the directory is not a run of ``seeded``, the config
    at the run's seed."""
    lines = (run_dir / "config.txt").read_text(encoding="utf-8").splitlines()
    if differing := first_difference(lines, echo_lines(seeded)):
        _, saved, shipped = differing
        raise ValueError(f"config.txt has {saved!r} where {CONFIG.name} gives {shipped!r}")
    policies, _, chosen = read_csv(run_dir / "selection.csv", RUN_TABLES["selection.csv"])
    ids = dict(zip(policies, chosen)).get(policy, "").split(";")
    if not set(ids) <= {str(i) for i in range(seeded.scenario.n_nodes)}:
        raise ValueError(f"selection.csv has no {policy} row of the run's node ids")
    return set(map(int, ids))


def main() -> None:
    cfg = load_config(CONFIG)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=Path, default=cfg.output_dir,
                        help="where fedbound run saved the config's runs (default: its output.dir)")
    # "all" selects every node, which leaves no rest to compare against.
    parser.add_argument("--policy", default="top-L",
                        choices=[p for p in SELECTION_POLICIES if p != "all"])
    args = parser.parse_args()

    # Every run is checked before the first one trains.
    selections = {}
    for run_dir in run_dirs(args.runs) if args.runs.is_dir() else []:
        name, _, seed = run_dir.name.rpartition("_seed")
        if name == cfg.scenario_name:
            seeded = replace(cfg, scenario=replace(cfg.scenario, seed=int(seed)))
            try:
                selections[int(seed)] = seeded.scenario, _selection(run_dir, seeded, args.policy)
            except (OSError, ValueError) as exc:
                parser.error(f"{run_dir}: {exc}")
    if not selections:
        parser.error(f"{args.runs} holds no {cfg.scenario_name}_seed<s> run directory")

    print(f"{'seed':>6}{'selected':>20}{'selected loss':>15}{'rest loss':>12}")
    print("-" * 53)
    losses = []
    for seed, (scenario, selected) in sorted(selections.items()):
        test_data, rows = node_datasets(cfg.dataset, scenario)
        w1 = initial_params(scenario)
        blocks = np.arange(len(rows)).reshape(scenario.n_nodes, -1)  # node i's row indices
        losses.append([])
        for subset in (selected, set(range(scenario.n_nodes)) - selected):
            picked = rows.subset(blocks[sorted(subset)].ravel())
            trained = training_phase(replace(scenario, n_nodes=len(subset)), w1, test_data, picked)
            losses[-1].append(float(trained.test_loss[-1]))
        ids = ",".join(str(i) for i in sorted(selected))
        print(f"{seed:>6}{ids:>20}{losses[-1][0]:>15.4f}{losses[-1][1]:>12.4f}")
    print("-" * 53)
    selected_mean, rest_mean = np.mean(losses, axis=0)
    print(f"{'mean':>6}{'':>20}{selected_mean:>15.4f}{rest_mean:>12.4f}")


if __name__ == "__main__":
    main()
