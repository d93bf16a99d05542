#!/usr/bin/env python3
"""Three-scenario comparison: 5 nodes, 10 nodes, and 5 nodes with a class
missing from every training partition (but kept in the test set).

Runs the shipped configs five_nodes, ten_nodes and five_nodes_missing_class
as ``fedbound run`` does, into a temporary directory, and prints final
train/test losses and the worst-case convergence bound per scenario and seed
from each summary.csv, averaged over seeds at the end. The missing-class rows
show the characteristic divergence: training gets easier while testing gets
worse.
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedbound.cli import run_experiment
from fedbound.config import load_config
from fedbound.csvio import read_csv

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SCENARIOS = ("five_nodes", "ten_nodes", "five_nodes_missing_class")
COLUMNS = ("final_train_loss", "final_test_loss", "final_bound")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seeds (default: each config's repeat_seeds)")
    args = parser.parse_args()

    print(f"{'scenario':<24}{'seed':>6}{'train':>10}{'test':>10}{'bound':>12}")
    print("-" * 62)
    totals: dict[str, list[list[float]]] = {}
    with tempfile.TemporaryDirectory() as out:
        for name in SCENARIOS:
            cfg = replace(load_config(CONFIG_DIR / f"{name}.cfg"), output_dir=Path(out) / name)
            if args.seeds:
                seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
                cfg = replace(cfg, repeat_seeds=seeds)
            run_experiment(cfg)
            header, rows = read_csv(cfg.output_dir / "summary.csv")
            for row in rows:
                scenario, seed = row[header.index("scenario")], row[header.index("seed")]
                train, test, bound = (float(row[header.index(c)]) for c in COLUMNS)
                totals.setdefault(scenario, []).append([train, test, bound])
                print(f"{scenario:<24}{seed:>6}{train:>10.4f}{test:>10.4f}{bound:>12.1f}")
    print("-" * 62)
    for scenario, values in totals.items():
        train, test, bound = np.mean(values, axis=0)
        print(f"{scenario:<24}{'mean':>6}{train:>10.4f}{test:>10.4f}{bound:>12.1f}")


if __name__ == "__main__":
    main()
