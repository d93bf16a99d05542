#!/usr/bin/env python3
"""Constants-vs-usefulness correlation on a heterogeneous federation.

Runs the shipped ``configs/hetero_eight_nodes.cfg`` as ``fedbound run``
does. Its eight nodes have feature scales spread over [0.35, 1], which
spreads their local curvature (L), gradient bound (G), and per-round
contribution to the global test loss. Prints, per seed, the Pearson/Spearman
coefficients for mu, L, and G against node usefulness that the run's
summary.csv holds, plus the probe-vs-training gradient-norm medians behind
the magnitude-distribution comparison.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from fedbound.analysis import CONSTANT_NAMES, correlation_rows, report_inputs_from_run
from fedbound.cli import run_one_seed
from fedbound.config import load_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "hetero_eight_nodes.cfg"


def main() -> None:
    cfg = load_config(CONFIG)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default=",".join(map(str, cfg.repeat_seeds)),
                        help="comma-separated seeds (default: the config's repeat_seeds)")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    header = (f"{'seed':>6}  {'pearson':>24}  {'spearman':>24}  "
              f"{'probe med':>10}{'train med':>10}")
    print(f"{'':6}  {'mu':>8}{'L':>8}{'G':>8}  {'mu':>8}{'L':>8}{'G':>8}")
    print(header)
    print("-" * len(header))
    spearmans = []
    for seed in seeds:
        inputs = report_inputs_from_run(run_one_seed(cfg, seed))
        _, pearson, spearman, _ = zip(*correlation_rows(inputs))
        spearmans.append(spearman)
        print(f"{seed:>6}  " + "".join(f"{v:>+8.3f}" for v in pearson)
              + "  " + "".join(f"{v:>+8.3f}" for v in spearman)
              + f"  {np.median(inputs.probe_g):>10.3f}{np.median(inputs.training_g):>10.3f}")
    print("-" * len(header))
    means = np.mean(spearmans, axis=0)
    print("mean Spearman: " + "  ".join(f"{q}={m:+.3f}" for q, m in zip(CONSTANT_NAMES, means)))


if __name__ == "__main__":
    main()
