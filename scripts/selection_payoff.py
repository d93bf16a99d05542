#!/usr/bin/env python3
"""Does picking nodes by probed constants pay off?

Probes every node of the shipped ``configs/hetero_eight_nodes.cfg``
federation once per seed, selects the config's ``selection.k`` nodes under
a chosen policy (default: largest local L), then trains the selected nodes
and the rest as two federations from the same initial parameters and
compares their final test losses. Selection sees only the probed (mu, L, G)
triples, never dataset sizes or contents, and picks the nodes that the
seed's selection.csv from ``fedbound run`` lists for the policy.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from pathlib import Path

import numpy as np

from fedbound.analysis import select_nodes
from fedbound.config import load_config
from fedbound.flsim import node_datasets, probe_phase, training_phase

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "hetero_eight_nodes.cfg"


def _seed_list(text: str) -> tuple[int, ...]:
    """``--seeds``: one or more distinct integers, comma-separated."""
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        message = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(message) from None
    if not seeds:
        raise argparse.ArgumentTypeError("must name at least one seed")
    twice = [s for i, s in enumerate(seeds) if s in seeds[:i]]
    if twice:
        raise argparse.ArgumentTypeError(f"seed {twice[0]} is listed more than once")
    return seeds


def main() -> None:
    cfg = load_config(CONFIG)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=_seed_list, default=cfg.repeat_seeds,
                        help="comma-separated seeds (default: the config's repeat_seeds)")
    parser.add_argument("--policy", default="top-L",
                        choices=("top-L", "top-G", "bottom-mu", "random"))
    args = parser.parse_args()

    print(f"{'seed':>6}{'selected':>20}{'selected loss':>15}{'rest loss':>12}")
    print("-" * 53)
    chosen_losses, rest_losses = [], []
    for seed in args.seeds:
        scenario = replace(cfg.scenario, seed=seed)
        test_data, nodes = node_datasets(cfg.dataset, scenario)
        w1, _, node_constants, _ = probe_phase(scenario, nodes)
        selected = select_nodes(node_constants, cfg.selection_k, args.policy, rng_seed=seed)
        rest = set(range(len(nodes))) - selected

        finals = {}
        for name, subset in (("selected", selected), ("rest", rest)):
            subset_nodes = [nodes[i] for i in sorted(subset)]
            _, test_loss, *_ = training_phase(scenario, w1, test_data, subset_nodes)
            finals[name] = float(test_loss[-1])
        chosen_losses.append(finals["selected"])
        rest_losses.append(finals["rest"])
        ids = ",".join(str(i) for i in sorted(selected))
        print(f"{seed:>6}{ids:>20}{finals['selected']:>15.4f}{finals['rest']:>12.4f}")
    print("-" * 53)
    print(f"{'mean':>6}{'':>20}{float(np.mean(chosen_losses)):>15.4f}"
          f"{float(np.mean(rest_losses)):>12.4f}")


if __name__ == "__main__":
    main()
