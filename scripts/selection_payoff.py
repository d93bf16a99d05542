#!/usr/bin/env python3
"""Does picking nodes by probed constants pay off?

Probes every node of a heterogeneous federation, selects the top and bottom
halves under a chosen policy (default: largest local L), trains a separate
federation with each subset, and compares final test losses. Selection sees
only the probed (mu, L, G) triples, never dataset sizes or contents.
"""

from __future__ import annotations

import argparse
import math

import numpy as np

from fedbound.analysis import select_nodes
from fedbound.data import SyntheticSpec, gen_synthetic_nodes
from fedbound.flsim import ScenarioConfig, probe_phase, run_federated_partitioned
from fedbound.model import softmax_spec


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--samples-per-node", type=int, default=150)
    parser.add_argument("--probes", type=int, default=80)
    parser.add_argument("--policy", default="top-L",
                        choices=("top-L", "top-G", "bottom-mu", "random"))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    scales = tuple(float(s) for s in np.linspace(0.35, 1.0, args.nodes))
    spec = SyntheticSpec(
        num_classes=4, feature_dim=8, samples_per_class=10,
        separation=0.7, noise_sigma=0.12, feature_scale=scales,
    )
    model = softmax_spec(8, 4, l2=0.01)
    k = math.ceil(args.nodes / 2)

    print(f"{'seed':>6}{'selected':>20}{'selected loss':>15}{'rest loss':>12}")
    print("-" * 53)
    chosen_losses, rest_losses = [], []
    for seed in seeds:
        test_data, nodes = gen_synthetic_nodes(
            spec, args.nodes, args.samples_per_node, n_test=400, seed=seed
        )
        probe_cfg = ScenarioConfig(
            n_nodes=args.nodes, samples_per_node=args.samples_per_node, rounds=1,
            model=model, n_probes=args.probes, seed=seed,
        )
        _, _, node_constants, _ = probe_phase(probe_cfg, nodes)
        selected = select_nodes(node_constants.items(), k, args.policy, rng_seed=seed)
        rest = set(range(args.nodes)) - selected

        finals = {}
        for name, subset in (("selected", selected), ("rest", rest)):
            cfg = ScenarioConfig(
                n_nodes=len(subset), samples_per_node=args.samples_per_node,
                rounds=args.rounds, model=model, lr=0.05, batch_size=32,
                n_probes=2, seed=seed,
            )
            run = run_federated_partitioned(cfg, test_data, [nodes[i] for i in sorted(subset)])
            finals[name] = run.rounds[-1].test_loss
        chosen_losses.append(finals["selected"])
        rest_losses.append(finals["rest"])
        ids = ",".join(str(i) for i in sorted(selected))
        print(f"{seed:>6}{ids:>20}{finals['selected']:>15.4f}{finals['rest']:>12.4f}")
    print("-" * 53)
    print(f"{'mean':>6}{'':>20}{float(np.mean(chosen_losses)):>15.4f}"
          f"{float(np.mean(rest_losses)):>12.4f}")


if __name__ == "__main__":
    main()
