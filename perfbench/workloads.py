"""Benchmark workloads: the config text each one feeds to fedbound.

The benchmark writes these configs itself; fedbound receives nothing but the
generated file. A run's seeds form a disjoint block picked by the benchmark
seed, so ``--seed 0`` covers fedbound seeds ``1..n`` (the shipped configs'
``repeat_seeds`` start there) and each further benchmark seed the next ``n``.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seconds of nominal seed time per calibration call between seeds (calibrate.py).
# A long seed gets several calls, so its host-speed estimate has about as many
# samples per second of seed as a short seed's.
CAL_PERIOD_S = 0.35


@dataclass(frozen=True)
class Workload:
    name: str
    body: str
    # Untraced seconds per seed on the reference machine. Only sizes the seed
    # block: a run of ``--seconds S`` always does round(S / nominal_seed_s)
    # seeds, so a faster program finishes the same work sooner.
    nominal_seed_s: float
    # `fedbound report` runs on every run directory after `run`.
    report: bool
    # Spans that must record at least one call, or the traced run fails.
    required_spans: tuple[str, ...]

    @property
    def cal_calls(self) -> int:
        """Calibration calls after each seed (and before the first)."""
        return max(1, round(self.nominal_seed_s / CAL_PERIOD_S))

    def n_seeds(self, seconds: float) -> int:
        return max(1, round(seconds / self.nominal_seed_s))

    def seeds(self, bench_seed: int, seconds: float) -> list[int]:
        n = self.n_seeds(seconds)
        return [bench_seed * n + k + 1 for k in range(n)]

    def config_text(self, seeds, output_dir: str) -> str:
        seed_list = ",".join(str(s) for s in seeds)
        return (
            f"{self.body.strip()}\n\n"
            f"scenario.seed = {seeds[0]}\n"
            f"output.dir = {output_dir}\n"
            f"repeat_seeds = {seed_list}\n"
        )


_COMMON_SPANS = (
    "config.load_config",
    "cli.execute_seed",
    "data.gen_synthetic",
    "probe.collect_probes",
    "model.gradient",
    "model.loss",
    "model.sgd_epoch_traced",
    "flsim.run_federated_partitioned",
    "flsim.local_round",
    "flsim.fedavg",
    "flsim.save_run",
    "bound.estimate_initial_distance",
    "analysis.report_inputs_from_run",
    "analysis.write_reports",
    "analysis.correlate",
    "csvio.write_csv",
    "rng.derive_seed",
)

# ten_nodes widened to the ROADMAP's MLP workload: 192 features, 64 hidden
# units, 10 nodes x 1000 samples, 100 probes, 30 rounds.
WIDE_MLP = Workload(
    name="wide_mlp",
    body="""
scenario.name = wide_mlp
scenario.n_nodes = 10
scenario.samples_per_node = 1000
scenario.rounds = 30
scenario.lr = 0.1
scenario.batch_size = 32
scenario.test_fraction = 0.1
model.kind = mlp
model.l2 = 0.01
model.hidden_width = 64
probe.n_probes = 100
probe.sampler = init
probe.g_formula = gradient-norm
data.source = synthetic
data.num_classes = 4
data.feature_dim = 192
data.samples_per_class = 2800
data.separation = 0.6
data.noise_sigma = 0.2
""",
    nominal_seed_s=9.0,
    report=False,
    required_spans=_COMMON_SPANS + ("flsim.partition_dataset",),
)

# configs/hetero_eight_nodes.cfg as shipped.
HETERO8 = Workload(
    name="hetero8",
    body="""
scenario.name = hetero_eight_nodes
scenario.n_nodes = 8
scenario.samples_per_node = 150
scenario.rounds = 25
scenario.lr = 0.05
scenario.batch_size = 32
model.kind = softmax
model.l2 = 0.01
probe.n_probes = 80
data.source = synthetic
data.num_classes = 4
data.feature_dim = 8
data.samples_per_class = 10
data.separation = 0.7
data.noise_sigma = 0.12
data.feature_scale = 0.35, 0.44, 0.54, 0.63, 0.72, 0.81, 0.91, 1.0
selection.k = 4
""",
    nominal_seed_s=0.35,
    report=False,
    required_spans=tuple(s for s in _COMMON_SPANS if s != "data.gen_synthetic")
    + ("data.gen_synthetic_nodes", "bound.convergence_bound"),
)

# ten_nodes with 2 probes, 150 rounds and batch 8, then `fedbound report`.
SGD_ROUNDS = Workload(
    name="sgd_rounds",
    body="""
scenario.name = sgd_rounds
scenario.n_nodes = 10
scenario.samples_per_node = 150
scenario.rounds = 150
scenario.lr = 0.1
scenario.batch_size = 8
scenario.test_fraction = 0.1
model.kind = softmax
model.l2 = 0.01
probe.n_probes = 2
probe.sampler = init
probe.g_formula = gradient-norm
data.source = synthetic
data.num_classes = 4
data.feature_dim = 8
data.samples_per_class = 600
data.separation = 0.6
data.noise_sigma = 0.2
""",
    nominal_seed_s=2.5,
    report=True,
    required_spans=_COMMON_SPANS
    + (
        "flsim.partition_dataset",
        "bound.convergence_bound",
        "cli.report",
        "analysis.report_inputs_from_dir",
        "csvio.read_csv",
    ),
)

WORKLOADS = {w.name: w for w in (WIDE_MLP, HETERO8, SGD_ROUNDS)}
