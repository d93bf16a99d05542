"""Command-line entry point.

Subcommands:

* ``run``      -- full pipeline: per-seed federated runs, analysis reports,
                  and a summary.csv of every run directory in the output
* ``probe``    -- constants estimation only; prints per-node and global (mu, L, G)
* ``report``   -- regenerate the analysis CSVs of a run directory, or print
                  the tables of the saved runs of an output directory
* ``selftest`` -- built-in gradient and probe-oracle checks

The environment variable ``FEDBOUND_SEED`` overrides the configured seed.
``run`` sets up every seed (``config.preflight``) before it trains them one by
one, and ``probe`` sets up only the seed it prints and prints the constants it
probed, so a config that cannot run exits 2 naming its line.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, flsim, probe
from .bound import BoundParams, convergence_bound
from .config import ConfigError, ExperimentConfig, echo_lines, preflight, read_config
from .model import (
    Dataset,
    finite_difference_gradient,
    gradient,
    init_params,
    mlp_spec,
    quadratic_spec,
    softmax_spec,
)
from .rng import normal_rows, permutation_rows, spawn_rng


def _replace_dir(tmp_dir: Path, final_dir: Path) -> Path:
    """Rename ``tmp_dir`` to ``final_dir``; a previous ``final_dir`` survives a failed swap.

    The previous directory is moved aside first; the path it was moved to is
    returned, for the caller to delete once the new one is in place. One left
    aside by an earlier swap goes first: deleted if ``final_dir`` exists, and
    otherwise put back, since it is the last complete run of a swap that was
    cut off.
    """
    old_dir = final_dir.with_name(f".old-{final_dir.name}")
    if old_dir.exists():
        if final_dir.exists():
            shutil.rmtree(old_dir)
        else:
            old_dir.rename(final_dir)
    if final_dir.exists():
        final_dir.rename(old_dir)
    try:
        tmp_dir.rename(final_dir)
    except BaseException:
        if old_dir.exists():
            old_dir.rename(final_dir)
        raise
    return old_dir


def run_one_seed(cfg: ExperimentConfig, setup: flsim.Setup) -> None:
    """Train, bound and write the seed of a :func:`preflight` set-up under its seeded
    scenario; each bound note reaches stderr as a ``warning: seed <s>:`` line. The run
    directory is staged as ``.tmp-<run>``, removed on failure; a previous one that cannot
    be deleted only warns."""
    seed = setup.scenario.seed
    run = flsim.run_federated_partitioned(setup)
    for note in run.bound_notes:
        print(f"warning: seed {seed}: {note}", file=sys.stderr)
    run_name = f"{cfg.scenario_name}_seed{seed}"
    final_dir = cfg.output_dir / run_name
    tmp_dir = cfg.output_dir / f".tmp-{run_name}"
    if tmp_dir.exists():
        shutil.rmtree(tmp_dir)
    try:
        flsim.save_run(run, tmp_dir, echo_lines(replace(cfg, scenario=setup.scenario)))
        inputs = replace(analysis.report_inputs_from_run(run), selection_k=cfg.selection_k)
        analysis.write_reports(tmp_dir, inputs)
        old_dir = _replace_dir(tmp_dir, final_dir)
    except BaseException:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        raise
    if old_dir.exists():
        try:
            shutil.rmtree(old_dir)
        except OSError as exc:
            print(f"warning: seed {seed}: could not remove {old_dir}: {exc}", file=sys.stderr)


def execute_seed(cfg: ExperimentConfig, seed: int) -> None:
    """Set up one seed and run it: what ``fedbound run`` does for each seed."""
    run_one_seed(cfg, preflight(cfg, seed))


def run_experiment(cfg: ExperimentConfig) -> int:
    """Set up every repeat seed, run each, then rebuild summary.csv from the output directory.

    No seed trains before every seed is set up; each set-up is held until its
    seed is written. Every seed runs, in order, even after one fails. The first
    seed to save its run makes the output directory, and
    :func:`analysis.write_summary` then lists every run directory in it.
    Last, a ``ValueError`` names the first seed that failed.
    """
    seeds = list(cfg.repeat_seeds)
    setups = {seed: preflight(cfg, seed) for seed in seeds}
    failed = []
    for seed in seeds:
        try:
            run_one_seed(cfg, setups.pop(seed))
        except Exception as exc:
            failed.append((seed, str(exc)))
    if cfg.output_dir.is_dir():
        analysis.write_summary(cfg.output_dir)
    if failed:
        seed, error = failed[0]
        others = f" ({len(failed)} of {len(seeds)} seeds failed)" if len(failed) > 1 else ""
        raise ValueError(f"seed {seed} failed: {error}{others}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_config_with_env(args.config)
    if args.out:
        cfg = replace(cfg, output_dir=Path(args.out))
    return run_experiment(cfg)


def _cmd_probe(args) -> int:
    cfg = _load_config_with_env(args.config)
    probed = preflight(cfg, cfg.repeat_seeds[0]).probed
    names = [f"node {i}" for i in range(len(probed.node_constants))] + ["global"]
    for name, est in zip(names, (*probed.node_constants, probed.global_constants)):
        print(f"{name}: mu={est.mu:.9g} L={est.L:.9g} G={est.G:.9g} n_probes={est.n_probes}")
    return 0


def _cmd_report(args) -> int:
    run_dir = Path(args.run)
    if (run_dir / "rounds.csv").exists():
        analysis.write_reports(run_dir, analysis.report_inputs_from_dir(run_dir))
        print(f"reports regenerated under {run_dir}")
        return 0
    rows = analysis.output_rows(run_dir) if run_dir.is_dir() else []
    if not rows:
        kinds = "a run directory (no rounds.csv) nor an output directory (no <name>_seed<s>)"
        print(f"error: {run_dir} is neither {kinds}", file=sys.stderr)
        return 1
    print("\n".join(_tables(rows)))
    return 0


def _tables(rows: list[tuple]) -> list[str]:
    """The two tables of :func:`analysis.output_rows`, a line per run, then a
    mean line per scenario: the final losses and bound, then the constants'
    correlations with usefulness and the g medians."""
    width = max(24, *(len(row[0]) for row in rows))
    seed_width = max(6, *(len(str(row[1])) for row in rows))
    means = [
        (name, "mean", *np.mean([row[2:] for row in rows if row[0] == name], axis=0))
        for name in dict.fromkeys(row[0] for row in rows)
    ]
    label = f"{'scenario':<{width}} {'seed':>{seed_width}}"
    triple = f"{'mu':>8}{'L':>8}{'G':>8}"
    coefficients = "  {:>+8.3f}{:>+8.3f}{:>+8.3f}"
    tables = (
        ([f"{label}{'train':>10}{'test':>10}{'bound':>12}"], "{:>10.4f}{:>10.4f}{:>12.1f}", 2),
        (
            [
                f"{'':<{len(label)}}  {'pearson':^24}  {'spearman':^24}  {'median g':^20}".rstrip(),
                f"{label}  {triple}  {triple}  {'probe':>10}{'training':>10}",
            ],
            coefficients * 2 + "  {:>10.3f}{:>10.3f}",
            5,
        ),
    )
    lines = []
    for header, cells, first in tables:
        rule = "-" * len(header[-1])
        body = [
            f"{r[0]:<{width}} {r[1]:>{seed_width}}" + cells.format(*r[first:])
            for r in rows + means
        ]
        lines += ["", *header, rule, *body[: len(rows)], rule, *body[len(rows) :]]
    return lines[1:]


def _selftest_gradients(n_cases: int = 20) -> bool:
    rng = spawn_rng("selftest", 0)
    worst = 0.0
    for case in range(n_cases):
        dim = int(rng.integers(2, 6))
        classes = int(rng.integers(2, 5))
        if case % 2 == 0:
            spec = softmax_spec(dim, classes, l2=float(rng.uniform(0, 0.2)))
        else:
            spec = mlp_spec(dim, classes, int(rng.integers(2, 5)), l2=float(rng.uniform(0, 0.2)))
        n = int(rng.integers(2, 8))
        data = Dataset(rng.uniform(0, 1, (n, dim)), rng.integers(0, classes, n), classes)
        params = init_params(spec, 1000 + case)
        analytic = gradient(spec, params[None], data)[0]
        numeric = finite_difference_gradient(spec, params, data)
        denom = max(float(np.abs(analytic).max()), 1e-8)
        worst = max(worst, float(np.abs(analytic - numeric).max()) / denom)
    ok = worst <= 1e-5
    print(f"{'PASS' if ok else 'FAIL'} gradient-vs-finite-difference (max rel err {worst:.3g})")
    return ok


def _selftest_quadratic() -> bool:
    data = Dataset(np.full((1, 2), 0.5), np.zeros(1, dtype=np.int64), 1)
    spec = quadratic_spec([1.0, 4.0])
    diag = probe.constants_from_samples(probe.collect_probes(spec, data, 1000, rng_seed=7))
    ok_diag = diag.mu >= 1.0 - 1e-9 and diag.L <= 4.0 + 1e-9
    print(f"{'PASS' if ok_diag else 'FAIL'} quadratic probe bracket "
          f"(m in [{diag.mu:.6f}, {diag.L:.6f}], expected [1, 4])")
    ident = quadratic_spec([1.0, 1.0, 1.0])
    est = probe.constants_from_samples(probe.collect_probes(ident, data, 200, rng_seed=8))
    ok_ident = abs(est.mu - 1.0) <= 1e-9 and abs(est.L - 1.0) <= 1e-9
    print(f"{'PASS' if ok_ident else 'FAIL'} identity curvature (mu={est.mu:.12f}, L={est.L:.12f})")
    return ok_diag and ok_ident


def _selftest_rng() -> bool:
    # A numpy whose SeedSequence or PCG64 seeding drifted would fail here
    # instead of silently moving every probe sample.
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1]
    normals = normal_rows("probe-pair", seeds, 8)
    orders = permutation_rows("sgd", seeds, 150)
    ok = all(
        normal.tobytes() == spawn_rng("probe-pair", seed).standard_normal(8).tobytes()
        and order.tobytes() == spawn_rng("sgd", seed).permutation(150).tobytes()
        for normal, order, seed in zip(normals, orders, seeds)
    )
    print(f"{'PASS' if ok else 'FAIL'} batched seeding equals spawn_rng "
          f"(normals and permutations, {len(seeds)} seeds)")
    return ok


def _selftest_bound() -> bool:
    p = BoundParams(mu=1.0, L=2.0, G=1.0, init_distance=1.0)
    first = convergence_bound(1, p)
    mid = convergence_bound(17, p)
    ok = abs(first - 24.0) < 1e-12 and abs(mid - 12.0) < 1e-12
    print(f"{'PASS' if ok else 'FAIL'} bound arithmetic (t=1 -> {first}, t=17 -> {mid})")
    return ok


def _cmd_selftest(_args) -> int:
    results = [_selftest_gradients(), _selftest_quadratic(), _selftest_rng(), _selftest_bound()]
    return 0 if all(results) else 1


def _load_config_with_env(path: str) -> ExperimentConfig:
    """The config at ``path``, its seeds overridden by ``FEDBOUND_SEED``."""
    cfg = read_config(path)
    env_seed = os.environ.get("FEDBOUND_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"FEDBOUND_SEED must be an integer, got {env_seed!r}") from None
        cfg = replace(cfg, repeat_seeds=(seed,))
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedbound", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full experiment pipeline")
    run_p.add_argument("--config", required=True, help="path to a key = value config file")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.set_defaults(func=_cmd_run)

    probe_p = sub.add_parser("probe", help="estimate constants only")
    probe_p.add_argument("--config", required=True)
    probe_p.set_defaults(func=_cmd_probe)

    report_p = sub.add_parser("report", help="rewrite a run directory's analysis CSVs, "
                              "or print the tables of an output directory's runs")
    report_p.add_argument("--run", required=True, help="a run directory (holds rounds.csv) or "
                          "an output directory (holds <name>_seed<s> run directories)")
    report_p.set_defaults(func=_cmd_report)

    selftest_p = sub.add_parser("selftest", help="gradient and probe-oracle checks")
    selftest_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, probe.ProbeFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
