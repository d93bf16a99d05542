"""The timed section: one client runs a workload's seeds serially (closed loop).

Each seed is what one ``fedbound run`` does per seed, ``cli.execute_seed``,
followed on report workloads by ``fedbound report`` on the run directory.
Outputs are checked after each pass, outside the timed section.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from fedbound import cli, config

import checks
from calibrate import calibrate
from layers import EXACT, layer_metrics, span_calls, span_seed_seconds
from spec import PER_LAYER
from tracer import Tracer
from workloads import Workload

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# A traced seed's time measured outside the tracer exceeds its root spans only
# by the loop's own few statements; a larger gap fails the traced run.
SEED_GAP_S = 5e-3
SEED_GAP_FRAC = 0.002


@dataclass
class Pass:
    seeds: list[int]
    seed_s: dict[int, float]
    # Per seed: the tracer's bookkeeping seconds, hidden from its spans.
    stolen_s: dict[int, float]
    failed: dict[int, str] = field(default_factory=dict)
    digest_matches: int = 0

    @property
    def wall_s(self) -> float:
        """Seconds spent in seeds, calibration between them excluded."""
        return sum(self.seed_s.values())


def load_reference(workload: str) -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})


def selftest() -> bool:
    """`fedbound selftest`, run once per benchmark invocation."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(["selftest"]) == 0


def run_dir_of(cfg, seed: int) -> Path:
    return cfg.output_dir / f"{cfg.scenario_name}_seed{seed}"


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_seed(cfg, seed: int, report: bool, tracer: Tracer | None) -> None:
    cli.execute_seed(cfg, seed)
    if report:
        with _span(tracer, "cli.report"), contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["report", "--run", str(run_dir_of(cfg, seed))])
        if status != 0:
            raise RuntimeError(f"fedbound report exited with {status}")


def timed_pass(cfg, seeds, report: bool, tracer: Tracer | None = None, between=None) -> Pass:
    """Run the seeds one after another; ``between`` runs after each, untimed."""
    seed_s: dict[int, float] = {}
    stolen_s: dict[int, float] = {}
    failed: dict[int, str] = {}
    for seed in seeds:
        stolen0 = 0.0
        if tracer is not None:
            tracer.seed = seed
            stolen0 = tracer.stolen
        s0 = time.perf_counter()
        try:
            run_seed(cfg, seed, report, tracer)
        except Exception as exc:  # one failing seed is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            failed[seed] = f"{type(exc).__name__}: {exc}"
        seed_s[seed] = time.perf_counter() - s0
        stolen_s[seed] = tracer.stolen - stolen0 if tracer is not None else 0.0
        if between is not None:
            between()
    return Pass(list(seeds), seed_s, stolen_s, failed)


def seed_time_problems(tracer: Tracer, result: Pass) -> list[str]:
    """Seeds whose spans do not add up to their time measured outside the tracer.

    The outside time is the loop's per-seed clock less the tracer's
    bookkeeping during that seed; the span side sums the self times under the
    seed's cli.execute_seed and cli.report spans.
    """
    spans = span_seed_seconds(tracer)
    problems = []
    for seed in result.seeds:
        if seed in result.failed:
            continue
        outside = result.seed_s[seed] - result.stolen_s[seed]
        gap = outside - spans.get(seed, 0.0)
        if abs(gap) > max(SEED_GAP_S, SEED_GAP_FRAC * outside):
            problems.append(
                f"seed {seed}: self times under cli.execute_seed and cli.report miss "
                f"{gap:.6f} s of the {outside:.6f} s timed outside the tracer"
            )
    return problems


def check_pass(cfg, result: Pass, reference: dict) -> None:
    """Record in ``result`` every seed whose run directory fails a check."""
    for seed in result.seeds:
        if seed in result.failed:
            continue
        run_dir = run_dir_of(cfg, seed)
        problems = checks.check_run_dir(run_dir)
        pinned = reference.get(str(seed))
        if not problems and pinned is not None:
            problems = checks.check_pinned(checks.run_summary(run_dir), pinned["summary"])
            if checks.tree_digest(run_dir) == pinned["digest"]:
                result.digest_matches += 1
        if problems:
            result.failed[seed] = "; ".join(problems)


@dataclass
class Outcome:
    attempted: int
    failed: dict[int, str]
    problems: list[str]
    metrics: dict[str, float]
    units: dict[str, str]


def measure(workload: Workload, seeds: list[int], cfg_path: Path) -> Outcome:
    """Untraced run: the end-to-end metrics except set-up time.

    The calibration loop runs before the first seed and after every seed,
    outside the seed timings.
    """
    problems = [] if selftest() else ["fedbound selftest failed"]
    cfg = config.load_config(cfg_path)
    cal_s: list[float] = []

    def calibrate_between() -> None:
        cal_s.extend(calibrate() for _ in range(workload.cal_calls))

    calibrate_between()
    result = timed_pass(cfg, seeds, workload.report, between=calibrate_between)
    check_pass(cfg, result, load_reference(workload.name))
    times = [result.seed_s[s] for s in seeds]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": result.wall_s,
        "seed_s.p50": statistics.median(times),
        "cal_s.mean": statistics.fmean(cal_s),
        "seed_rel_cal": statistics.fmean(times) / statistics.fmean(cal_s),
        "peak_rss_mb": peak_mb,
        "failed_frac": len(result.failed) / len(seeds),
    }
    units = {
        "wall_s": "s", "seed_s.p50": "s", "cal_s.mean": "s",
        "seed_rel_cal": "ratio", "peak_rss_mb": "MB", "failed_frac": "ratio",
    }
    return Outcome(len(seeds), result.failed, problems, metrics, units)


def measure_traced(workload: Workload, seeds: list[int], cfg_path: Path, trace_file: Path) -> Outcome:
    """Traced run: an untraced pass, the same seeds traced, then the first seed again."""
    problems = [] if selftest() else ["fedbound selftest failed"]
    reference = load_reference(workload.name)
    cfg = config.load_config(cfg_path)
    plain = timed_pass(cfg, seeds, workload.report)
    check_pass(cfg, plain, reference)

    tracer = Tracer()
    restore = tracer.install()
    try:
        cfg = config.load_config(cfg_path)
        traced = timed_pass(cfg, seeds, workload.report, tracer)
    finally:
        restore()
    check_pass(cfg, traced, reference)
    repeat = Tracer()
    restore = repeat.install()
    try:
        again = timed_pass(cfg, seeds[:1], workload.report, repeat)
    finally:
        restore()
    check_pass(cfg, again, reference)
    failed = {**plain.failed, **traced.failed, **again.failed}

    calls = span_calls(tracer, seeds)
    for name in workload.required_spans:
        if calls.get(name, 0) == 0:
            problems.append(f"span {name} recorded no calls")
    problems += seed_time_problems(tracer, traced)
    first, second = layer_metrics(tracer, seeds[:1]), layer_metrics(repeat, seeds[:1])
    for name in EXACT:
        if first[name] != second[name]:
            problems.append(f"{name} differs between two traced runs: {first[name]} vs {second[name]}")

    metrics = layer_metrics(tracer, seeds)
    metrics["flsim.tree_digest_match"] = traced.digest_matches
    metrics["trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    tracer.write_jsonl(trace_file)
    return Outcome(len(seeds), failed, problems, {n: metrics[n] for n in PER_LAYER}, dict(PER_LAYER))
