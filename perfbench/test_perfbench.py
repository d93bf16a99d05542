"""Self-tests of the benchmark: span arithmetic, metric names, tiny smoke runs.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import loop  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spec import PER_LAYER, RUN_SECONDS, SPEC  # noqa: E402
from tracer import Tracer, covered  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]) == 4.0
    assert covered((2.0, 5.0), [(0.0, 3.0), (4.0, 9.0)]) == 2.0
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("cli.execute_seed")
    clock.now = 1.0
    child = tracer.begin("model.gradient")
    clock.now = 3.0
    grandchild = tracer.begin("rng.derive_seed")
    clock.now = 3.5
    tracer.finish(grandchild)
    tracer.finish(child)
    clock.now = 4.0
    second = tracer.begin("model.loss")
    clock.now = 6.0
    tracer.finish(second)
    clock.now = 10.0
    tracer.finish(outer)

    assert tracer.self_times() == [10.0 - 2.5 - 2.0, 2.5 - 0.5, 0.5, 2.0]
    assert tracer.parent[grandchild] == child


def _seed_trace(stray_root=False, stray_seed=False):
    """Seed 1: cli.execute_seed over [0, 4] with a gradient over [1, 3] and
    0.5 s of bookkeeping. Optionally a loss span of [5, 6] outside the root, or
    the gradient recorded under seed 2."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.seed = 1
    root = tracer.begin("cli.execute_seed")
    clock.now = 1.0
    tracer.seed = 2 if stray_seed else 1
    child = tracer.begin("model.gradient")
    tracer.seed = 1
    with tracer.bookkeeping():
        clock.now = 1.5
    clock.now = 3.5
    tracer.finish(child)
    clock.now = 4.5
    tracer.finish(root)
    if stray_root:
        clock.now = 5.5
        stray = tracer.begin("model.loss")
        clock.now = 6.5
        tracer.finish(stray)
    # What the loop's own clock saw for the seed, bookkeeping included.
    seed_s = clock.now
    return tracer, loop.Pass([1], {1: seed_s}, {1: tracer.stolen})


def test_seed_time_gate_passes_when_spans_cover_the_seed():
    tracer, result = _seed_trace()
    assert loop.seed_time_problems(tracer, result) == []


@pytest.mark.parametrize("fault", ["stray_root", "stray_seed"])
def test_seed_time_gate_fails_on_time_outside_the_seed_tree(fault):
    tracer, result = _seed_trace(**{fault: True})
    (problem,) = loop.seed_time_problems(tracer, result)
    assert problem.startswith("seed 1: self times under cli.execute_seed")


def test_bookkeeping_time_is_hidden_from_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    idx = tracer.begin("model.loss")
    with tracer.bookkeeping():
        clock.now = 5.0
    clock.now = 6.0
    tracer.finish(idx)
    assert tracer.duration(idx) == 1.0


def test_install_wraps_every_bind_site_and_restores():
    import fedbound.flsim
    import fedbound.model
    import fedbound.probe

    original = fedbound.model.gradient
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert fedbound.model.gradient is not original
        assert fedbound.probe.gradient is fedbound.model.gradient
        assert fedbound.flsim.loss is fedbound.model.loss
        assert fedbound.model.gradient.__wrapped__ is original
    finally:
        restore()
    assert fedbound.model.gradient is original
    assert fedbound.probe.gradient is original


def test_benchmark_json_names_and_units():
    end_to_end = {m["name"]: m for m in SPEC["end_to_end"]}
    assert max(m["bound"] for m in end_to_end.values()) == end_to_end["setup_s"]["bound"]
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
        assert UNIT.match(entry["unit"]), entry["unit"]


def test_seed_blocks_are_disjoint_and_start_at_one():
    for workload in WORKLOADS.values():
        first = workload.seeds(0, RUN_SECONDS)
        second = workload.seeds(1, RUN_SECONDS)
        assert first[0] == 1
        assert not set(first) & set(second)


# Shrinks a workload to seconds; later config lines override earlier ones.
TINY = """
scenario.rounds = 3
scenario.samples_per_node = 40
probe.n_probes = 4
"""


def tiny(name: str):
    workload = WORKLOADS[name]
    # A new name keeps the pinned reference values of the full workload out.
    return replace(workload, name=f"{name}-smoke", body=workload.body + TINY)


def _config(workload, tmp_path, seeds):
    cfg_path = tmp_path / "w.cfg"
    cfg_path.write_text(workload.config_text(seeds, str(tmp_path / "runs")), encoding="utf-8")
    return cfg_path


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    workload = tiny(name)
    outcome = loop.measure(workload, [1, 2], _config(workload, tmp_path, [1, 2]))
    assert outcome.failed == {} and outcome.problems == []
    assert outcome.metrics["failed_frac"] == 0.0
    assert outcome.metrics["wall_s"] > 0.0 and outcome.metrics["peak_rss_mb"] > 0.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced(name, tmp_path):
    workload = tiny(name)
    outcome = loop.measure_traced(
        workload, [1], _config(workload, tmp_path, [1]), tmp_path / "trace.jsonl"
    )
    assert outcome.failed == {} and outcome.problems == []
    assert list(outcome.metrics) == list(PER_LAYER)
    assert outcome.metrics["model.gradient.calls"] > 0
    first = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
    assert set(first) >= {"name", "start", "end", "parent", "seed"}


def test_guard_fails_when_a_required_span_is_silent(tmp_path):
    workload = replace(
        tiny("hetero8"), required_spans=("model.gradient", "analysis.report_inputs_from_dir")
    )
    outcome = loop.measure_traced(
        workload, [1], _config(workload, tmp_path, [1]), tmp_path / "trace.jsonl"
    )
    assert outcome.problems == ["span analysis.report_inputs_from_dir recorded no calls"]


def test_broken_run_dir_fails_the_gate(tmp_path):
    import checks

    workload = tiny("hetero8")
    cfg_path = _config(workload, tmp_path, [1])
    from fedbound import config

    cfg = config.load_config(cfg_path)
    loop.run_seed(cfg, 1, False, None)
    run_dir = loop.run_dir_of(cfg, 1)
    assert checks.check_run_dir(run_dir) == []
    rounds = run_dir / "rounds.csv"
    rounds.write_text("\n".join(rounds.read_text().split("\n")[:-2]) + "\n")
    assert any("rounds.csv has 2 rows" in p for p in checks.check_run_dir(run_dir))


def test_layer_metrics_from_a_hand_built_trace():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.seed = 7
    seed_span = tracer.begin("cli.execute_seed")
    engine = tracer.begin("flsim.run_federated_partitioned")
    clock.now = 1.0
    loss = tracer.begin("model.loss")
    clock.now = 1.5
    tracer.finish(loss)
    clock.now = 2.0
    tracer.finish(engine)
    tracer.finish(seed_span)
    m = layer_metrics(tracer, [7])
    assert m["flsim.eval_loss.s"] == 0.5
    assert m["flsim.engine_self.s"] == 1.5
    assert m["cli.execute_seed.s"] == 2.0
    assert m["model.loss.calls"] == 1
    assert layer_metrics(tracer, [8])["model.loss.calls"] == 0
