"""Per-layer metrics computed from a traced pass.

Names follow ``<module>.<function>.<stat>``: ``.s`` is busy seconds (the
summed duration of the function's spans, callees included), ``.calls`` a
count. Counts (``.calls``, ``.rows``, ``.bytes``, ``probe.probes``,
``model.sgd_steps``, ``unique_frac``) repeat exactly between two traced runs
of the same seed; seconds do not.
"""

from __future__ import annotations

from collections import defaultdict

from spec import PER_LAYER
from tracer import NO_PARENT, NO_SEED, Tracer

# Metrics that must repeat exactly between two traced runs of one seed.
EXACT = tuple(
    name
    for name, unit in PER_LAYER.items()
    if unit in ("count", "bytes") and name != "flsim.tree_digest_match"
) + ("model.gradient.unique_frac", "model.loss.unique_frac")

DATA_BUILD = ("data.gen_synthetic", "data.gen_synthetic_nodes", "flsim.partition_dataset")
ENGINE = "flsim.run_federated_partitioned"
# The spans one seed of the timed loop consists of.
SEED_ROOTS = ("cli.execute_seed", "cli.report")


class _Totals:
    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.work = defaultdict(int)

    def s(self, *names: str) -> float:
        return sum(self.seconds[n] for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _totals(tracer: Tracer, seeds) -> tuple[_Totals, float, float]:
    """Per-name calls, seconds and work over the spans of ``seeds``.

    Also returns the engine's self time and the time of engine-level loss
    evaluations (loss spans whose parent is the engine).
    """
    seeds = set(seeds)
    tot = _Totals()
    engine_id = tracer.names.index(ENGINE) if ENGINE in tracer.names else None
    engine_spans = []
    eval_loss = 0.0
    for idx in range(len(tracer)):
        name = tracer.name(idx)
        # Set-up spans (config loading) carry no seed; they count everywhere.
        if tracer.seed_of[idx] not in seeds and tracer.seed_of[idx] != NO_SEED:
            continue
        dur = tracer.duration(idx)
        tot.calls[name] += 1
        tot.seconds[name] += dur
        for field, amount in tracer.work.get(idx, {}).items():
            tot.work[f"{name}.{field}"] += amount
        parent = tracer.parent[idx]
        if name == "model.loss" and parent >= 0 and tracer.name_id[parent] == engine_id:
            eval_loss += dur
        if name == ENGINE:
            engine_spans.append(idx)
    self_times = tracer.self_times() if engine_spans else []
    engine_self = sum(self_times[i] for i in engine_spans)
    return tot, engine_self, eval_loss


def unique_frac(tracer: Tracer, seeds, name: str, calls: int) -> float:
    distinct = sum(len(tracer.keys.get((seed, name), ())) for seed in seeds)
    return _ratio(distinct, calls)


def layer_metrics(tracer: Tracer, seeds) -> dict[str, float]:
    """Every per-layer metric except those measured outside the trace."""
    seeds = list(seeds)
    tot, engine_self, eval_loss = _totals(tracer, seeds)
    seed_s = tot.s(*SEED_ROOTS)
    bound_names = [n for n in tot.calls if n.startswith("bound.")]
    m = {
        "probe.collect_probes.s": tot.s("probe.collect_probes"),
        "probe.probes": tot.work["probe.collect_probes.probes"],
        "model.gradient.rows": tot.work["model.gradient.rows"],
        "model.loss.rows": tot.work["model.loss.rows"],
        "model.sgd_steps": tot.work["model.sgd_epoch_traced.steps"],
        "flsim.eval_loss.s": eval_loss,
        "flsim.engine_self.s": engine_self,
        "data.build.s": tot.s(*DATA_BUILD),
        "data.rows": tot.work["data.gen_synthetic.rows"] + tot.work["data.gen_synthetic_nodes.rows"],
        "bound.calls": sum(tot.calls[n] for n in bound_names),
        "bound.s": tot.s(*bound_names),
        "csvio.write_csv.bytes": tot.work["csvio.write_csv.bytes"],
        "csvio.read_csv.bytes": tot.work["csvio.read_csv.bytes"],
    }
    for span in (
        "model.gradient", "model.loss", "model.sgd_epoch_traced", "flsim.local_round",
        "flsim.fedavg", "analysis.correlate", "csvio.write_csv", "csvio.read_csv",
    ):
        m[f"{span}.calls"] = tot.calls[span]
        m[f"{span}.s"] = tot.s(span)
    for span in (
        "flsim.save_run", "analysis.write_reports", "analysis.report_inputs_from_run",
        "analysis.report_inputs_from_dir", "config.load_config", "cli.execute_seed", "cli.report",
    ):
        m[f"{span}.s"] = tot.s(span)
    m["rng.derive_seed.calls"] = tot.calls["rng.derive_seed"]
    m["probe.probes_per_s"] = _ratio(m["probe.probes"], m["probe.collect_probes.s"])
    m["probe.share"] = _ratio(m["probe.collect_probes.s"], seed_s)
    m["model.gradient.rows_per_s"] = _ratio(m["model.gradient.rows"], m["model.gradient.s"])
    m["model.sgd_steps_per_s"] = _ratio(m["model.sgd_steps"], m["model.sgd_epoch_traced.s"])
    for span in ("model.gradient", "model.loss"):
        m[f"{span}.unique_frac"] = unique_frac(tracer, seeds, span, m[f"{span}.calls"])
    return m


def span_calls(tracer: Tracer, seeds) -> dict[str, int]:
    """Calls per span name over the spans of ``seeds`` (set-up spans included)."""
    tot, _, _ = _totals(tracer, seeds)
    return dict(tot.calls)


def span_seed_seconds(tracer: Tracer) -> dict[int, float]:
    """Per seed: the self times summed over the subtrees of its root SEED_ROOTS spans.

    Only spans recorded under that seed count. Work done outside the root
    spans, or a span attributed to another seed, leaves the sum short of the
    seed's time measured outside the tracer.
    """
    kids = tracer.children()
    self_times = tracer.self_times()
    totals: dict[int, float] = defaultdict(float)
    for idx in range(len(tracer)):
        if tracer.parent[idx] != NO_PARENT or tracer.name(idx) not in SEED_ROOTS:
            continue
        seed = tracer.seed_of[idx]
        stack = [idx]
        while stack:
            node = stack.pop()
            if tracer.seed_of[node] == seed:
                totals[seed] += self_times[node]
            stack.extend(kids.get(node, ()))
    return dict(totals)
