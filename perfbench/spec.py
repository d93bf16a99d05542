"""BENCHMARK.json, the one list of the benchmark's run length and metrics."""

from __future__ import annotations

import json
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)

# Seconds one run measures.
RUN_SECONDS: int = SPEC["run_seconds"]
# Bounded end-to-end metrics: the result line of an untraced run.
END_TO_END: tuple[str, ...] = tuple(m["name"] for m in SPEC["end_to_end"])
# Per-layer metric name -> unit: the result line of a traced run.
PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
