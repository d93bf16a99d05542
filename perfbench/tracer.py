"""Span tracer that times fedbound's layers from outside the package.

Spans are recorded by wrapping public functions at every module binding that
refers to them: ``from .model import gradient`` in ``fedbound.probe`` makes a
second binding, ``fedbound.probe.gradient``, that must be wrapped as well as
``fedbound.model.gradient``. Each span holds a name, start, end, parent span
and the fedbound seed being run, which is the identifier shared by all spans
of one seed. Spans stay in memory as columns and are written out once, after
the run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

NO_PARENT = -1
NO_SEED = -1

# Functions wrapped per module. Per-cell helpers such as csvio.fmt_value are
# left out on purpose: a span per CSV cell would cost more than write_csv.
TRACED = {
    "config": ("load_config",),
    "data": ("gen_synthetic", "gen_synthetic_nodes"),
    "probe": ("collect_probes", "compute_m", "compute_g", "aggregate_global"),
    "model": ("loss", "gradient", "sgd_epoch_traced", "init_params"),
    "flsim": (
        "partition_dataset",
        "run_federated",
        "run_federated_partitioned",
        "local_round",
        "fedavg",
        "save_run",
    ),
    "bound": ("convergence_bound", "estimate_initial_distance"),
    "analysis": (
        "report_inputs_from_run",
        "report_inputs_from_dir",
        "write_reports",
        "correlate",
    ),
    "csvio": ("write_csv", "read_csv"),
    "rng": ("derive_seed", "spawn_rng"),
    "cli": ("execute_seed", "run_one_seed"),
}

# Spans whose calls get a content key, so distinct inputs can be counted.
KEYED = ("model.loss", "model.gradient")


def covered(parent: tuple[float, float], children) -> float:
    """Length of the union of child intervals, clipped to the parent interval."""
    lo, hi = parent
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(children):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self._raw_clock = clock
        # Seconds spent on the tracer's own bookkeeping (input hashing, work
        # counts). Span timestamps exclude it, so layer times are the program's.
        self.stolen = 0.0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.seed_of = array("q")
        # Span index -> {"rows": n, "bytes": n, ...} for the few spans that count work.
        self.work: dict[int, dict[str, int]] = {}
        # (seed, span name) -> distinct input keys seen.
        self.keys: dict[tuple[int, str], set[bytes]] = {}
        self.seed = NO_SEED
        self._stack: list[int] = []
        self._data_keys: dict[int, tuple[weakref.ref, bytes]] = {}

    def __len__(self) -> int:
        return len(self.start)

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.seed_of.append(self.seed)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def clock(self) -> float:
        return self._raw_clock() - self.stolen

    @contextmanager
    def bookkeeping(self):
        """Time spent inside is hidden from every span."""
        t0 = self._raw_clock()
        try:
            yield
        finally:
            self.stolen += self._raw_clock() - t0

    def finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (top was {popped})")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def count(self, idx: int, field: str, amount: int) -> None:
        bucket = self.work.setdefault(idx, {})
        bucket[field] = bucket.get(field, 0) + amount

    def _dataset_key(self, data) -> bytes:
        entry = self._data_keys.get(id(data))
        if entry is not None and entry[0]() is data:
            return entry[1]
        h = hashlib.blake2b(digest_size=16)
        h.update(data.features.tobytes())
        h.update(data.labels.tobytes())
        key = h.digest()
        self._data_keys[id(data)] = (weakref.ref(data), key)
        return key

    def note_input(self, name: str, params, data) -> None:
        h = hashlib.blake2b(np.ascontiguousarray(params, dtype=np.float64), digest_size=16)
        h.update(self._dataset_key(data))
        self.keys.setdefault((self.seed, name), set()).add(h.digest())

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)
        keyed = name in KEYED
        tracer = self

        def traced(*args, **kwargs):
            if keyed:
                with tracer.bookkeeping():
                    tracer.note_input(name, args[1], args[2])
            idx = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if after is not None:
                with tracer.bookkeeping():
                    after(tracer, idx, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Wrap every binding of the TRACED functions in fedbound's modules.

        Returns a function that restores the original bindings.
        """
        modules = {
            mod_name: mod
            for mod_name, mod in sys.modules.items()
            if mod is not None and (mod_name == "fedbound" or mod_name.startswith("fedbound."))
        }
        patched: list[tuple[object, str, object]] = []
        for short, fn_names in TRACED.items():
            home = modules[f"fedbound.{short}"]
            for fn_name in fn_names:
                original = getattr(home, fn_name)
                wrapper = self.wrap(f"{short}.{fn_name}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

        def restore():
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

        return restore

    # -- reading -------------------------------------------------------------

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for idx, parent in enumerate(self.parent):
            if parent != NO_PARENT:
                kids.setdefault(parent, []).append(idx)
        return kids

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        kids = self.children()
        out = []
        for idx in range(len(self)):
            interval = (self.start[idx], self.end[idx])
            child_iv = [(self.start[c], self.end[c]) for c in kids.get(idx, ())]
            out.append(self.duration(idx) - covered(interval, child_iv))
        return out

    def write_jsonl(self, path) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for idx in range(len(self)):
                record = {
                    "id": idx,
                    "name": self.name(idx),
                    "start": self.start[idx],
                    "end": self.end[idx],
                    "parent": self.parent[idx],
                    "seed": self.seed_of[idx],
                }
                if idx in self.work:
                    record.update(self.work[idx])
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
        os.replace(tmp, path)


def _rows_of_data(tracer, idx, args, result):
    tracer.count(idx, "rows", len(args[2]))


def _probes(tracer, idx, args, result):
    tracer.count(idx, "probes", len(result))


def _sgd_steps(tracer, idx, args, result):
    tracer.count(idx, "steps", len(result[1]))


def _generated_rows(tracer, idx, args, result):
    if isinstance(result, tuple):
        test, nodes = result
        tracer.count(idx, "rows", len(test) + sum(len(n) for n in nodes))
    else:
        tracer.count(idx, "rows", len(result))


def _file_bytes(tracer, idx, args, result):
    tracer.count(idx, "bytes", os.path.getsize(args[0]))


_AFTER = {
    "model.loss": _rows_of_data,
    "model.gradient": _rows_of_data,
    "model.sgd_epoch_traced": _sgd_steps,
    "probe.collect_probes": _probes,
    "data.gen_synthetic": _generated_rows,
    "data.gen_synthetic_nodes": _generated_rows,
    "csvio.write_csv": _file_bytes,
    "csvio.read_csv": _file_bytes,
}
