#!/usr/bin/env python3
"""fedbound benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hetero8 --seed 0 --seconds 30 --trace 0

``--workload all`` runs every workload, each in its own process. With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. Set-up time is ``import fedbound.cli`` plus loading the
workload's config in a fresh interpreter, read against a fresh interpreter
that imports a fixed set of standard-library modules. BLAS threads are capped
at the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, RUN_SECONDS
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Fresh interpreters that time set-up per untraced run; each is followed by
# one that runs REFERENCE_CODE.
SETUP_RUNS = 10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What every `fedbound` command pays first; timed in a fresh interpreter.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import fedbound.cli
from fedbound.config import load_config
load_config(sys.argv[2])
"""
# The same kind of work as set-up (loading modules and a few shared libraries),
# run in an isolated interpreter that no change to fedbound can touch.
REFERENCE_CODE = (
    "import asyncio, email.parser, email.mime.text, http.client, http.server, "
    "xml.dom.minidom, xml.etree.ElementTree, unittest, logging.handlers, decimal, "
    "fractions, difflib, tarfile, zipfile, smtplib, pydoc, concurrent.futures, "
    "multiprocessing, csv, sqlite3, ctypes, ssl"
)
# Median seconds of REFERENCE_CODE on the reference machine (README, "Machine
# and baseline"). setup_s is the median, over a run's interpreter pairs, of
# set-up seconds over reference seconds, times this constant: set-up seconds
# at the reference machine's speed. This host's speed drifts by up to 2x for
# minutes at a time, and import speed drifts apart from CPU-loop speed; both
# interpreters of a pair move together, so the ratio holds where raw seconds
# do not.
REFERENCE_S = 0.203


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed (>= 0)")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS, help="nominal seconds to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def cap_blas_threads() -> int:
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(cap)
    os.environ.pop("FEDBOUND_SEED", None)
    return cap


def machine_line(blas_threads: int) -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"machine: nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={np.__version__} blas={blas.get('name')}-{blas.get('version')} "
        f"blas_threads={blas_threads}"
    )


def interpreter_seconds(*args: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_metrics(cfg_path: Path) -> dict[str, float]:
    """setup_s, plus the raw medians it is computed from."""
    setup, reference = [], []
    for _ in range(SETUP_RUNS):
        setup.append(interpreter_seconds("-c", SETUP_CODE, str(SRC), str(cfg_path)))
        reference.append(interpreter_seconds("-I", "-c", REFERENCE_CODE))
    ratio = statistics.median(s / r for s, r in zip(setup, reference))
    return {
        "setup_s": ratio * REFERENCE_S,
        "setup_raw_s": statistics.median(setup),
        "setup_reference_s": statistics.median(reference),
    }


def run_one(args, blas_threads: int) -> int:
    from loop import measure, measure_traced

    workload = WORKLOADS[args.workload]
    print(machine_line(blas_threads))
    seeds = workload.seeds(args.seed, args.seconds)
    if args.trace:
        seeds = seeds[: max(1, len(seeds) // 2)]
    work = WORK / workload.name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        cfg_path = work / f"{workload.name}.cfg"
        cfg_path.write_text(workload.config_text(seeds, str(work / "runs")), encoding="utf-8")
        if args.trace:
            outcome = measure_traced(workload, seeds, cfg_path, WORK / f"trace-{workload.name}.jsonl")
        else:
            setup = setup_metrics(cfg_path)
            outcome = measure(workload, seeds, cfg_path)
            outcome.metrics.update(setup)
            outcome.units.update(dict.fromkeys(setup, "s"))
    finally:
        shutil.rmtree(work)

    print(f"workload: {workload.name} seeds={seeds[0]}..{seeds[-1]} (n={len(seeds)}) trace={args.trace}")
    for seed, reason in sorted(outcome.failed.items()):
        print(f"FAILED seed {seed}: {reason}")
    for problem in outcome.problems:
        print(f"FAILED check: {problem}")
    for name, value in outcome.metrics.items():
        note = f" (n={len(seeds)} seeds)" if name == "seed_s.p50" else ""
        print(f"  {name} = {value:.6g} {outcome.units[name]}{note}")

    reported = outcome.metrics if args.trace else {k: outcome.metrics[k] for k in END_TO_END}
    correct = not outcome.failed and not outcome.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": len(outcome.failed),
                "metrics": {
                    name: {"value": value, "unit": outcome.units[name]}
                    for name, value in reported.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            status = 1
            continue
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedbound" / "__init__.py").is_file():
        print(f"error: no fedbound sources under {SRC}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, blas_threads)


if __name__ == "__main__":
    sys.exit(main())
