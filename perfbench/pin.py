#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the pinned per-seed reference values.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/pin.py

For each workload and each benchmark seed in PINNED_BENCH_SEEDS, runs that
seed block at the default run length and stores, per fedbound seed, the run
summary (final losses, final bound, global mu/L/G) and the digest of the run
directory.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import SRC, WORK, cap_blas_threads
from spec import RUN_SECONDS
from workloads import WORKLOADS

# Benchmark seeds whose fedbound seeds get pinned reference values.
PINNED_BENCH_SEEDS = (0, 1, 2)


def main() -> int:
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import checks
    from fedbound import config
    from loop import REFERENCE, run_dir_of, run_seed

    reference = {}
    for workload in WORKLOADS.values():
        seeds = [s for b in PINNED_BENCH_SEEDS for s in workload.seeds(b, RUN_SECONDS)]
        work = WORK / f"pin-{workload.name}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        try:
            cfg_path = work / "pin.cfg"
            cfg_path.write_text(workload.config_text(seeds, str(work / "runs")), encoding="utf-8")
            cfg = config.load_config(cfg_path)
            pinned = {}
            for seed in seeds:
                run_seed(cfg, seed, workload.report, None)
                run_dir = run_dir_of(cfg, seed)
                problems = checks.check_run_dir(run_dir)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                pinned[str(seed)] = {
                    "summary": checks.run_summary(run_dir),
                    "digest": checks.tree_digest(run_dir),
                }
                shutil.rmtree(run_dir)
            reference[workload.name] = pinned
            print(f"{workload.name}: pinned {len(pinned)} seeds")
        finally:
            shutil.rmtree(work)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
