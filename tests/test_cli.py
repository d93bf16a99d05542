import hashlib
import json
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound import analysis, cli, config, csvio, data, flsim
from fedbound.cli import main
from fedbound.csvio import write_csv
from fedbound.data import CifarFormatError
from fedbound.probe import ProbeFailure
from fedbound.rng import derive_seed

REPO = Path(__file__).resolve().parents[1]
SRC = str(REPO / "src")

TINY = """\
scenario.name = tiny
scenario.n_nodes = 2
scenario.samples_per_node = 30
scenario.rounds = 2
scenario.lr = 0.1
scenario.batch_size = 15
scenario.seed = 3
probe.n_probes = 3
model.kind = softmax
model.l2 = 0.01
data.source = synthetic
data.num_classes = 3
data.feature_dim = 4
data.samples_per_class = 40
repeat_seeds = 1,2
"""



def cifar_config(tmp_path: Path) -> str:
    """TINY on a CIFAR-10 batch of 80 random records in ``tmp_path``: the
    synthetic data keys give way to the CIFAR-10 ones."""
    rng = np.random.default_rng(0)
    labels = (np.arange(80) % 10).astype(np.uint8)
    pixels = rng.integers(0, 256, (80, 3072), dtype=np.uint8)
    (tmp_path / "batch.bin").write_bytes(np.column_stack([labels, pixels]).tobytes())
    tiny = "".join(line for line in TINY.splitlines(True) if not line.startswith("data."))
    return tiny + (
        "data.source = cifar10\n"
        f"data.cifar_path = {tmp_path / 'batch.bin'}\n"
        "data.cifar_pool = 8\n"
        "data.cifar_grayscale = true\n"
    )


def cifar_config_under(config_dir: Path) -> Path:
    """A config file made by :func:`cifar_config` in the new ``config_dir``,
    next to its batch, which it names by the relative path ``batch.bin``."""
    config_dir.mkdir()
    path = config_dir / "exp.cfg"
    path.write_text(cifar_config(config_dir).replace(str(config_dir / "batch.bin"), "batch.bin"))
    return path


# TINY on each kind of data source.
SOURCES = {
    "shared_pool": lambda tmp_path: TINY,
    "node_knobs": lambda tmp_path: TINY + "data.feature_scale = 0.5, 1.0\n",
    "cifar": cifar_config,
}

RUN_FILES = (
    "config.txt",
    "rounds.csv",
    "usefulness.csv",
    "gtrace.csv",
    "constants.csv",
    "probes.csv",
    "correlations.csv",
    "cdf_probe.csv",
    "cdf_training.csv",
    "selection.csv",
)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return path


def as_text(name: str) -> dict[str, None]:
    """Run file ``name``'s table with every column read as text."""
    return dict.fromkeys(csvio.RUN_TABLES[name])


def read_tree(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def tree_digest(out_dir: Path) -> str:
    """sha256 over the sorted (relative path, bytes) pairs of a directory tree."""
    h = hashlib.sha256()
    for name, data in read_tree(out_dir).items():
        h.update(name.encode("utf-8") + b"\0")
        h.update(data + b"\0")
    return h.hexdigest()


def summary_from_run_dirs(out_dir: Path) -> list[str]:
    """The lines of the summary.csv that the ``<name>_seed<s>`` run directories
    of ``out_dir`` give, sorted by (scenario, seed): each row is the strings of
    the last rounds.csv row and of correlations.csv, Pearson then Spearman per
    constant."""
    rows = []
    for run_dir in out_dir.iterdir():
        match = re.fullmatch(r"([^.].*)_seed(-?[0-9]+)", run_dir.name)
        if not (run_dir.is_dir() and match):
            continue
        finals = (run_dir / "rounds.csv").read_text().splitlines()[-1].split(",")[1:]
        correlations = (run_dir / "correlations.csv").read_text().splitlines()[1:]
        coefficients = [cell for line in correlations for cell in line.split(",")[1:3]]
        rows.append((match[1], int(match[2]), ",".join([*match.groups(), *finals, *coefficients])))
    header = (
        "scenario,seed,final_train_loss,final_test_loss,final_bound,"
        "pearson_mu,spearman_mu,pearson_L,spearman_L,pearson_G,spearman_G"
    )
    return [header, *(line for *_, line in sorted(rows))]


class FaultAt:
    """Counts the file writes, renames and rmtrees of a ``run``; the
    ``fail_at``-th of them raises instead of acting, and ``failed`` holds its
    name and arguments."""

    CALLS = ((Path, "write_text"), (Path, "rename"), (os, "replace"), (shutil, "rmtree"))

    def __init__(self, monkeypatch, fail_at: int | None = None):
        self.calls = 0
        self.fail_at = fail_at
        self.failed = None
        for owner, name in self.CALLS:
            monkeypatch.setattr(owner, name, self.wrap(getattr(owner, name)))

    def wrap(self, call):
        def faulty(*args, **kwargs):
            self.calls += 1
            if self.calls == self.fail_at:
                self.failed = (call.__name__, args)
                raise OSError(f"injected fault in {call.__name__}")
            return call(*args, **kwargs)

        return faulty


_run_one_seed = cli.run_one_seed


def run_one_seed_failing_on_2(cfg, setup):
    """``cli.run_one_seed``, except that seed 2 fails."""
    if setup.scenario.seed == 2:
        raise ValueError("seed two went wrong")
    return _run_one_seed(cfg, setup)


class TwoPartError(Exception):
    """An error whose constructor takes two arguments and that defines no pickling."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


# Seed errors whose constructors take more than the message.
SEED_ERRORS = {
    "probe": ProbeFailure(7, "probe values must be finite"),
    "cifar": CifarFormatError("batch.bin", 3073, "label byte 12 exceeds 9"),
    "two_part": TwoPartError("seed two", "went wrong"),
}


def run_one_seed_raising_on_2(error, cfg, setup):
    """``cli.run_one_seed``, except that seed 2 raises ``SEED_ERRORS[error]``."""
    if setup.scenario.seed == 2:
        raise SEED_ERRORS[error]
    return _run_one_seed(cfg, setup)


# A perturbation so wide that every probe's loss overflows.
WIDE_PERTURB = "probe.sampler = perturb\nprobe.perturb_sigma = 1e200\n"

_collect_probes = flsim.collect_probes


def collect_probes_failing_at_seed_1_node_1(spec, data, n_probes, rng_seed, g_formula, **affine):
    """``probe.collect_probes``, except that probe 2 of node 1 of seed 1 fails."""
    if rng_seed == derive_seed(1, "probe", 1):
        raise ProbeFailure(2, "probe values must be finite")
    return _collect_probes(spec, data, n_probes, rng_seed, g_formula, **affine)


def count_set_up_calls(monkeypatch) -> list[str]:
    """The list to which each ``node_datasets`` and ``probe_phase`` call
    appends its name."""
    calls = []

    def counting(name, work):
        def counted(*args):
            calls.append(name)
            return work(*args)

        return counted

    for module in (config, flsim):
        for name in ("node_datasets", "probe_phase"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    return calls


def run_one_seed_failing(cfg, setup):
    """``cli.run_one_seed``, except that it fails before a run exists."""
    raise ValueError(f"no data for seed {setup.scenario.seed}")


class TestRunCommand:
    def test_creates_run_dirs_and_summary(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        for seed in (1, 2):
            run_dir = out / f"tiny_seed{seed}"
            for fname in RUN_FILES:
                assert (run_dir / fname).exists(), fname
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("scenario,seed,final_train_loss,final_test_loss,final_bound")
        assert len(summary) == 3
        assert summary[1].startswith("tiny,1,")
        assert summary[2].startswith("tiny,2,")

    def test_a_seed_runs_under_the_scenario_of_its_set_up(self, tiny_config, tmp_path):
        cfg = replace(config.read_config(tiny_config), output_dir=tmp_path / "out")
        for seed in (1, 2, 3, 17):
            assert config.preflight(cfg, seed).scenario == replace(cfg.scenario, seed=seed)
        cli.run_one_seed(cfg, config.preflight(cfg, 2))
        assert [p.name for p in cfg.output_dir.iterdir()] == ["tiny_seed2"]
        # The run's own config.txt reruns it, every file byte for byte.
        assert main(["verify", "--run", str(cfg.output_dir / "tiny_seed2")]) == 0

    def test_two_runs_are_byte_identical(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(tiny_config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(tiny_config), "--out", str(out_b)]) == 0
        assert read_tree(out_a) == read_tree(out_b)

    def test_run_trees_do_not_depend_on_the_seed_list(self, tmp_path, monkeypatch):
        # Each seed's run directory is the same bytes whichever seeds run with
        # it, in whichever order, alone, or picked by FEDBOUND_SEED.
        trees = []
        runs = [("1,2,3", None), ("3,1,2", None), ("2", None), ("1,2,3", "2")]
        for i, (seeds, env_seed) in enumerate(runs):
            if env_seed:
                monkeypatch.setenv("FEDBOUND_SEED", env_seed)
            config = tmp_path / f"seeds{i}.cfg"
            config.write_text(TINY.replace("repeat_seeds = 1,2", f"repeat_seeds = {seeds}"))
            out = tmp_path / f"out{i}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            trees.append({k: v for k, v in read_tree(out).items() if k != "summary.csv"})
        in_order, shuffled, alone, from_env = trees
        assert {name.split("/")[0] for name in in_order} == {"tiny_seed1", "tiny_seed2", "tiny_seed3"}
        assert shuffled == in_order
        seed2 = {name: data for name, data in in_order.items() if name.startswith("tiny_seed2/")}
        assert alone == seed2
        assert from_env == seed2

    def test_failed_seed_keeps_the_completed_rows(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY + "repeat_seeds = 1,2,3\n")
        clean = tmp_path / "clean"
        assert main(["run", "--config", str(cfg), "--out", str(clean)]) == 0
        monkeypatch.setattr(cli, "run_one_seed", run_one_seed_failing_on_2)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed 2 failed: seed two went wrong\n"
        lines = (clean / "summary.csv").read_text().splitlines()
        assert (out / "summary.csv").read_text().splitlines() == [lines[0], lines[1], lines[3]]
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "tiny_seed1", "tiny_seed3"]
        for seed in (1, 3):
            assert read_tree(out / f"tiny_seed{seed}") == read_tree(clean / f"tiny_seed{seed}")

    # Whatever its class's constructor takes, a seed's error fails that seed
    # alone and is printed as its own text.
    @pytest.mark.parametrize("error", sorted(SEED_ERRORS))
    def test_failed_seed_reports_the_error_it_raised(self, tmp_path, monkeypatch, capsys, error):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY + "repeat_seeds = 1,2,3\n")
        monkeypatch.setattr(cli, "run_one_seed", partial(run_one_seed_raising_on_2, error))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: seed 2 failed: {SEED_ERRORS[error]}\n"
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "tiny_seed1", "tiny_seed3"]

    def test_seeds_that_fail_before_writing_leave_no_output_dir(
        self, tiny_config, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "run_one_seed", run_one_seed_failing)
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: seed 1 failed: no data for seed 1 (2 of 2 seeds failed)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("sampler", ["init", "perturb"])
    def test_sets_up_each_seed_once_in_the_command(self, tmp_path, monkeypatch, sampler):
        calls = count_set_up_calls(monkeypatch)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY + f"probe.sampler = {sampler}\nrepeat_seeds = 1,2,3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        # Each seed is probed once. A run of more seeds keeps only each
        # probe result, so each seed builds its rows again before it trains.
        assert calls == ["node_datasets", "probe_phase"] * 3 + ["node_datasets"] * 3
        assert sorted(p.name for p in out.iterdir()) == [
            "summary.csv", "tiny_seed1", "tiny_seed2", "tiny_seed3"
        ]
        # A one-seed run keeps its set-up and builds its rows once.
        calls.clear()
        cfg.write_text(TINY + f"probe.sampler = {sampler}\nrepeat_seeds = 2\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "one")]) == 0
        assert calls == ["node_datasets", "probe_phase"]
        assert read_tree(tmp_path / "one" / "tiny_seed2") == read_tree(out / "tiny_seed2")

    def test_a_run_holds_one_seed_of_rows_whatever_its_seed_count(self, tmp_path):
        # 2 nodes x 2000 rows x 200 features: 6.4 MB of rows a seed, more than
        # anything else a seed holds. Holding every seed's rows until it
        # trains put 4 seeds about 3 row blocks above 1 seed.
        text = (
            "scenario.name = wide\nscenario.n_nodes = 2\nscenario.samples_per_node = 2000\n"
            "scenario.rounds = 1\nscenario.batch_size = 500\nprobe.n_probes = 2\n"
            "data.num_classes = 2\ndata.feature_dim = 200\ndata.samples_per_class = 2300\n"
        )
        rows_nbytes = 2 * 2000 * 200 * 8
        peaks = {}
        for seeds in ("1", "1,2,3,4"):
            cfg = tmp_path / f"{len(seeds)}.cfg"
            cfg.write_text(text + f"repeat_seeds = {seeds}\n")
            tracemalloc.start()
            try:
                assert main(["run", "--config", str(cfg), "--out", str(tmp_path / cfg.stem)]) == 0
                peaks[seeds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["1,2,3,4"] < peaks["1"] + rows_nbytes / 2, peaks

    def test_probe_failure_under_init_stops_the_run_before_any_seed_trains(
        self, tmp_path, monkeypatch, capsys
    ):
        trained = []
        monkeypatch.setattr(flsim, "training_phase", lambda *args: trained.append(args))
        cfg = tmp_path / "l2.cfg"
        cfg.write_text((REPO / "configs" / "five_nodes.cfg").read_text() + "model.l2 = 1e308\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: seed 1 failed: node 0: probe 0 failed: probe values must be finite\n"
        )
        assert not out.exists()
        assert trained == []

    # The first overflow is the L2 penalty of a round's test-set scoring;
    # training_phase turns numpy's floating-point errors off, so under any
    # warning filter the seed fails on the run's own check.
    def test_diverging_run_fails_each_seed_on_its_finiteness_check(self, tmp_path, capsys):
        cfg = tmp_path / "lr.cfg"
        cfg.write_text((REPO / "configs" / "five_nodes.cfg").read_text() + "scenario.lr = 1e10\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: seed 1 failed: round 8: node 0: SGD step 4 left non-finite parameters "
            "(5 of 5 seeds failed)\n"
        )
        assert not out.exists()

    # Noise of sigma 1e308 overflows in data generation, which sets its own
    # numpy error state and clips an infinity to 0 or 1 like any other value
    # outside [0, 1]; the suite makes every warning an error.
    @pytest.mark.parametrize("source", ["shared_pool", "node_knobs"])
    def test_noise_that_overflows_runs_on_clipped_features(self, tmp_path, source):
        path = tmp_path / "noisy.cfg"
        path.write_text(SOURCES[source](tmp_path) + "data.noise_sigma = 1e308\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        cfg = config.read_config(path)
        for seed in cfg.repeat_seeds:
            _, rows = flsim.node_datasets(cfg.dataset, replace(cfg.scenario, seed=seed))
            assert np.isin(rows.features, (0.0, 1.0)).all()

    def test_missing_class_shortfall_on_every_split_fails_at_load(self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        # At separation 0.7, four classes place in 8 dimensions but not in
        # TINY's 4, which would fail the pre-flight first.
        cfg.write_text(
            TINY
            + "data.num_classes = 4\ndata.samples_per_class = 40\n"
            + "scenario.missing_classes = 0, 1\nscenario.n_nodes = 3\ndata.feature_dim = 8\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        line = TINY.count("\n") + 3
        assert capsys.readouterr().err == (
            f"config error: line {line}: scenario.missing_classes: seed 1: insufficient data: "
            "need 90 training samples, have 70 of 160 after holding out 16 and leaving out "
            "classes [0, 1]; raise data.samples_per_class or lower scenario.samples_per_node\n"
        )
        assert not out.exists()

    def test_rerun_replaces_existing_directory(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        marker = out / "tiny_seed1" / "stale.txt"
        marker.write_text("old")
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        assert not marker.exists()

    def test_failed_swap_keeps_previous_run(self, tiny_config, tmp_path, monkeypatch):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        before = read_tree(out)
        rename = Path.rename

        def failing_rename(self, target):
            if self.name.startswith(".tmp-"):
                raise OSError("disk went away")
            return rename(self, target)

        monkeypatch.setattr(Path, "rename", failing_rename)
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        monkeypatch.undo()
        assert read_tree(out) == before
        assert not any(p.name.startswith((".old-", ".tmp-")) for p in out.iterdir())

    def test_failed_seed_removes_its_staging_directory(self, tiny_config, tmp_path, monkeypatch):
        def failing_write_reports(run_dir, inputs):
            raise ValueError("reports went wrong")

        monkeypatch.setattr(cli.analysis, "write_reports", failing_write_reports)
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv"]

    @pytest.mark.parametrize("before", ["fresh", "rerun"])
    def test_any_single_fault_leaves_a_consistent_output_dir(
        self, tiny_config, tmp_path, monkeypatch, before
    ):
        # A fresh output directory, or one that a clean run filled, so that
        # the swap's moves aside and deletions are hit too.
        argv = ["run", "--config", str(tiny_config), "--out"]
        clean = tmp_path / "clean"
        assert main([*argv, str(clean)]) == 0
        expected = read_tree(clean)
        with monkeypatch.context() as patch:
            counter = FaultAt(patch)
            assert main([*argv, str(clean if before == "rerun" else tmp_path / "counted")]) == 0
        assert read_tree(clean) == expected
        assert counter.calls >= 40
        for k in range(1, counter.calls + 1):
            out = tmp_path / f"fault{k}"
            if before == "rerun":
                shutil.copytree(clean, out)
            with monkeypatch.context() as patch:
                fault = FaultAt(patch, fail_at=k)
                status = main([*argv, str(out)])
            # Only deleting the previous run, once the new one is in place, fails softly.
            name, args = fault.failed
            soft = name == "rmtree" and Path(args[0]).name.startswith(".old-")
            assert status == (0 if soft else 1), k
            assert not any(p.name.startswith(".tmp-") for p in out.iterdir()), k
            assert not [p for p in out.rglob(".*.tmp")], k
            summary = out / "summary.csv"
            if summary.exists():
                assert summary.read_text().splitlines() == summary_from_run_dirs(out), k
            assert main([*argv, str(out)]) == 0
            assert read_tree(out) == expected, k

    def test_previous_run_that_cannot_be_deleted_only_warns(
        self, tiny_config, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        longer = tmp_path / "longer.cfg"
        longer.write_text(TINY + "scenario.rounds = 3\n")
        rmtree = shutil.rmtree

        def failing_rmtree(path, *args, **kwargs):
            if Path(path).name == ".old-tiny_seed1":
                raise OSError("device busy")
            return rmtree(path, *args, **kwargs)

        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(shutil, "rmtree", failing_rmtree)
            assert main(["run", "--config", str(longer), "--out", str(out)]) == 0
        old = out / ".old-tiny_seed1"
        assert capsys.readouterr().err == (
            f"warning: seed 1: could not remove {old}: device busy\n"
        )
        assert (old / "rounds.csv").read_text().count("\n") == 3
        assert (out / "tiny_seed1" / "rounds.csv").read_text().count("\n") == 4
        assert (out / "summary.csv").read_text().splitlines() == summary_from_run_dirs(out)
        assert main(["run", "--config", str(longer), "--out", str(out)]) == 0
        assert not any(p.name.startswith(".old-") for p in out.iterdir())

    def test_two_configs_in_one_output_dir_share_one_summary(self, tiny_config, tmp_path):
        other = tmp_path / "other.cfg"
        other.write_text(TINY + "scenario.name = other\nscenario.rounds = 3\nrepeat_seeds = 5,2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert main(["run", "--config", str(other), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines == summary_from_run_dirs(out)
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["other", "2"], ["other", "5"], ["tiny", "1"], ["tiny", "2"]
        ]

    def test_unreadable_run_dir_fails_naming_the_file_after_every_seed(
        self, tiny_config, tmp_path, capsys
    ):
        out = tmp_path / "out"
        rounds = out / "stray_seed7" / "rounds.csv"
        rounds.parent.mkdir(parents=True)
        (rounds.parent / "config.txt").write_text("scenario.name = stray\nscenario.seed = 7\n")
        rounds.write_text("t,train_loss,test_loss,bound_value\n")
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {rounds}: run has no rounds\n"
        assert sorted(p.name for p in out.iterdir()) == ["stray_seed7", "tiny_seed1", "tiny_seed2"]

    def test_next_run_repairs_the_summary_of_a_killed_rerun(
        self, tiny_config, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        longer = tmp_path / "longer.cfg"
        longer.write_text(TINY + "scenario.rounds = 4\n")
        # The rerun is killed once its first seed's run directory is swapped in.
        code = (
            "import os, signal, sys\n"
            "from fedbound import cli\n"
            "swap = cli._replace_dir\n"
            "def swap_then_die(*args):\n"
            "    swap(*args)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "cli._replace_dir = swap_then_die\n"
            "cli.main(sys.argv[1:])\n"
        )
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        killed = subprocess.run(
            [sys.executable, "-c", code, "run", "--config", str(longer), "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=120,
        )
        assert killed.returncode == -signal.SIGKILL
        rounds = [(out / f"tiny_seed{s}" / "rounds.csv").read_text().count("\n") for s in (1, 2)]
        assert rounds == [5, 3]
        assert (out / "summary.csv").read_text().splitlines() != summary_from_run_dirs(out)
        # The next run, of seed 2 alone, rebuilds summary.csv from both run directories.
        monkeypatch.setenv("FEDBOUND_SEED", "2")
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        lines = (out / "summary.csv").read_text().splitlines()
        assert lines == summary_from_run_dirs(out)
        assert len(lines) == 3

    def test_swap_cut_off_midway_is_recovered(self, tiny_config, tmp_path):
        # A run moved aside by a swap that never finished is the last good one.
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        (out / "tiny_seed1").rename(out / ".old-tiny_seed1")
        (out / "tiny_seed2").rename(out / ".old-tiny_seed2")
        (out / "tiny_seed2").mkdir()
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "tiny_seed1", "tiny_seed2"]
        assert (out / "tiny_seed1" / "rounds.csv").exists()

    def test_env_seed_override(self, tiny_config, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("FEDBOUND_SEED", "42")
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        assert (out / "tiny_seed42").exists()
        assert not (out / "tiny_seed1").exists()

    # sha256 of the tree the run below writes, with its temporary directory
    # written as $TMP, recorded when the pre-flight and every seed loaded the
    # batch again (6 loads).
    CIFAR_DIGEST = "d6ea3862d4d202888ce5f5bb855680fea3b437253880511f328357dc8bca4a8d"

    def test_cifar_run_loads_its_batch_once(self, tmp_path, monkeypatch):
        loads, load = [], data._parse_cifar_file
        monkeypatch.setattr(data, "_parse_cifar_file", lambda path: loads.append(1) or load(path))
        config = tmp_path / "cifar.cfg"
        config.write_text(
            cifar_config(tmp_path) + "scenario.missing_classes = 3\nrepeat_seeds = 1,2,3\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert len(loads) == 1
        tree = {n: b.replace(str(tmp_path).encode(), b"$TMP") for n, b in read_tree(out).items()}
        assert len(tree) == 31
        assert hashlib.sha256(repr(sorted(tree.items())).encode()).hexdigest() == self.CIFAR_DIGEST

    def test_relative_cifar_path_resolves_against_the_config_file(self, tmp_path, monkeypatch):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        source = cifar_config(config_dir).replace(str(config_dir / "batch.bin"), "./batch.bin")
        cfg = config_dir / "exp.cfg"
        cfg.write_text(source)
        # The working directory holds no batch.bin.
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "tiny_seed1" / "rounds.csv").exists()

    def test_config_txt_reruns_a_cifar_run_under_a_hash_directory(self, tmp_path):
        # A "#" starts a comment only at a line's start or after whitespace,
        # so the absolute data.cifar_path that config.txt echoes reads back.
        cfg = cifar_config_under(tmp_path / "hash#dir")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        config_txt = out / "tiny_seed1" / "config.txt"
        assert f"data.cifar_path = {cfg.parent / 'batch.bin'}\n" in config_txt.read_text()
        assert main(["verify", "--run", str(out / "tiny_seed1")]) == 0

    def test_cifar_path_holding_a_comment_exits_2_naming_the_line(self, tmp_path, capsys):
        # Its config.txt would cut the path at " #", so the run could not rerun.
        cfg = cifar_config_under(tmp_path / "a #b")
        line = cfg.read_text().splitlines().index("data.cifar_path = batch.bin") + 1
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", (
            f"config error: line {line}: data.cifar_path: {cfg.parent / 'batch.bin'}: "
            "a '#' after whitespace would start a comment in config.txt\n"
        ))
        assert not out.exists()

    def test_run_experiment_preflights_before_any_seed(self, tmp_path):
        # 4 classes x 100 rows cannot fill 5 nodes x 150 rows.
        text = (REPO / "configs" / "five_nodes.cfg").read_text()
        small_pool = tmp_path / "small_pool.cfg"
        small_pool.write_text(text.replace("samples_per_class = 300", "samples_per_class = 100"))
        cfg = replace(config.read_config(small_pool), output_dir=tmp_path / "o")
        with pytest.raises(config.ConfigError, match=r"^line 5: scenario\.samples_per_node: "):
            cli.run_experiment(cfg)
        assert not (tmp_path / "o").exists()

    def test_bad_env_seed_exits_2_naming_it(self, tiny_config, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FEDBOUND_SEED", "abc")
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("config error: FEDBOUND_SEED ")
        assert not (tmp_path / "o").exists()

    def test_duplicate_repeat_seeds_exit_2_before_any_output(self, tiny_config, tmp_path, capsys):
        tiny_config.write_text(TINY + "repeat_seeds = 1,1,2\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: line 16: repeat_seeds: repeat_seeds must be distinct")
        assert not out.exists()

    def test_parallel_option_is_gone(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--config", str(tiny_config), "--out", str(out), "--parallel", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario.n_nodes = nope\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "data.feature_scale = 1, 2",
            "scenario.lr = -1",
            "probe.perturb_sigma = nan",
            "scenario.lr = nan",
            "model.feature_dim = 99",
            "model.kind = softmax-regression",
            "bound.squared_distance = yes",
        ],
    )
    def test_field_check_exits_2_naming_the_line(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"scenario.name = bad\n{line}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: line 2: {line.split()[0]}: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["data.label_skew", "data.noise_mult"])
    def test_a_removed_per_node_key_exits_2_as_unknown(self, tmp_path, capsys, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"scenario.name = bad\n{key} = 1, 1, 1, 1, 1\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: line 2: {key}: unknown key\n"
        assert not (tmp_path / "o").exists()


    # Each name used to run: "a/b" failed mid-run leaving ".tmp-a", "a,b" gave
    # summary.csv a row one cell too long, ".hid" hid its run from summary.csv.
    @pytest.mark.parametrize("name", ["a/b", "a,b", ".hid"])
    def test_name_that_breaks_the_output_layout_exits_2(self, tiny_config, tmp_path, capsys, name):
        tiny_config.write_text(TINY + f"scenario.name = {name}\n")
        line = TINY.count("\n") + 1
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: line {line}: scenario.name: scenario_name {name!r} "
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "lines, key",
        [
            ("scenario.n_nodes = 8\ndata.feature_scale = 0.5, 0.7, 1.0", "data.feature_scale"),
            ("data.num_classes = 3\nscenario.missing_classes = 0,1,2", "scenario.missing_classes"),
            (
                "scenario.n_nodes = 10\nscenario.samples_per_node = 200\n"
                "data.samples_per_class = 100",
                "scenario.samples_per_node",
            ),
        ],
    )
    def test_data_that_cannot_fill_the_nodes_exits_2(self, tmp_path, capsys, lines, key):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"scenario.name = bad\n{lines}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: line 3: {key}: ")
        assert not (tmp_path / "o").exists()


    # At separation 0.7 no seed places these shapes; each used to fail every
    # seed after the generator's 1,000 draws, with exit 1 and no line.
    @pytest.mark.parametrize("d, k", [(1, 4), (1, 2), (1, 3), (2, 4), (2, 6), (3, 8), (8, 20)])
    @pytest.mark.parametrize("command", ["run", "probe"])
    def test_unplaceable_class_centers_exit_2_before_any_output(
        self, tmp_path, capsys, monkeypatch, d, k, command
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            f"scenario.name = bad\ndata.num_classes = {k}\ndata.feature_dim = {d}\n"
            f"scenario.n_nodes = 2\noutput.dir = {tmp_path / 'o'}\nrepeat_seeds = 3,4\n"
        )
        monkeypatch.setenv("FEDBOUND_SEED", "7")
        assert main([command, "--config", str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"config error: line 3: data.feature_dim: cannot place {k} centers at separation "
            f"0.7 in {d} dimensions for seed 7; lower data.separation, raise "
            "data.feature_dim or use fewer classes\n"
        )
        assert not (tmp_path / "o").exists()

    # Each case loads, and used to fail every seed mid-run with exit 1.
    @pytest.mark.parametrize("lines, key, message", [
        (
            "probe.sampler = perturb\nprobe.perturb_sigma = 1e-16\n",
            "probe.perturb_sigma",
            "seed 1, node 0: probe 0 failed: ||u - v||^2 = 5.909129227572303e-31 is below "
            "1e-30; raise probe.perturb_sigma",
        ),
        *(
            (
                f"probe.sampler = perturb\nprobe.perturb_sigma = {sigma}\n",
                "probe.perturb_sigma",
                "seed 1, node 0: probe 0 failed: probe values must be finite; "
                "lower probe.perturb_sigma",
            )
            for sigma in ("1e200", "1e300")
        ),
        (
            "probe.sampler = perturb\nprobe.perturb_sigma = 1e308\n",
            "probe.perturb_sigma",
            "seed 1, node 0: probe 0 failed: parameter vector contains non-finite values; "
            "lower probe.perturb_sigma",
        ),
        (
            "data.samples_per_class = 260\n",
            "scenario.missing_classes",
            "seed 1: insufficient data: need 750 training samples, have 709 of 1040 after "
            "holding out 104 and leaving out classes [3]; raise data.samples_per_class or "
            "lower scenario.samples_per_node",
        ),
    ])
    @pytest.mark.parametrize("command", ["run", "probe"])
    def test_seed_set_up_failure_exits_2_before_any_output(
        self, tmp_path, capsys, command, lines, key, message
    ):
        name = "five_nodes_missing_class" if "missing" in key else "five_nodes"
        text = (REPO / "configs" / f"{name}.cfg").read_text()
        text += f"output.dir = {tmp_path / 'o'}\n" + lines
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        line = next(i for i, entry in enumerate(text.splitlines(), 1) if entry.startswith(key))
        assert main([command, "--config", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"config error: line {line}: {key}: {message}\n")
        assert not (tmp_path / "o").exists()

    # Each loads, and used to fail every seed with exit 1 once a seed read the file.
    @pytest.mark.parametrize("damage, key, message", [
        ("missing", "data.cifar_path", "[Errno 2] No such file or directory: "),
        ("empty_dir", "data.cifar_path", "no .bin files under "),
        ("ragged", "data.cifar_path", "file size 245836 is not a positive multiple of 3073"),
        ("empty_file", "data.cifar_path", "file size 0 is not a positive multiple of 3073"),
        ("label", "data.cifar_path", "label byte 12 exceeds 9 (byte offset 0)"),
        ("few", "scenario.samples_per_node", (
            "seed 1: insufficient data: need 60 training samples, have 36 of 40 after "
            "holding out 4; lower scenario.samples_per_node"
        )),
        ("tiny", "scenario.test_fraction", "test_fraction 0.005 leaves the test split empty"),
        ("one_class", "scenario.missing_classes", (
            "seed 1: insufficient data: need 60 training samples, have 7 of 80 after holding "
            "out 8 and leaving out classes [1, 2, 3, 4, 5, 6, 7, 8, 9]; lower "
            "scenario.samples_per_node"
        )),
    ])
    @pytest.mark.parametrize("command", ["run", "probe"])
    def test_cifar_batches_that_cannot_run_exit_2_naming_the_line(
        self, tmp_path, capsys, command, damage, key, message
    ):
        text = cifar_config(tmp_path) + f"output.dir = {tmp_path / 'o'}\n"
        batch = tmp_path / "batch.bin"
        if damage in ("missing", "empty_dir"):
            batch.unlink()
        if damage == "empty_dir":
            batch.mkdir()
        if damage == "ragged":
            batch.write_bytes(batch.read_bytes()[:-4])
        if damage == "empty_file":
            batch.write_bytes(b"")
        if damage == "label":
            with open(batch, "r+b") as f:
                f.write(bytes([12]))
        if damage == "few":
            batch.write_bytes(batch.read_bytes()[: 40 * 3073])
        if damage == "tiny":
            text += "scenario.test_fraction = 0.005\n"
        if damage == "one_class":
            text += "scenario.missing_classes = " + ", ".join(map(str, range(1, 10))) + "\n"
        (tmp_path / "c.cfg").write_text(text)
        line = max(i for i, entry in enumerate(text.splitlines(), 1) if entry.startswith(key))
        assert main([command, "--config", str(tmp_path / "c.cfg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line {line}: {key}: ")
        assert message in err
        assert not (tmp_path / "o").exists()

    def test_run_warnings_are_one_line_each_naming_the_seed(self, tiny_config, tmp_path, capsys):
        tiny_config.write_text(
            TINY + "model.kind = mlp\nscenario.local_epochs_per_round = 2\nrepeat_seeds = 6\n"
        )
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == (
            "warning: seed 6: bound values assume one local epoch per round; this config uses 2\n"
            "warning: seed 6: probed mu is not positive; bound values are undefined for this run\n"
        )


class TestGoldenRun:
    # sha256 of the tree `fedbound run` writes for the shipped hetero_eight_nodes
    # config at seed 1 (summary.csv and the run directory), recorded before
    # the stacked kernel's log-softmax went class-major. Any change to an
    # output byte of the probe, SGD or report path moves it.
    DIGEST = "670b16a32885bf55216772946ed8a0f1ec1a4731259faa80f2b04db8de057cac"

    def test_hetero_eight_nodes_seed1_is_byte_identical(self, tmp_path, monkeypatch):
        config = Path(__file__).resolve().parents[1] / "configs" / "hetero_eight_nodes.cfg"
        monkeypatch.setenv("FEDBOUND_SEED", "1")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["hetero_eight_nodes_seed1", "summary.csv"]
        assert tree_digest(out) == self.DIGEST

    # sha256 of the tree `fedbound run` then `fedbound report` leave for the
    # shipped ten_nodes config at seed 1, recorded before the CSV tables went
    # column-major. It pins the bytes `report` rewrites (2,100 gtrace rows),
    # including the cdf_training.csv it rebuilds from 9-digit values.
    RUN_REPORT_DIGEST = "a92f04db6d8f1ed3ad36d408853f5226c832865a744f87a7f48fd01d08919a75"

    def test_ten_nodes_seed1_run_then_report_is_byte_identical(self, tmp_path, monkeypatch):
        config = Path(__file__).resolve().parents[1] / "configs" / "ten_nodes.cfg"
        monkeypatch.setenv("FEDBOUND_SEED", "1")
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert main(["report", "--run", str(out / "ten_nodes_seed1")]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "ten_nodes_seed1"]
        assert tree_digest(out) == self.RUN_REPORT_DIGEST

    # sha256 of the tree `fedbound run` writes for a small MLP probed with the
    # `perturb` sampler, recorded before probe pairs were drawn a stack at a
    # time. It pins the paths the two digests above miss: the MLP's two-layer
    # init scales and the perturbation sampler around w1.
    MLP_PERTURB = TINY + (
        "model.kind = mlp\nmodel.hidden_width = 6\nmodel.l2 = 0.2\nprobe.n_probes = 40\n"
        "probe.sampler = perturb\nprobe.perturb_sigma = 0.3\nscenario.rounds = 3\n"
    )
    MLP_PERTURB_DIGEST = "d3c81c68e8ed0afe734fb37d05e1e3d24b3009fb688a9aaabc6f78000998d409"

    def test_mlp_perturb_run_is_byte_identical(self, tmp_path):
        config = tmp_path / "mlp.cfg"
        config.write_text(self.MLP_PERTURB)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "tiny_seed1", "tiny_seed2"]
        assert tree_digest(out) == self.MLP_PERTURB_DIGEST

    @pytest.mark.parametrize("name", ["hetero8", "sgd_rounds"])
    def test_benchmark_seed1_matches_its_pinned_digest(self, tmp_path, name):
        # perfbench/reference.json pins each benchmark seed's run-directory
        # digest, taken after `report` on the workloads that run it.
        sys.path.insert(0, str(REPO / "perfbench"))
        try:
            from checks import tree_digest as run_dir_digest
            from workloads import WORKLOADS
        finally:
            sys.path.remove(str(REPO / "perfbench"))
        pinned = json.loads((REPO / "perfbench" / "reference.json").read_text())[name]["1"]
        workload = WORKLOADS[name]
        config = tmp_path / f"{name}.cfg"
        config.write_text(workload.config_text([1], str(tmp_path / "out")))
        assert main(["run", "--config", str(config)]) == 0
        (run_dir,) = (p for p in (tmp_path / "out").iterdir() if p.is_dir())
        report = ["report", "--run", str(run_dir)]
        if workload.report:
            assert main(report) == 0
        assert run_dir_digest(run_dir) == pinned["digest"]
        # Repeated `report` calls are idempotent.
        assert main(report) == 0
        settled = run_dir_digest(run_dir)
        assert main(report) == 0
        assert run_dir_digest(run_dir) == settled

    def test_mlp_run_is_byte_identical_for_one_and_two_blas_threads(self, tmp_path):
        # 200 rows x 32 features x 64 hidden units per product is above
        # OpenBLAS's single-thread cut-off, so the second child splits its
        # GEMMs over two threads; the kernel writes their results through
        # ``out=`` into its reused per-thread, per-shape workspace.
        config = tmp_path / "mlp.cfg"
        config.write_text(TINY + (
            "model.kind = mlp\nmodel.hidden_width = 64\ndata.feature_dim = 32\n"
            "scenario.samples_per_node = 200\nscenario.batch_size = 100\n"
            "data.samples_per_class = 160\nprobe.n_probes = 20\nrepeat_seeds = 1\n"
        ))
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "fedbound.cli", "run", "--config", str(config),
                 "--out", str(out)],
                env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads),
                check=True, timeout=120,
            )
            digests.append(tree_digest(out))
        assert digests[0] == digests[1]


class TestProbePrefix:
    # Probe i of a node draws from a seed of (node seed, i) only, under either
    # sampler, so a run at fewer probes writes a prefix of each node's probes
    # and trains the same. Its bound may differ: its constants come from
    # fewer probes.
    @pytest.mark.parametrize("sampler", ["init", "perturb"])
    def test_fewer_probes_write_a_prefix_of_each_nodes_probes(self, tmp_path, monkeypatch, sampler):
        shipped = (REPO / "configs" / "hetero_eight_nodes.cfg").read_text()
        assert "probe.n_probes = 80\n" in shipped
        monkeypatch.setenv("FEDBOUND_SEED", "1")
        runs = {}
        for n_probes in (20, 80):
            config = tmp_path / f"n{n_probes}.cfg"
            config.write_text(
                shipped.replace("probe.n_probes = 80\n", f"probe.n_probes = {n_probes}\n")
                + f"probe.sampler = {sampler}\n"
            )
            out = tmp_path / f"n{n_probes}"
            assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            run_dir = out / "hetero_eight_nodes_seed1"
            probes = (run_dir / "probes.csv").read_text().splitlines()
            rounds = (run_dir / "rounds.csv").read_text().splitlines()
            # Each rounds.csv row without its bound_value cell.
            runs[n_probes] = probes, [row.rsplit(",", 1)[0] for row in rounds]
        (few, few_rounds), (many, many_rounds) = runs[20], runs[80]
        assert len(few) == 1 + 8 * 20 and len(many) == 1 + 8 * 80
        assert few == many[:1] + [row for row in many[1:] if int(row.split(",")[1]) < 20]
        assert few_rounds == many_rounds


class TestUndefinedBound:
    # An MLP without l2, probed with 30 pairs, finds a negative m on every
    # seed in 0..2000 (checked seed by seed), so its bound is undefined.
    MLP = TINY + "model.kind = mlp\nmodel.hidden_width = 8\nmodel.l2 = 0\nprobe.n_probes = 30\n"
    REPORTS = ("correlations.csv", "cdf_probe.csv", "cdf_training.csv", "selection.csv")

    @given(seed=st.integers(0, 2000))
    @settings(max_examples=10, deadline=None)
    def test_nan_bounds_reach_the_csvs_and_report_reruns(self, seed):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            cfg = tmp / "mlp.cfg"
            cfg.write_text(self.MLP + f"repeat_seeds = {seed}\n")
            out = tmp / "out"
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            run_dir = out / f"tiny_seed{seed}"
            node_ids, mu, *_ = csvio.read_csv(run_dir / "constants.csv", as_text("constants.csv"))
            assert node_ids[-1] == "-1"
            assert float(mu[-1]) <= 0.0
            *_, bounds = csvio.read_csv(run_dir / "rounds.csv", as_text("rounds.csv"))
            assert list(bounds) == ["nan", "nan"]
            summary = csvio.read_csv(out / "summary.csv", dict.fromkeys(analysis.SUMMARY_HEADER))
            assert list(summary[analysis.SUMMARY_HEADER.index("final_bound")]) == ["nan"]

            headers = {name: (run_dir / name).read_text().split("\n")[0] for name in self.REPORTS}
            for name in self.REPORTS:
                (run_dir / name).unlink()
            assert main(["report", "--run", str(run_dir)]) == 0
            for name in self.REPORTS:
                assert (run_dir / name).read_text().split("\n")[0] == headers[name]


class TestProbeCommand:
    def test_prints_per_node_and_global(self, tiny_config, capsys):
        assert main(["probe", "--config", str(tiny_config)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("node 0: mu=")
        assert lines[1].startswith("node 1: mu=")
        assert lines[2].startswith("global: mu=")

    def test_probe_failure_exits_2_naming_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(TINY + WIDE_PERTURB)
        assert main(["probe", "--config", str(cfg)]) == 2
        line = (TINY + WIDE_PERTURB).count("\n")
        assert capsys.readouterr() == ("", (
            f"config error: line {line}: probe.perturb_sigma: seed 1, node 0: probe 0 failed: "
            "probe values must be finite; lower probe.perturb_sigma\n"
        ))

    @pytest.mark.parametrize("sampler", ["init", "perturb"])
    def test_preflights_only_the_seed_it_prints(self, tmp_path, monkeypatch, sampler):
        # The pre-flight builds seed 1's datasets and probes them; the command
        # prints what it probed. Seeds 2 and 3 are left alone.
        calls = count_set_up_calls(monkeypatch)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY + f"probe.sampler = {sampler}\nrepeat_seeds = 1,2,3\n")
        assert main(["probe", "--config", str(cfg)]) == 0
        assert calls == ["node_datasets", "probe_phase"]

    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_prints_the_constants_rows_of_run(self, tmp_path, capsys, source):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SOURCES[source](tmp_path))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["probe", "--config", str(cfg)]) == 0
        constants = tmp_path / "out" / "tiny_seed1" / "constants.csv"
        columns = csvio.read_csv(constants, as_text("constants.csv"))
        expected = [
            f"{'global' if nid == '-1' else f'node {nid}'}: mu={mu} L={ell} G={g} n_probes={n}"
            for nid, mu, ell, g, n in zip(*columns)
        ]
        assert len(expected) == 3
        assert capsys.readouterr().out.splitlines() == expected


class TestProbeFailureMessage:
    def test_run_probe_and_preflight_name_seed_node_and_probe_once(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(flsim, "collect_probes", collect_probes_failing_at_seed_1_node_1)
        perturb = TINY + "probe.sampler = perturb\nprobe.perturb_sigma = 0.1\n"
        cases = [
            (TINY, ["run", "--out", str(tmp_path / "o")], 1, "error: seed 1 failed: "),
            (TINY, ["probe"], 1, "error: seed 1 failed: "),
            (perturb, ["probe"], 2, f"config error: line {perturb.count(chr(10))}: "
             "probe.perturb_sigma: seed 1, "),
        ]
        for text, command, status, head in cases:
            (tmp_path / "c.cfg").write_text(text)
            assert main([*command, "--config", str(tmp_path / "c.cfg")]) == status
            err = capsys.readouterr().err
            tail = "; lower probe.perturb_sigma" if status == 2 else ""
            assert err == f"{head}node 1: probe 2 failed: probe values must be finite{tail}\n"
            for name in ("seed 1", "node 1", "probe 2"):
                assert err.count(name) == 1


class TestVerifyCommand:
    @pytest.fixture
    def out(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_untouched_runs_verify_and_stay_as_they_were(self, out, capsys):
        before = read_tree(out), sorted(out.rglob("*"))
        assert main(["verify", "--run", str(out / "tiny_seed2")]) == 0
        assert main(["verify", "--run", str(out)]) == 0
        seed1, seed2 = out / "tiny_seed1", out / "tiny_seed2"
        assert capsys.readouterr() == (f"ok {seed2}\nok {seed1}\nok {seed2}\n", "")
        assert (read_tree(out), sorted(out.rglob("*"))) == before

    def test_a_flipped_rounds_cell_exits_1_naming_the_file_and_line(self, out, capsys):
        path = out / "tiny_seed1" / "rounds.csv"
        lines = path.read_text().splitlines(True)
        saved = lines[2].rstrip("\n")
        t, _, *rest = saved.split(",")
        flipped = ",".join([t, "7", *rest])
        path.write_text("".join([*lines[:2], flipped + "\n", *lines[3:]]))
        assert main(["verify", "--run", str(out)]) == 1
        assert capsys.readouterr().out == (
            f"differs {out / 'tiny_seed1'}: rounds.csv: line 3: {flipped!r} "
            f"where a rerun gives {saved!r}\n"
            f"ok {out / 'tiny_seed2'}\n"
        )

    def test_a_deleted_or_added_run_file_is_named(self, out, capsys):
        (out / "tiny_seed1" / "gtrace.csv").unlink()
        (out / "tiny_seed2" / "notes.txt").write_text("")
        assert main(["verify", "--run", str(out)]) == 1
        assert capsys.readouterr().out == (
            f"differs {out / 'tiny_seed1'}: gtrace.csv: missing\n"
            f"differs {out / 'tiny_seed2'}: notes.txt: not made by a rerun\n"
        )

    def test_a_config_txt_that_does_not_load_exits_1_naming_it_as_report_does(self, out, capsys):
        config_txt = out / "tiny_seed1" / "config.txt"
        config_txt.write_text(config_txt.read_text().replace("rounds = 2\n", "rounds = two\n"))
        assert main(["verify", "--run", str(out / "tiny_seed1")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config_txt}: line 3: scenario.rounds: ")
        assert main(["report", "--run", str(out / "tiny_seed1")]) == 1
        assert capsys.readouterr().err == err

    def test_a_path_that_holds_no_run_exits_1(self, tmp_path, capsys):
        assert main(["verify", "--run", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path} is neither a run directory (no config.txt) "
            "nor an output directory (no <name>_seed<s>)\n"
        )

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="report --run rewrites correlations.csv from the 9-digit values that run "
        "saved, and run writes it from full-precision ones",
    )
    def test_report_right_after_run_leaves_a_run_that_verifies(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDBOUND_SEED", "3")
        out = tmp_path / "out"
        hetero = REPO / "configs" / "hetero_eight_nodes.cfg"
        assert main(["run", "--config", str(hetero), "--out", str(out)]) == 0
        run_dir = out / "hetero_eight_nodes_seed3"
        assert main(["report", "--run", str(run_dir)]) == 0
        assert main(["verify", "--run", str(run_dir)]) == 0


class TestReportCommand:
    def test_regenerates_reports(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        run_dir = out / "tiny_seed1"
        before = (run_dir / "correlations.csv").read_text()
        (run_dir / "correlations.csv").unlink()
        assert main(["report", "--run", str(run_dir)]) == 0
        after = (run_dir / "correlations.csv").read_text()
        assert after.splitlines()[0] == "quantity,pearson,spearman,n"
        assert after.splitlines()[0] == before.splitlines()[0]

    def test_missing_dir_fails(self, tmp_path):
        assert main(["report", "--run", str(tmp_path / "nope")]) == 1

    def test_report_of_a_saved_run_leaves_numpy_ma_out(self, tiny_config, tmp_path):
        # np.unique of integers imports numpy.ma: 10-16 ms and 1.3 MB of
        # every report's start-up, for one list of node ids.
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        report = ["report", "--run", str(tmp_path / "out" / "tiny_seed1")]
        code = f"""\
import contextlib, io, sys
from fedbound.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({report!r}) == 0
print("numpy.ma" in sys.modules)
"""
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True,
        )
        assert result.stdout == "False\n"

    def test_keeps_selection_k_of_the_saved_config(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + "scenario.n_nodes = 3\nselection.k = 1\nrepeat_seeds = 1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        selection = tmp_path / "out" / "tiny_seed1" / "selection.csv"
        before = selection.read_bytes()
        # Half of 3 nodes, rounded up, would give k = 2.
        assert [line.split(",")[1] for line in before.decode().splitlines()[1:]] == ["1"] * 5
        selection.unlink()
        assert main(["report", "--run", str(selection.parent)]) == 0
        assert selection.read_bytes() == before

    def test_short_gtrace_row_fails_naming_the_file_and_line(self, tiny_config, tmp_path, capsys):
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        gtrace = tmp_path / "out" / "tiny_seed1" / "gtrace.csv"
        lines = gtrace.read_text().splitlines()
        lines[3] = lines[3].rpartition(",")[0]
        gtrace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--run", str(gtrace.parent)]) == 1
        assert capsys.readouterr().err == f"error: {gtrace}: line 4: 2 cells, expected 3\n"

    def test_non_numeric_gtrace_cell_fails_naming_the_file_and_line(
        self, tiny_config, tmp_path, capsys
    ):
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        gtrace = tmp_path / "out" / "tiny_seed1" / "gtrace.csv"
        lines = gtrace.read_text().splitlines()
        lines[3] = lines[3].rpartition(",")[0] + ",abc"
        lines[5] = lines[5].rpartition(",")[0] + ",xyz"
        gtrace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--run", str(gtrace.parent)]) == 1
        err = capsys.readouterr().err
        assert "gtrace.csv" in err and "line" in err
        assert err == (
            f"error: {gtrace}: line 4, column value: could not convert string to float: 'abc'\n"
        )

    @pytest.mark.parametrize(
        ("name", "column", "node_id", "message"),
        [
            ("usefulness.csv", 1, "9", "node ids [0, 1, 9] differ from constants.csv's [0, 1]"),
            ("constants.csv", 0, "5", "node ids [5, 1] do not run 0..1 in order"),
        ],
    )
    def test_node_ids_that_disagree_fail_naming_the_file(
        self, tiny_config, tmp_path, capsys, name, column, node_id, message
    ):
        # The first data row of the file gets the wrong node id.
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        path = tmp_path / "out" / "tiny_seed1" / name
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[column] = node_id
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", "--run", str(path.parent)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        ("column", "cell", "message"),
        [
            (1, "9.0", "mu=9.0 exceeds L={L}"),
            (3, "-1", "G must be nonnegative"),
            (4, "0", "n_probes must be positive"),
        ],
    )
    def test_constants_row_that_is_no_estimate_fails_naming_its_line(
        self, tiny_config, tmp_path, capsys, column, cell, message
    ):
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        path = tmp_path / "out" / "tiny_seed1" / "constants.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        L = float(cells[2])
        cells[column] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        before = read_tree(path.parent)
        capsys.readouterr()
        assert main(["report", "--run", str(path.parent)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 3: {message.format(L=L)}\n"
        assert read_tree(path.parent) == before

    def test_swapped_rounds_header_fails_the_tables_naming_the_file(
        self, tiny_config, tmp_path, capsys
    ):
        # Read by position, the swapped file would print the test loss as train.
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        path = out / "tiny_seed1" / "rounds.csv"
        header, body = path.read_text().split("\n", 1)
        assert header == "t,train_loss,test_loss,bound_value"
        path.write_text("t,test_loss,train_loss,bound_value\n" + body)
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: {path}: header t,test_loss,train_loss,bound_value, "
            "expected t,train_loss,test_loss,bound_value\n"
        ))

    def test_swapped_usefulness_header_fails_leaving_every_file(
        self, tiny_config, tmp_path, capsys
    ):
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        path = tmp_path / "out" / "tiny_seed1" / "usefulness.csv"
        header, body = path.read_text().split("\n", 1)
        assert header == "t,node_id,delta"
        path.write_text("node_id,t,delta\n" + body)
        before = read_tree(path.parent)
        capsys.readouterr()
        assert main(["report", "--run", str(path.parent)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: header node_id,t,delta, expected t,node_id,delta\n"
        assert read_tree(path.parent) == before

    def test_usefulness_rows_out_of_round_order_fail_naming_the_file(
        self, tiny_config, tmp_path, capsys
    ):
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        path = tmp_path / "out" / "tiny_seed1" / "usefulness.csv"
        header, *rows = path.read_text().splitlines()
        # The same rows node by node; save_run writes them round by round.
        rows.sort(key=lambda row: int(row.split(",")[1]))
        path.write_text("\n".join([header, *rows]) + "\n")
        capsys.readouterr()
        assert main(["report", "--run", str(path.parent)]) == 1
        message = "node ids do not run 0..1 in every round"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "damage", ["deleted", "malformed", "k=99", "k=0", "bound_assumptions", "feature_dim=99"]
    )
    def test_unreadable_config_txt_fails_naming_it(self, tiny_config, tmp_path, capsys, damage):
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        config_txt = tmp_path / "out" / "tiny_seed1" / "config.txt"
        # A later assignment overrides the run's own value.
        extra = {
            "malformed": "no pair here",
            "k=99": "selection.k = 99",
            "k=0": "selection.k = 0",
            # The line runs written before it was dropped carry.
            "bound_assumptions": "warning.bound_assumptions = local_epochs_per_round != 1",
            "feature_dim=99": "model.feature_dim = 99",
        }
        if damage == "deleted":
            config_txt.unlink()
        else:
            config_txt.write_text(config_txt.read_text() + extra[damage] + "\n")
        before = read_tree(config_txt.parent)
        capsys.readouterr()
        assert main(["report", "--run", str(config_txt.parent)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config_txt) in err
        assert read_tree(config_txt.parent) == before


def test_a_piped_config_error_names_its_line(tmp_path):
    # The command reads its config once: a second read of the pipe would
    # find it empty, and the pre-flight's error would lose its line.
    text = "scenario.n_nodes = 5\nscenario.rounds = 2\nscenario.samples_per_node = 150\n"
    text += "data.samples_per_class = 100\n"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-m", "fedbound.cli", "run", "--config", "/dev/stdin", "--out", str(out)],
        input=text, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("config error: line 3: scenario.samples_per_node: seed 0: ")
    assert not out.exists()


def test_import_leaves_scipy_out(tmp_path):
    # scipy's import alone took about 1.4 s of every command's start-up, and
    # concurrent.futures (with multiprocessing) 26-34 ms; no command needs
    # either. Nor does any command load a module that is not the standard
    # library's, fedbound's or numpy's own: numpy is the one runtime dependency.
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    modules = ("scipy", "concurrent.futures")
    run = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    code = f"""\
import contextlib, io, sys
top = lambda: {{name.split(".")[0] for name in sys.modules}}
import numpy, numpy.random  # numpy.random's Cython modules bring Cython's runtime
numpy_own = top()
from fedbound.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["selftest"]) == 0 and main({run!r}) == 0
print([m in sys.modules for m in {modules!r}])
print(sorted(top() - numpy_own - sys.stdlib_module_names - {{"fedbound"}}))
"""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    left_out, others = result.stdout.splitlines()
    assert left_out == "[False, False]"
    assert others == "[]"


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out
        assert out == (
            "PASS gradient-vs-finite-difference (max rel err 1.75e-10)\n"
            "PASS quadratic probe bracket (m in [1.000002, 4.000000], expected [1, 4])\n"
            "PASS identity curvature (mu=1.000000000000, L=1.000000000000)\n"
            "PASS batched seeding equals spawn_rng (normals and permutations, 5 seeds)\n"
            "PASS bound arithmetic (t=1 -> 24.0, t=17 -> 12.0)\n"
        )


class TestAtomicCsv:
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "summary.csv"
        write_csv(path, ("a", "b"), ([1], [2.5]))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(csvio.os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_csv(path, ("a", "b"), ([3], [4.5]))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


def readme_commands() -> list[list[str]]:
    """The arguments of every ``fedbound ...`` line in README's ``sh`` blocks,
    each with its optional ``[...]`` parts dropped and with them kept, and
    leading ``VAR=value`` assignments dropped."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", (REPO / "README.md").read_text(), re.S):
        for line in block.splitlines():
            for variant in {re.sub(r"\[[^]]*\]", "", line), re.sub(r"[][]", "", line)}:
                words = shlex.split(variant, comments=True)
                while words and re.fullmatch(r"[A-Z_]+=\S*", words[0]):
                    words.pop(0)
                if words[:1] == ["fedbound"]:
                    commands.append(words[1:])
    return commands


def test_readme_commands_parse_with_the_cli_parser(capsys):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"run", "probe", "report", "verify", "selftest"}
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README: fedbound {' '.join(argv)}: {capsys.readouterr().err}")
