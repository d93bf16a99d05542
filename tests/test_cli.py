import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedbound import csvio
from fedbound.cli import main
from fedbound.csvio import write_csv

SRC = str(Path(__file__).resolve().parents[1] / "src")

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


def read_tree(out_dir: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(out_dir)): p.read_bytes()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


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

    def test_two_runs_are_byte_identical(self, tiny_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(tiny_config), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(tiny_config), "--out", str(out_b)]) == 0
        assert read_tree(out_a) == read_tree(out_b)

    def test_parallel_matches_serial(self, tiny_config, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        main(["run", "--config", str(tiny_config), "--out", str(serial)])
        main(["run", "--config", str(tiny_config), "--out", str(parallel), "--parallel", "2"])
        assert read_tree(serial) == read_tree(parallel)

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
        after = {name: data for name, data in read_tree(out).items() if ".tmp-" not in name}
        assert after == before
        assert not any(p.name.startswith(".old-") for p in out.iterdir())

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

    def test_config_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario.n_nodes = nope\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["data.label_skew = 1, 2", "scenario.lr = -1"])
    def test_field_check_exits_2_naming_the_line(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"scenario.name = bad\n{line}\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: line 2: {line.split()[0]}: ")
        assert not (tmp_path / "o").exists()


class TestProbeCommand:
    def test_prints_per_node_and_global(self, tiny_config, capsys):
        assert main(["probe", "--config", str(tiny_config)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("node 0: mu=")
        assert lines[1].startswith("node 1: mu=")
        assert lines[2].startswith("global: mu=")


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


def test_import_leaves_scipy_out():
    # scipy's import alone took about 1.4 s of every command's start-up.
    code = "import sys, fedbound.cli; print('scipy' in sys.modules)"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


class TestSelftestCommand:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out


class TestAtomicCsv:
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "summary.csv"
        write_csv(path, ("a", "b"), [(1, 2.5)])
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(csvio.os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_csv(path, ("a", "b"), [(3, 4.5)])
        assert path.read_bytes() == before
