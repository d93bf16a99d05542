import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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



def cifar_source(tmp_path: Path) -> str:
    """Config lines for a CIFAR-10 batch of 80 random records in ``tmp_path``."""
    rng = np.random.default_rng(0)
    labels = (np.arange(80) % 10).astype(np.uint8)
    pixels = rng.integers(0, 256, (80, 3072), dtype=np.uint8)
    (tmp_path / "batch.bin").write_bytes(np.column_stack([labels, pixels]).tobytes())
    return (
        "data.source = cifar10\n"
        f"data.cifar_path = {tmp_path / 'batch.bin'}\n"
        "data.cifar_pool = 8\n"
        "data.cifar_grayscale = true\n"
    )


# Lines appended to TINY; later assignments win, and a CIFAR source ignores
# the synthetic keys.
SOURCES = {
    "shared_pool": lambda tmp_path: "",
    "node_knobs": lambda tmp_path: "data.feature_scale = 0.5, 1.0\n",
    "cifar": cifar_source,
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


class TestProbeCommand:
    def test_prints_per_node_and_global(self, tiny_config, capsys):
        assert main(["probe", "--config", str(tiny_config)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("node 0: mu=")
        assert lines[1].startswith("node 1: mu=")
        assert lines[2].startswith("global: mu=")


    @pytest.mark.parametrize("source", sorted(SOURCES))
    def test_prints_the_constants_rows_of_run(self, tmp_path, capsys, source):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY + SOURCES[source](tmp_path))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert main(["probe", "--config", str(cfg)]) == 0
        _, rows = csvio.read_csv(tmp_path / "out" / "tiny_seed1" / "constants.csv")
        expected = [
            f"{'global' if nid == '-1' else f'node {nid}'}: mu={mu} L={ell} G={g} n_probes={n}"
            for nid, mu, ell, g, n in rows
        ]
        assert len(expected) == 3
        assert capsys.readouterr().out.splitlines() == expected


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

    @pytest.mark.parametrize("damage", ["deleted", "malformed"])
    def test_unreadable_config_txt_fails_naming_it(self, tiny_config, tmp_path, capsys, damage):
        main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "out")])
        config_txt = tmp_path / "out" / "tiny_seed1" / "config.txt"
        if damage == "deleted":
            config_txt.unlink()
        else:
            config_txt.write_text(config_txt.read_text() + "no pair here\n")
        capsys.readouterr()
        assert main(["report", "--run", str(config_txt.parent)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config_txt) in err


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
