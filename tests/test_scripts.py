"""scripts/selection_payoff.py trains what ``fedbound run`` selected, from its saved runs."""

import os
import runpy
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fedbound import analysis, flsim
from fedbound.cli import main
from fedbound.config import load_config
from fedbound.csvio import RUN_TABLES, read_csv
from fedbound.model import Dataset

ROOT = Path(__file__).resolve().parents[1]
HETERO = ROOT / "configs" / "hetero_eight_nodes.cfg"
SCRIPT = ROOT / "scripts" / "selection_payoff.py"


def run_script(name: str, *args: str) -> list[list[str]]:
    """The whitespace-split lines a script prints; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return [line.split() for line in result.stdout.splitlines()]


@pytest.fixture(scope="module")
def hetero_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("hetero") / "out"
    assert main(["run", "--config", str(HETERO), "--out", str(out)]) == 0
    return out


def exit_2_before_training(monkeypatch, capsys, *args: str) -> str:
    """The stderr of the script on ``args``, which must exit 2 before it trains."""
    def no_training(*args, **kwargs):
        raise AssertionError("a federation started training")

    monkeypatch.setattr(flsim, "training_phase", no_training)
    monkeypatch.setattr(sys, "argv", ["selection_payoff.py", *args])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


def test_selection_payoff_selects_the_top_l_row(hetero_run):
    path = hetero_run / "hetero_eight_nodes_seed1" / "selection.csv"
    policies, _, chosen = read_csv(path, RUN_TABLES["selection.csv"])
    chosen = dict(zip(policies, chosen))
    lines = run_script("selection_payoff.py", "--runs", str(hetero_run))
    rows = [line for line in lines if line[:1] == ["1"]]
    assert len(rows) == 1
    assert rows[0][1].split(",") == chosen["top-L"].split(";")


def test_selection_payoff_losses_are_engine_runs_on_each_subset(hetero_run):
    cfg = load_config(HETERO)
    test_data, block = flsim.node_datasets(cfg.dataset, replace(cfg.scenario, seed=1))
    n = cfg.scenario.samples_per_node
    lines = run_script("selection_payoff.py", "--runs", str(hetero_run))
    rows = [line for line in lines if line[:1] == ["1"]]
    selected = [int(i) for i in rows[0][1].split(",")]
    rest = sorted(set(range(cfg.scenario.n_nodes)) - set(selected))
    expected = []
    for ids in (selected, rest):
        scenario = replace(cfg.scenario, seed=1, n_nodes=len(ids))
        subset = Dataset.concat(block.subset(slice(i * n, (i + 1) * n)) for i in ids)
        probed = flsim.probe_phase(scenario, subset)
        setup = flsim.Setup(scenario, test_data, subset, probed)
        run = flsim.run_federated_partitioned(setup)
        expected.append(format(run.trained.test_loss[-1], ".4f"))
    assert rows[0][2:4] == expected


def test_selection_payoff_neither_probes_nor_selects(hetero_run, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(flsim, "probe_phase", lambda *args: calls.append("probe_phase"))
    monkeypatch.setattr(analysis, "select_nodes", lambda *args, **kw: calls.append("select"))
    monkeypatch.setattr(sys, "argv", ["selection_payoff.py", "--runs", str(hetero_run)])
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert calls == []
    # A header, two rules, the mean and one line for each of the 5 seeds.
    assert len(capsys.readouterr().out.splitlines()) == 9


def set_lr(run_dir: Path) -> None:
    config_txt = run_dir / "config.txt"
    text = config_txt.read_text()
    assert "scenario.lr = 0.05\n" in text
    config_txt.write_text(text.replace("scenario.lr = 0.05\n", "scenario.lr = 0.1\n"))


def drop_top_l_row(run_dir: Path) -> None:
    selection = run_dir / "selection.csv"
    lines = selection.read_text().splitlines(True)
    selection.write_text("".join(line for line in lines if not line.startswith("top-L,")))


@pytest.mark.parametrize(
    "damage, message",
    [
        (set_lr, "config.txt has 'scenario.lr = 0.1' where hetero_eight_nodes.cfg gives "
         "'scenario.lr = 0.05'"),
        (lambda run_dir: (run_dir / "selection.csv").unlink(), "No such file or directory"),
        (drop_top_l_row, "selection.csv has no top-L row of the run's node ids"),
    ],
    ids=["other_lr", "no_selection_csv", "no_policy_row"],
)
def test_a_run_that_fails_a_check_exits_2_naming_it_before_any_training(
    hetero_run, tmp_path, monkeypatch, capsys, damage, message
):
    out = tmp_path / "out"
    shutil.copytree(hetero_run, out)
    damage(out / "hetero_eight_nodes_seed4")
    err = exit_2_before_training(monkeypatch, capsys, "--runs", str(out))
    assert f"error: {out / 'hetero_eight_nodes_seed4'}: " in err and message in err


@pytest.mark.parametrize("runs", ["empty", "missing", "other_scenario"])
def test_an_output_directory_without_a_hetero_run_exits_2_naming_it(
    tmp_path, monkeypatch, capsys, runs
):
    out = tmp_path / "out"
    if runs != "missing":
        out.mkdir()
    if runs == "other_scenario":
        (out / "five_nodes_seed1").mkdir()
    err = exit_2_before_training(monkeypatch, capsys, "--runs", str(out))
    assert f"error: {out} holds no hetero_eight_nodes_seed<s> run directory" in err


def test_the_policies_are_the_selection_policies_but_all(monkeypatch, capsys):
    # "all" selects every node, which leaves no rest to train.
    err = exit_2_before_training(monkeypatch, capsys, "--policy", "all")
    choices = ", ".join(repr(p) for p in analysis.SELECTION_POLICIES if p != "all")
    assert f"argument --policy: invalid choice: 'all' (choose from {choices})" in err
