"""scripts/selection_payoff.py selects what ``fedbound run`` selects and trains each subset."""

import os
import runpy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fedbound import flsim
from fedbound.cli import main
from fedbound.config import load_config
from fedbound.csvio import read_csv

ROOT = Path(__file__).resolve().parents[1]
HETERO = ROOT / "configs" / "hetero_eight_nodes.cfg"


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


def test_selection_payoff_selects_the_top_l_row(hetero_run):
    header, columns = read_csv(
        hetero_run / "hetero_eight_nodes_seed1" / "selection.csv", (None,) * 3
    )
    chosen = dict(zip(columns[header.index("policy")], columns[header.index("chosen")]))
    rows = [line for line in run_script("selection_payoff.py", "--seeds", "1") if line[:1] == ["1"]]
    assert len(rows) == 1
    assert rows[0][1].split(",") == chosen["top-L"].split(";")


def test_selection_payoff_losses_are_engine_runs_on_each_subset():
    cfg = load_config(HETERO)
    test_data, nodes = flsim.node_datasets(cfg.dataset, replace(cfg.scenario, seed=1))
    rows = [line for line in run_script("selection_payoff.py", "--seeds", "1") if line[:1] == ["1"]]
    selected = [int(i) for i in rows[0][1].split(",")]
    rest = sorted(set(range(len(nodes))) - set(selected))
    expected = []
    for ids in (selected, rest):
        scenario = replace(cfg.scenario, seed=1, n_nodes=len(ids))
        run = flsim.run_federated_partitioned(scenario, test_data, [nodes[i] for i in ids])
        expected.append(format(run.test_loss[-1], ".4f"))
    assert rows[0][2:4] == expected


def test_selection_payoff_probes_each_seed_once(monkeypatch, capsys):
    probed = []
    probe_phase = flsim.probe_phase

    def counting_probe_phase(cfg, nodes):
        probed.append(cfg.seed)
        return probe_phase(cfg, nodes)

    monkeypatch.setattr(flsim, "probe_phase", counting_probe_phase)
    monkeypatch.setattr(sys, "argv", ["selection_payoff.py", "--seeds", "1,2"])
    runpy.run_path(str(ROOT / "scripts" / "selection_payoff.py"), run_name="__main__")
    assert probed == [1, 2]
    assert len(capsys.readouterr().out.splitlines()) == 6


@pytest.mark.parametrize("script, work", [("selection_payoff.py", (flsim, "probe_phase"))])
@pytest.mark.parametrize("seeds", ["1,1", "2,3,2", "abc", "1,2.5", "", ","])
def test_bad_seeds_exit_2_before_any_work(monkeypatch, capsys, script, work, seeds):
    # Duplicate, non-integer and empty seed lists; no seed may start.
    def no_work(*args, **kwargs):
        raise AssertionError("a seed started")

    monkeypatch.setattr(*work, no_work)
    monkeypatch.setattr(sys, "argv", [script, "--seeds", seeds])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "argument --seeds" in err
