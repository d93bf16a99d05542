"""The experiment scripts print what ``fedbound run`` writes for the shipped configs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedbound.cli import main
from fedbound.csvio import read_csv

ROOT = Path(__file__).resolve().parents[1]
HETERO = ROOT / "configs" / "hetero_eight_nodes.cfg"
COEFFICIENTS = ("pearson_mu", "pearson_L", "pearson_G", "spearman_mu", "spearman_L", "spearman_G")


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


def test_usefulness_correlation_prints_the_summary_coefficients(hetero_run):
    header, columns = read_csv(hetero_run / "summary.csv")
    summary = {
        int(row[header.index("seed")]): [row[header.index(c)] for c in COEFFICIENTS]
        for row in zip(*columns)
    }
    rows = [
        line for line in run_script("usefulness_correlation.py", "--seeds", "1,2")
        if line and line[0].isdigit()
    ]
    assert [int(line[0]) for line in rows] == [1, 2]
    for line in rows:
        expected = [format(float(cell), "+.3f") for cell in summary[int(line[0])]]
        assert line[1:7] == expected


def test_selection_payoff_selects_the_top_l_row(hetero_run):
    header, columns = read_csv(hetero_run / "hetero_eight_nodes_seed1" / "selection.csv")
    chosen = dict(zip(columns[header.index("policy")], columns[header.index("chosen")]))
    rows = [line for line in run_script("selection_payoff.py", "--seeds", "1") if line[:1] == ["1"]]
    assert len(rows) == 1
    assert rows[0][1].split(",") == chosen["top-L"].split(";")


def test_run_scenarios_prints_one_row_per_scenario():
    lines = run_script("run_scenarios.py", "--seeds", "1")
    rows = [line[0] for line in lines if len(line) == 5 and line[1] == "1"]
    assert rows == ["five_nodes", "ten_nodes", "five_nodes_missing_class"]
