"""``fedbound report`` on an output directory prints the paper's tables from
the saved run directories.

``report_golden/`` holds what the two scripts that printed these tables by
running the shipped configs again (``run_scenarios.py`` and
``usefulness_correlation.py``) printed for the configs' own seeds, before
they were deleted. The tables must print every one of those numbers.
"""

import shutil
from pathlib import Path

import pytest

from fedbound.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "report_golden"
SCENARIOS = ("five_nodes", "ten_nodes", "five_nodes_missing_class")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The three scenario configs run into one output directory, hetero-eight into another."""
    root = tmp_path_factory.mktemp("report")
    runs = [(name, "scenarios") for name in SCENARIOS] + [("hetero_eight_nodes", "hetero")]
    for name, out in runs:
        config = ROOT / "configs" / f"{name}.cfg"
        assert main(["run", "--config", str(config), "--out", str(root / out)]) == 0
    return root / "scenarios", root / "hetero"


def report_rows(out: Path, capsys) -> tuple[dict, dict]:
    """The loss table and the constants table ``report`` prints for ``out``,
    each as {(scenario, seed or "mean"): [cells]}; it must exit 0 and leave
    every byte under ``out`` as it was."""
    before = tree_bytes(out)
    capsys.readouterr()
    assert main(["report", "--run", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert tree_bytes(out) == before
    losses, constants = {}, {}
    for line in captured.out.splitlines():
        cells = line.split()
        if len(cells) in (5, 10) and (cells[1].lstrip("-").isdigit() or cells[1] == "mean"):
            table = losses if len(cells) == 5 else constants
            assert (cells[0], cells[1]) not in table
            table[(cells[0], cells[1])] = cells[2:]
    return losses, constants


def test_report_prints_the_recorded_run_scenarios_table(outputs, capsys):
    recorded = {}
    for line in (GOLDEN / "run_scenarios.txt").read_text().splitlines():
        cells = line.split()
        if len(cells) == 5 and cells[0] in SCENARIOS:
            recorded[(cells[0], cells[1])] = cells[2:]
    assert len(recorded) == 18
    losses, _ = report_rows(outputs[0], capsys)
    assert losses == recorded


def test_report_prints_the_recorded_usefulness_correlation_table(outputs, capsys):
    recorded, mean_spearman = {}, None
    for line in (GOLDEN / "usefulness_correlation.txt").read_text().splitlines():
        cells = line.split()
        if cells and cells[0].isdigit():
            recorded[("hetero_eight_nodes", cells[0])] = cells[1:]
        elif line.startswith("mean Spearman:"):
            mean_spearman = [cell.split("=")[1] for cell in cells[2:]]
    assert len(recorded) == 5 and len(mean_spearman) == 3
    _, constants = report_rows(outputs[1], capsys)
    mean = constants.pop(("hetero_eight_nodes", "mean"))
    assert constants == recorded
    assert mean[3:6] == mean_spearman


def test_hidden_and_unrelated_directories_are_skipped(outputs, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(outputs[1], out)
    # A staged and a moved-aside copy of a run directory, as a cut-off `run`
    # leaves them, and a directory that is no run directory.
    (out / "hetero_eight_nodes_seed1").rename(out / ".tmp-hetero_eight_nodes_seed1")
    shutil.copytree(out / "hetero_eight_nodes_seed2", out / ".old-hetero_eight_nodes_seed9")
    (out / "notes").mkdir()
    losses, constants = report_rows(out, capsys)
    seeds = ["2", "3", "4", "5", "mean"]
    assert [seed for _, seed in losses] == seeds
    assert [seed for _, seed in constants] == seeds


@pytest.mark.parametrize("make", ["missing", "empty", "file", "other dirs"])
def test_neither_kind_of_directory_exits_1_naming_it(tmp_path, capsys, make):
    path = tmp_path / "x"
    if make == "empty":
        path.mkdir()
    elif make == "file":
        path.write_text("")
    elif make == "other dirs":
        (path / ".tmp-a_seed1").mkdir(parents=True)
        (path / "a_seedling").mkdir()
    assert main(["report", "--run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is neither a run directory")


def test_a_broken_run_directory_fails_naming_its_file(outputs, tmp_path, capsys):
    out = tmp_path / "out"
    shutil.copytree(outputs[1], out)
    rounds = out / "hetero_eight_nodes_seed3" / "rounds.csv"
    rounds.write_text(rounds.read_text().splitlines()[0] + "\n")
    before = tree_bytes(out)
    assert main(["report", "--run", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {rounds}: run has no rounds\n"
    assert tree_bytes(out) == before
