"""``fedbound report`` on an output directory prints the paper's tables from
the saved run directories.

``report_golden/`` holds what the two scripts that printed these tables by
running the shipped configs again (``run_scenarios.py`` and
``usefulness_correlation.py``) printed for the configs' own seeds, before
they were deleted. The tables must print every one of those numbers.
"""

import re
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


def test_readme_table_excerpts_are_lines_report_prints(outputs, capsys):
    """Every line of a table that README quotes under "The paper's tables" is
    a line that ``report`` prints for the output directory of the ``sh``
    block before it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## The paper's tables\n", 1)[1].split("\n## ", 1)[0]
    outs = {"runs/scenarios": outputs[0], "runs/hetero": outputs[1]}
    printed, quoted = None, set()
    for lang, block in re.findall(r"```(\w*)\n(.*?)```", section, re.S):
        if lang == "sh":
            reported = re.findall(r"^fedbound report --run (\S+)$", block, re.M)
            if reported:
                capsys.readouterr()
                assert main(["report", "--run", str(outs[reported[-1]])]) == 0
                printed, out = capsys.readouterr().out.splitlines(), reported[-1]
            continue
        assert printed is not None
        quoted.add(out)
        for line in block.splitlines():
            if line != "...":
                assert line in printed, line
    assert quoted == set(outs)


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


def test_tables_fit_a_seven_digit_seed(tmp_path, monkeypatch, capsys):
    """Each table's rows and rules are one length, and its group header keeps
    its place over the columns, whether the widest seed has 1 or 7 digits."""
    out, config = tmp_path / "out", ROOT / "configs" / "five_nodes.cfg"
    offsets = []
    for seed in ("1", "1234567"):
        monkeypatch.setenv("FEDBOUND_SEED", seed)
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--run", str(out)]) == 0
        tables = capsys.readouterr().out.split("\n\n")
        assert len(tables) == 2
        for table in tables:
            lines = table.splitlines()
            group = [line for line in lines if "pearson" in line]
            label = next(line for line in lines if line.startswith("scenario"))
            assert len({len(line) for line in lines if line not in group}) == 1, table
            offsets += [g.index("pearson") - label.index("seed") for g in group]
    assert len(offsets) == 2 and offsets[0] == offsets[1]


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


def _drop_source(kind):
    return lambda lines: [line for line in lines if not line.startswith(f"{kind},")]


# gtrace.csv edits that ``report`` must refuse, each with the error it names.
GTRACE_FAULTS = {
    "no probe rows": (_drop_source("probe"), "no probe rows"),
    "no training rows": (_drop_source("training"), "no training rows"),
    "misspelled source": (
        lambda lines: [lines[0], lines[1].replace("probe", "prboe", 1), *lines[2:]],
        "line 2: source 'prboe' is not probe or training",
    ),
}


@pytest.mark.parametrize("fault", list(GTRACE_FAULTS))
@pytest.mark.parametrize("target", ["run directory", "output directory"])
def test_a_malformed_gtrace_fails_naming_it(outputs, tmp_path, capsys, fault, target):
    out = tmp_path / "out"
    shutil.copytree(outputs[1], out)
    gtrace = out / "hetero_eight_nodes_seed3" / "gtrace.csv"
    edit, message = GTRACE_FAULTS[fault]
    gtrace.write_text("".join(edit(gtrace.read_text().splitlines(keepends=True))))
    before = tree_bytes(out)
    path = gtrace.parent if target == "run directory" else out
    assert main(["report", "--run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {gtrace}: {message}\n"
    assert tree_bytes(out) == before


BOTH_FORMS = ("run directory", "output directory")
# One cell of hetero_eight_nodes seed 1 that ``report`` must refuse: the file,
# the line, the column and the new cell, the report forms that read the
# file, and the error they name after the file.
CORRUPT_CELLS = {
    "gtrace node id x": (
        "gtrace.csv", 2, "node_id", "x", BOTH_FORMS,
        "line 2, column node_id: invalid literal for int() with base 10: 'x'",
    ),
    "gtrace node id 99": (
        "gtrace.csv", 2, "node_id", "99", BOTH_FORMS, "line 2: node id 99 lies outside 0..7"
    ),
    "usefulness t x": (
        "usefulness.csv", 2, "t", "x", ("run directory",),
        "line 2, column t: invalid literal for int() with base 10: 'x'",
    ),
    "usefulness t 7 in round 1": (
        "usefulness.csv", 3, "t", "7", ("run directory",), "line 3: t = 7, expected 1"
    ),
    "rounds t oops": (
        "rounds.csv", 2, "t", "oops", ("output directory",),
        "line 2, column t: invalid literal for int() with base 10: 'oops'",
    ),
    "correlations n many": (
        "correlations.csv", 2, "n", "many", ("output directory",),
        "line 2, column n: invalid literal for int() with base 10: 'many'",
    ),
}


@pytest.mark.parametrize(
    "case, target",
    [(case, target) for case, spec in CORRUPT_CELLS.items() for target in spec[4]],
)
def test_a_corrupt_cell_fails_naming_its_file_and_line(outputs, tmp_path, capsys, case, target):
    out = tmp_path / "out"
    shutil.copytree(outputs[1], out)
    name, line, column, cell, _, message = CORRUPT_CELLS[case]
    path = out / "hetero_eight_nodes_seed1" / name
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    before = tree_bytes(out)
    assert main(["report", "--run", str(path.parent if target == "run directory" else out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"
    assert tree_bytes(out) == before
