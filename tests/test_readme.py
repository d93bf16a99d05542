"""README.md states what a user relies on; these tests bind it to the code.

The commands and the config keys are bound in ``test_cli.py`` and
``test_config.py``, the table excerpts in ``test_report_tables.py``. The
config rules' and exit codes' examples run here, through the CLI.
"""

import importlib
import math
import re
from pathlib import Path

import pytest

from fedbound import model
from fedbound.analysis import SUMMARY_HEADER
from fedbound.cli import main
from fedbound.config import KNOWN_KEYS, read_config
from test_cli import TINY

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("model", "probe", "rng", "bound", "flsim", "csvio", "analysis", "data", "config", "cli")
# A backticked ``<module>.<name>``, with or without the ``fedbound.`` prefix.
MODULE_NAME = re.compile(rf"(?<![\w.])(?:fedbound\.)?({'|'.join(MODULES)})\.(\w+)")
# ``config.txt`` and the like are file names, not module attributes.
FILE_SUFFIXES = {"txt", "csv", "cfg", "py", "md", "bin"}


def readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def exit_code_bullets() -> dict[int, str]:
    """{exit code: the text of its bullet, on one line} of the README's exit codes."""
    codes = readme_section("Running experiments").split("\nExit codes:\n\n", 1)[1].split("\n\n")[0]
    bullets = re.findall(r"^- \*\*(\d)\*\*: (.*?)(?=^- |\Z)", codes, flags=re.S | re.M)
    return {int(code): " ".join(text.split()) for code, text in bullets}


def five_nodes_with(tmp_path: Path, *lines: str) -> Path:
    """``configs/five_nodes.cfg`` with ``lines`` appended, which override its keys."""
    config = tmp_path / "five_nodes.cfg"
    text = (README.parent / "configs" / "five_nodes.cfg").read_text(encoding="utf-8")
    config.write_text(text + "".join(f"{line}\n" for line in lines))
    return config


def run_directory_table() -> dict[str, str | None]:
    """{file: the first backticked text of its row's second cell} of the
    README's run-directory table."""
    table = {}
    for line in readme_section("Run directory layout").splitlines():
        if line.startswith("| `"):
            files, contents = line.strip("|").split("|", 1)
            first = re.search(r"`([^`]*)`", contents)
            for name in re.findall(r"`([^`]+)`", files):
                table[name] = first[1] if first else None
    return table


@pytest.fixture(scope="module")
def tiny_out(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme")
    config = root / "tiny.cfg"
    config.write_text(TINY)
    assert main(["run", "--config", str(config), "--out", str(root / "out")]) == 0
    return root / "out"


def test_run_directory_table_lists_the_files_and_headers_run_writes(tiny_out):
    table = run_directory_table()
    run_dir = tiny_out / "tiny_seed1"
    assert set(table) == {path.name for path in run_dir.iterdir()}
    for name, header in table.items():
        if name.endswith(".csv"):
            assert header == (run_dir / name).read_text().splitlines()[0], name


def test_summary_sentence_gives_the_summary_header(tiny_out):
    sentence = readme_section("Run directory layout").split("`summary.csv` at the top level", 1)[1]
    header = re.search(r"`(scenario,[^`]*)`", sentence)[1]
    assert header == ",".join(SUMMARY_HEADER)
    assert header == (tiny_out / "summary.csv").read_text().splitlines()[0]


def test_every_backticked_module_name_resolves():
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    named, unresolved = 0, []
    for span in re.findall(r"`([^`]+)`", prose):
        for module, name in MODULE_NAME.findall(span):
            if name in FILE_SUFFIXES:
                continue
            named += 1
            found = hasattr(importlib.import_module(f"fedbound.{module}"), name)
            if not (found or f"{module}.{name}" in KNOWN_KEYS):
                unresolved.append(f"{module}.{name}")
    assert named
    assert unresolved == []


# A config text for each example message that the config rules quote: a
# backticked span that closes a parenthesis. ``...`` ends an example that
# quotes only the start of the message.
RULE_EXAMPLES = {
    "scenario.nodes: unknown key": "scenario.nodes = 3\n",
    "repeat_seeds: cannot parse '1,,2': item 2 is empty": "repeat_seeds = 1,,2\n",
    "bound.squared_distance: cannot parse 'yes': expected true or false":
        "bound.squared_distance = yes\n",
    "data.cifar_pool: a key of data.source = cifar10, not synthetic": "data.cifar_pool = 2\n",
    "scenario.lr: lr must be finite and >= 0": "scenario.lr = nan\n",
    "model.feature_dim: 99 differs from the data source's 8": "model.feature_dim = 99\n",
    "seed 1 is listed more than once": "repeat_seeds = 1, 2, 1\n",
    "batch_size 99 exceeds samples_per_node 30": TINY + "scenario.batch_size = 99\n",
    "data.feature_scale: needs 2 entries, one per node": TINY + "data.feature_scale = 0.5\n",
    "lists every class, which leaves no training data": "scenario.missing_classes = 0,1,2,3\n",
    "batch_size must be >= 1": "scenario.batch_size = 0\n",
    "scenario.samples_per_node: seed 1: insufficient data: need 60 training samples, have 27 ...":
        TINY + "data.samples_per_class = 10\n",
    "test_fraction 0.001 leaves the test split empty": (
        "data.samples_per_class = 100\nscenario.samples_per_node = 50\n"
        "scenario.test_fraction = 0.001\n"
    ),
    "data.feature_dim: cannot place 4 centers at separation 0.7 in 1 dimensions for seed 1; ...":
        "data.feature_dim = 1\nrepeat_seeds = 1\n",
    "data.cifar_path: no .bin files under ...": "data.source = cifar10\ndata.cifar_path = .\n",
    "probe.perturb_sigma: seed 1, node 0: probe 0 failed: probe values must be finite; "
    "lower probe.perturb_sigma": TINY + "probe.sampler = perturb\nprobe.perturb_sigma = 1e200\n",
}


def test_each_config_rule_example_comes_out_of_a_config_text(tmp_path, capsys):
    prose = re.sub(r"```.*?```", "", readme_section("Config format"), flags=re.S)
    examples = re.findall(r"`([^`]+)`\)", " ".join(prose.split()))
    assert sorted(examples) == sorted(RULE_EXAMPLES)
    for i, (example, text) in enumerate(RULE_EXAMPLES.items()):
        config = tmp_path / str(i) / "c.cfg"
        config.parent.mkdir()
        config.write_text(text)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and example.removesuffix(" ...") in err, err
        assert not (tmp_path / "out").exists()


def test_exit_1_example_names_where_five_nodes_diverged(tmp_path, capsys):
    example = re.search(
        r"\(`(scenario\.lr = \S+)` on `configs/five_nodes\.cfg` gives `([^`]+)`",
        exit_code_bullets()[1],
    )
    edit, error = example.groups()
    assert (edit, error) == (
        "scenario.lr = 1e10",
        "error: seed 1 failed: round 8: node 0: SGD step 4 left non-finite parameters",
    )
    config = five_nodes_with(tmp_path, edit)
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"{error} (5 of 5 seeds failed)\n")
    assert not (tmp_path / "out").exists()


def test_exit_0_example_skips_a_directory_without_config_txt(tmp_path, capsys):
    # summary.csv and the tables list the real runs; the stray directory gets one warning.
    bullet = exit_code_bullets()[0]
    warning = re.search(r"`(warning: <out>/notes_seed1: [^`]+)`", bullet)[1]
    out = tmp_path / "out"
    (out / "notes_seed1").mkdir(parents=True)
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY)
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", warning.replace("<out>", str(out)) + "\n")
    assert sorted(path.name for path in out.iterdir()) == [
        "notes_seed1", "summary.csv", "tiny_seed1", "tiny_seed2",
    ]
    summary = (out / "summary.csv").read_text().splitlines()
    assert [line.split(",")[:2] for line in summary[1:]] == [["tiny", "1"], ["tiny", "2"]]
    assert "`report --run <out>`" in bullet
    assert main(["report", "--run", str(out)]) == 0
    tables, err = capsys.readouterr()
    assert err == warning.replace("<out>", str(out)) + "\n"
    (out / "notes_seed1").rmdir()
    assert main(["report", "--run", str(out)]) == 0
    assert capsys.readouterr() == (tables, "")


def test_exit_0_example_saturates_five_nodes(tmp_path, capsys):
    # Seed 1 alone, so the run is short; the README's numbers are seed 1's.
    example = re.search(
        r"`configs/five_nodes\.cfg` with `(model\.l2 = \S+)` and `(scenario\.lr = \S+)` "
        r"prints nothing, and seed 1 writes train loss ([0-9.]+) in all (\d+) rounds\..*?"
        r"\((\d+) of (\d+)\)",
        exit_code_bullets()[0],
    )
    assert example is not None
    *edits, train_loss, rounds, capped, rows = example.groups()
    assert (train_loss, capped) == ("20.2995902", "551")
    config = five_nodes_with(tmp_path, *edits, "repeat_seeds = 1")
    scenario = read_config(config).scenario
    assert int(rounds) == scenario.rounds
    assert int(rows) == scenario.n_nodes * scenario.samples_per_node
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr() == ("", "")
    lines = (tmp_path / "out" / "five_nodes_seed1" / "rounds.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == [train_loss] * scenario.rounds
    # A capped row's loss is -log(PROB_FLOOR), a row fit with probability 1 adds 0.
    assert round(float(train_loss) * int(rows) / -math.log(model.PROB_FLOOR)) == int(capped)
