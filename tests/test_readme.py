"""README.md states what a user relies on; these tests bind it to the code.

The commands and the config keys are bound in ``test_cli.py`` and
``test_config.py``, the table excerpts in ``test_report_tables.py``.
"""

import importlib
import re
from pathlib import Path

import pytest

from fedbound.analysis import SUMMARY_HEADER
from fedbound.cli import main
from fedbound.config import KNOWN_KEYS
from test_cli import TINY

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("model", "probe", "rng", "bound", "flsim", "csvio", "analysis", "data", "config", "cli")
# A backticked ``<module>.<name>``, with or without the ``fedbound.`` prefix.
MODULE_NAME = re.compile(rf"(?<![\w.])(?:fedbound\.)?({'|'.join(MODULES)})\.(\w+)")
# ``config.txt`` and the like are file names, not module attributes.
FILE_SUFFIXES = {"txt", "csv", "cfg", "py", "md", "bin"}


def readme_section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


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
