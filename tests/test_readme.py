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
