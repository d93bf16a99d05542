"""The public surface of ``fedbound`` is what its modules and scripts reach.

Every top-level public function, class and constant of ``src/fedbound`` and
every field of its dataclasses must be named somewhere in ``src/fedbound`` or
``scripts/`` other than at its definition. That can be a name, an attribute,
an import, a keyword argument or a string equal to it (the config key tables
name fields by string). Tests and the benchmark do not count: a name that
only they read is surface no command needs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "fedbound").glob("*.py"))
READERS = MODULES + sorted((ROOT / "scripts").glob("*.py"))

# Public names that nothing in src/ or scripts/ reaches. The set may only
# shrink: a deletion or a new caller removes an entry, and a new public name
# comes with its caller. ``Trained.final_params`` stays as a test observable.
UNREACHED = frozenset({
    "flsim.run_federated",
    "flsim.Trained.final_params",
    "probe.compute_g",
    "probe.compute_m",
})


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def public_names(path: Path) -> list[str]:
    """The module's top-level public functions, classes and constants, and
    its dataclasses' fields as ``<class>.<field>``."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [
                    f"{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in found if not name.rpartition(".")[2].startswith("_")]


def named(path: Path) -> set[str]:
    """Every identifier the module reads, imports, passes by keyword or spells as a string;
    a name it only assigns, as a definition does, is not among them."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreached() -> set[str]:
    reached = set().union(*(named(path) for path in READERS))
    return {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in public_names(path)
        if name.rpartition(".")[2] not in reached
    }


def test_every_public_name_is_reached_from_src_or_scripts():
    assert sorted(unreached() - UNREACHED) == []


def test_each_listed_name_exists_and_is_still_unreached():
    # A name that gained a caller or was deleted leaves the list.
    defined = {f"{path.stem}.{name}" for path in MODULES for name in public_names(path)}
    assert sorted(UNREACHED - defined) == []
    assert sorted(UNREACHED - unreached()) == []


def test_the_scan_sees_each_kind_of_reference(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "LIMIT = 3\n"
        "@dataclass(frozen=True)\n"
        "class Box:\n"
        "    size: int\n"
        "    _hidden: int = 0\n"
        "def helper(): pass\n"
        "def _private(): pass\n"
    )
    reader = tmp_path / "reader.py"
    reader.write_text(
        "from mod import helper as h\n"  # an import, under another name
        "print(obj.size)\n"  # an attribute
        "make(Box=1)\n"  # a keyword argument
        "KEYS = ('LIMIT',)\n"  # a string
    )
    assigner = tmp_path / "assigner.py"
    assigner.write_text("LIMIT = 4\n")  # an assignment elsewhere is no reference
    assert public_names(module) == ["LIMIT", "Box", "Box.size", "helper"]
    assert named(reader) >= {"helper", "size", "Box", "LIMIT"}
    assert not named(module) & {"LIMIT", "Box", "size", "helper"}
    assert "LIMIT" not in named(assigner)
