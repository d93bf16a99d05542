"""Schema-stable CSV emission.

All reports share one rendering rule -- floats at 9 significant digits,
LF line endings -- so repeated runs of the same experiment produce
byte-identical files. Each file is written under a temporary name and then
renamed into place, so a crash never leaves a half-written CSV.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Sequence


def fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _row_template(types: tuple[type, ...]) -> str | None:
    """A ``%`` template that renders a row of these cell types as fmt_value
    would, or None for rows holding a bool (``%s`` would print ``True``)."""
    if bool in types:
        return None
    return ",".join("%.9g" if issubclass(t, float) else "%s" for t in types)


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    templates: dict[tuple[type, ...], str | None] = {}
    for row in rows:
        row = tuple(row)
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = _row_template(types)
        template = templates[types]
        if template is None:
            lines.append(",".join(fmt_value(cell) for cell in row))
        else:
            lines.append(template % row)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def read_csv(path: Path | str) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.split("\n") if line]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]
