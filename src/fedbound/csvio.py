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


def _table_template(rows: list[tuple]) -> str | None:
    """A ``%`` template that renders every row as fmt_value would, cell by
    cell. None unless the rows share one width and each column holds cells
    of one type, and for a bool column (``%s`` would print ``True``)."""
    if len(set(map(len, rows))) != 1:
        return None
    cells = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if len(kinds) != 1 or bool in kinds:
            return None
        cells.append("%.9g" if issubclass(kinds.pop(), float) else "%s")
    return ",".join(cells)


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = list(map(tuple, rows))
    lines = [",".join(header)]
    template = _table_template(rows)
    if template is not None:
        lines.extend(map(template.__mod__, rows))
    else:
        # Ragged or mixed-type tables; every file of a run directory takes
        # the template above.
        lines.extend(",".join(map(fmt_value, row)) for row in rows)
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
