"""Schema-stable CSV emission.

All reports share one rendering rule -- floats at 9 significant digits,
LF line endings -- so repeated runs of the same experiment produce
byte-identical files. Each file is written under a temporary name and then
renamed into place, so a crash never leaves a half-written CSV.

Tables travel as columns, both ways: :func:`write_csv` takes one sequence
per header field and :func:`read_csv` returns one list of cells per field.
"""

from __future__ import annotations

import os
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np


def fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def _column_cells(column) -> tuple[str, list]:
    """A ``%`` cell format and the cells it takes, rendering every cell of
    ``column`` as fmt_value would."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return "%.9g", column.tolist()
        if column.dtype.kind in "iu":
            return "%s", column.tolist()
    kinds = set(map(type, column))
    if len(kinds) == 1 and bool not in kinds:
        # ``%s`` would print a bool as ``True``, so bools take fmt_value.
        return ("%.9g" if issubclass(kinds.pop(), float) else "%s"), list(column)
    return "%s", list(map(fmt_value, column))


def write_csv(path: Path | str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write one column per header field; every column must be equally long."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    n_rows = len(columns[0]) if len(columns) else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"columns differ in length: {[len(column) for column in columns]}")
    width = len(columns)
    flat: list = [None] * (n_rows * width)
    formats = []
    for j, column in enumerate(columns):
        cell_format, cells = _column_cells(column)
        flat[j::width] = cells
        formats.append(cell_format)
    body = ((",".join(formats) + "\n") * n_rows) % tuple(flat)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    tmp.write_text(",".join(header) + "\n" + body, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def read_csv(path: Path | str) -> tuple[list[str], list[list[str]]]:
    """The header and one list of cells per column of a file write_csv wrote."""
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raise ValueError(f"{path} is empty")
    lines = text.removesuffix("\n").split("\n")
    header = lines[0].split(",")
    width = len(header)
    body = lines[1:]
    commas = list(map(str.count, body, repeat(",")))
    if commas.count(width - 1) != len(commas):
        i = next(i for i, n in enumerate(commas) if n != width - 1)
        raise ValueError(f"{path}: line {i + 2}: {commas[i] + 1} cells, expected {width}")
    cells = ",".join(body).split(",") if body else []
    return header, [cells[j::width] for j in range(width)]
