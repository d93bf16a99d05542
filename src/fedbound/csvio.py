"""Schema-stable CSV emission.

All reports share one rendering rule -- floats at 9 significant digits,
LF line endings -- so repeated runs of the same experiment produce
byte-identical files. Each file is written under a temporary name and then
renamed into place, so a crash never leaves a half-written CSV; a failed
write or rename removes the temporary file.

Tables travel as columns, both ways: :func:`write_csv` takes one sequence
per header field, and :func:`read_csv` returns one typed array per field,
parsed by numpy's C reader, which gives every ``%.9g`` cell the bits that
``float()`` gives. A malformed file raises a ValueError naming the file and
its header or the first bad line.

:data:`RUN_TABLES` is the layout of every CSV in a run directory: each
writer takes its header from it and each reader its header and dtypes, so a
file whose header differs from its table fails to read.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

_INT, _FLOAT, _TEXT = np.int64, np.float64, None
# Each run file's columns, in order, with the dtype each reads back as;
# None keeps a column as text.
RUN_TABLES: dict[str, dict[str, type | None]] = {
    "rounds.csv": {"t": _INT, "train_loss": _FLOAT, "test_loss": _FLOAT, "bound_value": _FLOAT},
    "usefulness.csv": {"t": _INT, "node_id": _INT, "delta": _FLOAT},
    "gtrace.csv": {"source": _TEXT, "node_id": _INT, "value": _FLOAT},
    "constants.csv": {"node_id": _INT, "mu": _FLOAT, "L": _FLOAT, "G": _FLOAT, "n_probes": _INT},
    "probes.csv": {"node_id": _INT, "probe_index": _INT, "m_value": _FLOAT, "g_value": _FLOAT},
    "correlations.csv": {"quantity": _TEXT, "pearson": _FLOAT, "spearman": _FLOAT, "n": _INT},
    "cdf_probe.csv": {"value": _FLOAT, "fraction": _FLOAT},
    "cdf_training.csv": {"value": _FLOAT, "fraction": _FLOAT},
    "selection.csv": {"policy": _TEXT, "k": _INT, "chosen": _TEXT},
}


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
    try:
        tmp.write_text(",".join(header) + "\n" + body, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_csv(path: Path | str, table: Mapping[str, type | None]) -> list[np.ndarray]:
    """The columns of a file write_csv wrote with the header ``table``'s
    keys, each as an array of its dtype in ``table``, or as an object array
    of its text where that dtype is None.

    A malformed file raises a ValueError that names it and, in this order,
    a header other than ``table``'s keys, the first line with another cell
    count than the header, or the first cell in file order that its dtype
    rejects.
    """
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        raise ValueError(f"{path} is empty")
    head, _, body = text.partition("\n")
    if head.split(",") != list(table):
        raise ValueError(f"{path}: header {head}, expected {','.join(table)}")
    fields = [(f"f{j}", object if t is None else t) for j, t in enumerate(table.values())]
    n_rows = text.removesuffix("\n").count("\n")
    try:
        # np.loadtxt warns of a file with no data row, so a header-only file
        # skips it; it skips blank lines, which the row count then catches.
        rows = (
            np.loadtxt(
                path, dtype=fields, delimiter=",", comments=None, skiprows=1, ndmin=1,
                encoding="utf-8",
            )
            if body.strip()
            else np.empty(0, fields)
        )
        if len(rows) != n_rows:
            raise ValueError(f"{len(rows)} rows read, expected {n_rows}")
    except ValueError as exc:
        lines = body.removesuffix("\n").split("\n")
        for i, line in enumerate(lines, start=2):
            if line.count(",") != len(table) - 1:
                raise ValueError(
                    f"{path}: line {i}: {line.count(',') + 1} cells, expected {len(table)}"
                ) from exc
        for i, line in enumerate(lines, start=2):
            for (name, dtype), cell in zip(table.items(), line.split(",")):
                try:
                    np.array(cell, dtype)
                except ValueError as cell_exc:
                    raise ValueError(f"{path}: line {i}, column {name}: {cell_exc}") from exc
        raise ValueError(f"{path}: {exc}") from exc
    return [rows[name] for name, _ in fields]
