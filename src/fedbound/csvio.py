"""Schema-stable CSV emission.

All reports share one rendering rule -- every cell as :func:`fmt_value`
writes it, so floats at 9 significant digits (``%.9g``), and LF line
endings -- so repeated runs of the same experiment produce byte-identical
files. Each file is written under a temporary name and then renamed into
place, so a crash never leaves a half-written CSV; a failed write or rename
removes the temporary file.

A table of fewer than ``_VECTOR_MIN_ROWS`` rows is formatted by one ``%``
operation. A longer one whose columns are float64 or integer arrays, or
lists of ``str``, is rendered in numpy: each column becomes rows of
NUL-padded cell bytes, the columns are joined row by row and the NUL bytes
dropped. The bytes are the same either way. Integer cells are exact digit
arithmetic, and a text column is encoded once per distinct cell. A float64
cell whose ``%.9g`` is fixed notation, ``1e-4 <= |x| < 1e9``, comes from a
digit kernel: with ``E`` the decimal exponent, ``|x| * 10**(8 - E)`` is a
product by an exact power of ten (at most ``1e12``), so it carries one
rounding, below ``1.2e-7``; unless it lies within ``1e-4`` of a tie
(``n + 0.5``), rounding it to an integer gives the nine digits exact
arithmetic would. Every other cell -- a near or exact tie (which ``%.9g``
rounds half to even), zeros, subnormals, NaN, infinities, ``|x| < 1e-4``,
``|x| >= 1e9`` and a value that rounds up to the next power of ten -- goes
through Python's ``'%.9g'``.

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
from typing import Callable, Mapping, Sequence

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


def _percent_rows(columns: Sequence[Sequence], n_rows: int) -> str:
    """The table's rows, every cell through one ``%`` operation."""
    width = len(columns)
    flat: list = [None] * (n_rows * width)
    formats = []
    for j, column in enumerate(columns):
        cell_format, cells = _column_cells(column)
        flat[j::width] = cells
        formats.append(cell_format)
    return ((",".join(formats) + "\n") * n_rows) % tuple(flat)


# Word cells: a column's cells as rows of little-endian 64-bit words whose
# bytes are the cell's text, NUL-padded, with at least the last byte NUL.
_WORD = np.dtype("<u8")
# Tables with fewer rows take the % path: below this the numpy calls cost
# more than the cells they render.
_VECTOR_MIN_ROWS = 600
# Longer tables are rendered this many rows at a time.
_BLOCK_ROWS = 1 << 13

# The ASCII digits of 0..999, three to a chunk: adjacent bytes (packed) or
# one byte apart (spread), and the trailing zero digits of each.
_HUNDREDS, _TENS, _ONES = (48 + np.arange(1000) // [[100], [10], [1]] % 10).astype(_WORD)
_PACKED3 = _HUNDREDS | _TENS << 8 | _ONES << 16
_SPREAD3 = _HUNDREDS | _TENS << 16 | _ONES << 32
_ZEROS3 = np.cumprod([_ONES == 48, _TENS == 48, _HUNDREDS == 48], axis=0).sum(axis=0)
# 10 ** (8 - e) for e = -4 .. 8, each exact in float64.
_SCALE = (10 ** np.arange(12, -1, -1)).astype(np.float64)


def _fixed_layout() -> tuple[np.ndarray, np.ndarray]:
    """The kept-digit masks and the sign, prefix and point bytes of a
    24-byte fixed-notation cell, one row of 3 words per cell key
    ``((exponent + 4) * 9 + trailing zeros) * 2 + sign``.

    Byte 0 holds the sign, bytes 1-5 the ``0.000`` prefix of a negative
    exponent, byte ``6 + 2i`` digit ``i`` of the nine and byte ``7 + 2i``
    the point when it follows that digit; byte 23 stays NUL.
    """
    key = np.arange(13 * 9 * 2)[:, None]
    negative, zeros, exponent = key % 2, key // 2 % 9, key // 18 - 4
    byte = np.arange(24)
    digit, is_slot = np.divmod(byte - 6, 2)
    significant = 9 - zeros
    # Trailing zeros after the point go; so does a point with no digit after it.
    keep = (byte >= 6) & (is_slot == 0) & ((digit < significant) | (digit <= exponent))
    point = (byte >= 6) & (is_slot == 1) & (digit == exponent) & (exponent + 1 < significant)
    prefix = (byte >= 1) & (exponent < 0) & (byte < 2 - exponent)
    const = np.select(
        [byte == 0, point | (prefix & (byte == 2)), prefix], [45 * negative, 46, 48], 0
    )
    mask = np.where(keep, 255, 0)
    return mask.astype(np.uint8).view(_WORD), const.astype(np.uint8).view(_WORD)


_FIXED_MASK, _FIXED_CONST = _fixed_layout()


def _fixed_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(exact, cells)``: each float64 value's ``%.9g`` text in fixed
    notation as a 24-byte cell (3 words), and whether that cell is proven
    to be it. Rows that are not exact hold no meaningful text."""
    magnitude = np.abs(values)
    exact = (magnitude >= 1e-4) & (magnitude < 1e9)
    magnitude = np.where(exact, magnitude, 1.0)
    exponent = np.clip(np.floor(np.log10(magnitude)), -4, 8).astype(np.intp)
    scaled = magnitude * np.take(_SCALE, exponent + 4)
    digits = np.rint(scaled)
    # The product rounds once, by under 1.2e-7, so away from a tie rint gives
    # the nine digits exact arithmetic would. A log10 off by one at a power
    # of ten leaves scaled outside [1e8, 1e9), and a value that rounds up to
    # the next power of ten takes ten digits; both go to Python.
    exact &= (np.abs(scaled - digits) < 0.5 - 1e-4) & (scaled >= 1e8) & (digits < 1e9)
    # Rows that are not exact may index past the tables; "clip" keeps their
    # lookups in range.
    high, rest = np.divmod(digits.astype(np.intp), 1000000)
    middle, low = np.divmod(rest, 1000)
    zeros = np.take(_ZEROS3, low, mode="clip")
    # Rare: the last three digits are zeros, and maybe the middle three too.
    ends = np.flatnonzero(zeros == 3)
    more = np.take(_ZEROS3, middle[ends], mode="clip")
    zeros[ends] += more + (more == 3) * np.take(_ZEROS3, high[ends], mode="clip")
    key = ((exponent + 4) * 9 + zeros) * 2 + np.signbit(values)
    high, middle, low = (np.take(_SPREAD3, chunk, mode="clip") for chunk in (high, middle, low))
    cells = np.empty((len(values), 3), _WORD)
    cells[:, 0] = high << 48
    cells[:, 1] = high >> 16 | middle << 32
    cells[:, 2] = middle >> 32 | low << 16
    cells &= np.take(_FIXED_MASK, key, axis=0, mode="clip")
    cells |= np.take(_FIXED_CONST, key, axis=0, mode="clip")
    return exact, cells


def _float_words(values: np.ndarray) -> np.ndarray:
    """A float64 column's ``%.9g`` cells; those the kernel cannot prove
    exact go through Python's ``%``."""
    exact, cells = _fixed_cells(values)
    inexact = np.flatnonzero(~exact)
    if inexact.size:
        text = ["%.9g" % value for value in values[inexact].tolist()]
        cells[inexact] = np.array(text, "S24").view(_WORD).reshape(-1, 3)
    return cells


def _int_words(values: np.ndarray, n_chunks: int) -> np.ndarray:
    """An integer column's cells, for magnitudes of at most ``3 * n_chunks``
    digits: byte 0 the sign, then the digits, leading zeros NUL."""
    negative = values < 0
    magnitude = values.astype(_WORD)
    np.negative(magnitude, out=magnitude, where=negative)
    n_digits = 3 * n_chunks
    cells = np.zeros((len(values), (n_digits + 9) // 8), _WORD)
    rest = magnitude
    # Chunk k, k = 0 the most significant, takes bytes 1 + 3k to 3 + 3k.
    for k in range(n_chunks - 1, -1, -1):
        rest, chunk = np.divmod(rest, 1000)
        packed = np.take(_PACKED3, chunk)
        word, shift = divmod(1 + 3 * k, 8)
        cells[:, word] |= packed << 8 * shift
        if shift > 5:
            cells[:, word + 1] |= packed >> 64 - 8 * shift
    length = np.ones(len(values), np.intp)
    for k in range(1, min(n_digits, 20)):
        length += magnitude >= 10**k
    byte = np.arange(8 * cells.shape[1])
    first = n_digits + 1 - np.arange(n_digits + 1)[:, None]
    masks = np.where((byte >= first) & (byte <= n_digits), 255, 0).astype(np.uint8).view(_WORD)
    cells &= np.take(masks, length, axis=0)
    cells[:, 0] |= negative.astype(_WORD) * 45
    return cells


def _text_words(column: Sequence[str]) -> tuple[np.ndarray, np.ndarray] | None:
    """``(table, codes)``: the distinct cells of an all-``str`` column, one
    row of words each, and each cell's row; None if a cell holds a NUL."""
    cells = np.array(column, dtype=object)
    starts = np.flatnonzero(np.r_[True, cells[1:] != cells[:-1]])
    runs = cells[starts].tolist()
    index = {text: i for i, text in enumerate(dict.fromkeys(runs))}
    encoded = [text.encode("utf-8") for text in index]
    if any(b"\0" in text for text in encoded):
        return None
    width = max(map(len, encoded)) // 8 + 1
    table = np.array(encoded, f"S{8 * width}").view(_WORD).reshape(len(encoded), width)
    codes = np.repeat([index[text] for text in runs], np.diff(np.r_[starts, len(cells)]))
    return table, codes


def _word_renderer(column: Sequence) -> Callable[[int, int], np.ndarray] | None:
    """A function of ``(start, stop)`` giving rows ``start:stop`` of the
    column's word cells, or None for a column that takes the % path."""
    if isinstance(column, np.ndarray):
        if column.ndim != 1:
            return None
        if column.dtype == np.float64:
            return lambda start, stop: _float_words(column[start:stop])
        if column.dtype.kind in "iu":
            largest = max(int(column.max()), -int(column.min()))
            n_chunks = (len(str(largest)) + 2) // 3
            return lambda start, stop: _int_words(column[start:stop], n_chunks)
        return None
    if set(map(type, column)) != {str}:
        return None
    words = _text_words(column)
    if words is None:
        return None
    table, codes = words
    return lambda start, stop: np.take(table, codes[start:stop], axis=0)


def _vector_rows(columns: Sequence[Sequence], n_rows: int) -> str | None:
    """The table's rows from word cells joined with their NUL bytes
    dropped, or None when a column takes the % path."""
    renderers = [_word_renderer(column) for column in columns]
    if None in renderers:
        return None
    blocks = []
    for start in range(0, n_rows, _BLOCK_ROWS):
        cells = [render(start, start + _BLOCK_ROWS) for render in renderers]
        rows = np.concatenate(cells, axis=1)
        # Each cell's last byte is NUL; it takes the separator.
        ends = 8 * np.cumsum([block.shape[1] for block in cells]) - 1
        row_bytes = rows.view(np.uint8)
        row_bytes[:, ends[:-1]] = ord(",")
        row_bytes[:, ends[-1]] = ord("\n")
        blocks.append(rows.tobytes().translate(None, b"\0"))
    return b"".join(blocks).decode("utf-8")


def write_csv(path: Path | str, header: Sequence[str], columns: Sequence[Sequence]) -> None:
    """Write one column per header field; every column must be equally long."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header fields but {len(columns)} columns")
    n_rows = len(columns[0]) if len(columns) else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"columns differ in length: {[len(column) for column in columns]}")
    body = _vector_rows(columns, n_rows) if n_rows >= _VECTOR_MIN_ROWS else None
    if body is None:
        body = _percent_rows(columns, n_rows)
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
