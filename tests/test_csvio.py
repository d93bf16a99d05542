import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound.csvio import _table_template, fmt_value, write_csv


def reference_bytes(header, rows) -> bytes:
    """write_csv's output, formatted one cell at a time through fmt_value."""
    lines = [",".join(header)]
    lines += [",".join(fmt_value(cell) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


ROWS = [
    (1, 0.1, "probe"),
    (np.int64(2), np.float64(1 / 3), "training"),
    (3, math.nan, "x"),
    (True, 2.5, "flag"),
    (4, -0.0, "z"),
    (5, math.inf, "y"),
    (False, -math.inf, "flag"),
    (6, 7),
    ("a",),
    (np.float64(123456789012.0), np.float32(0.5), np.True_, 1e-300),
    [7, 0.25, "list row"],
    (),
    (8, 0.1, "same types as the first row"),
]

GOLDEN = (
    "a,b,c\n"
    "1,0.1,probe\n"
    "2,0.333333333,training\n"
    "3,nan,x\n"
    "true,2.5,flag\n"
    "4,-0,z\n"
    "5,inf,y\n"
    "false,-inf,flag\n"
    "6,7\n"
    "a\n"
    "1.23456789e+11,0.5,True,1e-300\n"
    "7,0.25,list row\n"
    "\n"
    "8,0.1,same types as the first row\n"
).encode("utf-8")


def test_golden_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b", "c"), ROWS)
    assert path.read_bytes() == GOLDEN
    assert GOLDEN == reference_bytes(("a", "b", "c"), ROWS)


def test_rows_may_be_a_generator(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ("a", "b", "c"), (row for row in ROWS))
    assert path.read_bytes() == GOLDEN


CELLS = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(alphabet="abc%s-", max_size=4),
)


@given(st.lists(st.lists(CELLS, max_size=5), max_size=12))
@settings(max_examples=200, deadline=None)
def test_matches_cell_by_cell_formatting(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, ("h",), rows)
    assert path.read_bytes() == reference_bytes(("h",), rows)



# One strategy per column type; the mixed ones make a column of two types.
COLUMN_CELLS = {
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "int": st.integers(-(2**70), 2**70),
    "np.int64": st.integers(-(2**62), 2**62).map(np.int64),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "np.float64": st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    "str": st.text(alphabet="abc%s-", max_size=4),
}
COLUMN_CELLS["int|float"] = st.one_of(COLUMN_CELLS["int"], COLUMN_CELLS["float"])
COLUMN_CELLS["float|np.float64"] = st.one_of(COLUMN_CELLS["float"], COLUMN_CELLS["np.float64"])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_typed_columns_match_cell_by_cell_formatting(tmp_path_factory, data):
    kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), max_size=5))
    rows = data.draw(st.lists(st.tuples(*(COLUMN_CELLS[k] for k in kinds)), max_size=30))
    if rows and data.draw(st.booleans()):
        # One row one cell shorter or longer than the rest.
        i = data.draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][:-1] if rows[i] and data.draw(st.booleans()) else rows[i] + (0.5,)
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, ("h",), rows)
    assert path.read_bytes() == reference_bytes(("h",), rows)
    one_template = (
        len(rows) > 0
        and len(set(map(len, rows))) == 1
        and all(len(set(map(type, column))) == 1 for column in zip(*rows))
        and not any(type(cell) is bool for row in rows for cell in row)
    )
    assert (_table_template(rows) is not None) == one_template
