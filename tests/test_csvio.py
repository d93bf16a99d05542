import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound.csvio import fmt_value, write_csv


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

