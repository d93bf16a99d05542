import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedbound.csvio import _column_cells, fmt_value, read_csv, write_csv


def reference_bytes(header, columns) -> bytes:
    """write_csv's output, formatted one cell at a time through fmt_value."""
    lines = [",".join(header)]
    lines += [",".join(fmt_value(cell) for cell in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


HEADER = ("a", "b", "c", "d", "e", "f")
COLUMNS = (
    # int, numpy int and bool cells in one column
    [1, np.int64(2), 3, True, 4, 5, False, 6],
    # float, numpy float64 and float32 cells in one column
    [0.1, np.float64(1 / 3), math.nan, 2.5, -0.0, math.inf, -math.inf, np.float32(0.5)],
    ["probe", "training", "x", "flag", "z", "y", "flag", "a%s"],
    np.array([0.1, 1 / 3, math.nan, -0.0, math.inf, -math.inf, 1e-300, 123456789012.0]),
    np.array([-1, 0, 1, 2**40, 7, 8, 9, -(2**62)], dtype=np.int64),
    np.array([True, False, True, True, False, False, True, False]),
)

GOLDEN = (
    "a,b,c,d,e,f\n"
    "1,0.1,probe,0.1,-1,True\n"
    "2,0.333333333,training,0.333333333,0,False\n"
    "3,nan,x,nan,1,True\n"
    "true,2.5,flag,-0,1099511627776,True\n"
    "4,-0,z,inf,7,False\n"
    "5,inf,y,-inf,8,False\n"
    "false,-inf,flag,1e-300,9,True\n"
    "6,0.5,a%s,1.23456789e+11,-4611686018427387904,False\n"
).encode("utf-8")


def test_golden_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, HEADER, COLUMNS)
    assert path.read_bytes() == GOLDEN
    assert GOLDEN == reference_bytes(HEADER, COLUMNS)


@pytest.mark.parametrize("columns", [([], [], []), (np.empty(0), np.empty(0, np.int64), [])])
def test_empty_table_is_the_header_line(tmp_path, columns):
    path = tmp_path / "out.csv"
    write_csv(path, ("x", "y", "z"), columns)
    assert path.read_bytes() == b"x,y,z\n"
    assert read_csv(path) == (["x", "y", "z"], [[], [], []])


def test_cell_formats_follow_column_types():
    assert _column_cells(np.array([0.5, 2.0]))[0] == "%.9g"
    assert _column_cells(np.array([3, 4]))[0] == "%s"
    assert _column_cells([0.5, 2.0]) == ("%.9g", [0.5, 2.0])
    assert _column_cells(["probe", "x"]) == ("%s", ["probe", "x"])
    # bools and mixed columns are rendered cell by cell.
    assert _column_cells([True, False]) == ("%s", ["true", "false"])
    assert _column_cells([1, 0.5]) == ("%s", ["1", "0.5"])


@pytest.mark.parametrize(
    "header, columns",
    [(("a", "b"), ([1, 2], [0.5])), (("a", "b"), (np.arange(3), np.zeros(2))), (("a",), ([1], [2]))],
)
def test_columns_must_fit_the_header_and_each_other(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", header, columns)
    assert not list(tmp_path.iterdir())


CELLS = st.one_of(
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(alphabet="abc%s-", max_size=4),
)


@given(
    st.integers(0, 12).flatmap(
        lambda n: st.lists(st.lists(CELLS, min_size=n, max_size=n), min_size=1, max_size=5)
    )
)
@settings(max_examples=200, deadline=None)
def test_matches_cell_by_cell_formatting(tmp_path_factory, columns):
    header = [f"h{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == reference_bytes(header, columns)


# One strategy per column type: lists of one cell type, numpy arrays, and
# the mixed ones make a list of two or three types.
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
COLUMN_CELLS = {
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "int": st.integers(-(2**70), 2**70),
    "np.int64": st.integers(-(2**62), 2**62).map(np.int64),
    "float": FLOATS,
    "np.float64": FLOATS.map(np.float64),
    "str": st.text(alphabet="abc%s-", max_size=4),
}
COLUMN_CELLS["int|float"] = st.one_of(COLUMN_CELLS["int"], COLUMN_CELLS["float"])
COLUMN_CELLS["float|np.float64"] = st.one_of(COLUMN_CELLS["float"], COLUMN_CELLS["np.float64"])
COLUMN_CELLS["int|bool|str"] = st.one_of(
    COLUMN_CELLS["int"], COLUMN_CELLS["bool"], COLUMN_CELLS["str"]
)
ARRAYS = {
    "float64 array": (FLOATS, np.float64),
    "int64 array": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "bool array": (st.booleans(), np.bool_),
}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_typed_columns_match_cell_by_cell_formatting(tmp_path_factory, data):
    kinds = data.draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS) + sorted(ARRAYS)), max_size=5))
    n = data.draw(st.integers(0, 30))
    columns = []
    for kind in kinds:
        if kind in ARRAYS:
            cells, dtype = ARRAYS[kind]
            columns.append(np.array(data.draw(st.lists(cells, min_size=n, max_size=n)), dtype))
        else:
            columns.append(data.draw(st.lists(COLUMN_CELLS[kind], min_size=n, max_size=n)))
    header = [f"h{j}" for j in range(len(columns))]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == reference_bytes(header, columns)


@given(
    values=st.lists(FLOATS, max_size=30),
    labels=st.sampled_from(["probe", "training"]),
)
@settings(max_examples=100, deadline=None)
def test_float_column_reads_back_at_nine_digits(tmp_path_factory, values, labels):
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    columns = ([labels] * len(values), np.arange(len(values)), np.array(values, dtype=np.float64))
    write_csv(path, ("source", "node_id", "value"), columns)
    header, (source, ids, cells) = read_csv(path)
    assert header == ["source", "node_id", "value"]
    assert source == [labels] * len(values)
    assert ids == [str(i) for i in range(len(values))]
    # repr tells -0.0 from 0.0, and every NaN reads back as the one "nan".
    assert [repr(float(c)) for c in cells] == [repr(float(format(x, ".9g"))) for x in values]


@pytest.mark.parametrize(
    "text, line",
    [("a,b\n1,2\n3\n", 3), ("a,b\n1,2,3\n", 2), ("a,b\n1,2\n\n4,5\n", 3), ("a,b\n1\n2,3,4\n", 2)],
)
def test_read_names_the_malformed_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    message = rf"^{re.escape(str(path))}: line {line}: \d cells, expected 2$"
    with pytest.raises(ValueError, match=message):
        read_csv(path)


def test_read_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="is empty"):
        read_csv(path)
