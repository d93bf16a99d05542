import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedbound.csvio import RUN_TABLES, _column_cells, fmt_value, read_csv, write_csv


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
    read = read_csv(path, {"x": np.float64, "y": np.int64, "z": None})
    assert [len(column) for column in read] == [0, 0, 0]


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
    write_csv(path, RUN_TABLES["gtrace.csv"], columns)
    source, ids, cells = read_csv(path, RUN_TABLES["gtrace.csv"])
    assert list(source) == [labels] * len(values)
    assert ids.tolist() == list(range(len(values)))
    # repr tells -0.0 from 0.0, and every NaN reads back as the one "nan".
    assert [repr(c) for c in cells.tolist()] == [repr(float(format(x, ".9g"))) for x in values]


@pytest.mark.parametrize(
    "text, line",
    [("a,b\n1,2\n3\n", 3), ("a,b\n1,2,3\n", 2), ("a,b\n1,2\n\n4,5\n", 3), ("a,b\n1\n2,3,4\n", 2)],
)
def test_read_names_the_malformed_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    message = rf"^{re.escape(str(path))}: line {line}: \d cells, expected 2$"
    with pytest.raises(ValueError, match=message):
        read_csv(path, {"a": np.int64, "b": np.int64})


def test_read_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="is empty"):
        read_csv(path, {"a": None})


# gtrace.csv's columns with the node id read as text.
TEXT_IDS = {"source": None, "node_id": None, "value": np.float64}


def _sources(n):
    return (["probe", "training"] * n)[:n]


# What reading each gtrace.csv body gives: a ValueError's message after the
# path, or the columns.
MALFORMED = {
    # A blank line, which np.loadtxt skips, fails the cell count.
    "probe,0,1\n\ntraining,0,2\n": "line 3: 1 cells, expected 3",
    "probe,0,1\n   \n": "line 3: 1 cells, expected 3",
    "probe,0,1\n\n": "line 3: 1 cells, expected 3",
    "probe,0,1\ntraining,0\n": "line 3: 2 cells, expected 3",
    "probe,0,1,7\n": "line 2: 4 cells, expected 3",
    "probe,0,abc\n": "line 2, column value: could not convert string to float: 'abc'",
    # The node id column is text here.
    "probe,1.0,1\n": [["probe"], ["1.0"], [1.0]],
    # float() takes it, np.loadtxt does not, and write_csv never writes it.
    "probe,0,1_0\n": "could not convert string '1_0' to float64 at row 0, column 3.",
    "probe,0,0x10\n": "line 2, column value: could not convert string to float: '0x10'",
}


class TestReadBack:
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    @example([5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308])
    @example([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 1.7976931348623157e308])
    @example([float("nan"), float("inf"), -float("inf"), 0.1, 123456789.5])
    def test_written_floats_parse_to_the_bits_of_float(self, tmp_path_factory, values):
        # Every %.9g string write_csv emits.
        path = tmp_path_factory.mktemp("csv") / "gtrace.csv"
        n = len(values)
        write_csv(path, RUN_TABLES["gtrace.csv"], (_sources(n), range(n), np.array(values)))
        cells = [line.rsplit(",", 1)[1] for line in path.read_text().splitlines()[1:]]
        source, _, parsed = read_csv(path, RUN_TABLES["gtrace.csv"])
        assert parsed.tobytes() == np.array([float(cell) for cell in cells]).tobytes()
        assert list(source) == _sources(n)

    @pytest.mark.parametrize("name", sorted(RUN_TABLES))
    def test_header_only_file_reads_as_empty_columns_without_a_warning(self, tmp_path, name):
        table = RUN_TABLES[name]
        path = tmp_path / name
        path.write_text(",".join(table) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = read_csv(path, table)
        assert len(columns) == len(table)
        for column, dtype in zip(columns, table.values()):
            assert len(column) == 0
            assert column.dtype == (object if dtype is None else dtype)

    @given(name=st.sampled_from(sorted(RUN_TABLES)), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_run_file_reads_back_as_written(self, tmp_path_factory, name, data):
        table = RUN_TABLES[name]
        n = data.draw(st.integers(0, 20), label="rows")
        cells = {
            None: st.sampled_from(["probe", "training"]),
            np.int64: st.integers(-(2**63), 2**63 - 1),
            np.float64: st.floats(),
        }
        columns = []
        for dtype in table.values():
            values = data.draw(st.lists(cells[dtype], min_size=n, max_size=n))
            columns.append(values if dtype is None else np.array(values, dtype))
        path = tmp_path_factory.mktemp("csv") / name
        write_csv(path, table, columns)
        read = read_csv(path, table)
        assert len(read) == len(table)
        for column, written, dtype in zip(read, columns, table.values()):
            if dtype is None:
                assert column.dtype == object and list(column) == written
            elif dtype is np.float64:
                # The bits float() gives each value's %.9g cell.
                nine_digits = np.array([float(format(x, ".9g")) for x in written])
                assert column.dtype == dtype and column.tobytes() == nine_digits.tobytes()
            else:
                assert column.dtype == dtype and column.tolist() == written.tolist()

    def test_well_formed_file_reads_as_typed_columns(self, tmp_path):
        path = tmp_path / "usefulness.csv"
        path.write_text("t,node_id,delta\n1,0,0.25\n1, 1 ,-1e-310\nx,0,nan\n2,1,inf\n")
        t, nodes, deltas = read_csv(path, {"t": None, "node_id": np.int64, "delta": np.float64})
        assert list(t) == ["1", "1", "x", "2"]
        assert nodes.dtype == np.int64 and nodes.tolist() == [0, 1, 0, 1]
        assert deltas.tobytes() == np.array([0.25, -1e-310, math.nan, math.inf]).tobytes()

    @pytest.mark.parametrize("body", MALFORMED)
    def test_malformed_file_has_its_outcome(self, tmp_path, body):
        outcome = MALFORMED[body]
        path = tmp_path / "gtrace.csv"
        path.write_text(f"source,node_id,value\n{body}")
        if isinstance(outcome, str):
            with pytest.raises(ValueError) as excinfo:
                read_csv(path, TEXT_IDS)
            assert str(excinfo.value) == f"{path}: {outcome}"
        else:
            assert [column.tolist() for column in read_csv(path, TEXT_IDS)] == outcome
        # A header other than the table's fails first, whatever the body holds.
        path.write_text(f"source,value\n{body}")
        with pytest.raises(ValueError) as excinfo:
            read_csv(path, TEXT_IDS)
        assert str(excinfo.value) == f"{path}: header source,value, expected source,node_id,value"

    @pytest.mark.parametrize("damage", ["swapped", "renamed", "dropped", "added"])
    @pytest.mark.parametrize("name", sorted(RUN_TABLES))
    def test_header_other_than_the_tables_fails_naming_the_file(self, tmp_path, name, damage):
        table = RUN_TABLES[name]
        names = list(table)
        # The file is what write_csv writes for an empty table but its header.
        header = {
            "swapped": [*names[:-2], names[-1], names[-2]],
            "renamed": [*names[:-1], names[-1] + "_"],
            "dropped": names[:-1],
            "added": [*names, "extra"],
        }[damage]
        path = tmp_path / name
        path.write_text(",".join(header) + "\n")
        with pytest.raises(ValueError) as excinfo:
            read_csv(path, table)
        expected = f"{path}: header {','.join(header)}, expected {','.join(names)}"
        assert str(excinfo.value) == expected
