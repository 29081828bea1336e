"""Tables, CSV ingestion, windowing, splits, and the synthetic generator."""

import csv
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vardrop import dataset
from vardrop import (
    ParameterError,
    ParseError,
    SeriesTable,
    SplitSpec,
    WindowBatch,
    batch_windows,
    chronological_split,
    load_csv,
    sliding_windows,
    synth_redundant_detail,
    write_csv,
)


class TestSeriesTable:
    def test_shape_properties(self):
        table = SeriesTable(("a", "b", "c"), np.zeros((3, 10)))
        assert table.n_variates == 3
        assert table.length == 10

    def test_values_are_read_only(self):
        table = SeriesTable(("a", "b"), np.zeros((2, 5)))
        with pytest.raises(ValueError):
            table.values[0, 0] = 1.0

    def test_copies_input(self):
        raw = np.zeros((2, 5))
        table = SeriesTable(("a", "b"), raw)
        raw[0, 0] = 99.0
        assert table.values[0, 0] == 0.0

    def test_read_only_view_of_writable_array_is_copied(self):
        raw = np.arange(10.0).reshape(2, 5)
        view = raw.view()
        view.flags.writeable = False
        table = SeriesTable(("a", "b"), view)
        assert not np.shares_memory(table.values, raw)
        assert table.values.flags.c_contiguous
        raw[:] = -1.0  # later writes do not reach the table
        npt.assert_array_equal(table.values, np.arange(10.0).reshape(2, 5))

    def test_read_only_float_arrays_are_kept(self):
        table = SeriesTable(("a", "b"), np.arange(10.0).reshape(2, 5))
        assert SeriesTable(table.names, table.values).values is table.values
        column = table.values[:, 1:3]
        assert SeriesTable(table.names, column).values is column
        # any other dtype is converted into a copy
        ints = np.arange(10).reshape(2, 5)
        ints.flags.writeable = False
        converted = SeriesTable(("a", "b"), ints).values
        assert converted.dtype == np.float64 and not np.shares_memory(converted, ints)

    def test_transposed_input_is_copied_c_ordered(self):
        columns = np.arange(12.0).reshape(4, 3)
        table = SeriesTable(("a", "b", "c"), columns.T)
        assert table.values.flags.c_contiguous
        npt.assert_array_equal(table.values, columns.T)

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 5))
        bad[1, 3] = np.nan
        with pytest.raises(ParameterError):
            SeriesTable(("a", "b"), bad)

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ParameterError):
            SeriesTable(("a",), np.zeros((2, 5)))

    def test_rejects_1d(self):
        with pytest.raises(ParameterError):
            SeriesTable(("a",), np.zeros(5))


def _outcome(load, path, delimiter):
    """A table as (names, shape, bytes), or an error as (type, message)."""
    try:
        table = load(str(path), delimiter)
    except Exception as exc:  # both parsers must fail alike, whatever they raise
        return type(exc), str(exc)
    return table.names, table.values.shape, table.values.tobytes()


WELL_FORMED = {
    "plain": "a,b\n1,2\n3,4\n",
    "iso_date": "date,a,b\n2024-01-01,1,2\n2024-01-02,3,4\n",
    "numeric_date": "Date,a,b\n20240101,1,2\n20240102,3,4\n",
    "leading_comments": "# source: meter\n# units, kW\na,b\n1,2\n3,4\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
}

# A cell longer than csv's default field size limit (131,072 characters).
_LONG_CELL_FILE = b"a,b\n1,2\n" + b"0" * 200_000 + b",1\n"

# Cells either parser may stumble on: quoting, underscores, non-finite
# values, comment markers, quoted newlines, non-ASCII digits.
_AWKWARD_CELLS = [
    "", " ", " 3 ", "+4", "1_0", "nan", "inf", "-inf", '"5"', '"6"7', '8""', '"#q"',
    "#c", " #c", "x", "2024-01-01", '"a\nb"', "\u0661", "\x0c2", "1e400",
]


@st.composite
def csv_files(draw):
    """CSV bytes and delimiter: comments anywhere, blank and whitespace rows,
    three line endings, ragged and awkward rows, timestamp columns, a BOM
    and now and then an invalid UTF-8 byte."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    width = draw(st.integers(1, 4))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-999, 999).map(str),
    )
    first = st.one_of(number, st.sampled_from(["2024-01-01", "2024-01-01 00:30"]))
    # rows may all be one cell wider or narrower than the header
    cells = draw(st.sampled_from([width, width, width, width + 1, max(1, width - 1)]))
    clean = st.builds(
        lambda a, rest: delimiter.join([a, *rest]),
        first,
        st.lists(number, min_size=cells - 1, max_size=cells - 1),
    )
    awkward = st.lists(
        st.one_of(st.sampled_from(_AWKWARD_CELLS), number), min_size=1, max_size=width + 1
    ).map(delimiter.join)
    odd = st.one_of(
        st.sampled_from(["", "  ", "\t", "# note", f"#{delimiter}1"]),
        clean.map(lambda row: "#" + row),
        clean.map(lambda row: " #" + row),
    )
    body = draw(
        st.one_of(
            st.lists(clean, min_size=1, max_size=6),
            st.lists(st.one_of(clean, odd), max_size=6),
            st.lists(st.one_of(clean, awkward, odd), max_size=6),
        )
    )
    comments = draw(
        st.lists(st.sampled_from(["#", f"# a{delimiter}b", f'#{delimiter}"open']), max_size=2)
    )
    head = draw(st.sampled_from(["date", " Time ", "timestamp", "DATETIME", "a", "#h", ""]))
    header = delimiter.join([head] + [f"v{i}" for i in range(1, width)])
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([*comments, header, *body]) + draw(st.sampled_from([newline, ""]))
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data, delimiter


class TestLoadCsv(object):
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_three_variates_ten_rows(self, tmp_path):
        lines = ["a,b,c"]
        for i in range(10):
            lines.append(f"{i},{i * 2},{i * 3}")
        table = load_csv(self._write(tmp_path, "\n".join(lines) + "\n"))
        assert table.n_variates == 3
        assert table.length == 10
        assert table.names == ("a", "b", "c")
        npt.assert_array_equal(table.values[1], np.arange(10) * 2.0)

    def test_timestamp_column_dropped(self, tmp_path):
        text = "date,x,y\n2024-01-01,1,2\n2024-01-02,3,4\n"
        table = load_csv(self._write(tmp_path, text))
        assert table.names == ("x", "y")
        npt.assert_array_equal(table.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_comment_lines_skipped(self, tmp_path):
        text = "# generated\na,b\n1,2\n# middle\n3,4\n"
        table = load_csv(self._write(tmp_path, text))
        assert table.length == 2

    def test_comment_containing_delimiter_skipped(self, tmp_path):
        text = "# source: meter A, meter B\ndate,a,b\n2020,1,2\n# late, note\n2021,3,4\n"
        table = load_csv(self._write(tmp_path, text))
        assert table.length == 2
        assert table.names[-2:] == ("a", "b")
        npt.assert_array_equal(table.values[-2:], [[1.0, 3.0], [2.0, 4.0]])

    def test_numeric_timestamp_column_dropped_by_header(self, tmp_path):
        text = "# c\ndate,a,b\n2020,1,2\n2021,3,4\n"
        table = load_csv(self._write(tmp_path, text))
        assert table.names == ("a", "b")
        npt.assert_array_equal(table.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_numeric_timestamp_under_other_header_is_a_variate(self, tmp_path):
        # only the header names or a non-numeric first cell mark a timestamp
        text = "unix,a,b\n1700000000,1,2\n1700003600,3,4\n1700007200,5,6\n"
        for load in (load_csv, dataset._load_rows):
            table = load(self._write(tmp_path, text), ",")
            assert table.names == ("unix", "a", "b")
            npt.assert_array_equal(
                table.values,
                [[1700000000.0, 1700003600.0, 1700007200.0], [1, 3, 5], [2, 4, 6]],
            )

    def test_nan_cell_names_row_and_column(self, tmp_path):
        text = "a,b\n1,2\n3,nan\n"
        with pytest.raises(ParseError) as err:
            load_csv(self._write(tmp_path, text))
        message = str(err.value)
        assert ":3:" in message
        assert "b" in message

    def test_non_numeric_cell_names_location(self, tmp_path):
        text = "a,b\n1,2\nx,4\n"
        with pytest.raises(ParseError) as err:
            load_csv(self._write(tmp_path, text))
        assert ":3:" in str(err.value)

    def test_ragged_row_rejected(self, tmp_path):
        text = "a,b\n1,2\n3\n"
        with pytest.raises(ParseError):
            load_csv(self._write(tmp_path, text))

    def test_header_only_is_empty_input(self, tmp_path):
        with pytest.raises(ParseError, match="header but no data rows"):
            load_csv(self._write(tmp_path, "a,b\n"))

    def test_empty_file_is_empty_input(self, tmp_path):
        with pytest.raises(ParseError, match="no header row found"):
            load_csv(self._write(tmp_path, ""))

    def test_custom_delimiter(self, tmp_path):
        table = load_csv(self._write(tmp_path, "a;b\n1;2\n3;4\n"), delimiter=";")
        assert table.n_variates == 2

    @pytest.mark.parametrize("delimiter", ["\n", "\r", ";;"])
    def test_delimiter_is_one_character_other_than_a_line_break(self, tmp_path, delimiter):
        table = SeriesTable(("p", "q"), np.ones((2, 3)))
        path = str(tmp_path / "d.csv")
        with pytest.raises(ParameterError, match="^delimiter: must be in "):
            write_csv(table, path, delimiter=delimiter)
        assert not (tmp_path / "d.csv").exists()
        with pytest.raises(ParameterError, match="^delimiter: must be in "):
            load_csv(self._write(tmp_path, "a,b\n1,2\n"), delimiter=delimiter)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        table = SeriesTable(("p", "q", "r", "s"), rng.normal(size=(4, 20)))
        path = str(tmp_path / "rt.csv")
        write_csv(table, path)
        back = load_csv(path)
        assert back.names == table.names
        npt.assert_allclose(back.values, table.values, rtol=1e-10)


    @pytest.mark.parametrize("middle", [b"", b"# forces the row parser\n"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, middle):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,a,b\n2020,1,2\n" + middle + b"2021,3,4\n")
        table = load_csv(str(path))
        assert table.names == ("a", "b")
        npt.assert_array_equal(table.values, [[1.0, 3.0], [2.0, 4.0]])

    @pytest.mark.parametrize(
        "data",
        [b"\xffa,b\n1,2\n", b"a,b\n\xff,2\n", b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n"],
        ids=["header", "first_row", "deep_in_body"],
    )
    def test_invalid_utf8_is_a_parse_error_naming_the_path(self, tmp_path, data):
        path = tmp_path / "latin1.csv"
        path.write_bytes(data)
        for load in (load_csv, dataset._load_rows):
            with pytest.raises(ParseError, match=r"latin1\.csv: not UTF-8 text"):
                load(str(path), ",")

    @pytest.mark.parametrize("text", WELL_FORMED.values(), ids=list(WELL_FORMED))
    def test_well_formed_files_never_reach_the_row_parser(self, tmp_path, monkeypatch, text):
        def refuse(path, delimiter):
            raise AssertionError(f"row parser called for {path}")

        monkeypatch.setattr(dataset, "_load_rows", refuse)
        path = tmp_path / "ok.csv"
        path.write_bytes(text.encode())
        table = load_csv(str(path))
        assert table.names == ("a", "b")
        npt.assert_array_equal(table.values, [[1.0, 3.0], [2.0, 4.0]])

    @settings(max_examples=300, deadline=None)
    @given(case=csv_files())
    @example(case=(_LONG_CELL_FILE, ","))
    @example(case=(_LONG_CELL_FILE + b"3,x\n", ","))
    def test_fast_path_agrees_with_row_parser(self, tmp_path_factory, case):
        data, delimiter = case
        path = tmp_path_factory.getbasetemp() / "agree.csv"
        path.write_bytes(data)
        assert _outcome(load_csv, path, delimiter) == _outcome(
            dataset._load_rows, path, delimiter
        )

    def test_long_first_row_stays_on_the_fast_path(self, tmp_path):
        # csv reads the header and first row for the timestamp rule; its field
        # limit is lifted for that read too, and restored after either parser
        path = tmp_path / "long.csv"
        path.write_text("a,b\n" + "0" * 200_000 + ",1\n" + "2,3\n" * 5)
        before = csv.field_size_limit()
        table = dataset._load_body(str(path), ",")
        assert table is not None
        npt.assert_array_equal(table.values, [[0.0] + [2.0] * 5, [1.0] + [3.0] * 5])
        assert csv.field_size_limit() == before
        comment = tmp_path / "comment.csv"  # a body comment needs the row parser
        comment.write_text("a,b\n" + "0" * 200_000 + ",1\n# note\n2,3\n")
        assert dataset._load_body(str(comment), ",") is None
        for file in (path, comment):
            assert load_csv(str(file)).values[1, 0] == 1.0
            assert csv.field_size_limit() == before


class TestSlidingWindows:
    def test_count_small_example(self):
        table = SeriesTable(("a",), np.arange(10.0).reshape(1, 10))
        windows = sliding_windows(table, lookback=4, horizon=2)
        assert windows.size == 5
        assert windows.data[:, 0, 0].tolist() == [0, 1, 2, 3, 4]  # the starts
        npt.assert_array_equal(windows.data[0, 0], [0, 1, 2, 3])
        npt.assert_array_equal(windows.horizon[0, 0], [4, 5])
        npt.assert_array_equal(windows.data[4, 0], [4, 5, 6, 7])
        npt.assert_array_equal(windows.horizon[4, 0], [8, 9])

    def test_strided_starts(self):
        # each row is the identity ramp, so a window's first value is its start
        table = SeriesTable(("a", "b"), np.tile(np.arange(200.0), (2, 1)))
        windows = sliding_windows(table, lookback=96, horizon=96, stride=7)
        # brute enumeration of admissible starts
        expected = [s for s in range(0, 200, 7) if s + 96 + 96 <= 200]
        assert windows.data[:, 1, 0].tolist() == expected
        assert expected == [0, 7]

    def test_zero_horizon(self):
        table = SeriesTable(("a",), np.arange(6.0).reshape(1, 6))
        windows = sliding_windows(table, lookback=6, horizon=0)
        assert windows.size == 1
        assert windows.horizon.shape == (1, 1, 0)
        assert not windows.horizon.flags.writeable
        assert windows.horizon_length == 0

    def test_too_short_raises(self):
        table = SeriesTable(("a",), np.zeros((1, 10)))
        with pytest.raises(ParameterError, match="need at least 12 timestamps"):
            sliding_windows(table, lookback=8, horizon=4)

    def test_bad_parameters(self):
        table = SeriesTable(("a",), np.zeros((1, 50)))
        with pytest.raises(ParameterError):
            sliding_windows(table, lookback=1, horizon=0)
        with pytest.raises(ParameterError):
            sliding_windows(table, lookback=4, horizon=-1)
        with pytest.raises(ParameterError):
            sliding_windows(table, lookback=4, horizon=0, stride=0)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(min_value=2, max_value=300),
        lookback=st.integers(min_value=2, max_value=64),
        horizon=st.integers(min_value=0, max_value=32),
        stride=st.integers(min_value=1, max_value=17),
    )
    def test_count_formula(self, length, lookback, horizon, stride):
        table = SeriesTable(("a",), np.arange(float(length)).reshape(1, length))
        span = length - lookback - horizon
        if span < 0:
            with pytest.raises(ParameterError, match="need at least"):
                sliding_windows(table, lookback, horizon, stride)
            return
        windows = sliding_windows(table, lookback, horizon, stride)
        assert windows.size == span // stride + 1
        for b in range(windows.size):
            # window content is the identity ramp, so placement is checkable
            start = b * stride
            npt.assert_array_equal(
                windows.data[b, 0], np.arange(start, start + lookback, dtype=float)
            )
            if horizon:
                assert windows.horizon[b].shape == (1, horizon)
                assert start + lookback + horizon <= length


class TestWindowViews:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=4),
        lookback=st.integers(min_value=2, max_value=40),
        horizon=st.integers(min_value=0, max_value=20),
        extra=st.integers(min_value=0, max_value=90),
        stride=st.integers(min_value=1, max_value=17),
        batch=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_batches_are_read_only_views_of_the_table(
        self, n, lookback, horizon, extra, stride, batch, seed
    ):
        length = lookback + horizon + extra
        values = np.random.default_rng(seed).normal(size=(n, length))
        table = SeriesTable(tuple(f"v{i}" for i in range(n)), values)
        batches = batch_windows(sliding_windows(table, lookback, horizon, stride), batch)
        count = (length - lookback - horizon) // stride + 1
        assert sum(b.size for b in batches) == count
        assert all(b.size == batch for b in batches[:-1])
        assert 1 <= batches[-1].size <= batch
        for i, b in enumerate(batches):
            assert b.data.shape == (b.size, n, lookback)
            assert not b.data.flags.writeable
            assert np.shares_memory(b.data, table.values)
            assert WindowBatch(b.data, b.horizon).data is b.data  # kept, not copied
            assert b.horizon.shape == (b.size, n, horizon)
            assert not b.horizon.flags.writeable
            assert WindowBatch(b.data, b.horizon).horizon is b.horizon
            if horizon:
                assert np.shares_memory(b.horizon, table.values)
            for j in range(b.size):
                s = (i * batch + j) * stride
                npt.assert_array_equal(b.data[j], table.values[:, s : s + lookback])
                if horizon:
                    npt.assert_array_equal(
                        b.horizon[j], table.values[:, s + lookback : s + lookback + horizon]
                    )
        with pytest.raises(ValueError):
            batches[0].data[0, 0, 0] = 1.0


class TestBatchWindows:
    def test_partial_final_batch(self):
        table = SeriesTable(("a",), np.arange(20.0).reshape(1, 20))
        windows = sliding_windows(table, lookback=4, horizon=2)  # 15 windows
        batches = batch_windows(windows, 4)
        assert [b.size for b in batches] == [4, 4, 4, 3]
        assert batches[0].data[0, 0, 0] == 0  # the first and last starts
        assert batches[3].data[-1, 0, 0] == 14

    def test_tensor_shapes(self):
        table = SeriesTable(("a", "b", "c"), np.zeros((3, 30)))
        windows = sliding_windows(table, lookback=8, horizon=4)
        batch = batch_windows(windows, 5)[0]
        assert batch.data_tensor().shape == (5, 3, 8)

    def test_writable_input_is_copied_once(self):
        data, horizon = np.zeros((4, 3, 8)), np.ones((4, 3, 2))
        batch = WindowBatch(data, horizon)
        for given, kept in ((data, batch.data), (horizon, batch.horizon)):
            assert not np.shares_memory(given, kept)
            assert not kept.flags.writeable
        with pytest.raises(ValueError):
            batch.data[0, 0, 0] = 1.0
        data[:] = 5.0  # the caller's array changes, the batch does not
        assert not batch.data.any()
        # the copy is read-only down to its owner, so slices of it stay views
        for part in batch_windows(batch, 3) + [WindowBatch(batch.data, batch.horizon)]:
            assert np.shares_memory(part.data, batch.data)
            assert np.shares_memory(part.horizon, batch.horizon)

    def test_read_only_int_input_becomes_a_float_copy(self):
        data = np.arange(24, dtype=np.int32).reshape(1, 3, 8)
        data.flags.writeable = False
        batch = WindowBatch(data, np.zeros((1, 3, 0)))
        assert batch.data.dtype == np.float64 and not batch.data.flags.writeable
        assert not np.shares_memory(batch.data, data)
        npt.assert_array_equal(batch.data, data)

    def test_rejects_mixed_shapes(self):
        with pytest.raises(ParameterError):
            WindowBatch(np.zeros((2, 3, 8)), np.zeros((2, 2, 4)))  # variate counts
        with pytest.raises(ParameterError):
            WindowBatch(np.zeros((2, 3, 8)), np.zeros((1, 3, 4)))  # window counts
        with pytest.raises(ParameterError):
            WindowBatch(np.zeros((2, 3, 8)), np.zeros((2, 3)))

    def test_rejects_bad_data(self):
        with pytest.raises(ParameterError):  # one window, not a batch of one
            WindowBatch(np.zeros((3, 8)), np.zeros((1, 3, 0)))
        with pytest.raises(ParameterError):
            WindowBatch(np.zeros((2, 3, 1)), np.zeros((2, 3, 0)))  # lookback below 2

    @pytest.mark.parametrize(
        "data, horizon, name, kind",
        [
            ([[[1.0, 2.0]]], None, "data", "list"),
            (None, None, "data", "NoneType"),
            (np.zeros((1, 1, 2)), [[[3.0]]], "horizon", "list"),
            (np.zeros((1, 1, 2)), ((3.0,),), "horizon", "tuple"),
            (np.zeros((1, 1, 2)), None, "horizon", "NoneType"),
        ],
    )
    def test_non_array_input_names_its_type(self, data, horizon, name, kind):
        with pytest.raises(ParameterError, match=f"^batch {name} must be a numpy array, got {kind}$"):
            WindowBatch(data, horizon)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            WindowBatch(np.zeros((0, 2, 8)), np.zeros((0, 2, 0)))
        windows = sliding_windows(SeriesTable(("a",), np.zeros((1, 20))), 4)
        with pytest.raises(ParameterError):
            batch_windows(windows, 0)


class TestChronologicalSplit:
    def test_hundred_rows(self):
        table = SeriesTable(("a",), np.arange(100.0).reshape(1, 100))
        train, val, test = chronological_split(table, SplitSpec(0.7, 0.1, 0.2))
        assert (train.length, val.length, test.length) == (70, 10, 20)
        npt.assert_array_equal(train.values[0], np.arange(70.0))
        npt.assert_array_equal(val.values[0], np.arange(70.0, 80.0))
        npt.assert_array_equal(test.values[0], np.arange(80.0, 100.0))

    def test_long_table_against_floor_arithmetic(self):
        length = 26304
        table = SeriesTable(("a",), np.zeros((1, length)))
        train, val, test = chronological_split(table, SplitSpec(0.7, 0.1, 0.2))
        # independent floor/remainder computation
        expect_val = int(0.1 * length)
        expect_test = int(0.2 * length)
        expect_train = length - expect_val - expect_test
        assert val.length == expect_val == 2630
        assert test.length == expect_test == 5260
        assert train.length == expect_train == 18414

    def test_concatenation_identity(self):
        rng = np.random.default_rng(3)
        table = SeriesTable(("a", "b"), rng.normal(size=(2, 53)))
        train, val, test = chronological_split(table, SplitSpec(0.6, 0.2, 0.2))
        glued = np.concatenate([train.values, val.values, test.values], axis=1)
        npt.assert_array_equal(glued, table.values)

    def test_empty_piece_raises(self):
        table = SeriesTable(("a",), np.zeros((1, 5)))
        with pytest.raises(ParameterError, match="leaves an empty part"):
            chronological_split(table, SplitSpec(1.0, 0.0, 0.0))

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ParameterError):
            SplitSpec(-0.1, 0.6, 0.5)

    def test_parts_and_their_windows_allocate_under_a_quarter_of_the_table(self):
        table = SeriesTable(
            tuple(f"v{i}" for i in range(250)),
            np.random.default_rng(4).normal(size=(250, 2400)),
        )
        tracemalloc.start()
        try:
            parts = chronological_split(table, SplitSpec(0.7, 0.1, 0.2))
            batches = [batch_windows(sliding_windows(p, 96, 96, 8), 32) for p in parts[:2]]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(b.size for b in batches[0]) == 187
        assert peak < table.values.nbytes / 4

    def test_loaded_table_parts_and_batches_share_memory(self, tmp_path):
        rng = np.random.default_rng(5)
        path = tmp_path / "data.csv"
        write_csv(SeriesTable(("a", "b", "c"), rng.normal(size=(3, 200))), str(path))
        table = load_csv(str(path))
        for part in chronological_split(table, SplitSpec(0.7, 0.1, 0.2)):
            assert np.shares_memory(part.values, table.values)
            assert not part.values.flags.writeable
            for batch in batch_windows(sliding_windows(part, 8, 4, 3), 5):
                for array in (batch.data, batch.horizon):
                    assert np.shares_memory(array, table.values)
                    assert np.shares_memory(array, part.values)
                    assert not array.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 4),
        lookback=st.integers(2, 6),
        horizon=st.integers(0, 3),
        stride=st.integers(1, 3),
        extra=st.integers(0, 30),
        layout=st.sampled_from(["C", "F", "reversed"]),
        seed=st.integers(0, 2**16),
    )
    def test_windows_of_every_part_match_its_values(
        self, n, lookback, horizon, stride, extra, layout, seed
    ):
        # each part is at least lookback + horizon long
        length = 5 * (lookback + horizon) + extra
        owner = np.random.default_rng(seed).normal(size=(n, length))
        if layout == "F":
            owner = np.asfortranarray(owner)
        owner.flags.writeable = False
        values = owner[:, ::-1] if layout == "reversed" else owner
        table = SeriesTable(tuple(f"v{i}" for i in range(n)), values)
        assert table.values is values  # read-only down to its owner: kept
        for part in chronological_split(table, SplitSpec(0.6, 0.2, 0.2)):
            windows = sliding_windows(part, lookback, horizon, stride)
            assert np.shares_memory(windows.data, owner)
            for b in range(windows.size):
                s = b * stride
                npt.assert_array_equal(windows.data[b], part.values[:, s : s + lookback])
                npt.assert_array_equal(
                    windows.horizon[b],
                    part.values[:, s + lookback : s + lookback + horizon],
                )


class TestSynthRedundant:
    def test_reproducible(self):
        a = synth_redundant_detail(16, 4, 300, 0.05, seed=9).table
        b = synth_redundant_detail(16, 4, 300, 0.05, seed=9).table
        npt.assert_array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a = synth_redundant_detail(16, 4, 300, 0.05, seed=9).table
        b = synth_redundant_detail(16, 4, 300, 0.05, seed=10).table
        assert not np.array_equal(a.values, b.values)

    def test_noiseless_rows_repeat_prototypes(self):
        table = synth_redundant_detail(64, 8, 400, 0.0, seed=5).table
        unique = np.unique(table.values, axis=0)
        assert unique.shape[0] == 8

    def test_labels_round_robin(self):
        detail = synth_redundant_detail(10, 3, 200, 0.0, seed=1)
        assert detail.labels == tuple(i % 3 for i in range(10))
        for i, lab in enumerate(detail.labels):
            proto = detail.prototypes[lab]
            t = np.arange(200)
            signal = np.zeros(200)
            for b, a, p in zip(proto.bins, proto.amps, proto.phases):
                signal += a * np.sin(2 * np.pi * b * t / 96 + p)
            npt.assert_allclose(detail.table.values[i], signal, atol=1e-12)

    def test_prototype_structure(self):
        detail = synth_redundant_detail(12, 6, 500, 0.05, seed=2)
        seen = set()
        for proto in detail.prototypes:
            assert len(proto.bins) in (3, 4)
            assert all(1 <= b <= 20 for b in proto.bins)
            assert len(set(proto.bins)) == len(proto.bins)
            amps = np.array(proto.amps)
            assert np.all(np.diff(amps) <= -0.4 + 1e-12)
            signature = proto.bins[:3]
            assert signature not in seen
            seen.add(signature)

    def test_noise_magnitude(self):
        clean = synth_redundant_detail(8, 2, 2000, 0.0, seed=4).table
        noisy = synth_redundant_detail(8, 2, 2000, 0.1, seed=4).table
        resid = noisy.values - clean.values
        assert abs(resid.std() - 0.1) < 0.01

    def test_validation(self):
        with pytest.raises(ParameterError):
            synth_redundant_detail(4, 5, 100, 0.0, seed=0)
        with pytest.raises(ParameterError):
            synth_redundant_detail(4, 2, 100, -0.1, seed=0)
        with pytest.raises(ParameterError):
            synth_redundant_detail(0, 0, 100, 0.0, seed=0)
