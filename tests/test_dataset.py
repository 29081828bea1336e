"""Tables, CSV ingestion, windowing, splits, and the synthetic generator."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vardrop import (
    EmptyInputError,
    InsufficientLengthError,
    MultivariateWindow,
    ParameterError,
    ParseError,
    SeriesTable,
    SplitError,
    SplitSpec,
    WindowBatch,
    batch_windows,
    chronological_split,
    load_csv,
    sliding_windows,
    synth_redundant,
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
        with pytest.raises(EmptyInputError):
            load_csv(self._write(tmp_path, "a,b\n"))

    def test_empty_file_is_empty_input(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_csv(self._write(tmp_path, ""))

    def test_custom_delimiter(self, tmp_path):
        table = load_csv(self._write(tmp_path, "a;b\n1;2\n3;4\n"), delimiter=";")
        assert table.n_variates == 2

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        table = SeriesTable(("p", "q", "r", "s"), rng.normal(size=(4, 20)))
        path = str(tmp_path / "rt.csv")
        write_csv(table, path)
        back = load_csv(path)
        assert back.names == table.names
        npt.assert_allclose(back.values, table.values, rtol=1e-10)


class TestSlidingWindows:
    def test_count_small_example(self):
        table = SeriesTable(("a",), np.arange(10.0).reshape(1, 10))
        windows = sliding_windows(table, lookback=4, horizon=2)
        assert len(windows) == 5
        assert [w.start for w in windows] == [0, 1, 2, 3, 4]
        npt.assert_array_equal(windows[0].data[0], [0, 1, 2, 3])
        npt.assert_array_equal(windows[0].horizon[0], [4, 5])
        npt.assert_array_equal(windows[4].data[0], [4, 5, 6, 7])
        npt.assert_array_equal(windows[4].horizon[0], [8, 9])

    def test_strided_starts(self):
        table = SeriesTable(("a", "b"), np.zeros((2, 200)))
        windows = sliding_windows(table, lookback=96, horizon=96, stride=7)
        # brute enumeration of admissible starts
        expected = [s for s in range(0, 200, 7) if s + 96 + 96 <= 200]
        assert [w.start for w in windows] == expected
        assert expected == [0, 7]

    def test_zero_horizon(self):
        table = SeriesTable(("a",), np.arange(6.0).reshape(1, 6))
        windows = sliding_windows(table, lookback=6, horizon=0)
        assert len(windows) == 1
        assert windows[0].horizon is None

    def test_too_short_raises(self):
        table = SeriesTable(("a",), np.zeros((1, 10)))
        with pytest.raises(InsufficientLengthError):
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
            with pytest.raises(InsufficientLengthError):
                sliding_windows(table, lookback, horizon, stride)
            return
        windows = sliding_windows(table, lookback, horizon, stride)
        assert len(windows) == span // stride + 1
        for w in windows:
            # window content is the identity ramp, so placement is checkable
            npt.assert_array_equal(
                w.data[0], np.arange(w.start, w.start + lookback, dtype=float)
            )
            if horizon:
                assert w.horizon.shape == (1, horizon)
                assert w.start + lookback + horizon <= length


class TestBatchWindows:
    def test_partial_final_batch(self):
        table = SeriesTable(("a",), np.arange(20.0).reshape(1, 20))
        windows = sliding_windows(table, lookback=4, horizon=2)  # 15 windows
        batches = batch_windows(windows, 4)
        assert [b.size for b in batches] == [4, 4, 4, 3]
        assert batches[0].windows[0].start == 0
        assert batches[3].windows[-1].start == 14

    def test_tensor_shapes(self):
        table = SeriesTable(("a", "b", "c"), np.zeros((3, 30)))
        windows = sliding_windows(table, lookback=8, horizon=4)
        batch = batch_windows(windows, 5)[0]
        assert batch.data_tensor().shape == (5, 3, 8)

    def test_rejects_mixed_shapes(self):
        w1 = MultivariateWindow(np.zeros((2, 8)), start=0)
        w2 = MultivariateWindow(np.zeros((3, 8)), start=0)
        with pytest.raises(ParameterError):
            WindowBatch((w1, w2))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            batch_windows([], 4)


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
        with pytest.raises(SplitError):
            chronological_split(table, SplitSpec(1.0, 0.0, 0.0))

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(ParameterError):
            SplitSpec(-0.1, 0.6, 0.5)


class TestSynthRedundant:
    def test_reproducible(self):
        a = synth_redundant(16, 4, 300, 0.05, seed=9)
        b = synth_redundant(16, 4, 300, 0.05, seed=9)
        npt.assert_array_equal(a.values, b.values)

    def test_seed_changes_output(self):
        a = synth_redundant(16, 4, 300, 0.05, seed=9)
        b = synth_redundant(16, 4, 300, 0.05, seed=10)
        assert not np.array_equal(a.values, b.values)

    def test_noiseless_rows_repeat_prototypes(self):
        table = synth_redundant(64, 8, 400, 0.0, seed=5)
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
                signal += a * np.sin(2 * np.pi * b * t / detail.period + p)
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
        clean = synth_redundant(8, 2, 2000, 0.0, seed=4)
        noisy = synth_redundant(8, 2, 2000, 0.1, seed=4)
        resid = noisy.values - clean.values
        assert abs(resid.std() - 0.1) < 0.01

    def test_validation(self):
        with pytest.raises(ParameterError):
            synth_redundant(4, 5, 100, 0.0, seed=0)
        with pytest.raises(ParameterError):
            synth_redundant(4, 2, 100, -0.1, seed=0)
        with pytest.raises(ParameterError):
            synth_redundant(0, 0, 100, 0.0, seed=0)
