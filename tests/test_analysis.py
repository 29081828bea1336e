"""Correlation diagnostics and the k/gs sensitivity sweep."""

import numpy as np
import numpy.testing as npt
import pytest

from vardrop import (
    ParameterError,
    SeriesTable,
    TrainSettings,
    batch_windows,
    correlation_shift,
    pearson_matrix,
    redundancy_profile,
    sensitivity_sweep,
    sliding_windows,
    synth_redundant_detail,
)

from helpers import pearson_pair


class TestPearsonMatrix:
    def test_self_correlation(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=32)
        window = np.stack([v, v.copy()])
        rho = pearson_matrix(window)
        npt.assert_allclose(rho, np.ones((2, 2)), rtol=1e-12)

    def test_perfect_anticorrelation(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=32)
        w = -v + 17.0
        rho = pearson_matrix(np.stack([v, w]))
        assert abs(rho[0, 1] + 1.0) < 1e-12
        assert abs(rho[1, 0] + 1.0) < 1e-12

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(3, 40))
        rho = pearson_matrix(data)
        for i in range(3):
            for j in range(3):
                want = pearson_pair(data[i], data[j])
                assert abs(rho[i, j] - want) < 1e-12

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(6, 25))
        rho = pearson_matrix(data)
        npt.assert_allclose(rho, rho.T, atol=1e-15)
        assert np.all(np.abs(rho) <= 1.0 + 1e-12)
        npt.assert_allclose(np.diag(rho), 1.0, atol=1e-15)

    def test_constant_variate_degenerate(self):
        rng = np.random.default_rng(4)
        data = np.vstack([rng.normal(size=20), np.full(20, 3.5)])
        rho = pearson_matrix(data)
        npt.assert_array_equal(np.diag(rho), [1.0, 0.0])
        npt.assert_array_equal(rho[1], 0.0)
        npt.assert_array_equal(rho[:, 1], 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_is_refused(self, bad):
        data = np.arange(20.0).reshape(2, 10)
        data[1, 3] = bad
        with pytest.raises(ParameterError, match="non-finite"):
            pearson_matrix(data)

    def test_rejects_a_window_with_no_timestamps(self):
        with pytest.raises(ParameterError, match=r"\(2, 0\)"):
            pearson_matrix(np.zeros((2, 0)))
        assert pearson_matrix(np.zeros((0, 5))).shape == (0, 0)
        npt.assert_array_equal(pearson_matrix(np.array([[1.0], [-2.0]])), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "row", [[1.7e308, 1.7e308, -1.7e308], [1e200, 3e200, 2e200]], ids=["mean", "square"]
    )
    def test_rows_whose_sums_would_overflow_are_answered(self, row):
        # a row whose mean or squared deviations overflow as given correlates
        # bit for bit as it does scaled down by a power of two
        data = np.array([row, [1.0, 3.0, 2.0]])
        small = data.copy()
        small[0] = np.ldexp(data[0], -1000)
        rho = pearson_matrix(data)
        npt.assert_array_equal(rho, pearson_matrix(small))
        assert abs(rho[0, 1] - pearson_pair(small[0], small[1])) < 1e-12

    def test_tiny_varying_row_is_not_constant(self):
        # its squared deviations underflow to 0 unless the row is scaled first
        rho = pearson_matrix(np.array([[1e-170, 3e-170, 2e-170], [1.0, 3.0, 2.0]]))
        npt.assert_allclose(rho, np.ones((2, 2)), rtol=1e-15)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(5, 30))
        perm = rng.permutation(5)
        base = pearson_matrix(data)
        swapped = pearson_matrix(data[perm])
        npt.assert_allclose(swapped, base[np.ix_(perm, perm)], atol=1e-14)

    def test_affine_invariance(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(4, 30))
        scaled = data.copy()
        scaled[2] = 3.7 * scaled[2] - 12.0
        base = pearson_matrix(data)
        after = pearson_matrix(scaled)
        npt.assert_allclose(after, base, atol=1e-12)


class TestRedundancyProfile:
    def test_no_redundancy(self):
        rng = np.random.default_rng(7)
        # near-orthogonal noise rows correlate weakly
        data = rng.normal(size=(5, 4000))
        matrix = pearson_matrix(data)
        profile = redundancy_profile(matrix, 0.9)
        assert profile.strong_frac == 0.0
        assert all(m < 0.9 for m in profile.max_corr)

    def test_full_redundancy(self):
        v = np.arange(20.0)
        data = np.stack([v, 2 * v + 1, 0.5 * v])
        matrix = pearson_matrix(data)
        profile = redundancy_profile(matrix, 0.9)
        assert profile.strong_frac == 1.0
        npt.assert_allclose(profile.max_corr, 1.0, atol=1e-12)

    def test_signed_maximum(self):
        rng = np.random.default_rng(8)
        v = rng.normal(size=50)
        # two anticorrelated variates plus an independent one
        data = np.stack([v, -v, rng.normal(size=50)])
        matrix = pearson_matrix(data)
        profile = redundancy_profile(matrix, 0.9)
        # anticorrelation is not redundancy: nothing clears 0.9
        assert profile.strong_frac == 0.0
        assert profile.max_corr[0] < 0.9

    def test_single_variate(self):
        matrix = pearson_matrix(
            np.arange(10.0).reshape(1, 10)
        )
        profile = redundancy_profile(matrix, 0.9)
        assert profile.max_corr == (-1.0,)
        assert profile.strong_frac == 0.0

    def test_rejects_a_stack_of_windows(self):
        with pytest.raises(ParameterError):
            pearson_matrix(np.zeros((1, 2, 10)))

    @pytest.mark.parametrize(
        "rho, message",
        [
            (np.zeros((2, 3)), "must be square"),
            (np.zeros(3), "must be square"),
            (np.zeros((0, 0)), "must be square and non-empty"),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), "non-finite"),
            (np.array([[1.0, np.inf], [np.inf, 1.0]]), "non-finite"),
        ],
        ids=["2x3", "1-d", "0x0", "nan", "inf"],
    )
    def test_rejects_a_matrix_it_cannot_profile(self, rho, message):
        with pytest.raises(ParameterError, match=message):
            redundancy_profile(rho, 0.9)

    def test_threshold_validation(self):
        matrix = pearson_matrix(np.eye(2, 10) + 1.0)
        with pytest.raises(ParameterError):
            redundancy_profile(matrix, 1.5)


def periodic_table(n=2, length=192, period=96, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    rows = []
    for i in range(n):
        phase = rng.uniform(0, 2 * np.pi)
        rows.append(np.sin(2 * np.pi * 4 * t / period + phase) + (i + 1.0))
    return SeriesTable(tuple(f"v{i}" for i in range(n)), np.stack(rows))


class TestCorrelationShift:
    def test_single_window_zero(self):
        table = periodic_table()
        report = correlation_shift(table, 96, [0])
        assert report.max_shift == 0.0
        assert report.mean_frobenius == 0.0
        npt.assert_array_equal(report.pair_shift, 0.0)

    def test_identical_windows_exactly_zero(self):
        # tiled segment: windows one period apart repeat bit-for-bit
        rng = np.random.default_rng(30)
        segment = rng.normal(size=(3, 96))
        table = SeriesTable(("a", "b", "c"), np.tile(segment, 3))
        report = correlation_shift(table, 96, [0, 96, 192])
        npt.assert_array_equal(report.pair_shift, 0.0)
        assert report.max_shift == 0.0
        assert report.mean_frobenius == 0.0

    def test_stationary_iid_near_zero(self):
        rng = np.random.default_rng(20)
        table = SeriesTable(
            tuple(f"v{i}" for i in range(8)), rng.normal(size=(8, 160))
        )
        report = correlation_shift(table, 96, range(0, 33))
        assert report.mean_frobenius < 0.1

    def test_regime_switch_shifts_exactly_the_pair(self):
        # second half flips v1 onto the anticorrelated prototype
        t = np.arange(96)
        proto = np.sin(2 * np.pi * 3 * t / 96)
        v0 = np.concatenate([proto, proto])
        v1 = np.concatenate([proto, -proto])
        table = SeriesTable(("a", "b"), np.stack([v0, v1]))
        report = correlation_shift(table, 96, [0, 96])
        assert abs(report.pair_shift[0, 1] - 2.0) < 1e-9
        assert abs(report.max_shift - 2.0) < 1e-9
        assert report.pair_shift[0, 0] == 0.0

    def test_start_validation(self):
        table = periodic_table()
        with pytest.raises(ParameterError):
            correlation_shift(table, 96, [100])
        with pytest.raises(ParameterError):
            correlation_shift(table, 96, [-1])
        with pytest.raises(ParameterError):
            correlation_shift(table, 96, [])


def sweep_batches(seed=10):
    table = synth_redundant_detail(16, 4, 170, 0.05, seed=seed).table
    train = batch_windows(sliding_windows(table, 48, 8, 57), 3)
    return train, train


def sweep_settings(seed):
    # k and gs are the sweep's own; the other knobs are shared by every cell
    return TrainSettings(epsilon=24, lr=0.01, seed=seed)


class TestSensitivitySweep:
    def test_generous_gs_zero_deltas(self):
        train, val = sweep_batches()
        cells = sensitivity_sweep(
            train, val, [2, 3], [16], sweep_settings(10),
            epochs=1, embed_dim=8, attn_dim=4,
        )
        assert all(cell.delta == 0.0 for cell in cells)

    def test_delta_monotone_in_gs(self):
        train, val = sweep_batches()
        cells = sensitivity_sweep(
            train, val, [3], [1, 5], sweep_settings(10),
            epochs=1, embed_dim=8, attn_dim=4,
        )
        assert cells[0].delta > cells[1].delta
        by_gs = {cell.gs: cell.delta for cell in cells}
        assert by_gs[1] > by_gs[5]

    def test_full_grid_one_record_per_cell(self):
        train, val = sweep_batches()
        ks = [2, 3, 4, 5]
        gss = list(range(1, 16))
        cells = sensitivity_sweep(
            train, val, ks, gss, sweep_settings(10),
            epochs=1, embed_dim=8, attn_dim=4,
        )
        assert len(cells) == 60
        # grid order: k-major, gs within
        assert [(c.k, c.gs) for c in cells] == [
            (k, gs) for k in ks for gs in gss
        ]
        for k in ks:
            deltas = [c.delta for c in cells if c.k == k]
            assert all(a >= b for a, b in zip(deltas, deltas[1:]))

    def test_cells_share_one_initialization(self, monkeypatch):
        import vardrop.analysis as analysis

        calls = []
        real = analysis.initialize_params

        def counting(*args):
            calls.append(args)
            return real(*args)

        train, val = sweep_batches()
        kwargs = dict(epochs=1, embed_dim=8, attn_dim=4)
        monkeypatch.setattr(analysis, "initialize_params", counting)
        cells = sensitivity_sweep(train, val, [2, 3], [1, 2], sweep_settings(12), **kwargs)
        assert calls == [(48, 8, 8, 4, 12)]
        # no cell's training leaks into the next: each equals its own sweep
        assert cells[3:] == sensitivity_sweep(train, val, [3], [2], sweep_settings(12), **kwargs)

    def test_deterministic(self):
        train, val = sweep_batches()
        kwargs = dict(epochs=2, embed_dim=8, attn_dim=4)
        a = sensitivity_sweep(train, val, [3], [2], sweep_settings(11), **kwargs)
        b = sensitivity_sweep(train, val, [3], [2], sweep_settings(11), **kwargs)
        assert a == b

    def test_validation(self):
        train, val = sweep_batches()
        with pytest.raises(ParameterError):
            sensitivity_sweep(
                train, val, [], [1], sweep_settings(0),
                epochs=1, embed_dim=8, attn_dim=4,
            )
        with pytest.raises(ParameterError):
            sensitivity_sweep(
                train, val, [3], [1], sweep_settings(0),
                epochs=0, embed_dim=8, attn_dim=4,
            )
