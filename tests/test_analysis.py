"""Correlation diagnostics: Pearson structure and redundancy profile."""

import numpy as np
import numpy.testing as npt
import pytest

from vardrop import ParameterError, pearson_matrix, redundancy_profile

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
