"""Amplitude spectra, dominant-bin hashing, and reconstruction error."""

import numpy as np
import numpy.testing as npt
import pytest

from vardrop import (
    ParameterError,
    SeriesTable,
    WindowBatch,
    batch_mean_spectrum,
    batch_windows,
    dominant_frequencies,
    group_by_hash,
    kdfh,
    reconstruction_error,
    sliding_windows,
)

from helpers import (
    dft_amps_loop,
    dft_amps_matrix,
    oracle_hash_keys,
    sine_mixture,
    topk_bins_sorted,
)


def sines(length, bins, amps, phases=None):
    t = np.arange(length)
    out = np.zeros(length)
    phases = phases if phases is not None else [0.0] * len(bins)
    for b, a, p in zip(bins, amps, phases):
        out += a * np.sin(2.0 * np.pi * b * t / length + p)
    return out


def amplitude_spectrum(x):
    """Bins 1..floor(T/2) of one series, as a one-window, one-variate batch."""
    return batch_mean_spectrum(x[None, None], len(x) // 2)[0]


class TestAmplitudeSpectrum:
    def test_zero_signal(self):
        npt.assert_array_equal(amplitude_spectrum(np.zeros(96)), np.zeros(48))

    def test_single_sinusoid_magnitude(self):
        # amplitude A at integer bin f shows as A*T/2
        spec = amplitude_spectrum(sines(96, [4], [3.0]))
        assert abs(spec[3] - 144.0) < 1e-9
        rest = np.delete(spec, 3)
        assert np.max(rest) < 1e-9

    def test_three_component_magnitudes(self):
        spec = amplitude_spectrum(sines(96, [4, 8, 12], [3.0, 1.0, 2.0]))
        npt.assert_allclose(spec[[3, 7, 11]], [144.0, 48.0, 96.0], atol=1e-9)

    def test_matches_loop_dft(self):
        rng = np.random.default_rng(0)
        for length in (8, 16, 17, 31):
            x = rng.normal(size=length)
            npt.assert_allclose(
                amplitude_spectrum(x), dft_amps_loop(x), rtol=1e-10, atol=1e-10
            )

    def test_matrix_dft_agrees_with_loop_dft(self):
        # anchors the fast oracle used by the bulk tests
        rng = np.random.default_rng(1)
        x = rng.normal(size=24)
        npt.assert_allclose(dft_amps_matrix(x), dft_amps_loop(x), rtol=1e-10)

    def test_bin_count_even_and_odd(self):
        assert amplitude_spectrum(np.ones(96)).shape == (48,)
        assert amplitude_spectrum(np.ones(95)).shape == (47,)

    def test_dc_excluded(self):
        # constant offset lives in the DC bin, which is not returned
        base = sines(32, [5], [2.0])
        npt.assert_allclose(
            amplitude_spectrum(base + 100.0), amplitude_spectrum(base), atol=1e-9
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            amplitude_spectrum(np.zeros((2, 8)))
        with pytest.raises(ParameterError):
            amplitude_spectrum(np.zeros(1))

    def test_parseval(self):
        # time energy == spectrum energy, zero-mean signals, 1e-6 relative
        rng = np.random.default_rng(2)
        for length in (16, 63, 96, 101):
            x = rng.normal(size=length)
            x = x - x.mean()
            amps = amplitude_spectrum(x)
            if length % 2 == 0:
                energy = 2.0 * np.sum(amps[:-1] ** 2) + amps[-1] ** 2
            else:
                energy = 2.0 * np.sum(amps**2)
            lhs = float(np.sum(x**2))
            assert abs(lhs - energy / length) <= 1e-6 * lhs


class TestLowPass:
    def test_truncates(self):
        kept = batch_mean_spectrum(sines(96, [30], [5.0])[None, None], 25)[0]
        assert kept.shape == (25,)
        # the only energy sat at bin 30, above the cut
        assert np.max(kept) < 1e-9

    def test_keeps_low_bins(self):
        kept = batch_mean_spectrum(sines(96, [4, 30], [3.0, 5.0])[None, None], 25)[0]
        assert abs(kept[3] - 144.0) < 1e-9

    def test_range_validation(self):
        with pytest.raises(ParameterError):
            batch_mean_spectrum(np.zeros((1, 1, 96)), 0)
        with pytest.raises(ParameterError):
            batch_mean_spectrum(np.zeros((1, 1, 96)), 49)


class TestBatchMeanSpectrum:
    def test_single_window_composition(self):
        rng = np.random.default_rng(3)
        tensor = rng.normal(size=(1, 3, 32))
        mean = batch_mean_spectrum(tensor, 10)
        assert mean.shape == (3, 10)
        for i in range(3):
            npt.assert_array_equal(mean[i], np.abs(np.fft.rfft(tensor[0, i]))[1:11])

    def test_two_windows_elementwise_mean(self):
        rng = np.random.default_rng(4)
        tensor = rng.normal(size=(2, 2, 24))
        mean = batch_mean_spectrum(tensor, 12)
        for i in range(2):
            a = amplitude_spectrum(tensor[0, i])[:12]
            b = amplitude_spectrum(tensor[1, i])[:12]
            npt.assert_allclose(mean[i], (a + b) / 2.0, rtol=1e-12)

    def test_bulk_against_loop_oracle(self):
        rng = np.random.default_rng(5)
        tensor = rng.normal(size=(8, 4, 48))
        mean = batch_mean_spectrum(tensor, 20)
        for i in range(4):
            acc = np.zeros(20)
            for j in range(8):
                acc = acc + dft_amps_matrix(tensor[j, i])[:20]
            npt.assert_allclose(mean[i], acc / 8.0, rtol=1e-10, atol=1e-10)

    def test_accepts_window_batch(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(3, 16))
        batch = WindowBatch(data[None], np.zeros((1, 3, 0)))
        mean = batch_mean_spectrum(batch, 8)
        npt.assert_array_equal(mean, batch_mean_spectrum(data[None], 8))

    def test_epsilon_bound_is_half_window(self):
        with pytest.raises(ParameterError):
            batch_mean_spectrum(np.zeros((1, 1, 96)), 49)
        batch_mean_spectrum(np.zeros((1, 1, 96)), 48)


class TestDominantFrequencies:
    def test_orders_by_amplitude(self):
        tensor = sines(96, [4, 8, 12], [3.0, 1.0, 2.0])[None, None]
        mean = batch_mean_spectrum(tensor, 25)
        bins = dominant_frequencies(mean, 3)
        npt.assert_array_equal(bins[0], [4, 12, 8])
        npt.assert_allclose(mean[0, bins[0] - 1], [144.0, 96.0, 48.0], atol=1e-9)

    def test_tie_breaks_to_lower_bin(self):
        mean = batch_mean_spectrum(np.zeros((1, 1, 96)), 25)
        npt.assert_array_equal(dominant_frequencies(mean, 2)[0], [1, 2])

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            # arbitrary mean amplitudes, not only those a spectrum produces
            amps = rng.uniform(size=25)
            k = int(rng.integers(1, 6))
            bins = dominant_frequencies(amps[None], k)
            assert tuple(bins[0]) == topk_bins_sorted(amps, k)

    def test_k_validation(self):
        mean = batch_mean_spectrum(np.zeros((1, 1, 32)), 10)
        with pytest.raises(ParameterError):
            dominant_frequencies(mean, 0)
        with pytest.raises(ParameterError):
            dominant_frequencies(mean, 11)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(8)
        tensor = rng.normal(size=(2, 6, 64))
        perm = rng.permutation(6)
        base = dominant_frequencies(batch_mean_spectrum(tensor, 16), 3)
        swapped = dominant_frequencies(
            batch_mean_spectrum(tensor[:, perm], 16), 3
        )
        npt.assert_array_equal(swapped, base[perm])


class TestHashFromWindowViews:
    @pytest.fixture
    def views_and_tensor(self, monkeypatch):
        rng = np.random.default_rng(16)
        values = rng.normal(scale=50.0, size=(9, 300))
        table = SeriesTable(names=tuple("abcdefghi"), values=values)
        batch = batch_windows(sliding_windows(table, 40, 0, 7), 6)[1]
        assert not batch.data.flags.c_contiguous  # strided table views
        tensor = np.array(batch.data, copy=True)

        def no_stacking(self):
            raise AssertionError("hashing stacked the window views")

        monkeypatch.setattr(WindowBatch, "data_tensor", no_stacking)
        return batch, tensor

    def test_mean_spectrum_equals_tensor_path(self, views_and_tensor):
        batch, tensor = views_and_tensor
        npt.assert_array_equal(
            batch_mean_spectrum(batch, 20), batch_mean_spectrum(tensor, 20)
        )

    @pytest.mark.parametrize("normalize", [False, True])
    def test_kdfh_equals_tensor_path(self, views_and_tensor, normalize):
        batch, tensor = views_and_tensor
        npt.assert_array_equal(
            kdfh(batch, 4, 20, normalize=normalize),
            kdfh(tensor, 4, 20, normalize=normalize),
        )


class TestKdfh:
    def test_two_variate_fixture(self):
        v0 = sines(96, [4, 8, 12], [3.0, 1.0, 2.0])
        v1 = sines(96, [4, 8, 12], [2.0, 1.0, 3.0])
        bins = kdfh(np.stack([v0, v1])[None], k=3, epsilon=25)
        npt.assert_array_equal(bins, [[4, 12, 8], [12, 4, 8]])
        # order matters: the same bins in another order are another hash
        assert list(group_by_hash(bins).groups) == ["4-12-8", "12-4-8"]

    def test_identical_rows_identical_hashes(self):
        rng = np.random.default_rng(9)
        row = rng.normal(size=64)
        tensor = np.stack([row, row, row])[None]
        bins = kdfh(tensor, k=4, epsilon=20)
        assert bins.shape == (3, 4)
        npt.assert_array_equal(bins, np.repeat(bins[:1], 3, axis=0))

    def test_equals_composition_of_stages(self):
        rng = np.random.default_rng(10)
        tensor = rng.normal(size=(5, 7, 96))
        k, epsilon = 3, 25
        fused = kdfh(tensor, k, epsilon)
        staged = dominant_frequencies(batch_mean_spectrum(tensor, epsilon), k)
        npt.assert_array_equal(fused, staged)

    def test_matches_brute_oracle(self):
        rng = np.random.default_rng(11)
        tensor = rng.normal(size=(4, 5, 48))
        bins = kdfh(tensor, k=3, epsilon=20)
        assert np.issubdtype(bins.dtype, np.integer)
        keys = oracle_hash_keys(tensor, k=3, epsilon=20)
        assert [tuple(row) for row in bins.tolist()] == keys

    def test_normalize_flag(self):
        # scaling a row must not change its normalized hash
        rng = np.random.default_rng(12)
        row = sines(96, [4, 9, 17], [3.0, 2.0, 1.0]) + 0.01 * rng.normal(size=96)
        tensor = np.stack([row, 1000.0 * row])[None]
        plain = kdfh(tensor, k=3, epsilon=25)
        scaled = kdfh(tensor, k=3, epsilon=25, normalize=True)
        npt.assert_array_equal(scaled, plain[[0, 0]])

    def test_hash_text_format(self):
        table = group_by_hash(np.array([[4, 12, 8]]))
        assert list(table.groups) == ["4-12-8"]

    def test_noise_margin_invariance(self):
        # dominant bins at >= 2x the strongest noise bin never flip the hash
        rng = np.random.default_rng(13)
        for _ in range(50):
            clean = sines(
                96,
                [3, 11, 19],
                [4.0, 3.0, 2.0],
                phases=rng.uniform(0, 2 * np.pi, size=3),
            )
            noise = rng.normal(scale=0.01, size=96)
            noise_amp = np.max(amplitude_spectrum(noise))
            assert 2.0 * 96 / 2 >= 2.0 * noise_amp  # margin condition holds
            a = kdfh(clean[None, None], k=3, epsilon=25)
            b = kdfh((clean + noise)[None, None], k=3, epsilon=25)
            npt.assert_array_equal(a, b)


class TestReconstructionError:
    def test_pure_sinusoid_exact(self):
        mse, predicted = reconstruction_error(sines(96, [7], [2.5]), k=1)
        assert abs(mse) < 1e-12
        assert predicted < 1e-20

    def test_three_component_drop_one(self):
        signal = sines(96, [4, 12, 8], [3.0, 2.0, 1.0])
        mse, predicted = reconstruction_error(signal, k=2)
        # dropping the amplitude-1 component costs 1^2 / 2
        assert abs(predicted - 0.5) < 1e-12
        assert abs(mse - 0.5) < 1e-9 * 0.5

    def test_keep_all_components(self):
        signal = sines(96, [4, 12, 8], [3.0, 2.0, 1.0])
        mse, predicted = reconstruction_error(signal, k=3)
        assert mse < 1e-20
        assert predicted < 1e-20

    def test_drop_everything(self):
        signal = sines(96, [5, 9], [2.0, 1.0])
        mse, predicted = reconstruction_error(signal, k=0)
        expected = 0.5 * (4.0 + 1.0)
        assert abs(predicted - expected) < 1e-9 * expected
        assert abs(mse - expected) < 1e-9 * expected

    def test_dc_preserved(self):
        signal = sines(96, [4, 12], [3.0, 1.0])
        base = reconstruction_error(signal, k=1)
        lifted = reconstruction_error(signal + 41.5, k=1)
        npt.assert_allclose(lifted, base, rtol=1e-9, atol=1e-12)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(14)
        signal, _, _ = sine_mixture(rng, 96, 5)
        signal += 0.05 * rng.normal(size=96)
        errors = [reconstruction_error(signal, k)[0] for k in range(0, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_seeded_mixtures_match_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            signal, _, amps = sine_mixture(rng, 96, n)
            k = int(rng.integers(0, n + 1))
            dropped = np.sort(amps)[: n - k]
            expected = 0.5 * float(np.sum(dropped**2))
            mse, predicted = reconstruction_error(signal, k)
            if expected == 0.0:
                assert mse < 1e-18
                assert predicted < 1e-18
            else:
                assert abs(mse - expected) <= 1e-9 * expected
                assert abs(predicted - expected) <= 1e-9 * expected

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            reconstruction_error(np.zeros(96), -1)
        with pytest.raises(ParameterError):
            reconstruction_error(np.zeros(96), 49)
