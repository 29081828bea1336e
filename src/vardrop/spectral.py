"""Dominant-frequency hashing of variates and its reconstruction bound.

A variate's hash is the ordered tuple of its k strongest frequency bins,
computed from the one-sided amplitude spectrum of its lookback window
(averaged over a batch of windows) after a low-pass cut at bin ``epsilon``.
Two variates with the same hash are treated as redundant downstream.

Conventions fixed here and relied on throughout:

* amplitudes are unnormalized one-sided magnitudes ``|X_f|`` from the real
  DFT, so a sinusoid of amplitude A at integer bin ``f < T/2`` shows
  ``A*T/2`` at ``f``;
* the DC bin is excluded everywhere (it encodes the window mean, which says
  nothing about periodic structure and would swamp unnormalized data),
  leaving bins ``1 .. floor(T/2)``;
* dominance orders by descending amplitude with ties broken by ascending
  bin index, so results are deterministic bit for bit and an all-zero
  spectrum hashes to ``(1, 2, ..., k)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import WindowBatch
from .errors import ParameterError

__all__ = [
    "MeanSpectrum",
    "DominantSet",
    "HashValue",
    "amplitude_spectrum",
    "low_pass",
    "batch_mean_spectrum",
    "dominant_frequencies",
    "kdfh",
    "reconstruction_error",
]


@dataclass(frozen=True)
class MeanSpectrum:
    """Batch-averaged amplitudes (``N x F``) at the bins ``bin_freqs``."""

    amps: np.ndarray
    bin_freqs: tuple[int, ...]
    batch_size: int


@dataclass(frozen=True)
class DominantSet:
    """Per-variate top bins (``N x k``), strongest first, with their amplitudes."""

    bins: np.ndarray
    amps: np.ndarray

    @property
    def k(self) -> int:
        return self.bins.shape[1]


@dataclass(frozen=True)
class HashValue:
    """An ordered dominant-bin tuple; order matters, so (4,12,8) != (12,4,8)."""

    key: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.key) < 1:
            raise ParameterError("hash must contain at least one bin")
        object.__setattr__(self, "key", tuple(int(b) for b in self.key))

    @property
    def text(self) -> str:
        return "-".join(str(b) for b in self.key)

    def __str__(self) -> str:
        return self.text


def amplitude_spectrum(window_row: np.ndarray) -> np.ndarray:
    """One-sided amplitude spectrum of a T-length series, DC excluded.

    Returns ``|X_f|`` for bins ``1 .. floor(T/2)`` (unnormalized, so a
    sinusoid of amplitude A at integer bin f below Nyquist shows A*T/2).
    """
    row = np.asarray(window_row, dtype=np.float64)
    if row.ndim != 1:
        raise ParameterError(f"expected a 1-D series, got shape {row.shape}")
    if row.shape[0] < 2:
        raise ParameterError(f"series length must be >= 2, got {row.shape[0]}")
    return np.abs(np.fft.rfft(row))[1:]


def low_pass(spectrum: np.ndarray, epsilon: int) -> np.ndarray:
    """Keep the ``epsilon`` lowest positive-frequency bins (bins 1..epsilon)."""
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.ndim != 1:
        raise ParameterError(f"expected a 1-D spectrum, got shape {spectrum.shape}")
    if not 1 <= epsilon <= spectrum.shape[0]:
        raise ParameterError(
            f"low-pass cut must satisfy 1 <= epsilon <= {spectrum.shape[0]}, "
            f"got {epsilon}"
        )
    return spectrum[:epsilon]


def _instance_amplitudes(data: np.ndarray) -> np.ndarray:
    # Batched form of amplitude_spectrum over the rows of one N x T instance.
    return np.abs(np.fft.rfft(data, axis=1))[:, 1:]


def batch_mean_spectrum(
    batch: np.ndarray | WindowBatch, epsilon: int
) -> MeanSpectrum:
    """Low-passed amplitude spectra averaged over the windows of a batch.

    Accepts a WindowBatch or a ``B x N x T`` tensor. Accumulation runs in
    ascending instance order so the result is bit-stable.
    """
    if isinstance(batch, WindowBatch):
        batch = batch.data_tensor()
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3:
        raise ParameterError(f"expected a B x N x T tensor, got shape {batch.shape}")
    b, _, lookback = batch.shape
    if lookback < 2:
        raise ParameterError(f"window length must be >= 2, got {lookback}")
    top = lookback // 2
    if not 1 <= epsilon <= top:
        raise ParameterError(
            f"low-pass cut must satisfy 1 <= epsilon <= {top}, got {epsilon}"
        )
    acc = np.zeros((batch.shape[1], epsilon), dtype=np.float64)
    for j in range(b):
        acc += _instance_amplitudes(batch[j])[:, :epsilon]
    return MeanSpectrum(
        amps=acc / b, bin_freqs=tuple(range(1, epsilon + 1)), batch_size=b
    )


def dominant_frequencies(mean: MeanSpectrum, k: int) -> DominantSet:
    """Top-k bins per variate, ordered by descending mean amplitude.

    Ties break toward the lower bin index: ``bin_freqs`` ascend, so a stable
    sort that keeps tied columns in order does exactly that.
    """
    amps = mean.amps
    n_bins = amps.shape[1]
    if not 1 <= k <= n_bins:
        raise ParameterError(f"need 1 <= k <= {n_bins} available bins, got k={k}")
    freqs = np.asarray(mean.bin_freqs, dtype=np.int64)
    order = np.argsort(-amps, axis=1, kind="stable")[:, :k]
    return DominantSet(bins=freqs[order], amps=np.take_along_axis(amps, order, axis=1))


def kdfh(
    batch: np.ndarray | WindowBatch,
    k: int,
    epsilon: int,
    normalize: bool = False,
) -> list[HashValue]:
    """Hash every variate of a window batch by its k dominant frequencies.

    Composition of amplitude_spectrum, low_pass, batch_mean_spectrum and
    dominant_frequencies; returns one HashValue per variate. With
    ``normalize`` each window row is z-scored over time first (the spectra
    see normalized values; callers keep the raw data).
    """
    if isinstance(batch, WindowBatch):
        batch = batch.data_tensor()
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3:
        raise ParameterError(f"expected a B x N x T tensor, got shape {batch.shape}")
    if normalize:
        mean = batch.mean(axis=2, keepdims=True)
        std = batch.std(axis=2, keepdims=True)
        batch = (batch - mean) / np.maximum(std, 1e-12)
    dominant = dominant_frequencies(batch_mean_spectrum(batch, epsilon), k)
    return [HashValue(key=tuple(row)) for row in dominant.bins]


def reconstruction_error(signal: np.ndarray, k: int) -> tuple[float, float]:
    """MSE of reconstructing a series from its k dominant bins, vs prediction.

    Keeps the k dominant positive bins of the real DFT (DC is preserved, not
    being a periodic component), zeroes the rest, and inverts. Returns
    ``(mse, predicted_mse)`` where the prediction is half the sum of squared
    sinusoid amplitudes of the dropped bins, amplitudes recovered as
    ``2|X_f|/T``. The two agree to float precision when the series is a sum
    of integer-bin sinusoids below the Nyquist bin.
    """
    series = np.asarray(signal, dtype=np.float64)
    if series.ndim != 1:
        raise ParameterError(f"expected a 1-D series, got shape {series.shape}")
    length = series.shape[0]
    if length < 2:
        raise ParameterError(f"series length must be >= 2, got {length}")
    coeffs = np.fft.rfft(series)
    positive = np.abs(coeffs[1:])
    n_bins = positive.shape[0]
    if not 0 <= k <= n_bins:
        raise ParameterError(f"need 0 <= k <= {n_bins} positive bins, got k={k}")
    bins = np.arange(1, n_bins + 1)
    order = np.lexsort((bins, -positive))
    kept = bins[order[:k]]
    dropped = bins[order[k:]]

    masked = np.zeros_like(coeffs)
    masked[0] = coeffs[0]
    masked[kept] = coeffs[kept]
    recon = np.fft.irfft(masked, n=length)

    mse = float(np.mean((series - recon) ** 2))
    predicted = float(0.5 * np.sum((2.0 * positive[dropped - 1] / length) ** 2))
    return mse, predicted
