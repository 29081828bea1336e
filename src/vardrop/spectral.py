"""Dominant-frequency hashing of variates and its reconstruction bound.

A variate's hash is the ordered row of its k strongest frequency bins,
computed from the one-sided amplitude spectrum of its lookback window
(averaged over a batch of windows) after a low-pass cut at bin ``epsilon``.
Two variates with the same hash are treated as redundant downstream. The
stages pass plain arrays: batch_mean_spectrum gives ``N x epsilon``
amplitudes, dominant_frequencies and kdfh an ``N x k`` int array of bins.
Row ``i`` is variate ``i``'s hash, written as text ``"4-12-8"``.

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

import numpy as np

from .dataset import WindowBatch
from .errors import NumericError, ParameterError, require

__all__ = [
    "batch_mean_spectrum",
    "dominant_frequencies",
    "kdfh",
    "reconstruction_error",
]


def _tensor(batch: np.ndarray | WindowBatch) -> np.ndarray:
    # A WindowBatch's B x N x T lookbacks as they are, or a checked tensor.
    if isinstance(batch, WindowBatch):
        return batch.data
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 3 or batch.shape[0] < 1:
        raise ParameterError(f"expected a B x N x T tensor, got shape {batch.shape}")
    return batch


@np.errstate(over="ignore", invalid="ignore")
def batch_mean_spectrum(batch: np.ndarray | WindowBatch, epsilon: int) -> np.ndarray:
    """Low-passed amplitude spectra averaged over the windows of a batch.

    Returns an ``N x epsilon`` array whose column ``j`` holds bin ``j + 1``.
    Accepts a WindowBatch, whose lookbacks are read in place, or a
    ``B x N x T`` tensor. Accumulation runs in ascending window order so the
    result is bit-stable. Finite values whose spectrum overflows raise
    ``NumericError``, not a warning.
    """
    lookbacks = _tensor(batch)
    _, n, lookback = lookbacks.shape
    top = lookback // 2
    require("epsilon", 1 <= epsilon <= top, f"[1, {top}] (at most T // 2)", epsilon)
    acc = np.zeros((n, epsilon), dtype=np.float64)
    for data in lookbacks:
        acc += np.abs(np.fft.rfft(data, axis=1)[:, 1 : epsilon + 1])
    if not np.all(np.isfinite(acc)):
        raise NumericError("non-finite amplitude spectrum")
    return acc / len(lookbacks)


def dominant_frequencies(amps: np.ndarray, k: int) -> np.ndarray:
    """Top-k bins per variate (``N x k``), ordered by descending amplitude.

    ``amps`` is a batch_mean_spectrum result, so column ``j`` is bin ``j + 1``.
    Ties break toward the lower bin: a stable sort keeps tied columns in order.
    """
    n_bins = amps.shape[1]
    require("k", 1 <= k <= n_bins, f"[1, {n_bins}] (the available bins)", k)
    return np.argsort(-amps, axis=1, kind="stable")[:, :k] + 1


def kdfh(batch: np.ndarray | WindowBatch, k: int, epsilon: int) -> np.ndarray:
    """Hash every variate of a window batch by its k dominant frequencies.

    Composition of batch_mean_spectrum and dominant_frequencies; returns the
    ``N x k`` int bins array, one row per variate. Scaling a variate scales
    its spectrum and keeps its ranking, so the hash needs no normalization.
    """
    return dominant_frequencies(batch_mean_spectrum(batch, epsilon), k)


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
    require("len(signal)", length >= 2, "[2, inf)", length)
    coeffs = np.fft.rfft(series)
    positive = np.abs(coeffs[1:])
    n_bins = positive.shape[0]
    require("k", 0 <= k <= n_bins, f"[0, {n_bins}] (the positive bins)", k)
    ranked = dominant_frequencies(positive[None], n_bins)[0]
    kept = ranked[:k]
    dropped = ranked[k:]

    masked = np.zeros_like(coeffs)
    masked[0] = coeffs[0]
    masked[kept] = coeffs[kept]
    recon = np.fft.irfft(masked, n=length)

    mse = float(np.mean((series - recon) ** 2))
    predicted = float(0.5 * np.sum((2.0 * positive[dropped - 1] / length) ** 2))
    return mse, predicted
