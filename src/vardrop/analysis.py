"""Redundancy diagnostics: the correlation structure of a window.

How strongly are a dataset's variates linearly related, answered
numerically: the Pearson matrix of a window and each variate's strongest
off-diagonal correlation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require

__all__ = ["RedundancyProfile", "pearson_matrix", "redundancy_profile"]


def pearson_matrix(data: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlation of the rows of an ``N x T`` window.

    Returns the symmetric ``N x N`` matrix of the standard centered
    product-moment formula. A constant row has no defined correlation (zero
    variance), so its row, column and diagonal entry are 0, which keeps
    downstream histograms total: a 0 on the diagonal marks a constant
    variate, and every other diagonal entry is 1. Raises ``ParameterError``
    on an ``N x 0`` window or a non-finite value; any other has an answer.
    """
    if data.ndim != 2 or data.shape[1] < 1:
        raise ParameterError(f"expected an N x T window with T >= 1, got shape {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ParameterError("correlation input has non-finite values")
    # Dividing a row by a power of two just above its largest magnitude is
    # exact (bar values over 2**1022 times smaller), so every entry keeps its
    # bits; with every value below 1, no sum can overflow nor a varying row's
    # squares underflow to 0.
    _, exponent = np.frexp(np.abs(data).max(axis=1, keepdims=True, initial=0.0))
    scaled = np.ldexp(data, -exponent)
    centered = scaled - scaled.mean(axis=1, keepdims=True)
    ssq = np.sum(centered * centered, axis=1)
    degenerate = ssq == 0.0
    norms = np.where(degenerate, 1.0, np.sqrt(ssq))
    unit = centered / norms[:, None]
    rho = unit @ unit.T
    rho = (rho + rho.T) / 2.0
    rho[degenerate, :] = 0.0
    rho[:, degenerate] = 0.0
    np.fill_diagonal(rho, np.where(degenerate, 0.0, 1.0))
    return rho


@dataclass(frozen=True)
class RedundancyProfile:
    """Per-variate strongest off-diagonal correlation and the strong fraction.

    The maximum is over signed values, not magnitudes: anticorrelation is
    not redundancy.
    """

    max_corr: tuple[float, ...]
    strong_frac: float


def redundancy_profile(rho: np.ndarray, threshold: float) -> RedundancyProfile:
    """Fraction of variates whose best off-diagonal correlation meets threshold.

    ``rho`` is a square correlation matrix, as ``pearson_matrix`` returns.
    """
    require("threshold", -1.0 <= threshold <= 1.0, "[-1, 1]", threshold)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.size == 0:
        raise ParameterError(
            f"correlation matrix must be square and non-empty, got {rho.shape}"
        )
    if not np.all(np.isfinite(rho)):
        raise ParameterError("correlation matrix has non-finite entries")
    n = rho.shape[0]
    if n == 1:
        # No partners to correlate with; floor at -1 so nothing counts as strong.
        return RedundancyProfile(max_corr=(-1.0,), strong_frac=0.0)
    off = rho.copy()
    np.fill_diagonal(off, -np.inf)
    max_corr = off.max(axis=1)
    strong_frac = float(np.mean(max_corr >= threshold))
    return RedundancyProfile(
        max_corr=tuple(float(m) for m in max_corr), strong_frac=strong_frac
    )
