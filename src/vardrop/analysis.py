"""Redundancy diagnostics: correlation structure, shift, and sensitivity.

Three questions about a dataset, answered numerically: how strongly are
variates linearly related (Pearson matrix and per-variate maxima), how much
does that relation drift across window positions (correlation shift), and
how do the reduction knobs k and gs trade tokens for accuracy (sweep).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SeriesTable, WindowBatch
from .errors import ParameterError, require
from .model import (
    TrainSettings,
    initialize_params,
    train_epoch,
    validation_loss,
)

__all__ = [
    "RedundancyProfile",
    "ShiftReport",
    "SweepCell",
    "pearson_matrix",
    "redundancy_profile",
    "correlation_shift",
    "sensitivity_sweep",
]


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


@dataclass(frozen=True)
class ShiftReport:
    """How inter-variate correlation moves across window positions.

    ``pair_shift[i, j]`` is the largest absolute difference of ``rho[i, j]``
    between any two windows; ``mean_frobenius`` averages the Frobenius
    distance between consecutive windows' matrices (0 for a single window).
    """

    pair_shift: np.ndarray
    max_shift: float
    mean_frobenius: float


def correlation_shift(
    table: SeriesTable, lookback: int, starts: Sequence[int]
) -> ShiftReport:
    """Correlation drift of the table across the windows at ``starts``."""
    require("lookback", lookback >= 2, "[2, inf)", lookback)
    starts = tuple(int(s) for s in starts)
    if not starts:
        raise ParameterError("correlation shift needs at least one start")
    last = table.length - lookback
    for s in starts:
        require("starts", 0 <= s <= last, f"[0, {last}] (windows inside the table)", s)
    mats = np.stack([pearson_matrix(table.values[:, s : s + lookback]) for s in starts])
    pair_shift = mats.max(axis=0) - mats.min(axis=0)
    if len(starts) > 1:
        consecutive = np.linalg.norm(
            (mats[1:] - mats[:-1]).reshape(len(starts) - 1, -1), axis=1
        )
        mean_frobenius = float(consecutive.mean())
    else:
        mean_frobenius = 0.0
    return ShiftReport(
        pair_shift=pair_shift,
        max_shift=float(pair_shift.max()),
        mean_frobenius=mean_frobenius,
    )


@dataclass(frozen=True)
class SweepCell:
    """Result of one (k, gs) training run: mean delta and final val loss."""

    k: int
    gs: int
    delta: float
    val_loss: float


def sensitivity_sweep(
    train_batches: list[WindowBatch],
    val_batches: list[WindowBatch],
    ks: Sequence[int],
    gss: Sequence[int],
    settings: TrainSettings,
    *,
    epochs: int,
    embed_dim: int,
    attn_dim: int,
) -> tuple[SweepCell, ...]:
    """Train one model per (k, gs) cell; the cells in k-major, then gs order.

    Each cell runs a copy of ``settings`` (any TrainSettings, the CLI's
    RunConfig included) with its own ``k`` and ``gs`` and reduction on.
    Every cell starts from the same initialization, seeded by
    ``settings.seed`` and shaped by the first training batch (so
    ``initialize_params`` rejects ``H = 0``), and sees the same batches, so
    cells differ only in the reduction knobs. Mean delta is averaged over
    every batch of every epoch; the loss is the dense validation MSE of the
    final parameters. Deterministic given the seed.
    """
    require("epochs", epochs >= 1, "[1, inf)", epochs)
    if not ks or not gss:
        raise ParameterError("sweep needs at least one k and one gs")
    if not train_batches:
        raise ParameterError("sweep needs training batches")
    lookback = train_batches[0].lookback
    horizon = train_batches[0].horizon_length

    # every cell's settings are built, and so range-checked, before any trains
    configs = [
        replace(settings, k=int(k), gs=int(gs), vardrop_on=True) for k in ks for gs in gss
    ]
    # no step writes its input parameters, so every cell can start from one set
    initial = initialize_params(lookback, horizon, embed_dim, attn_dim, settings.seed)
    records = []
    for config in configs:
        params = initial
        deltas = []
        for epoch in range(epochs):
            params, metrics = train_epoch(train_batches, params, config, epoch)
            deltas.extend(m.delta for m in metrics)
        records.append(
            SweepCell(
                k=config.k,
                gs=config.gs,
                delta=float(np.mean(deltas)),
                val_loss=validation_loss(params, val_batches),
            )
        )
    return tuple(records)
