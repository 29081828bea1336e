"""Seeded input generator owned by the benchmark.

The benchmark writes its own CSVs instead of calling the package's
synthetic generators, so a change to the package cannot change the inputs
it is measured on. The same seed gives a byte-identical file.

Redundant tables: each channel copies one of ``prototypes`` latent signals
and adds Gaussian noise. A prototype is three sinusoids at distinct integer
bins of the period (96, the lookback), so windows see no spectral leakage,
with fixed descending amplitudes ``AMPS``. The ordered bin triple is unique
per prototype, so a hash of the three dominant bins recovers the labels.
Fixed amplitudes give every seed the same signal variance, so the
validation loss is comparable across seeds.

Noise tables: i.i.d. standard-normal channels with no shared structure.
"""

from __future__ import annotations

import numpy as np

PERIOD = 96
MAX_BIN = 20
AMPS = (3.0, 2.2, 1.5)


def prototype_bins(rng: np.random.Generator, count: int) -> list[tuple[int, ...]]:
    """Draw ``count`` distinct ordered bin triples from bins 1..MAX_BIN."""
    seen: list[tuple[int, ...]] = []
    while len(seen) < count:
        bins = tuple(int(b) for b in rng.choice(np.arange(1, MAX_BIN + 1), 3, replace=False))
        if bins not in seen:
            seen.append(bins)
    return seen


def redundant_table(
    n: int, prototypes: int, length: int, sigma: float, seed: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """An ``n x length`` table of noisy prototype copies and each row's label.

    Labels are a seeded permutation of round-robin assignment, so every
    prototype has ``n // prototypes`` or one more members.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    signals = np.zeros((prototypes, length))
    for g, bins in enumerate(prototype_bins(rng, prototypes)):
        phases = rng.uniform(0.0, 2.0 * np.pi, size=len(bins))
        for b, a, p in zip(bins, AMPS, phases):
            signals[g] += a * np.sin(2.0 * np.pi * b * t / PERIOD + p)
    labels = rng.permutation(np.arange(n) % prototypes)
    values = signals[labels] + sigma * rng.standard_normal((n, length))
    return values, tuple(int(x) for x in labels)


def noise_table(n: int, length: int, seed: int) -> np.ndarray:
    """An ``n x length`` table of i.i.d. standard-normal values."""
    return np.random.default_rng(seed).standard_normal((n, length))


def write_csv(path: str, values: np.ndarray) -> None:
    """Write variates in columns under a ``v000,v001,...`` header."""
    header = ",".join(f"v{i:03d}" for i in range(values.shape[0]))
    np.savetxt(path, values.T, fmt="%.10g", delimiter=",", header=header, comments="")


def generate(spec: dict, length: int, seed: int, path: str) -> tuple[int, ...] | None:
    """Write the workload's CSV to ``path``; return labels for redundant data."""
    if spec["data"] == "redundant":
        values, labels = redundant_table(
            spec["n"], spec["prototypes"], length, spec["sigma"], seed
        )
        write_csv(path, values)
        return labels
    write_csv(path, noise_table(spec["n"], length, seed))
    return None
