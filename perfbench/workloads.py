"""The benchmark's workloads: input shape, training settings and why each exists.

All three share the model and windowing settings in ``COMMON``; they differ
in the data the generator writes and in whether variate reduction runs.
"""

from __future__ import annotations

# Model, windowing and split settings shared by every workload.
COMMON = {
    "T": 96,
    "H": 96,
    "B": 32,
    "k": 3,
    "epsilon": 25,
    "gs": 2,
    "d": 64,
    "d_k": 32,
    "lr": 0.01,
    "split": (0.7, 0.1, 0.2),
    # The length and stride fix the window counts: 2400 timestamps at stride 8
    # give 187 training windows in 6 batches and 7 validation windows. Dense
    # training at 862 variates costs about 30 ms per window on one core, so
    # this keeps one dense repeat to a few seconds.
    "length": 2400,
    "stride": 8,
}

# ``epochs`` keeps one repeat's training between about 1 and 6 s on one core
# (a dense window costs 25 times a reduced one at 862 variates). Validation is
# a pure function of the trained parameters, and one pass over the 7
# validation windows lasts about 80 ms at 862 variates and 13 ms at 321, too
# short to time once, so each repeat runs ``val_passes`` passes (0.4-0.7 s).
WORKLOADS = {
    "redundant_reduced": {
        "why": "862 channels (traffic width) drawn from 8 sinusoid prototypes, reduction on "
        "at gs=2: delta near 0.98, so hashing and per-window overhead dominate",
        "data": "redundant",
        "n": 862,
        "prototypes": 8,
        "sigma": 0.05,
        "vardrop_on": True,
        "epochs": 5,
        "val_passes": 8,
    },
    "redundant_dense": {
        "why": "the same 862-channel table with reduction off: the dense baseline, where "
        "attention and backward dominate and hashing never runs",
        "data": "redundant",
        "n": 862,
        "prototypes": 8,
        "sigma": 0.05,
        "vardrop_on": False,
        "epochs": 1,
        "val_passes": 8,
    },
    "noise_reduced": {
        "why": "321 i.i.d. normal channels (electricity width), reduction on: about 320 "
        "singleton groups per batch, delta near 0, nothing to gain from hashing",
        "data": "noise",
        "n": 321,
        "vardrop_on": True,
        "epochs": 3,
        "val_passes": 30,
    },
}
