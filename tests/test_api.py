"""The flat ``vardrop`` namespace: exactly the modules' public names, and
one wording for every range error they raise."""

import re
import types

import numpy as np
import pytest

import vardrop
from vardrop import analysis, dataset, errors, model, reduction, spectral

MODULES = (dataset, spectral, reduction, model, analysis, errors)


def test_errors_exports_every_error_class():
    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.VardropError)
    }
    assert set(errors.__all__) == classes


def test_all_is_version_errors_and_module_exports():
    exported = vardrop.__all__
    assert len(exported) == len(set(exported))
    expected = {"__version__"}
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        expected |= set(module.__all__)
    assert set(exported) == expected


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(vardrop, name) is getattr(module, name), name
    assert isinstance(vardrop.__version__, str)


def test_every_public_attribute_is_a_submodule_or_exported():
    # a module without __all__ would leak its imports through the star import
    for name, obj in vars(vardrop).items():
        if name.startswith("_") or name in vardrop.__all__:
            continue
        assert isinstance(obj, types.ModuleType), name
        assert obj.__name__ == f"vardrop.{name}", name


def _table(n=2, length=40):
    return vardrop.SeriesTable(tuple(f"v{i}" for i in range(n)), np.ones((n, length)))


def _params():
    return vardrop.initialize_params(8, 2, 4, 2, seed=0)


def _synth(n_variates=4, n_prototypes=2, length=50, noise_sigma=0.0, period=10):
    return vardrop.synth_redundant_detail(
        n_variates, n_prototypes, length, noise_sigma, seed=0, period=period
    )


RANGE_ERRORS = {
    "initialize_params": (
        lambda: vardrop.initialize_params(8, 0, 4, 2, seed=0),
        "horizon: must be in [1, inf), got 0",
    ),
    "initialize_params_seed": (
        lambda: vardrop.initialize_params(8, 2, 4, 2, seed=-1),
        "seed: must be in [0, inf), got -1",
    ),
    "train_settings_seed": (
        lambda: vardrop.TrainSettings(seed=-1),
        "seed: must be in [0, inf), got -1",
    ),
    "count_flops": (
        lambda: vardrop.count_flops(0, 8, 4, 2, 2),
        "n_tokens: must be in [1, inf), got 0",
    ),
    "forward_retained": (
        lambda: vardrop.forward(np.zeros((1, 3, 8)), np.zeros((1, 3, 2)), _params(), (0, 3)),
        "retained: must be in [0, 2] (one of 3 variates), got 3",
    ),
    "sgd_step": (
        lambda: vardrop.sgd_step(_params(), _params(), 0.0),
        "lr: must be in (0, inf), got 0.0",
    ),
    "batch_mean_spectrum": (
        lambda: vardrop.batch_mean_spectrum(np.zeros((1, 2, 8)), 5),
        "epsilon: must be in [1, 4] (at most T // 2), got 5",
    ),
    "dominant_frequencies": (
        lambda: vardrop.dominant_frequencies(np.zeros((2, 4)), 5),
        "k: must be in [1, 4] (the available bins), got 5",
    ),
    "reconstruction_error_length": (
        lambda: vardrop.reconstruction_error(np.zeros(1), 0),
        "len(signal): must be in [2, inf), got 1",
    ),
    "reconstruction_error_k": (
        lambda: vardrop.reconstruction_error(np.zeros(8), 5),
        "k: must be in [0, 4] (the positive bins), got 5",
    ),
    "stratified_sample": (
        lambda: vardrop.stratified_sample(vardrop.GroupTable({"1": (0,)}), 0, seed=0),
        "gs: must be in [1, inf), got 0",
    ),
    "sliding_windows_lookback": (
        lambda: vardrop.sliding_windows(_table(), 1),
        "lookback: must be in [2, inf), got 1",
    ),
    "sliding_windows_horizon": (
        lambda: vardrop.sliding_windows(_table(), 4, -1),
        "horizon: must be in [0, inf), got -1",
    ),
    "sliding_windows_stride": (
        lambda: vardrop.sliding_windows(_table(), 4, 0, 0),
        "stride: must be in [1, inf), got 0",
    ),
    "batch_windows": (
        lambda: vardrop.batch_windows(vardrop.sliding_windows(_table(), 4), 0),
        "batch_size: must be in [1, inf), got 0",
    ),
    "synth_prototypes": (
        lambda: _synth(n_prototypes=5),
        "n_prototypes: must be in [1, 4] (at most n_variates), got 5",
    ),
    "synth_sigma": (
        lambda: _synth(noise_sigma=-0.5),
        "noise_sigma: must be in [0, inf), got -0.5",
    ),
    "synth_length": (
        lambda: _synth(length=0),
        "length: must be in [1, inf), got 0",
    ),
    "synth_period": (
        lambda: _synth(period=9),
        "period: must be in [10, inf), got 9",
    ),
    "synth_seed": (
        lambda: vardrop.synth_redundant_detail(4, 2, 50, 0.0, seed=-1, period=10),
        "seed: must be in [0, inf), got -1",
    ),
    "redundancy_profile": (
        lambda: vardrop.redundancy_profile(vardrop.pearson_matrix(np.eye(2)), 1.5),
        "threshold: must be in [-1, 1], got 1.5",
    ),
    "correlation_shift_lookback": (
        lambda: vardrop.correlation_shift(_table(), 1, [0]),
        "lookback: must be in [2, inf), got 1",
    ),
    "correlation_shift_starts": (
        lambda: vardrop.correlation_shift(_table(), 8, [0, 33]),
        "starts: must be in [0, 32] (windows inside the table), got 33",
    ),
    "sensitivity_sweep": (
        lambda: vardrop.sensitivity_sweep(
            [], [], [1], [1], vardrop.TrainSettings(), epochs=0, embed_dim=4, attn_dim=2
        ),
        "epochs: must be in [1, inf), got 0",
    ),
    "sensitivity_sweep_batches": (
        lambda: vardrop.sensitivity_sweep(
            [], [], [1], [1], vardrop.TrainSettings(), epochs=1, embed_dim=4, attn_dim=2
        ),
        "sweep needs training batches",
    ),
    "validation_loss": (
        lambda: vardrop.validation_loss(_params(), []),
        "validation needs at least one batch",
    ),
    "series_table_empty": (
        lambda: vardrop.SeriesTable((), np.zeros((0, 5))),
        "table must be at least 1 x 1, got 0 x 5",
    ),
    "synth_signatures": (
        # bins 1..4 give only 24 distinct ordered triples, not 25
        lambda: vardrop.synth_redundant_detail(30, 25, 100, 0.0, seed=0, period=10),
        "cannot draw 25 prototypes with distinct signatures from bins 1..4",
    ),
    "reconstruction_error_shape": (
        lambda: vardrop.reconstruction_error(np.zeros((2, 4)), 1),
        "expected a 1-D series, got shape (2, 4)",
    ),
}


@pytest.mark.parametrize("call, message", RANGE_ERRORS.values(), ids=list(RANGE_ERRORS))
def test_range_errors_share_one_wording(call, message):
    with pytest.raises(vardrop.ParameterError, match=f"^{re.escape(message)}$"):
        call()
