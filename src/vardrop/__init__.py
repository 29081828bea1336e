"""Redundancy-aware variate-token reduction for multivariate time series.

Pipeline: hash each variate by its k dominant frequency bins (computed over
a batch of lookback windows), group variates with equal hashes, keep at most
``gs`` per group via seeded stratified sampling, and train a variate-token
attention forecaster on the survivors. Attention cost scales with the square
of the kept token count; the FLOP ledger makes that exact. Analysis helpers
quantify the redundancy (Pearson structure, correlation shift, k/gs sweeps)
that makes the reduction safe.
"""

from .analysis import (
    CorrelationMatrix,
    RedundancyProfile,
    ShiftReport,
    SweepCell,
    SweepResult,
    correlation_shift,
    pearson_matrix,
    redundancy_profile,
    sensitivity_sweep,
)
from .dataset import (
    MultivariateWindow,
    Prototype,
    SeriesTable,
    SplitSpec,
    SynthDetail,
    WindowBatch,
    batch_windows,
    chronological_split,
    load_csv,
    sliding_windows,
    synth_redundant,
    synth_redundant_detail,
    write_csv,
)
from .errors import (
    EmptyInputError,
    InsufficientLengthError,
    NumericError,
    ParameterError,
    ParseError,
    PipelineIOError,
    SplitError,
    VardropError,
)
from .model import (
    AttentionFragment,
    BatchMetrics,
    FlopLedger,
    ForwardTrace,
    ModelParams,
    TrainSettings,
    attention,
    backward,
    count_flops,
    embed,
    forward,
    initialize_params,
    plan_batch,
    predict_full,
    sgd_step,
    train_epoch,
    validation_loss,
)
from .reduction import (
    GroupTable,
    ReductionPlan,
    ReductionSummary,
    derive_seed,
    group_by_hash,
    reduction_report,
    stratified_sample,
)
from .spectral import (
    DominantSet,
    HashValue,
    MeanSpectrum,
    amplitude_spectrum,
    batch_mean_spectrum,
    dominant_frequencies,
    kdfh,
    low_pass,
    reconstruction_error,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dataset
    "SeriesTable",
    "MultivariateWindow",
    "WindowBatch",
    "SplitSpec",
    "Prototype",
    "SynthDetail",
    "load_csv",
    "write_csv",
    "sliding_windows",
    "batch_windows",
    "chronological_split",
    "synth_redundant",
    "synth_redundant_detail",
    # spectral
    "MeanSpectrum",
    "DominantSet",
    "HashValue",
    "amplitude_spectrum",
    "low_pass",
    "batch_mean_spectrum",
    "dominant_frequencies",
    "kdfh",
    "reconstruction_error",
    # reduction
    "GroupTable",
    "ReductionPlan",
    "ReductionSummary",
    "derive_seed",
    "group_by_hash",
    "stratified_sample",
    "reduction_report",
    # model
    "ModelParams",
    "AttentionFragment",
    "ForwardTrace",
    "FlopLedger",
    "TrainSettings",
    "BatchMetrics",
    "initialize_params",
    "embed",
    "attention",
    "forward",
    "backward",
    "sgd_step",
    "count_flops",
    "plan_batch",
    "train_epoch",
    "predict_full",
    "validation_loss",
    # analysis
    "CorrelationMatrix",
    "RedundancyProfile",
    "ShiftReport",
    "SweepCell",
    "SweepResult",
    "pearson_matrix",
    "redundancy_profile",
    "correlation_shift",
    "sensitivity_sweep",
    # errors
    "VardropError",
    "ParseError",
    "EmptyInputError",
    "ParameterError",
    "InsufficientLengthError",
    "SplitError",
    "NumericError",
    "PipelineIOError",
]
