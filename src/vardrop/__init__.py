"""Redundancy-aware variate-token reduction for multivariate time series.

Pipeline: hash each variate by its k dominant frequency bins (computed over
a batch of lookback windows), group variates with equal hashes, keep at most
``gs`` per group via seeded stratified sampling, and train a variate-token
attention forecaster on the survivors. Attention cost scales with the square
of the kept token count; the FLOP ledger makes that exact. Analysis helpers
quantify the redundancy (Pearson structure, correlation shift, k/gs sweeps)
that makes the reduction safe.

The flat namespace is each module's ``__all__``, so a public name is listed
once, in the module that defines it.
"""

from . import analysis, dataset, errors, model, reduction, spectral
from .analysis import *  # noqa: F403
from .dataset import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .reduction import *  # noqa: F403
from .spectral import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (dataset, spectral, reduction, model, analysis, errors)
    for name in module.__all__
]
