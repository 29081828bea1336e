"""Exception hierarchy shared by all vardrop modules.

Every error carries a ``category`` used by the CLI to map failures to a
stable exit code and message prefix: ``parse``, ``validation``, ``numeric``
or ``io``.
"""

from __future__ import annotations

__all__ = [
    "VardropError",
    "ParseError",
    "EmptyInputError",
    "ParameterError",
    "InsufficientLengthError",
    "SplitError",
    "NumericError",
    "PipelineIOError",
]


class VardropError(Exception):
    """Base class for all errors raised by this package."""

    category = "validation"


class ParseError(VardropError):
    """Malformed input data (bad CSV cell, wrong row length, ...)."""

    category = "parse"


class EmptyInputError(ParseError):
    """Input file or sequence contained no usable data."""


class ParameterError(VardropError):
    """An argument violated a documented precondition."""

    category = "validation"


class InsufficientLengthError(ParameterError):
    """A series is too short for the requested window geometry."""


class SplitError(ParameterError):
    """A chronological split would leave one part empty."""


class NumericError(VardropError):
    """A non-finite value appeared mid-computation; names the stage."""

    category = "numeric"


class PipelineIOError(VardropError):
    """A referenced path is missing or an output location is unwritable."""

    category = "io"


def require(key: str, ok: bool, interval: str, value) -> None:
    """Raise ParameterError ``<key>: must be in <interval>, got <value>`` unless ok."""
    if not ok:
        raise ParameterError(f"{key}: must be in {interval}, got {value}")
