"""Exception hierarchy shared by all vardrop modules.

There is one class per CLI exit code, and each carries the ``category`` that
names its exit code and message prefix: ``ParseError`` (``parse``, 2),
``ParameterError`` (``validation``, 3), ``NumericError`` (``numeric``, 4) and
``PipelineIOError`` (``io``, 5).
"""

from __future__ import annotations

__all__ = [
    "VardropError",
    "ParseError",
    "ParameterError",
    "NumericError",
    "PipelineIOError",
]


class VardropError(Exception):
    """Base class for all errors raised by this package."""

    category = "validation"


class ParseError(VardropError):
    """Malformed or empty input data (bad CSV cell, wrong row length, no rows)."""

    category = "parse"


class ParameterError(VardropError):
    """An argument violated a documented precondition."""

    category = "validation"


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
