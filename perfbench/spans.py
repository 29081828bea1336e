"""In-memory span tracing around calls into the package's public functions.

A ``Tracer`` replaces named attributes (module functions, class methods)
with wrappers that record one span per call: name, start, end, parent span
and run id. Wrappers are installed where the *calling* module looks a name
up, e.g. ``vardrop.model.kdfh`` rather than ``vardrop.spectral.kdfh``, and
the originals are put back when the ``installed`` block exits. A target
that does not exist is reported as absent instead of failing, so the
benchmark keeps working when a later change removes or renames a function.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    info: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """Wrap ``owner.attr`` and name its spans ``name``.

    ``owner`` is a module path, optionally followed by ``:Class``.
    ``observe(args, result)`` may return a dict stored on the span.
    """

    name: str
    owner: str
    attr: str
    observe: Callable[[tuple, Any], dict] | None = None


def resolve_owner(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Records spans while ``active``; spans stay in memory until written."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.active = False
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, target: Target, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(target.name, self.clock(), 0.0, parent, self.run)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = self.clock()
            if target.observe is not None:
                span.info = target.observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets: list[Target]):
        """Install wrappers for ``targets``; yield the names found absent.

        Restores every replaced attribute on exit, in reverse order, even
        when the block raises.
        """
        replaced: list[tuple[Any, str, Any]] = []
        absent: list[str] = []
        try:
            for target in targets:
                try:
                    owner = resolve_owner(target.owner)
                    # vars() rather than getattr(): a class method must be put
                    # back as the same plain function, not a bound method.
                    original = vars(owner)[target.attr]
                except (ImportError, AttributeError, KeyError):
                    absent.append(f"{target.owner}.{target.attr}")
                    continue
                setattr(owner, target.attr, self.wrap(target, original))
                replaced.append((owner, target.attr, original))
            yield absent
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


def summarize(
    spans: list[Span], names: list[str], runs: list[int]
) -> dict[int, dict[str, dict[str, float]]]:
    """Per run id: ``{name: {calls, busy_s, self_s}}`` for every name in ``names``.

    Names with no span in a run read as zero calls and zero time.
    """
    selfs = self_times(spans)
    out = {
        run: {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in names}
        for run in runs
    }
    for span, own in zip(spans, selfs):
        row = out[span.run].setdefault(
            span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["busy_s"] += span.end - span.start
        row["self_s"] += own
    return out
