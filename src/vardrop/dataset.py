"""Series ingestion, sliding windows, chronological splits, synthetic data.

The unit of work downstream is the lookback window: an ``N x T`` slice of a
longer ``N x L`` table of variates, optionally paired with the ``N x H``
horizon that immediately follows it. This module owns loading tables from
CSV, cutting them into windows and batches, splitting them chronologically,
and generating seeded synthetic tables with a known redundancy structure
(``G`` latent prototypes shared by ``N`` variates).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyInputError,
    InsufficientLengthError,
    ParameterError,
    ParseError,
    PipelineIOError,
    SplitError,
)

__all__ = [
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
]


@dataclass(frozen=True)
class SeriesTable:
    """An immutable ``N x L`` table: one row per variate, one column per step.

    All rows share the length ``L`` and every value is finite; both are
    enforced at construction so downstream code never re-validates.
    """

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ParameterError(f"table values must be 2-D, got shape {values.shape}")
        n, length = values.shape
        if n < 1 or length < 1:
            raise ParameterError(f"table must be at least 1 x 1, got {n} x {length}")
        if len(self.names) != n:
            raise ParameterError(
                f"{len(self.names)} names for {n} rows"
            )
        if not np.all(np.isfinite(values)):
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ParameterError(
                f"non-finite value in variate {self.names[bad[0]]!r} at position {bad[1]}"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_variates(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MultivariateWindow:
    """One lookback slice (``N x T``) plus its optional ``N x H`` horizon."""

    data: np.ndarray
    start: int = 0
    horizon: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ParameterError(f"window data must be 2-D, got shape {self.data.shape}")
        if self.data.shape[1] < 2:
            raise ParameterError("window length must be at least 2")
        if self.start < 0:
            raise ParameterError("window start must be nonnegative")
        if self.horizon is not None and self.horizon.shape[0] != self.data.shape[0]:
            raise ParameterError(
                f"horizon has {self.horizon.shape[0]} rows for {self.data.shape[0]} variates"
            )

    @property
    def n_variates(self) -> int:
        return self.data.shape[0]

    @property
    def lookback(self) -> int:
        return self.data.shape[1]

    @property
    def horizon_length(self) -> int:
        return 0 if self.horizon is None else self.horizon.shape[1]


@dataclass(frozen=True)
class WindowBatch:
    """A dimension-consistent batch of windows sharing ``N``, ``T`` and ``H``.

    ``memo`` holds results derived from the window data, keyed by their
    settings; only ``frozen`` batches may keep them.
    """

    windows: tuple[MultivariateWindow, ...]
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.windows) < 1:
            raise ParameterError("batch must contain at least one window")
        first = self.windows[0]
        for w in self.windows[1:]:
            if (
                w.n_variates != first.n_variates
                or w.lookback != first.lookback
                or w.horizon_length != first.horizon_length
            ):
                raise ParameterError("batch windows have inconsistent dimensions")
        object.__setattr__(self, "windows", tuple(self.windows))

    @property
    def size(self) -> int:
        return len(self.windows)

    @property
    def n_variates(self) -> int:
        return self.windows[0].n_variates

    @property
    def lookback(self) -> int:
        return self.windows[0].lookback

    @property
    def horizon_length(self) -> int:
        return self.windows[0].horizon_length

    @property
    def frozen(self) -> bool:
        """True when no window's data can change: read-only down to its owner.

        A read-only view of a writable array can still change under it, so
        every array in the chain of bases must be read-only too.
        """
        for w in self.windows:
            array = w.data
            while True:
                if not isinstance(array, np.ndarray) or array.flags.writeable:
                    return False
                if array.base is None:
                    break
                array = array.base
        return True

    def data_tensor(self) -> np.ndarray:
        """Stack lookbacks into a ``B x N x T`` array."""
        return np.stack([w.data for w in self.windows])


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions; must sum to one."""

    train_frac: float
    val_frac: float
    test_frac: float

    def __post_init__(self) -> None:
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0 for f in fracs):
            raise ParameterError(f"split fractions must be nonnegative, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ParameterError(f"split fractions must sum to 1, got {sum(fracs)!r}")


_TIMESTAMP_HEADERS = ("date", "time", "timestamp", "datetime")
# numpy's reader refuses these as delimiters (TypeError), so only the row
# parser can read them.
_ROW_PARSER_DELIMITERS = ('"', "\n", "\r")


def load_csv(path: str, delimiter: str = ",") -> SeriesTable:
    """Read a variates-in-columns CSV into a SeriesTable.

    The file is UTF-8, with or without a byte-order mark; any other bytes
    raise ParseError. A row whose first cell starts with ``#`` is a comment,
    whatever else it holds. The first non-comment row is the header of
    variate names. A leading timestamp column is dropped: one headed
    ``date``, ``time``, ``timestamp`` or ``datetime`` (any case), or whose
    first data cell is non-numeric. Any NaN/Inf or non-numeric cell aborts
    the load with the offending row/column named; imputation is deliberately
    not attempted.

    The body is parsed by numpy's C reader. Whatever that reader cannot take
    as a whole (a comment row after the header, a bad cell, an odd
    delimiter) goes to the row-by-row parser, which returns the same table
    or raises the error that names the row and column.
    """
    table = _load_body(path, delimiter)
    return table if table is not None else _load_rows(path, delimiter)


def _records(handle, delimiter: str, path: str):
    """Yield ``(row, line_num)`` for every row that is neither blank nor a comment.

    A row ``csv`` cannot read (a field over its size limit) raises ParseError
    naming ``path`` and the line.
    """
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                yield row, reader.line_num
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def _columns(header: list[str], first_row: list[str]) -> tuple[list[str], bool]:
    """Apply the timestamp rule: the variate names and whether column 0 is dropped."""
    header = [c.strip() for c in header]
    drop_first = header[0].lower() in _TIMESTAMP_HEADERS
    try:
        float(first_row[0])
    except ValueError:
        drop_first = True
    return (header[1:] if drop_first else header), drop_first


def _timestamp_cell(cell: str) -> float:
    # A comment row must reach the row parser, which skips it.
    if cell.lstrip().startswith("#"):
        raise ValueError(f"comment row in the body: {cell!r}")
    return 0.0


def _load_body(path: str, delimiter: str) -> SeriesTable | None:
    """Parse the body with ``np.loadtxt``; None when only ``_load_rows`` can decide.

    ``csv.reader`` reads the leading comments, the header and the first data
    row, so the timestamp rule is the row parser's. numpy then reads every
    physical line after the header. ``usecols`` is not used because it would
    ignore the extra cells of a ragged row.
    """
    if delimiter in _ROW_PARSER_DELIMITERS:
        return None
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            records = _records(handle, delimiter, path)
            (header, skip), (first_row, _) = next(records), next(records)
        names, drop_first = _columns(header, first_row)
        if not names:
            return None
        values = np.loadtxt(
            path,
            delimiter=delimiter,
            skiprows=skip,
            comments=None,
            quotechar='"',
            ndmin=2,
            dtype=np.float64,
            encoding="utf-8-sig",
            converters={0: _timestamp_cell} if drop_first else None,
        )
    except (OSError, ValueError, StopIteration, ParseError):
        return None
    if values.shape[1] != len(header) or not np.all(np.isfinite(values)):
        return None
    return SeriesTable(
        names=tuple(names), values=(values[:, 1:] if drop_first else values).T
    )


def _load_rows(path: str, delimiter: str) -> SeriesTable:
    """Parse cell by cell with ``float``: the reference, and the path that
    names the row and column of the first bad cell."""
    try:
        handle = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise PipelineIOError(f"cannot open {path}: {exc}") from exc

    with handle:
        try:
            records = list(_records(handle, delimiter, path))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None

    if not records:
        raise EmptyInputError(f"{path}: no header row found")
    if len(records) < 2:
        raise EmptyInputError(f"{path}: header but no data rows")

    rows = records[1:]
    names, drop_first = _columns(records[0][0], rows[0][0])
    if not names:
        raise EmptyInputError(f"{path}: no variate columns after dropping timestamp")

    parsed = np.empty((len(rows), len(names)), dtype=np.float64)
    for r, (row, line_num) in enumerate(rows):
        cells = row[1:] if drop_first else row
        if len(cells) != len(names):
            raise ParseError(
                f"{path}:{line_num}: expected {len(names)} values, found {len(cells)}"
            )
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}:{line_num}: non-numeric value {cell.strip()!r} "
                    f"in column {names[c]!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(
                    f"{path}:{line_num}: non-finite value {cell.strip()!r} "
                    f"in column {names[c]!r}"
                )
            parsed[r, c] = value

    return SeriesTable(names=tuple(names), values=parsed.T)


def write_csv(table: SeriesTable, path: str, delimiter: str = ",") -> None:
    """Write a SeriesTable in the same column-per-variate format load_csv reads."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(table.names)
            for col in table.values.T:
                writer.writerow([f"{v:.12g}" for v in col])
    except OSError as exc:
        raise PipelineIOError(f"cannot write {path}: {exc}") from exc


def sliding_windows(
    table: SeriesTable, lookback: int, horizon: int = 0, stride: int = 1
) -> list[MultivariateWindow]:
    """Cut the table into lookback/horizon windows ordered by start offset.

    Produces ``floor((L - T - H) / stride) + 1`` windows; each horizon is the
    ``H`` columns immediately following its lookback. Windows share storage
    with the (immutable) table.
    """
    if lookback < 2:
        raise ParameterError(f"lookback must be >= 2, got {lookback}")
    if horizon < 0:
        raise ParameterError(f"horizon must be >= 0, got {horizon}")
    if stride < 1:
        raise ParameterError(f"stride must be >= 1, got {stride}")
    length = table.length
    if length < lookback + horizon:
        raise InsufficientLengthError(
            f"need at least {lookback + horizon} timestamps, table has {length}"
        )
    count = (length - lookback - horizon) // stride + 1
    windows = []
    for i in range(count):
        s = i * stride
        hor = table.values[:, s + lookback : s + lookback + horizon] if horizon else None
        windows.append(
            MultivariateWindow(data=table.values[:, s : s + lookback], start=s, horizon=hor)
        )
    return windows


def batch_windows(
    windows: list[MultivariateWindow], batch_size: int
) -> list[WindowBatch]:
    """Chunk windows into consecutive batches; the final batch may be short."""
    if batch_size < 1:
        raise ParameterError(f"batch size must be >= 1, got {batch_size}")
    if not windows:
        raise ParameterError("no windows to batch")
    return [
        WindowBatch(windows=tuple(windows[i : i + batch_size]))
        for i in range(0, len(windows), batch_size)
    ]


def chronological_split(
    table: SeriesTable, spec: SplitSpec
) -> tuple[SeriesTable, SeriesTable, SeriesTable]:
    """Split into contiguous train/val/test parts in time order.

    Val and test receive exactly ``floor(frac * L)`` timestamps each; the
    remainder goes to train. Concatenating the three parts reproduces the
    original table.
    """
    length = table.length
    val_len = int(spec.val_frac * length)
    test_len = int(spec.test_frac * length)
    train_len = length - val_len - test_len
    if train_len < 1 or val_len < 1 or test_len < 1:
        raise SplitError(
            f"split of L={length} leaves an empty part "
            f"(train={train_len}, val={val_len}, test={test_len})"
        )
    parts = []
    offset = 0
    for part_len in (train_len, val_len, test_len):
        parts.append(
            SeriesTable(
                names=table.names,
                values=table.values[:, offset : offset + part_len],
            )
        )
        offset += part_len
    return parts[0], parts[1], parts[2]


@dataclass(frozen=True)
class Prototype:
    """A latent pattern: sinusoids at integer bins of the base period."""

    bins: tuple[int, ...]
    amps: tuple[float, ...]
    phases: tuple[float, ...]


@dataclass(frozen=True)
class SynthDetail:
    """Synthetic table together with its ground-truth redundancy structure."""

    table: SeriesTable
    labels: tuple[int, ...]
    prototypes: tuple[Prototype, ...]
    period: int
    seed: int = 0
    noise_sigma: float = 0.0


def _draw_prototypes(rng: np.random.Generator, count: int, max_bin: int) -> list[Prototype]:
    # Signatures (first three bins in descending-amplitude order) are kept
    # pairwise distinct so hashing at three dominant frequencies separates
    # every prototype even under mild noise.
    prototypes: list[Prototype] = []
    seen: set[tuple[int, ...]] = set()
    attempts = 0
    while len(prototypes) < count:
        attempts += 1
        if attempts > 200 * count:
            raise ParameterError(
                f"cannot draw {count} prototypes with distinct signatures from bins 1..{max_bin}"
            )
        m = int(rng.integers(3, 5))
        bins = rng.choice(np.arange(1, max_bin + 1), size=m, replace=False)
        amp = float(rng.uniform(3.0, 3.6))
        amps = []
        for _ in range(m):
            amps.append(amp)
            amp -= float(rng.uniform(0.4, 0.7))
        signature = tuple(int(b) for b in bins[:3])
        if signature in seen:
            continue
        seen.add(signature)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
        prototypes.append(
            Prototype(
                bins=tuple(int(b) for b in bins),
                amps=tuple(amps),
                phases=tuple(float(p) for p in phases),
            )
        )
    return prototypes


def synth_redundant_detail(
    n_variates: int,
    n_prototypes: int,
    length: int,
    noise_sigma: float,
    seed: int,
    period: int = 96,
) -> SynthDetail:
    """Generate a redundant table and return it with its ground truth.

    Each of ``n_prototypes`` latent prototypes is a sum of sinusoids at
    distinct integer bins of ``period`` (so any ``period``-length window sees
    them leakage-free), with strictly descending, well-separated amplitudes.
    Variates are assigned to prototypes round-robin and perturbed by i.i.d.
    Gaussian noise of the given sigma. Deterministic per seed.
    """
    if not 1 <= n_prototypes <= n_variates:
        raise ParameterError(
            f"need 1 <= prototypes <= variates, got {n_prototypes} and {n_variates}"
        )
    if noise_sigma < 0:
        raise ParameterError(f"noise sigma must be >= 0, got {noise_sigma}")
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if period < 10:
        raise ParameterError(f"period must be >= 10, got {period}")

    rng = np.random.default_rng(seed)
    max_bin = min(20, period // 2 - 1)
    prototypes = _draw_prototypes(rng, n_prototypes, max_bin)

    t = np.arange(length, dtype=np.float64)
    signals = np.zeros((n_prototypes, length))
    for g, proto in enumerate(prototypes):
        for b, a, p in zip(proto.bins, proto.amps, proto.phases):
            signals[g] += a * np.sin(2.0 * np.pi * b * t / period + p)

    labels = tuple(i % n_prototypes for i in range(n_variates))
    values = signals[np.array(labels)]
    if noise_sigma > 0:
        values = values + noise_sigma * rng.standard_normal((n_variates, length))

    names = tuple(f"v{i:03d}" for i in range(n_variates))
    table = SeriesTable(names=names, values=values)
    return SynthDetail(
        table=table,
        labels=labels,
        prototypes=tuple(prototypes),
        period=period,
        seed=seed,
        noise_sigma=noise_sigma,
    )


def synth_redundant(
    n_variates: int,
    n_prototypes: int,
    length: int,
    noise_sigma: float,
    seed: int,
    period: int = 96,
) -> SeriesTable:
    """Like synth_redundant_detail but returning only the table."""
    return synth_redundant_detail(
        n_variates, n_prototypes, length, noise_sigma, seed, period=period
    ).table
