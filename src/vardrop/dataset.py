"""Series ingestion, sliding windows, chronological splits, synthetic data.

The unit of work downstream is the window batch: ``B`` lookback windows
held as one read-only ``B x N x T`` view of a longer ``N x L`` table of
variates, paired with the ``B x N x H`` view of the horizons that
immediately follow them (``B x N x 0`` when ``H = 0``). This module owns
loading tables from CSV, cutting them into window batches, splitting them
chronologically, and generating seeded synthetic tables with a known
redundancy structure (``G`` latent prototypes shared by ``N`` variates).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ParameterError, ParseError, PipelineIOError, require

__all__ = [
    "SeriesTable",
    "WindowBatch",
    "SplitSpec",
    "Prototype",
    "SynthDetail",
    "load_csv",
    "write_csv",
    "sliding_windows",
    "batch_windows",
    "chronological_split",
    "synth_redundant_detail",
]


def _read_only_owner(array: np.ndarray) -> np.ndarray | None:
    """The array that owns ``array``'s memory, or None unless it is read-only
    and so is every array down the chain of bases to it."""
    # A read-only view of a writable array can still change under it.
    while isinstance(array, np.ndarray) and not array.flags.writeable:
        if array.base is None:
            return array
        array = array.base
    return None


def _read_only(array) -> np.ndarray:
    """The one keep-or-copy rule: a float64 array read-only down its chain of
    bases is kept, and anything else becomes a read-only float64 C-ordered copy."""
    if _read_only_owner(array) is None or array.dtype != np.float64:
        array = np.array(array, dtype=np.float64, order="C")
        array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SeriesTable:
    """An immutable ``N x L`` table: one row per variate, one column per step.

    All rows share the length ``L`` and every value is finite; both are
    enforced at construction so downstream code never re-validates. Values
    read-only down their chain of bases (another table's, or a view of them)
    are kept; anything else becomes a read-only float64 copy.
    """

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _read_only(self.values)
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
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n_variates(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowBatch:
    """``B`` windows sharing ``N``, ``T`` and ``H``, held as two read-only arrays.

    ``data`` is the ``B x N x T`` lookbacks; ``horizon`` is the ``B x N x H``
    horizons that follow them, ``B x N x 0`` when ``H = 0``. A batch never changes:
    a float64 array read-only down its chain of bases (a ``SeriesTable`` view)
    is kept, and any other is replaced by a read-only float64 copy. ``memo``
    holds results derived from ``data``, keyed by their settings.
    """

    data: np.ndarray
    horizon: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("data", "horizon"):
            if not isinstance(getattr(self, name), np.ndarray):
                kind = type(getattr(self, name)).__name__
                raise ParameterError(f"batch {name} must be a numpy array, got {kind}")
        shape = self.data.shape
        if len(shape) != 3 or shape[0] < 1 or shape[2] < 2:
            raise ParameterError(
                f"batch data must be B x N x T with B >= 1 and T >= 2, got shape {shape}"
            )
        horizon = self.horizon
        if horizon.ndim != 3 or horizon.shape[:2] != shape[:2]:
            raise ParameterError(f"horizon of shape {horizon.shape} for data of shape {shape}")
        for name in ("data", "horizon"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def n_variates(self) -> int:
        return self.data.shape[1]

    @property
    def lookback(self) -> int:
        return self.data.shape[2]

    @property
    def horizon_length(self) -> int:
        return self.horizon.shape[2]

    def data_tensor(self) -> np.ndarray:
        """The ``B x N x T`` lookbacks."""
        return self.data


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions; must sum to one."""

    train_frac: float
    val_frac: float
    test_frac: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            require(f.name, 0.0 <= value <= 1.0, "[0, 1]", value)
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(
                f"train_frac/val_frac/test_frac: must sum to 1, got {total!r}"
            )


_TIMESTAMP_HEADERS = ("date", "time", "timestamp", "datetime")


def _check_delimiter(delimiter: str) -> None:
    """A delimiter is one character other than a line break, which ends a row."""
    require("delimiter", len(delimiter) == 1, "one-character strings", repr(delimiter))
    breaks = delimiter in "\n\r"
    require("delimiter", not breaks, "characters other than line breaks", repr(delimiter))


def load_csv(path: str, delimiter: str = ",") -> SeriesTable:
    """Read a variates-in-columns CSV into a SeriesTable.

    The file is UTF-8, with or without a byte-order mark; any other bytes
    raise ParseError. A row whose first cell starts with ``#`` is a comment,
    whatever else it holds. The first non-comment row is the header of
    variate names. A leading timestamp column is dropped: one headed
    ``date``, ``time``, ``timestamp`` or ``datetime`` (any case), or whose
    first data cell is non-numeric. Any NaN/Inf or non-numeric cell aborts
    the load with the offending row/column named; imputation is deliberately
    not attempted. The delimiter is one character other than a line break.

    The body is parsed by numpy's C reader. Whatever that reader cannot take
    as a whole (a comment row after the header, a bad cell, the quote
    character as delimiter) goes to the row-by-row parser, which returns the
    same table or raises the error that names the row and column.
    """
    _check_delimiter(delimiter)
    table = _load_body(path, delimiter)
    return table if table is not None else _load_rows(path, delimiter)


def _records(handle, delimiter: str, path: str):
    """Yield ``(row, line_num)`` for every row that is neither blank nor a comment.

    Like numpy's reader it has no cell-size limit: ``csv``'s process-wide
    limit is lifted from the first row read until the generator finishes or
    is closed (2**31 - 1 fits a C long everywhere). A row ``csv`` still
    cannot read raises ParseError naming ``path`` and the line.
    """
    limit = csv.field_size_limit(2**31 - 1)
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        for row in reader:
            if row and not row[0].lstrip().startswith("#"):
                yield row, reader.line_num
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    finally:
        csv.field_size_limit(limit)


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
    if delimiter == '"':  # numpy's reader refuses it (TypeError)
        return None
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            records = _records(handle, delimiter, path)
            (header, skip), (first_row, _) = next(records), next(records)
            records.close()  # restores the field limit; an error already did
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
    if values.shape[1] != len(header):
        return None
    try:
        # the table's own finiteness check is the one pass over the values
        return SeriesTable(
            names=tuple(names), values=(values[:, 1:] if drop_first else values).T
        )
    except ParameterError:
        return None


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
        raise ParseError(f"{path}: no header row found")
    if len(records) < 2:
        raise ParseError(f"{path}: header but no data rows")

    rows = records[1:]
    names, drop_first = _columns(records[0][0], rows[0][0])
    if not names:
        raise ParseError(f"{path}: no variate columns after dropping timestamp")

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
    _check_delimiter(delimiter)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
            writer.writerow(table.names)
            for col in table.values.T:
                writer.writerow([f"{v:.12g}" for v in col])
    except OSError as exc:
        raise PipelineIOError(f"cannot write {path}: {exc}") from exc


def sliding_windows(
    table: SeriesTable, lookback: int, horizon: int = 0, stride: int = 1
) -> WindowBatch:
    """Cut the table into lookback/horizon windows ordered by start offset.

    Returns one batch of ``floor((L - T - H) / stride) + 1`` windows; window
    ``b`` starts at column ``b * stride``, and its horizon holds the ``H``
    columns immediately following its lookback (none when ``H = 0``). Both
    arrays are read-only strided views of the (immutable) table, so the batch
    keeps them: no value is copied, also when the table is itself a view,
    such as a ``chronological_split`` part.
    """
    require("lookback", lookback >= 2, "[2, inf)", lookback)
    require("horizon", horizon >= 0, "[0, inf)", horizon)
    require("stride", stride >= 1, "[1, inf)", stride)
    values = table.values
    length = table.length
    if length < lookback + horizon:
        raise ParameterError(
            f"need at least {lookback + horizon} timestamps, table has {length}"
        )
    count = (length - lookback - horizon) // stride + 1
    row, col = values.strides
    # np.ndarray refuses a non-contiguous buffer, such as a split's view, so
    # the windows index the table's read-only owner from its first value.
    owner = _read_only_owner(values)
    windows = np.ndarray(
        (count, table.n_variates, lookback + horizon),
        np.float64,
        buffer=owner,
        offset=values.__array_interface__["data"][0] - owner.__array_interface__["data"][0],
        strides=(stride * col, row, col),
    )
    return WindowBatch(windows[:, :, :lookback], windows[:, :, lookback:])


def batch_windows(windows: WindowBatch, batch_size: int) -> list[WindowBatch]:
    """Slice windows into consecutive batches; the final batch may be short."""
    require("batch_size", batch_size >= 1, "[1, inf)", batch_size)
    return [
        WindowBatch(windows.data[i : i + batch_size], windows.horizon[i : i + batch_size])
        for i in range(0, windows.size, batch_size)
    ]


def chronological_split(
    table: SeriesTable, spec: SplitSpec
) -> tuple[SeriesTable, SeriesTable, SeriesTable]:
    """Split into contiguous train/val/test parts in time order.

    Val and test receive exactly ``floor(frac * L)`` timestamps each; the
    remainder goes to train. Concatenating the three parts reproduces the
    original table. Each part's values are a read-only view of the table's:
    no value is copied.
    """
    length = table.length
    val_len = int(spec.val_frac * length)
    test_len = int(spec.test_frac * length)
    train_len = length - val_len - test_len
    if train_len < 1 or val_len < 1 or test_len < 1:
        raise ParameterError(
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
    require(
        "n_prototypes",
        1 <= n_prototypes <= n_variates,
        f"[1, {n_variates}] (at most n_variates)",
        n_prototypes,
    )
    require("noise_sigma", 0 <= noise_sigma < math.inf, "[0, inf)", noise_sigma)
    require("length", length >= 1, "[1, inf)", length)
    require("period", period >= 10, "[10, inf)", period)
    require("seed", seed >= 0, "[0, inf)", seed)

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
        # a huge sigma overflows to inf, which SeriesTable refuses by name
        with np.errstate(over="ignore"):
            values = values + noise_sigma * rng.standard_normal((n_variates, length))

    names = tuple(f"v{i:03d}" for i in range(n_variates))
    table = SeriesTable(names=names, values=values)
    return SynthDetail(table=table, labels=labels, prototypes=tuple(prototypes))
