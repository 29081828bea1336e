"""Command-line runner: config handling, subcommands, report emission.

Subcommands: synth, hash, reduce, analyze, train, sweep, bench. Each is a
thin composition over the library modules; no numerical logic lives here.

Configuration is a flat ``key=value`` text file. Precedence: built-in
defaults, then the config file, then ``--key=value`` command-line
overrides; nothing else, the environment included, sets a key. Unknown
keys, and a key set twice in the config file, are hard errors. A key given
twice as an override is not: the last override wins.

Reports are byte-stable: floats are serialized with 12 significant digits,
JSON keys are emitted in sorted order, and wall-clock timings go only to
stdout and ``timing.txt``, never into JSON or CSV artifacts.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .analysis import (
    correlation_shift,
    pearson_matrix,
    redundancy_profile,
    sensitivity_sweep,
)
from .dataset import (
    SeriesTable,
    SplitSpec,
    SynthDetail,
    WindowBatch,
    batch_windows,
    chronological_split,
    load_csv,
    sliding_windows,
    synth_redundant_detail,
    write_csv,
)
from .errors import (
    NumericError,
    ParameterError,
    ParseError,
    PipelineIOError,
    VardropError,
    require,
)
from .model import (
    TrainSettings,
    count_flops,
    hash_groups,
    initialize_params,
    plan_batch,
    train_epoch,
    validation_loss,
)
from .reduction import GroupTable

__all__ = ["RunConfig", "validate_config", "parse_config_file", "main"]

_EXIT_CODES = {"parse": 2, "validation": 3, "numeric": 4, "io": 5}


@dataclass(frozen=True)
class RunConfig(TrainSettings):
    """Fully defaulted run configuration that range-checks itself when built.

    Each field is one config key. The training keys are TrainSettings' own
    fields, defaults and checks; the keys declared here are the rest, and
    ``__post_init__`` checks them, so a config built from text, in code or
    by ``dataclasses.replace`` passes the same checks. A field's annotation,
    a string under postponed evaluation, names the kind validate_config
    parses the key as and TrainSettings checks its value against; its
    default is the built-in default.
    """

    data: str = ""
    delimiter: str = ","
    synth_n: int = 64
    synth_g: int = 8
    synth_sigma: float = 0.05
    synth_length: int = 4096
    T: int = 96
    H: int = 96
    B: int = 32
    stride: int = 1
    d: int = 64
    d_k: int = 32
    epochs: int = 10
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    corr_threshold: float = 0.9
    shift_count: int = 4
    sweep_ks: tuple[int, ...] = (2, 3, 4, 5)
    sweep_gss: tuple[int, ...] = (1, 5, 10, 15)
    bench_n: int = 64
    bench_delta: float = 0.5

    def __post_init__(self) -> None:
        super().__post_init__()
        one_char = len(self.delimiter) == 1
        require("delimiter", one_char, "one-character strings", repr(self.delimiter))
        require("T", self.T >= 2, "[2, inf)", self.T)
        require("H", self.H >= 0, "[0, inf)", self.H)
        require("B", self.B >= 1, "[1, inf)", self.B)
        require("stride", self.stride >= 1, "[1, inf)", self.stride)
        require(
            "epsilon",
            self.epsilon <= self.T // 2,
            f"[1, {self.T // 2}] (floor(T/2) for T={self.T})",
            self.epsilon,
        )
        require("d", self.d >= 1, "[1, inf)", self.d)
        require("d_k", self.d_k >= 1, "[1, inf)", self.d_k)
        require("epochs", self.epochs >= 1, "[1, inf)", self.epochs)
        require("synth_n", self.synth_n >= 1, "[1, inf)", self.synth_n)
        require(
            "synth_g",
            1 <= self.synth_g <= self.synth_n,
            f"[1, {self.synth_n}] (at most synth_n)",
            self.synth_g,
        )
        require("synth_sigma", self.synth_sigma >= 0, "[0, inf)", self.synth_sigma)
        require("synth_length", self.synth_length >= 1, "[1, inf)", self.synth_length)
        _split_spec(self)  # checks the split fractions
        corr = self.corr_threshold
        require("corr_threshold", -1.0 <= corr <= 1.0, "[-1, 1]", corr)
        require("shift_count", self.shift_count >= 1, "[1, inf)", self.shift_count)
        require("bench_n", self.bench_n >= 1, "[1, inf)", self.bench_n)
        require("bench_delta", 0.0 <= self.bench_delta < 1.0, "[0, 1)", self.bench_delta)
        # a sweep checks each (k, gs) cell against epsilon before training any
        for key in ("sweep_ks", "sweep_gss"):
            for v in getattr(self, key):
                require(key, v >= 1, "[1, inf) per entry", v)


def _parse_bool(key: str, text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ParameterError(f"{key}: expected a boolean, got {text!r}")


def _parse_scalar(key: str, kind: str, text: str):
    if kind == "str":
        return text
    if kind == "bool":
        return _parse_bool(key, text)
    if kind == "tuple[int, ...]":
        return _parse_int_list(key, text)
    try:
        if kind == "int":
            return int(text)
        return float(text)
    except ValueError:
        raise ParameterError(f"{key}: expected {kind}, got {text!r}") from None


def _parse_int_list(key: str, text: str) -> tuple[int, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise ParameterError(f"{key}: expected a comma-separated list of integers")
    try:
        return tuple(int(piece) for piece in items)
    except ValueError:
        raise ParameterError(
            f"{key}: expected a comma-separated list of integers, got {text!r}"
        ) from None


def validate_config(raw: dict[str, str]) -> RunConfig:
    """Parse raw key-value strings into a RunConfig, which checks itself.

    Unknown keys are hard errors. Each key parses by its field's annotation,
    in field order; a sweep list parses to a tuple of ints. Every range
    check is the dataclasses' own: TrainSettings', RunConfig's and
    SplitSpec's.
    """
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")

    values = {
        f.name: _parse_scalar(f.name, f.type, raw[f.name])
        for f in fields(RunConfig)
        if f.name in raw
    }
    return RunConfig(**values)


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value config file; '#' comments and blank lines skipped.

    A key set on two lines is a ``ParseError`` naming the key and both lines.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise PipelineIOError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ParseError(
                f"{path}:{lineno}: key {key!r} repeated, first set on line {first_line[key]}"
            )
        raw[key] = value.strip()
        first_line[key] = lineno
    return raw


def _fmt(value) -> str:
    """Canonical scalar formatting: 12 significant digits for floats."""
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.12g floats, compact separators.

    JSON has no token for a non-finite float, so ``inf``, ``-inf`` and
    ``nan`` raise ``NumericError`` rather than reach a report.
    """

    def render(v) -> str:
        if v is None:
            return "null"
        if isinstance(v, (float, np.floating)) and not np.isfinite(v):
            raise NumericError(f"cannot serialize non-finite float {float(v)!r} to JSON")
        if isinstance(v, (bool, int, float, np.integer, np.floating)):
            return _fmt(v)
        if isinstance(v, str):
            return json.dumps(v)
        if isinstance(v, dict):
            inner = ",".join(
                f"{json.dumps(str(k))}:{render(val)}" for k, val in sorted(v.items())
            )
            return "{" + inner + "}"
        if isinstance(v, (list, tuple)):
            return "[" + ",".join(render(item) for item in v) + "]"
        if isinstance(v, np.ndarray):
            return render(v.tolist())
        raise ParameterError(f"cannot serialize {type(v).__name__} to JSON")

    return render(obj) + "\n"


def _write_text(path: Path, content: str) -> None:
    try:
        path.write_text(content, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise PipelineIOError(f"cannot write {path}: {exc}") from exc


def _write_csv_rows(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _echo_config(config: RunConfig) -> str:
    lines = [f"{f.name}={_fmt(getattr(config, f.name))}" for f in fields(config)]
    return "\n".join(sorted(lines)) + "\n"


def _synth(config: RunConfig) -> SynthDetail:
    # the synthetic period is T, so a too-short T is reported as T
    require("T", config.T >= 10, "[10, inf) for synthetic data", config.T)
    return synth_redundant_detail(
        config.synth_n,
        config.synth_g,
        config.synth_length,
        config.synth_sigma,
        config.seed,
        period=config.T,
    )


def _load_table(config: RunConfig) -> SeriesTable:
    if config.data:
        return load_csv(config.data, delimiter=config.delimiter)
    return _synth(config).table


def _split_spec(config: RunConfig) -> SplitSpec:
    return SplitSpec(config.train_frac, config.val_frac, config.test_frac)


def _batches(table: SeriesTable, config: RunConfig, horizon: int = 0):
    windows = sliding_windows(table, config.T, horizon, config.stride)
    return batch_windows(windows, config.B)


def _split_batches(table: SeriesTable, config: RunConfig):
    require("H", config.H >= 1, "[1, inf) for training", config.H)
    train, val, _ = chronological_split(table, _split_spec(config))
    return _batches(train, config, config.H), _batches(val, config, config.H)


def _write_hashes(config: RunConfig, batch: WindowBatch, out: Path) -> GroupTable:
    """Hash one batch, group it, and write ``hashes.json``; returns the groups."""
    groups = hash_groups(batch, config)
    hashes = [""] * batch.n_variates
    for key, idx in groups.groups.items():
        for i in idx:
            hashes[i] = key
    payload = {
        "k": config.k,
        "epsilon": config.epsilon,
        "hashes": hashes,
        "groups": {key: list(idx) for key, idx in groups.groups.items()},
    }
    _write_text(out / "hashes.json", canonical_json(payload))
    return groups


def _cmd_synth(config: RunConfig, out: Path) -> None:
    detail = _synth(config)
    write_csv(detail.table, str(out / "data.csv"), delimiter=config.delimiter)
    sidecar = {
        "labels": list(detail.labels),
        "prototypes": [
            {"bins": list(p.bins), "amps": list(p.amps)} for p in detail.prototypes
        ],
    }
    _write_text(out / "labels.json", canonical_json(sidecar))
    print(
        f"synth: wrote {detail.table.n_variates} variates x {detail.table.length} "
        f"timestamps, {len(detail.prototypes)} prototypes"
    )


def _cmd_hash(config: RunConfig, out: Path) -> None:
    table = _load_table(config)
    batch = _batches(table, config)[0]
    groups = _write_hashes(config, batch, out)
    print(f"hash: {batch.n_variates} variates -> {groups.G} groups")


def _reduction_stats(plans) -> tuple[float, float, float]:
    """Mean and population standard deviation (divide by n) of the kept-token
    counts, and the mean delta, over one ``(tokens, delta)`` pair per plan."""
    tokens, deltas = zip(*plans)
    counts = np.array(tokens, dtype=np.float64)
    return float(counts.mean()), float(counts.std()), float(np.mean(deltas, dtype=np.float64))


def _cmd_reduce(config: RunConfig, out: Path) -> None:
    table = _load_table(config)
    batches = _batches(table, config)
    plans = [plan_batch(batch, config, 0, i) for i, batch in enumerate(batches)]
    rows = [[i, len(plan.retained), plan.delta] for i, plan in enumerate(plans)]
    _write_csv_rows(out / "reduction.csv", ["iteration", "tokens_used", "delta"], rows)
    first = plans[0]
    payload = {
        "gs": config.gs,
        "seed": first.seed,
        "retained": list(first.retained),
        "delta": first.delta,
        "per_group": {key: list(idx) for key, idx in first.per_group.items()},
    }
    _write_text(out / "report.json", canonical_json(payload))
    mean_tokens, std_tokens, mean_delta = _reduction_stats(
        (len(p.retained), p.delta) for p in plans
    )
    print(
        f"reduce: {len(plans)} iterations, mean tokens "
        f"{_fmt(mean_tokens)} +- {_fmt(std_tokens)}, mean delta {_fmt(mean_delta)}"
    )


def _cmd_analyze(config: RunConfig, out: Path) -> None:
    table = _load_table(config)
    train, _, _ = chronological_split(table, _split_spec(config))
    if train.length < config.T:
        raise ParameterError(
            f"T: training split of length {train.length} is shorter than T={config.T}"
        )
    rho = pearson_matrix(train.values[:, -config.T :])
    _write_csv_rows(out / "corr_matrix.csv", list(table.names), [list(row) for row in rho])
    profile = redundancy_profile(rho, config.corr_threshold)
    # rounding can put a duplicate variate's correlation just past 1, and
    # np.histogram drops values outside its range
    max_corr = np.clip(profile.max_corr, -1.0, 1.0)
    counts, edges = np.histogram(max_corr, bins=40, range=(-1.0, 1.0))
    _write_csv_rows(out / "redundancy.csv", ["bin", "count"], list(zip(edges, counts)))
    span = table.length - config.T
    starts = sorted({round(span * i / max(1, config.shift_count - 1))
                     for i in range(config.shift_count)})
    shift = correlation_shift(table, config.T, starts)
    payload = {
        "T": config.T,
        "starts": starts,
        "max_shift": shift.max_shift,
        "mean_frobenius": shift.mean_frobenius,
        "pair_shift": shift.pair_shift,
    }
    _write_text(out / "shift.json", canonical_json(payload))
    print(
        f"analyze: strong_frac {_fmt(profile.strong_frac)} at threshold "
        f"{_fmt(config.corr_threshold)}, max shift {_fmt(shift.max_shift)}"
    )


def _cmd_train(config: RunConfig, out: Path) -> None:
    table = _load_table(config)
    train_batches, val_batches = _split_batches(table, config)
    params = initialize_params(config.T, config.H, config.d, config.d_k, config.seed)

    all_metrics = []
    epoch_rows = []
    timing_lines = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        params, metrics = train_epoch(train_batches, params, config, epoch)
        elapsed = time.perf_counter() - started
        all_metrics.extend(metrics)
        mean_loss = float(np.mean([m.loss for m in metrics]))
        mean_tokens, _, mean_delta = _reduction_stats((m.tokens_used, m.delta) for m in metrics)
        epoch_rows.append(
            {
                "epoch": epoch,
                "mean_loss": mean_loss,
                "mean_tokens": mean_tokens,
                "mean_delta": mean_delta,
            }
        )
        per_iter = elapsed / len(metrics)
        timing_lines.append(
            f"epoch {epoch}: {elapsed:.3f} s ({per_iter:.4f} s/iteration)"
        )
        print(
            f"epoch {epoch}: loss={_fmt(mean_loss)} tokens={_fmt(mean_tokens)} "
            f"delta={_fmt(mean_delta)} ({elapsed:.3f} s)"
        )

    mean_tokens, std_tokens, mean_delta = _reduction_stats(
        (m.tokens_used, m.delta) for m in all_metrics
    )
    val_loss = validation_loss(params, val_batches)

    arrays = {f.name: getattr(params, f.name) for f in fields(params)}
    shapes = {name: list(array.shape) for name, array in arrays.items()}
    report = {
        "epochs": epoch_rows,
        "reduction": {
            "mean_tokens": mean_tokens,
            "std_tokens": std_tokens,
            "mean_delta": mean_delta,
        },
        "flops": {
            "total": sum(m.flops for m in all_metrics),
            "attention": sum(m.attention_flops for m in all_metrics),
        },
        "val_loss": val_loss,
        "checkpoint": {"shapes": shapes, "seed": config.seed},
    }
    report_text = canonical_json(report)

    # nothing is written until the run has finished, and report.json goes
    # last, so its presence marks a complete run
    try:
        np.savez(out / "checkpoint.npz", **arrays, seed=np.array(config.seed))
    except OSError as exc:
        raise PipelineIOError(f"cannot write checkpoint: {exc}") from exc
    _write_csv_rows(
        out / "metrics.csv",
        ["epoch", "batch", "loss", "tokens_used", "delta", "flops"],
        [
            [m.epoch, m.batch_index, m.loss, m.tokens_used, m.delta, m.flops]
            for m in all_metrics
        ],
    )
    _write_csv_rows(
        out / "reduction.csv",
        ["iteration", "tokens_used", "delta"],
        [[i, m.tokens_used, m.delta] for i, m in enumerate(all_metrics)],
    )
    _write_hashes(config, train_batches[0], out)
    _write_text(out / "timing.txt", "\n".join(timing_lines) + "\n")
    _write_text(out / "report.json", report_text)
    print(f"train: done, val_loss={_fmt(val_loss)}")


def _cmd_sweep(config: RunConfig, out: Path) -> None:
    table = _load_table(config)
    train_batches, val_batches = _split_batches(table, config)
    cells = sensitivity_sweep(
        train_batches,
        val_batches,
        config.sweep_ks,
        config.sweep_gss,
        config,
        epochs=config.epochs,
        embed_dim=config.d,
        attn_dim=config.d_k,
    )
    _write_csv_rows(
        out / "sweep.csv",
        ["k", "gs", "delta", "val_loss"],
        [[c.k, c.gs, c.delta, c.val_loss] for c in cells],
    )
    print(
        f"sweep: {len(cells)} cells over k={list(config.sweep_ks)} "
        f"gs={list(config.sweep_gss)}"
    )


def _cmd_bench(config: RunConfig, out: Path) -> None:
    require("H", config.H >= 1, "[1, inf) for bench", config.H)
    n = config.bench_n
    delta = config.bench_delta
    n_reduced = max(1, round((1.0 - delta) * n))
    dense = count_flops(n, config.T, config.d, config.d_k, config.H)
    reduced = count_flops(n_reduced, config.T, config.d, config.d_k, config.H)

    def stages(ledger) -> dict:
        return {**asdict(ledger), "attention": ledger.attention, "total": ledger.total}

    ratio = reduced.attention / dense.attention
    payload = {
        "n": n,
        "delta": delta,
        "n_reduced": n_reduced,
        "dense": stages(dense),
        "reduced": stages(reduced),
        "attention_ratio": ratio,
        "predicted_ratio": (1.0 - delta) ** 2,
    }
    _write_text(out / "report.json", canonical_json(payload))
    print(
        f"bench: attention ratio {_fmt(ratio)} vs predicted "
        f"{_fmt((1.0 - delta) ** 2)} at delta={_fmt(delta)}"
    )


_COMMANDS = {
    "synth": _cmd_synth,
    "hash": _cmd_hash,
    "reduce": _cmd_reduce,
    "analyze": _cmd_analyze,
    "train": _cmd_train,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
}

_OVERRIDE_RE = re.compile(r"^--([A-Za-z_][A-Za-z_0-9]*)=(.*)$", re.DOTALL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vardrop",
        description="Variate-token reduction pipeline: hash, sample, train, analyze.",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("-c", "--config", help="key=value config file")
    parser.add_argument(
        "-o", "--out", default="vardrop_out", help="output directory (created)"
    )
    args, extras = parser.parse_known_args(argv)

    try:
        raw = parse_config_file(args.config) if args.config else {}
        for extra in extras:
            match = _OVERRIDE_RE.match(extra)
            if not match:
                raise ParameterError(
                    f"expected override of the form --key=value, got {extra!r}"
                )
            raw[match.group(1)] = match.group(2)
        config = validate_config(raw)

        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise PipelineIOError(f"cannot create output dir {out}: {exc}") from exc

        _write_text(out / "config.echo", _echo_config(config))
        _COMMANDS[args.subcommand](config, out)
    except VardropError as exc:
        print(f"error [{exc.category}]: {exc}", file=sys.stderr)
        return _EXIT_CODES[exc.category]
    return 0


if __name__ == "__main__":
    sys.exit(main())
