"""Command-line runner: config handling, subcommands, report emission.

Subcommands: synth, hash, reduce, analyze, train, sweep, bench. Each is a
thin composition over the library modules; no numerical logic lives here.

Configuration is a flat ``key=value`` text file. Precedence: built-in
defaults (seed falls back to the VARDROP_SEED environment variable), then
the config file, then ``--key=value`` command-line overrides. Unknown keys
are hard errors, never silently absorbed.

Reports are byte-stable: floats are serialized with 12 significant digits,
JSON keys are emitted in sorted order, and wall-clock timings go only to
stdout and ``timing.txt``, never into JSON or CSV artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
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
from .errors import ParameterError, ParseError, PipelineIOError, VardropError
from .model import (
    TrainSettings,
    count_flops,
    initialize_params,
    plan_batch,
    train_epoch,
    validation_loss,
)
from .reduction import GroupTable, group_by_hash, reduction_report
from .spectral import kdfh

__all__ = ["RunConfig", "validate_config", "parse_config_file", "main"]

_EXIT_CODES = {"parse": 2, "validation": 3, "numeric": 4, "io": 5}

@dataclass(frozen=True)
class RunConfig:
    """Fully defaulted, range-checked run configuration.

    Each field is one config key. Its annotation, a string under postponed
    evaluation, names the kind validate_config parses the key as; its default
    is the built-in default (seed's yields to VARDROP_SEED when that is set).
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
    k: int = 3
    epsilon: int = 25
    gs: int = 10
    d: int = 64
    d_k: int = 32
    lr: float = 0.01
    epochs: int = 10
    seed: int = 0
    vardrop_on: bool = True
    normalize_windows: bool = False
    train_frac: float = 0.7
    val_frac: float = 0.1
    test_frac: float = 0.2
    corr_threshold: float = 0.9
    shift_count: int = 4
    sweep_ks: str = "2,3,4,5"
    sweep_gss: str = "1,5,10,15"
    bench_n: int = 64
    bench_delta: float = 0.5


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
    try:
        if kind == "int":
            return int(text)
        return float(text)
    except ValueError:
        raise ParameterError(f"{key}: expected {kind}, got {text!r}") from None


def _require(key: str, ok: bool, interval: str, value) -> None:
    if not ok:
        raise ParameterError(f"{key}: must be in {interval}, got {value}")


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
    """Resolve raw key-value strings into a checked RunConfig.

    Unknown keys are hard errors. Every range violation names the key and the
    permitted interval. The seed default comes from VARDROP_SEED when set.
    """
    unknown = sorted(set(raw) - {f.name for f in fields(RunConfig)})
    if unknown:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")

    values: dict[str, object] = {}
    env_seed = os.environ.get("VARDROP_SEED")
    for f in fields(RunConfig):
        if f.name in raw:
            values[f.name] = _parse_scalar(f.name, f.type, raw[f.name])
        elif f.name == "seed" and env_seed is not None:
            values[f.name] = _parse_scalar("VARDROP_SEED", "int", env_seed)

    c = RunConfig(**values)
    _require("T", c.T >= 2, "[2, inf)", c.T)
    _require("H", c.H >= 0, "[0, inf)", c.H)
    _require("B", c.B >= 1, "[1, inf)", c.B)
    _require("stride", c.stride >= 1, "[1, inf)", c.stride)
    _require("k", c.k >= 1, "[1, inf)", c.k)
    _require(
        "epsilon",
        1 <= c.epsilon <= c.T // 2,
        f"[1, {c.T // 2}] (floor(T/2) for T={c.T})",
        c.epsilon,
    )
    _require("k", c.k <= c.epsilon, f"[1, {c.epsilon}] (at most epsilon)", c.k)
    _require("gs", c.gs >= 1, "[1, inf)", c.gs)
    _require("d", c.d >= 1, "[1, inf)", c.d)
    _require("d_k", c.d_k >= 1, "[1, inf)", c.d_k)
    _require("lr", c.lr > 0, "(0, inf)", c.lr)
    _require("epochs", c.epochs >= 1, "[1, inf)", c.epochs)
    _require("synth_n", c.synth_n >= 1, "[1, inf)", c.synth_n)
    _require(
        "synth_g",
        1 <= c.synth_g <= c.synth_n,
        f"[1, {c.synth_n}] (at most synth_n)",
        c.synth_g,
    )
    _require("synth_sigma", c.synth_sigma >= 0, "[0, inf)", c.synth_sigma)
    _require("synth_length", c.synth_length >= 1, "[1, inf)", c.synth_length)
    for key in ("train_frac", "val_frac", "test_frac"):
        _require(key, 0.0 <= getattr(c, key) <= 1.0, "[0, 1]", getattr(c, key))
    frac_sum = c.train_frac + c.val_frac + c.test_frac
    if abs(frac_sum - 1.0) > 1e-9:
        raise ParameterError(
            f"train_frac/val_frac/test_frac: must sum to 1, got {frac_sum!r}"
        )
    _require(
        "corr_threshold",
        -1.0 <= c.corr_threshold <= 1.0,
        "[-1, 1]",
        c.corr_threshold,
    )
    _require("shift_count", c.shift_count >= 1, "[1, inf)", c.shift_count)
    _require("bench_n", c.bench_n >= 1, "[1, inf)", c.bench_n)
    _require("bench_delta", 0.0 <= c.bench_delta < 1.0, "[0, 1)", c.bench_delta)
    # sweep lists are range-checked per cell at run time (k <= epsilon there);
    # here they only need to parse, and are normalized so echoes are canonical
    normalized = {}
    for key in ("sweep_ks", "sweep_gss"):
        entries = _parse_int_list(key, getattr(c, key))
        for v in entries:
            _require(key, v >= 1, "[1, inf) per entry", v)
        normalized[key] = ",".join(str(v) for v in entries)
    return replace(c, **normalized)


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value config file; '#' comments and blank lines skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PipelineIOError(f"cannot read config {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _fmt(value) -> str:
    """Canonical scalar formatting: 12 significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.12g" % float(value)
    return str(value)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.12g floats, compact separators."""

    def render(v) -> str:
        if v is None:
            return "null"
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


def _settings(config: RunConfig) -> TrainSettings:
    # every TrainSettings field is also a config key of the same name
    return TrainSettings(
        **{f.name: getattr(config, f.name) for f in fields(TrainSettings)}
    )


def _lookback_batches(table: SeriesTable, config: RunConfig):
    windows = sliding_windows(table, config.T, 0, config.stride)
    return batch_windows(windows, config.B)


def _split_batches(table: SeriesTable, config: RunConfig):
    if config.H < 1:
        raise ParameterError("H: must be in [1, inf) for training, got 0")
    spec = SplitSpec(config.train_frac, config.val_frac, config.test_frac)
    train, val, _ = chronological_split(table, spec)
    train_batches = batch_windows(
        sliding_windows(train, config.T, config.H, config.stride), config.B
    )
    val_batches = batch_windows(
        sliding_windows(val, config.T, config.H, config.stride), config.B
    )
    return train_batches, val_batches


def _write_hashes(config: RunConfig, batch: WindowBatch, out: Path) -> GroupTable:
    """Hash one batch, group it, and write ``hashes.json``; returns the groups."""
    hashes = kdfh(batch, config.k, config.epsilon, normalize=config.normalize_windows)
    groups = group_by_hash(hashes)
    payload = {
        "k": config.k,
        "epsilon": config.epsilon,
        "hashes": [h.text for h in hashes],
        "groups": {key.text: list(idx) for key, idx in groups.groups.items()},
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
    batch = _lookback_batches(table, config)[0]
    groups = _write_hashes(config, batch, out)
    print(f"hash: {batch.n_variates} variates -> {groups.G} groups")


def _cmd_reduce(config: RunConfig, out: Path) -> None:
    table = _load_table(config)
    settings = _settings(config)
    batches = _lookback_batches(table, config)
    plans = [plan_batch(batch, settings, 0, i) for i, batch in enumerate(batches)]
    rows = [[i, len(plan.retained), plan.delta] for i, plan in enumerate(plans)]
    _write_csv_rows(out / "reduction.csv", ["iteration", "tokens_used", "delta"], rows)
    first = plans[0]
    payload = {
        "gs": first.gs,
        "seed": first.seed,
        "retained": list(first.retained),
        "delta": first.delta,
        "per_group": {key.text: list(idx) for key, idx in first.per_group.items()},
    }
    _write_text(out / "report.json", canonical_json(payload))
    summary = reduction_report(plans)
    print(
        f"reduce: {summary.n_plans} iterations, mean tokens "
        f"{_fmt(summary.mean_tokens)} +- {_fmt(summary.std_tokens)}, "
        f"mean delta {_fmt(summary.mean_delta)}"
    )


def _cmd_analyze(config: RunConfig, out: Path) -> None:
    table = _load_table(config)
    spec = SplitSpec(config.train_frac, config.val_frac, config.test_frac)
    train, _, _ = chronological_split(table, spec)
    if train.length < config.T:
        raise ParameterError(
            f"T: training split of length {train.length} is shorter than T={config.T}"
        )
    windows = sliding_windows(train, config.T, 0, 1)
    matrix = pearson_matrix(windows[-1])
    _write_csv_rows(
        out / "corr_matrix.csv",
        list(table.names),
        [list(row) for row in matrix.rho],
    )
    profile = redundancy_profile(matrix, config.corr_threshold)
    edges = [i * 0.05 - 1.0 for i in range(41)]
    counts = [0] * 40
    for value in profile.max_corr:
        slot = min(39, max(0, int((value + 1.0) / 0.05)))
        counts[slot] += 1
    _write_csv_rows(
        out / "redundancy.csv",
        ["bin", "count"],
        [[edges[i], counts[i]] for i in range(40)],
    )
    span = table.length - config.T
    starts = sorted({round(span * i / max(1, config.shift_count - 1))
                     for i in range(config.shift_count)})
    shift = correlation_shift(table, config.T, starts)
    payload = {
        "T": config.T,
        "starts": list(shift.starts),
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
    settings = _settings(config)
    params = initialize_params(config.T, config.H, config.d, config.d_k, config.seed)
    _write_hashes(config, train_batches[0], out)

    all_metrics = []
    epoch_rows = []
    timing_lines = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        params, metrics = train_epoch(train_batches, params, settings, epoch)
        elapsed = time.perf_counter() - started
        all_metrics.extend(metrics)
        mean_loss = float(np.mean([m.loss for m in metrics]))
        mean_tokens = float(np.mean([m.tokens_used for m in metrics]))
        mean_delta = float(np.mean([m.delta for m in metrics]))
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

    tokens = np.array([m.tokens_used for m in all_metrics], dtype=np.float64)
    deltas = np.array([m.delta for m in all_metrics], dtype=np.float64)
    attention_total = 0
    for m in all_metrics:
        batch_size = train_batches[m.batch_index].size
        attention_total += batch_size * count_flops(
            m.tokens_used, config.T, config.d, config.d_k, config.H
        ).attention
    val_loss = validation_loss(params, val_batches)

    arrays = {f.name: getattr(params, f.name) for f in fields(params)}
    shapes = {name: list(array.shape) for name, array in arrays.items()}
    report = {
        "epochs": epoch_rows,
        "reduction": {
            "mean_tokens": float(tokens.mean()),
            "std_tokens": float(tokens.std()),
            "mean_delta": float(deltas.mean()),
        },
        "flops": {
            "total": int(sum(m.flops for m in all_metrics)),
            "attention": int(attention_total),
        },
        "val_loss": val_loss,
        "checkpoint": {"shapes": shapes, "seed": config.seed},
    }
    _write_text(out / "report.json", canonical_json(report))
    try:
        np.savez(out / "checkpoint.npz", **arrays, seed=np.array(config.seed))
    except OSError as exc:
        raise PipelineIOError(f"cannot write checkpoint: {exc}") from exc
    _write_text(out / "timing.txt", "\n".join(timing_lines) + "\n")
    print(f"train: done, val_loss={_fmt(val_loss)}")


def _cmd_sweep(config: RunConfig, out: Path) -> None:
    table = _load_table(config)
    train_batches, val_batches = _split_batches(table, config)
    ks = _parse_int_list("sweep_ks", config.sweep_ks)
    gss = _parse_int_list("sweep_gss", config.sweep_gss)
    result = sensitivity_sweep(
        train_batches,
        val_batches,
        ks,
        gss,
        epochs=config.epochs,
        lr=config.lr,
        epsilon=config.epsilon,
        embed_dim=config.d,
        attn_dim=config.d_k,
        seed=config.seed,
        normalize_windows=config.normalize_windows,
    )
    _write_csv_rows(
        out / "sweep.csv",
        ["k", "gs", "delta", "val_loss"],
        [[c.k, c.gs, c.delta, c.val_loss] for c in result.records],
    )
    print(f"sweep: {len(result.records)} cells over k={list(ks)} gs={list(gss)}")


def _cmd_bench(config: RunConfig, out: Path) -> None:
    if config.H < 1:
        raise ParameterError("H: must be in [1, inf) for bench, got 0")
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
        return _EXIT_CODES.get(exc.category, 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
