"""Command-line runner: config parsing, subcommand dispatch, artifact writing.

Subcommands: synth, hash, train. Each is a thin composition over the
library modules; no numerical logic lives here. ``RunConfig`` and the run
itself live in ``vardrop.model``: ``train`` is one ``run``, and a grid over
k and gs is a loop over ``run`` in library code.

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
from dataclasses import fields
from pathlib import Path

import numpy as np

from .dataset import WindowBatch, batch_windows, sliding_windows, write_csv
from .errors import (
    NumericError,
    ParameterError,
    ParseError,
    PipelineIOError,
    VardropError,
)
from .model import RunConfig, count_flops, hash_groups, load_table, run, split_batches
from .reduction import GroupTable

__all__ = ["validate_config", "parse_config_file", "main"]

_EXIT_CODES = {"parse": 2, "validation": 3, "numeric": 4, "io": 5}


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


def validate_config(raw: dict[str, str]) -> RunConfig:
    """Parse raw key-value strings into a RunConfig, which checks itself.

    Unknown keys are hard errors. Each key parses by its field's annotation,
    in field order. Every range check is the dataclasses' own: RunConfig's
    and SplitSpec's.
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

    Keys and values are stripped, except a value that is all whitespace,
    such as a tab delimiter, which is kept as written.

    A line with no ``=``, or nothing before it, is a ``ParseError`` naming
    the line, and a key set on two lines is one naming the key and both lines.
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
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key in raw:
            raise ParseError(
                f"{path}:{lineno}: key {key!r} repeated, first set on line {first_line[key]}"
            )
        raw[key] = value.strip() or value
        first_line[key] = lineno
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
    detail = config.synth_detail()
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
    table = load_table(config)
    if table.length < config.T:
        raise ParameterError(f"T: table of length {table.length} is shorter than T={config.T}")
    batch = batch_windows(sliding_windows(table, config.T, 0, config.stride), config.B)[0]
    groups = _write_hashes(config, batch, out)
    print(f"hash: {batch.n_variates} variates -> {groups.G} groups")


def _reduction_stats(plans) -> tuple[float, float, float]:
    """Mean and population standard deviation (divide by n) of the kept-token
    counts, and the mean delta, over one ``(tokens, delta)`` pair per batch."""
    tokens, deltas = zip(*plans)
    counts = np.array(tokens, dtype=np.float64)
    return float(counts.mean()), float(counts.std()), float(np.mean(deltas, dtype=np.float64))


def _cmd_train(config: RunConfig, out: Path) -> None:
    train_batches, val_batches = split_batches(load_table(config), config)

    epoch_rows = []
    timing_lines = []

    def log_epoch(epoch: int, metrics, elapsed: float) -> None:
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

    result = run(config, train_batches, val_batches, log_epoch)
    mean_tokens, std_tokens, mean_delta = _reduction_stats(
        (m.tokens_used, m.delta) for m in result.metrics
    )

    # the attention FLOPs the same run would spend with every variate kept,
    # so flops.attention / flops.dense_attention is its measured ratio
    dense_attention = config.epochs * sum(
        b.size * count_flops(b.n_variates, config.T, config.d, config.d_k, config.H).attention
        for b in train_batches
    )
    arrays = {f.name: getattr(result.params, f.name) for f in fields(result.params)}
    shapes = {name: list(array.shape) for name, array in arrays.items()}
    report = {
        "epochs": epoch_rows,
        "reduction": {
            "mean_tokens": mean_tokens,
            "std_tokens": std_tokens,
            "mean_delta": mean_delta,
        },
        "flops": {
            "total": sum(m.flops for m in result.metrics),
            "attention": sum(m.attention_flops for m in result.metrics),
            "dense_attention": dense_attention,
        },
        "val_loss": result.val_loss,
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
            for m in result.metrics
        ],
    )
    _write_hashes(config, train_batches[0], out)
    _write_text(out / "timing.txt", "\n".join(timing_lines) + "\n")
    _write_text(out / "report.json", report_text)
    print(f"train: done, val_loss={_fmt(result.val_loss)}")


_COMMANDS = {
    "synth": _cmd_synth,
    "hash": _cmd_hash,
    "train": _cmd_train,
}

_OVERRIDE_RE = re.compile(r"^--([A-Za-z_][A-Za-z_0-9]*)=(.*)$", re.DOTALL)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vardrop",
        description="Variate-token reduction pipeline: synth, hash, train.",
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
