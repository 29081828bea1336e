"""The CLI as a separate process: exit codes, stderr and strict JSON.

Each test starts ``python -m vardrop.cli`` with ``src`` on ``PYTHONPATH``,
so the exit status is the process's own and the interpreter's warning
flags (``-W error``) apply to the whole run, not only to pytest's filters.
Every failure must reach the user as an ``error [...]`` line with exit code
2, 3, 4 or 5, never as a traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

SMALL_TRAIN = [
    "--synth_n=16", "--synth_length=2000", "--H=16", "--B=8", "--d=16",
    "--d_k=8", "--seed=7",
]


def run_cli(*args, warnings_as_errors=False):
    """Run the CLI in a fresh interpreter; the result carries code and text."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC)}
    flags = ["-W", "error"] if warnings_as_errors else []
    result = subprocess.run(
        [sys.executable, *flags, "-m", "vardrop.cli", *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "Traceback" not in result.stderr, result.stderr
    return result


def load_strict_json(path):
    """Load a report as JSON that holds no NaN or Infinity token."""

    def refuse(token):
        raise AssertionError(f"{path}: non-finite number {token}")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=refuse)


@pytest.mark.parametrize(
    "args, message",
    [
        (["hash", "--B=0"], "B: must be in [1, inf), got 0"),
        (["train", "--H=0"], "H: must be in [1, inf) for training, got 0"),
    ],
    ids=["hash-B0", "train-H0"],
)
def test_validation_errors_exit_three(tmp_path, args, message):
    result = run_cli(args[0], "-o", tmp_path / "o", *args[1:])
    assert result.returncode == 3
    assert result.stderr == f"error [validation]: {message}\n"


def test_config_that_is_not_utf8_exits_two(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\n")
    result = run_cli("hash", "-c", config, "-o", tmp_path / "o")
    assert result.returncode == 2
    assert result.stderr == (
        f"error [parse]: {config}: not UTF-8 text (invalid start byte)\n"
    )


@pytest.mark.parametrize("lr", ["1e8", "1e60"])
def test_diverging_train_is_a_numeric_error_under_warnings_as_errors(tmp_path, lr):
    out = tmp_path / "div"
    result = run_cli(
        "train", "-o", out, f"--lr={lr}", *SMALL_TRAIN, "--epochs=3",
        warnings_as_errors=True,
    )
    assert result.returncode == 4
    assert result.stderr.startswith("error [numeric]:")
    assert [p.name for p in out.iterdir()] == ["config.echo"]


@pytest.mark.parametrize("command", ["synth", "hash"])
def test_overflowing_synthetic_noise_is_a_validation_error_under_warnings_as_errors(
    tmp_path, command
):
    # sigma * N(0, 1) overflows to inf, and the table refuses it by name
    result = run_cli(
        command, "-o", tmp_path, "--synth_sigma=1e308", "--synth_length=300",
        warnings_as_errors=True,
    )
    assert result.returncode == 3
    assert result.stderr.startswith("error [validation]: non-finite value in variate")
    assert result.stderr.count("\n") == 1


def test_healthy_train_warns_about_nothing(tmp_path):
    result = run_cli(
        "train", "-o", tmp_path, *SMALL_TRAIN, "--epochs=2", warnings_as_errors=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert set(load_strict_json(tmp_path / "report.json")) == {
        "epochs", "reduction", "flops", "val_loss", "checkpoint",
    }
    assert len(load_strict_json(tmp_path / "hashes.json")["hashes"]) == 16


def test_dense_reduce_keeps_every_variate(tmp_path):
    result = run_cli(
        "train", "-o", tmp_path, "--vardrop_on=false", *SMALL_TRAIN, "--epochs=1"
    )
    assert result.returncode == 0, result.stderr
    rows = (tmp_path / "metrics.csv").read_text().splitlines()
    assert rows[0] == "epoch,batch,loss,tokens_used,delta,flops"
    assert len(rows) > 2
    for row in rows[1:]:
        _, _, _, tokens, delta, _ = row.split(",")
        assert (tokens, delta) == ("16", "0")
    report = load_strict_json(tmp_path / "report.json")
    assert report["reduction"]["mean_tokens"] == 16
    assert report["reduction"]["mean_delta"] == 0


def _huge_table(tmp_path):
    """A 400 x 4 CSV of N(0, 1) * 1e307 values: finite, but their DFT overflows."""
    values = np.random.default_rng(0).standard_normal((400, 4)) * 1e307
    path = tmp_path / "huge.csv"
    np.savetxt(path, values, delimiter=",", header="a,b,c,d", comments="")
    return path


@pytest.mark.parametrize("command", ["hash", "train"])
def test_overflowing_spectrum_is_a_numeric_error_under_warnings_as_errors(
    tmp_path, command
):
    # T+H = 32 fits the 40-row validation split, so train reaches its first hash
    result = run_cli(
        command, "-o", tmp_path / "o", f"--data={_huge_table(tmp_path)}",
        "--T=24", "--H=8", "--epsilon=12", warnings_as_errors=True,
    )
    assert result.returncode == 4
    assert result.stderr == "error [numeric]: non-finite amplitude spectrum\n"


@pytest.mark.parametrize("command", ["reduce", "analyze"])
def test_removed_subcommands_are_invalid_choices(tmp_path, command):
    result = run_cli(command, "-o", tmp_path / "o")
    assert result.returncode == 2
    assert "invalid choice" in result.stderr
    assert not (tmp_path / "o").exists()
