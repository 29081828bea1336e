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


def test_reduce_exits_zero_with_a_strict_json_report(tmp_path):
    result = run_cli("reduce", "-o", tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    load_strict_json(tmp_path / "report.json")


@pytest.mark.parametrize(
    "args, message",
    [
        (["reduce", "--B=0"], "B: must be in [1, inf), got 0"),
        (["train", "--H=0"], "H: must be in [1, inf) for training, got 0"),
    ],
    ids=["reduce-B0", "train-H0"],
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
        "reduce", "-o", tmp_path, "--vardrop_on=false", "--synth_n=16",
        "--synth_length=2000",
    )
    assert result.returncode == 0, result.stderr
    rows = (tmp_path / "reduction.csv").read_text().splitlines()
    assert rows[0] == "iteration,tokens_used,delta"
    assert len(rows) > 1
    for row in rows[1:]:
        _, tokens, delta = row.split(",")
        assert (tokens, delta) == ("16", "0")
    report = load_strict_json(tmp_path / "report.json")
    assert report["retained"] == list(range(16))
    assert report["delta"] == 0


def test_analyze_writes_a_forty_bin_histogram(tmp_path):
    result = run_cli(
        "analyze", "-o", tmp_path, "--synth_n=16", "--synth_g=4", "--synth_length=2000"
    )
    assert result.returncode == 0, result.stderr
    assert len((tmp_path / "redundancy.csv").read_text().splitlines()) == 41
    assert {p.name for p in tmp_path.iterdir()} == {
        "config.echo", "corr_matrix.csv", "redundancy.csv",
    }


def _huge_table(tmp_path):
    """A 400 x 4 CSV of N(0, 1) * 1e307 values: finite, but their DFT overflows."""
    values = np.random.default_rng(0).standard_normal((400, 4)) * 1e307
    path = tmp_path / "huge.csv"
    np.savetxt(path, values, delimiter=",", header="a,b,c,d", comments="")
    return path


@pytest.mark.parametrize("command", ["hash", "reduce"])
def test_overflowing_spectrum_is_a_numeric_error_under_warnings_as_errors(
    tmp_path, command
):
    result = run_cli(
        command, "-o", tmp_path / "o", f"--data={_huge_table(tmp_path)}",
        warnings_as_errors=True,
    )
    assert result.returncode == 4
    assert result.stderr == "error [numeric]: non-finite amplitude spectrum\n"


def test_analyze_correlates_huge_finite_values(tmp_path):
    result = run_cli(
        "analyze", "-o", tmp_path, f"--data={_huge_table(tmp_path)}",
        warnings_as_errors=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    rows = (tmp_path / "corr_matrix.csv").read_text().splitlines()
    assert rows[0] == "a,b,c,d"
    rho = np.array([[float(cell) for cell in row.split(",")] for row in rows[1:]])
    assert rho.shape == (4, 4)
    assert np.all(np.isfinite(rho))
    assert np.all(np.abs(rho) <= 1.0)
