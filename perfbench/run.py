"""Benchmark entry point: run one workload (or all) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload redundant_reduced --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

For each workload this writes the seeded input CSV, then runs
``pipeline.py`` in a child process with BLAS/OpenMP pinned to one thread
(set only in the child's environment), so the peak memory and the pin
belong to that workload alone. One caller drives one workload at a time,
a closed loop. The package is imported from ``src/`` of the same checkout;
nothing is installed.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The full result (environment, checks, per-repeat samples) goes to
``.bench_out/`` in the checkout, and traced spans next to it as JSONL.
With ``--workload all``, a derived and ungated row compares the reduced
and dense runs of the redundant table against the FLOP ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import gen
from pipeline import PIN_VARS
from workloads import COMMON, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# One workload must end within 180 s; leave room for generating its input.
CHILD_BUDGET_S = 170.0


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Generate the inputs, run the child, return its parsed result."""
    stem = f"{name}-seed{seed}-trace{trace}"
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        csv_path = os.path.join(work, "input.csv")
        labels_path = os.path.join(work, "labels.json")
        labels = gen.generate(WORKLOADS[name], COMMON["length"], seed, csv_path)
        with open(labels_path, "w", encoding="utf-8") as handle:
            json.dump(labels, handle)
        cmd = [
            sys.executable,
            str(Path(__file__).with_name("pipeline.py")),
            "--workload", name,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--csv", csv_path,
            "--labels", labels_path,
        ]
        if trace:
            cmd += ["--spans", str(OUT / f"{stem}.spans.jsonl")]
        env = {**os.environ, **{var: "1" for var in PIN_VARS}}
        # run() kills the child on timeout and waits for it before raising.
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_BUDGET_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: child exited with {proc.returncode}")
    result = json.loads(lines[-1])
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def print_workload(name: str, result: dict) -> None:
    info = result["info"]
    print(f"workload {name}: {info['repeats']} untraced and {info['traced_repeats']} "
          f"traced repeats, {info['train_windows']} training and {info['val_windows']} "
          f"validation windows per repeat")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':40s} {error_rate:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED check {check['name']}: {check['detail']}")
    for error in result["errors"]:
        print(f"  ERROR {error.strip().splitlines()[-1]}")
    if result["absent"]:
        print(f"  absent (not traced): {', '.join(result['absent'])}")
    print(f"  env {json.dumps(result['env'], sort_keys=True)}")


def print_derived(results: dict) -> None:
    """Measured reduced/dense seconds per training window next to the ledger."""
    reduced, dense = results.get("redundant_reduced"), results.get("redundant_dense")
    if not reduced or not dense or "train_windows_per_s" not in reduced["metrics"]:
        return
    measured = (dense["metrics"]["train_windows_per_s"]["value"]
                / reduced["metrics"]["train_windows_per_s"]["value"])
    r, d = reduced["info"]["ledger"], dense["info"]["ledger"]
    attention = (r["train_attention_flops"] / reduced["info"]["train_windows"]) / (
        d["train_attention_flops"] / dense["info"]["train_windows"])
    forward = (r["train_flops"] / reduced["info"]["train_windows"]) / (
        d["train_flops"] / dense["info"]["train_windows"])
    print(f"derived (ungated): redundant_reduced / redundant_dense per training window: "
          f"measured seconds {measured:.4g}, ledger attention FLOPs (1-delta)^2 "
          f"{attention:.4g} at delta {r['delta_mean']:.4g}, ledger forward FLOPs {forward:.4g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="vardrop training benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "vardrop" / "__init__.py").is_file():
        print(f"no vardrop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print_workload(name, results[name])
    print_derived(results)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
