"""Compare two checkouts on the benchmark and write one ``BENCH_*.json``.

Usage, from the root of a checkout::

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --seeds 11-20 --seconds 30 --runs ../runs --out BENCH_7.json

For each seed this runs ``python3 perfbench/run.py --workload all`` once in
each checkout, untraced, one run at a time. The order alternates: odd seeds
run the parent first, even seeds the change. Each side then runs once with
``--trace 1`` at the first seed. A run whose output already sits in
``--runs`` (``<side>-<seed>.out``, ``<side>-trace.out``) is not repeated,
so an interrupted comparison resumes where it stopped.

The file holds, per workload and gated metric, each side's samples, median
and quartiles, the change/parent ratio of every pair, how many pairs the
change won and a verdict; then each side's traced per-layer metrics and the
environment the change ran in. The verdict is the first that holds of:

- ``gain``: the change wins at least 9 of 10 pairs (ties count for neither
  side), and its median beats the parent's by more than the parent's
  interquartile range.
- ``unresolved``: either side's interquartile range, relative to its median,
  is wider than the metric's bound, and not every change run beats every
  parent run.
- ``no_worse``: the change's median is no worse than the parent's by more
  than the bound.
- ``regressed``: none of the above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def last_json(path: Path) -> dict:
    return json.loads(path.read_text().strip().splitlines()[-1])


def run(checkout: Path, seed: int, seconds: float, trace: int, out: Path) -> dict:
    if not out.exists():
        cmd = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
        out.write_text(proc.stdout)
    return last_json(out)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": values}


def verdict(parent: dict, change: dict, wins: int, pairs: int, gate: dict) -> str:
    """Judge one metric from each side's ``spread`` and the pairs the change won."""
    # sign turns "lower is better" into "higher is better"
    sign = 1 if gate["better"] == "higher" else -1
    gap = sign * (change["median"] - parent["median"])
    if 10 * wins >= 9 * pairs and gap > parent["q3"] - parent["q1"]:
        return "gain"
    wide = any((s["q3"] - s["q1"]) > gate["bound"] * abs(s["median"]) for s in (parent, change))
    separated = min(sign * v for v in change["samples"]) > max(
        sign * v for v in parent["samples"]
    )
    if wide and not separated:
        return "unresolved"
    if gap >= -gate["bound"] * abs(parent["median"]):
        return "no_worse"
    return "regressed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--runs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    args.runs.mkdir(parents=True, exist_ok=True)

    results = {side: [] for side in SIDES}
    for seed in seeds:
        for side in SIDES if seed % 2 else SIDES[::-1]:
            path = args.runs / f"{side}-{seed}.out"
            results[side].append(run(checkouts[side], seed, args.seconds, 0, path))
    traces = {
        side: run(checkouts[side], seeds[0], args.seconds, 1, args.runs / f"{side}-trace.out")
        for side in SIDES
    }

    gates = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    workloads = {}
    for w in gates["workloads"]:
        name, metrics = w["name"], {}
        for gate in gates["end_to_end"]:
            key = f"{name}.{gate['name']}"
            sides = {s: [r["metrics"][key]["value"] for r in results[s]] for s in SIDES}
            ratios = [c / p for p, c in zip(sides["parent"], sides["change"])]
            higher = gate["better"] == "higher"
            spreads = {s: spread(sides[s]) for s in SIDES}
            wins = sum(r > 1 if higher else r < 1 for r in ratios)
            metrics[gate["name"]] = {
                "unit": gate["unit"],
                "better": gate["better"],
                "bound": gate["bound"],
                **spreads,
                "ratios": ratios,
                "change_wins": wins,
                "verdict": verdict(spreads["parent"], spreads["change"], wins, len(seeds), gate),
            }
        detail = json.loads(
            (checkouts["change"] / ".bench_out" / f"{name}-seed{seeds[0]}-trace1.json").read_text()
        )
        workloads[name] = {
            "end_to_end": metrics,
            "trace": {
                s: {m[len(name) + 1:]: e["value"] for m, e in traces[s]["metrics"].items()
                    if m.startswith(name + ".")}
                for s in SIDES
            },
            "absent": detail["absent"],
            "env": detail["env"],
        }
    report = {
        "command": f"python3 perfbench/run.py --workload all --seed S --seconds {args.seconds:g}",
        "seeds": seeds,
        "order": "odd seeds run the parent first, even seeds the change",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "ratio": "change / parent, one per seed",
        "verdict": "first of gain, unresolved, no_worse, regressed that holds; "
        "see scripts/bench_pairs.py",
        "trace_seed": seeds[0],
        "failed": {s: sum(r["failed"] for r in results[s] + [traces[s]]) for s in SIDES},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
