"""One workload in its own process: timed repeats, checks, one JSON result.

``run.py`` starts this script with the BLAS/OpenMP thread pin in its
environment and reads the JSON object it prints last. Each repeat drives the
calls ``vardrop train`` makes, minus artifact writing::

    load_csv -> chronological_split -> sliding_windows/batch_windows
    -> initialize_params -> train_epoch x epochs -> validation_loss

Untraced repeats give the end-to-end metrics. With ``--trace 1`` the second
half of the time runs traced repeats, which give the per-layer metrics and
the tracing overhead. Every public function is looked up on its module at
call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Target, Tracer, summarize
from workloads import COMMON, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PIN_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# Observers read returned values through getattr defaults, so a later change
# to a return type shows up as a missing value rather than a crash.
def _kdfh_input(args, result):
    # Identity of the (batch, k, epsilon) input; batches live for a whole
    # repeat, so an equal key within one run id means the input was rehashed.
    batch, *rest = args[:3]
    return {"input": repr((id(batch), *rest))}


def _groups(args, result):
    return {"groups": getattr(result, "G", None)}


def _plan(args, result):
    retained = getattr(result, "retained", None)
    return {
        "retained": None if retained is None else len(retained),
        "delta": getattr(result, "delta", None),
    }


def _cells(args, result):
    values = getattr(result, "values", None)
    return {"cells": getattr(values, "size", None)}


# Wrapped where the caller looks each name up. derive_seed is called both by
# train_epoch (per-batch seed) and by stratified_sample (per-group seed).
TARGETS = [
    Target("dataset.load_csv", "vardrop.dataset", "load_csv", _cells),
    Target("dataset.chronological_split", "vardrop.dataset", "chronological_split"),
    Target("dataset.sliding_windows", "vardrop.dataset", "sliding_windows"),
    Target("dataset.batch_windows", "vardrop.dataset", "batch_windows"),
    Target("dataset.data_tensor", "vardrop.dataset:WindowBatch", "data_tensor"),
    Target("spectral.kdfh", "vardrop.model", "kdfh", _kdfh_input),
    Target("spectral.batch_mean_spectrum", "vardrop.spectral", "batch_mean_spectrum"),
    Target("spectral.dominant_frequencies", "vardrop.spectral", "dominant_frequencies"),
    Target("reduction.group_by_hash", "vardrop.model", "group_by_hash", _groups),
    Target("reduction.stratified_sample", "vardrop.model", "stratified_sample", _plan),
    Target("reduction.derive_seed", "vardrop.model", "derive_seed"),
    Target("reduction.derive_seed", "vardrop.reduction", "derive_seed"),
    Target("model.train_epoch", "vardrop.model", "train_epoch"),
    Target("model.forward", "vardrop.model", "forward"),
    Target("model.embed", "vardrop.model", "embed"),
    Target("model.attention", "vardrop.model", "attention"),
    Target("model.backward", "vardrop.model", "backward"),
    Target("model.sgd_step", "vardrop.model", "sgd_step"),
    Target("model.validation_loss", "vardrop.model", "validation_loss"),
    Target("model.predict_full", "vardrop.model", "predict_full"),
]
SPAN_NAMES = list(dict.fromkeys(t.name for t in TARGETS))

END_TO_END = {
    "setup_s": "s",
    "train_windows_per_s": "1/s",
    "val_windows_per_s": "1/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "val_loss": "mse",
}
DERIVED_LAYER = {
    "dataset.load_csv.cells_per_s": "1/s",
    "spectral.kdfh.useful_ratio": "ratio",
    "reduction.groups_mean": "count",
    "reduction.retained_mean": "count",
    "reduction.delta_mean": "ratio",
    "model.ledger_flops": "flop",
    "model.ledger_attention_flops": "flop",
    "model.attention.gflops_per_s": "GFLOP/s",
    "trace_overhead_pct": "%",
}
PER_LAYER = {
    **{
        f"{name}.{kind}": unit
        for name in SPAN_NAMES
        for kind, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    },
    **DERIVED_LAYER,
}


def params_digest(params) -> str:
    """sha256 over every parameter array, in field order."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(params):
        array = getattr(params, field.name)
        digest.update(field.name.encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pin": {var: os.environ.get(var) for var in PIN_VARS},
        "machine": platform.machine(),
    }


class Workload:
    """Runs repeats of one workload and keeps the samples and check results."""

    def __init__(self, name: str, seed: int, csv_path: str, labels) -> None:
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.csv_path = csv_path
        self.labels = labels
        self.ds = importlib.import_module("vardrop.dataset")
        self.md = importlib.import_module("vardrop.model")
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.errors: list[str] = []
        self.reference: tuple[str, float] | None = None
        self.peak_rss_mb = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def repeat(self) -> dict:
        """One pass: set-up, training epochs, validation; times and outputs."""
        ds, md, c = self.ds, self.md, COMMON
        t0 = time.perf_counter()
        table = ds.load_csv(self.csv_path)
        train, val, _ = ds.chronological_split(table, ds.SplitSpec(*c["split"]))
        train_b = ds.batch_windows(
            ds.sliding_windows(train, c["T"], c["H"], c["stride"]), c["B"]
        )
        val_b = ds.batch_windows(ds.sliding_windows(val, c["T"], c["H"], c["stride"]), c["B"])
        params = md.initialize_params(c["T"], c["H"], c["d"], c["d_k"], self.seed)
        settings = md.TrainSettings(
            k=c["k"],
            epsilon=c["epsilon"],
            gs=c["gs"],
            lr=c["lr"],
            seed=self.seed,
            vardrop_on=self.spec["vardrop_on"],
        )
        t1 = time.perf_counter()
        batch_metrics = []
        for epoch in range(self.spec["epochs"]):
            params, metrics = md.train_epoch(train_b, params, settings, epoch)
            batch_metrics.extend(metrics)
        t2 = time.perf_counter()
        val_times, val_losses = [], []
        for _ in range(self.spec["val_passes"]):
            started = time.perf_counter()
            val_losses.append(md.validation_loss(params, val_b))
            val_times.append(time.perf_counter() - started)
        val_s = statistics.median(val_times)
        train_windows = sum(b.size for b in train_b) * self.spec["epochs"]
        val_windows = sum(b.size for b in val_b)
        return {
            "setup_s": t1 - t0,
            "train_s": t2 - t1,
            "val_s": val_s,
            "val_pass_s": val_times,
            "total_s": t2 - t0 + val_s,
            "train_windows": train_windows,
            "val_windows": val_windows,
            "val_loss": val_losses[0],
            "val_losses": val_losses,
            "digest": params_digest(params),
            "ledger": self.ledger(train_b, batch_metrics, table.n_variates, val_windows),
            "batch_metrics": batch_metrics,
            "first_batch": train_b[0],
        }

    def ledger(self, train_b, batch_metrics, n: int, val_windows: int) -> dict:
        """Forward FLOPs from the package's closed-form ledger, train and validation."""
        c, count = COMMON, self.md.count_flops
        dense = count(n, c["T"], c["d"], c["d_k"], c["H"])
        train_total = sum(m.flops for m in batch_metrics)
        train_attention = sum(
            train_b[m.batch_index].size
            * count(m.tokens_used, c["T"], c["d"], c["d_k"], c["H"]).attention
            for m in batch_metrics
        )
        return {
            "train_flops": train_total,
            "train_attention_flops": train_attention,
            "flops": train_total + val_windows * dense.total,
            "attention_flops": train_attention + val_windows * dense.attention,
            "delta_mean": statistics.fmean(m.delta for m in batch_metrics),
        }

    def verify(self, rec: dict) -> None:
        """Correctness checks on one repeat's outputs."""
        self.check("val_loss_finite", math.isfinite(rec["val_loss"]), repr(rec["val_loss"]))
        self.check("val_passes_identical", len(set(rec["val_losses"])) == 1,
                   repr(rec["val_losses"]))
        outputs = (rec["digest"], rec["val_loss"])
        if self.reference is None:
            self.reference = outputs
        else:
            self.check(
                "repeat_identical", outputs == self.reference, f"{outputs} vs {self.reference}"
            )
        n = rec["first_batch"].n_variates
        used = [m.tokens_used for m in rec["batch_metrics"]]
        if not self.spec["vardrop_on"]:
            self.check("dense_keeps_all", all(u == n for u in used), f"tokens {sorted(set(used))}")
        elif self.spec["data"] == "redundant":
            kept = COMMON["gs"] * self.spec["prototypes"]
            self.check("reduced_keeps_gs_per_group", all(u == kept for u in used),
                       f"tokens {sorted(set(used))}, expected {kept}")
        else:
            deltas = [m.delta for m in rec["batch_metrics"]]
            self.check("noise_delta_small", max(deltas) < 0.05, f"max delta {max(deltas)}")

    def verify_hashing(self, batch) -> None:
        """First-batch hash groups against the generator's ground truth."""
        from vardrop import reduction, spectral

        c = COMMON
        groups = reduction.group_by_hash(spectral.kdfh(batch, c["k"], c["epsilon"]))
        plan = reduction.stratified_sample(
            groups, c["gs"], reduction.derive_seed(self.seed, "0:0")
        )
        n = batch.n_variates
        if self.labels is None:
            self.check("noise_delta_below_0.05", plan.delta < 0.05, f"delta {plan.delta}")
            return
        truth: dict[int, list[int]] = {}
        for i, label in enumerate(self.labels):
            truth.setdefault(label, []).append(i)
        found = {tuple(idx) for idx in groups.groups.values()}
        self.check("groups_equal_labels", found == {tuple(v) for v in truth.values()},
                   f"{len(found)} groups for {len(truth)} labels")
        expected = 1.0 - c["gs"] * groups.G / n
        self.check("delta_formula", math.isclose(plan.delta, expected, abs_tol=1e-12),
                   f"delta {plan.delta} vs {expected}")


def run_phase(wl: Workload, tracer: Tracer | None, deadline: float, minimum: int,
              records: list[dict]) -> bool:
    """Repeat until ``deadline``, at least ``minimum`` times; False on error."""
    done = 0
    while True:
        started = time.perf_counter()
        if tracer is not None:
            tracer.run = len(records)
            tracer.active = True
        try:
            rec = wl.repeat()
        except Exception:  # the workload boundary: record and report the failure
            wl.attempted += 1
            wl.failed += 1
            wl.errors.append(traceback.format_exc())
            return False
        finally:
            if tracer is not None:
                tracer.active = False
        rec["traced"] = tracer is not None
        rec["run"] = len(records)
        wl.attempted += len(rec["batch_metrics"]) + rec["val_windows"] * len(rec["val_losses"])
        if not records:
            # Peak memory of one full pass; later repeats only add allocator
            # growth that depends on how many repeats fit in the run.
            wl.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            wl.verify_hashing(rec["first_batch"])
        wl.verify(rec)
        del rec["first_batch"], rec["batch_metrics"], rec["val_losses"]
        records.append(rec)
        done += 1
        # Stop unless at least half of another repeat fits before the deadline.
        now = time.perf_counter()
        if done >= minimum and now + (now - started) / 2 > deadline:
            return True


def end_to_end(wl: Workload, untraced: list[dict]) -> dict[str, float]:
    """End-to-end metrics over the untraced repeats of one run.

    Times are medians over repeats. Throughputs are all windows of the run
    over all the time spent on them: the host's speed switches between
    states for seconds at a time, and a median of a few repeats or passes
    jumps between those states where a pooled rate moves in proportion.
    ``val_loss`` is identical in every repeat.
    """
    med = statistics.median
    val_times = [t for r in untraced for t in r["val_pass_s"]]
    return {
        "setup_s": med(r["setup_s"] for r in untraced),
        "train_windows_per_s": sum(r["train_windows"] for r in untraced)
        / sum(r["train_s"] for r in untraced),
        "val_windows_per_s": untraced[0]["val_windows"] * len(val_times) / sum(val_times),
        "total_s": med(r["total_s"] for r in untraced),
        "peak_rss_mb": wl.peak_rss_mb,
        "val_loss": untraced[0]["val_loss"],
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(tracer: Tracer, traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Medians over traced repeats of per-repeat span totals and derived ratios.

    A function that never ran in a repeat (hashing on the dense workload, or
    a name reported absent) reads as zero.
    """
    by_run = summarize(tracer.spans, SPAN_NAMES, [r["run"] for r in traced])
    per_run: list[dict[str, float]] = []
    for rec in traced:
        rows = by_run[rec["run"]]
        spans = [s for s in tracer.spans if s.run == rec["run"]]

        def observed(name, key):
            values = (s.info.get(key) for s in spans if s.name == name)
            return [v for v in values if v is not None]

        out = {f"{n}.{k}": rows[n][k] for n in SPAN_NAMES for k in ("calls", "busy_s", "self_s")}
        kdfh_inputs = observed("spectral.kdfh", "input")
        ledger = rec["ledger"]
        out.update({
            "dataset.load_csv.cells_per_s": _ratio(
                sum(observed("dataset.load_csv", "cells")), rows["dataset.load_csv"]["busy_s"]
            ),
            "spectral.kdfh.useful_ratio": _ratio(len(set(kdfh_inputs)), len(kdfh_inputs)),
            "reduction.groups_mean": _mean(observed("reduction.group_by_hash", "groups")),
            "reduction.retained_mean": _mean(observed("reduction.stratified_sample", "retained")),
            "reduction.delta_mean": _mean(observed("reduction.stratified_sample", "delta")),
            "model.ledger_flops": ledger["flops"],
            "model.ledger_attention_flops": ledger["attention_flops"],
            "model.attention.gflops_per_s": _ratio(
                ledger["attention_flops"] / 1e9, rows["model.attention"]["busy_s"]
            ),
        })
        per_run.append(out)
    result = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    traced_total = statistics.median(r["total_s"] for r in traced)
    untraced_total = statistics.median(r["total_s"] for r in untraced)
    result["trace_overhead_pct"] = 100.0 * (traced_total / untraced_total - 1.0)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--csv", required=True)
    parser.add_argument("--labels", required=True)
    parser.add_argument("--spans", help="write traced spans to this JSONL file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import vardrop

    source = Path(vardrop.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"vardrop imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    labels = json.loads(Path(args.labels).read_text())
    wl = Workload(args.workload, args.seed, args.csv, labels)
    untraced: list[dict] = []
    traced: list[dict] = []
    tracer = Tracer()
    absent: list[str] = []
    if args.trace:
        ok = run_phase(wl, None, started + args.seconds / 2, 1, untraced)
        if ok:
            with tracer.installed(TARGETS) as absent:
                ok = run_phase(wl, tracer, started + args.seconds, 1, traced)
    else:
        ok = run_phase(wl, None, started + args.seconds, 2, untraced)

    metrics: dict[str, float] = {}
    if ok:
        metrics = per_layer(tracer, traced, untraced) if args.trace else end_to_end(wl, untraced)
    if args.spans and tracer.spans:
        with open(args.spans, "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")
    units = PER_LAYER if args.trace else END_TO_END
    first = untraced[0] if untraced else {}
    result = {
        "correct": ok and wl.failed == 0,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        "env": environment(),
        "info": {
            "repeats": len(untraced),
            "traced_repeats": len(traced),
            **{k: first.get(k) for k in ("train_windows", "val_windows", "digest", "ledger")},
            "samples": [
                {k: r[k] for k in ("setup_s", "train_s", "val_s", "val_pass_s", "total_s", "traced")}
                for r in untraced + traced
            ],
        },
        "absent": absent,
        "checks": wl.checks,
        "errors": wl.errors,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
