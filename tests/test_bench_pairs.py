"""scripts/bench_pairs.py verdicts, from pre-written runs and no subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SEEDS = range(1, 11)
GATES = {
    "workloads": [{"name": "w", "why": "one workload is enough"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def _result(values: dict) -> str:
    metrics = {f"w.{name}": {"value": v, "unit": "x"} for name, v in values.items()}
    return "workload w: a human-readable block\n" + json.dumps(
        {"attempted": 1, "failed": 0, "metrics": metrics}
    ) + "\n"


def _compare(tmp_path, monkeypatch, parent: dict, change: dict) -> dict:
    """Run the script over pre-written outputs; ``parent``/``change`` map a
    metric to its ten samples, one per seed."""

    def no_subprocess(*args, **kwargs):
        raise AssertionError("every run is already in --runs")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_subprocess)
    checkouts = {side: tmp_path / side for side in bench_pairs.SIDES}
    for checkout in checkouts.values():
        (checkout / ".bench_out").mkdir(parents=True)
    (checkouts["change"] / "BENCHMARK.json").write_text(json.dumps(GATES))
    (checkouts["change"] / ".bench_out" / "w-seed1-trace1.json").write_text(
        json.dumps({"absent": [], "env": {"host": "test"}})
    )
    runs = tmp_path / "runs"
    runs.mkdir()
    for side, samples in (("parent", parent), ("change", change)):
        for i, seed in enumerate(SEEDS):
            text = _result({m: v[i] for m, v in samples.items()})
            (runs / f"{side}-{seed}.out").write_text(text)
        (runs / f"{side}-trace.out").write_text(_result({m: v[0] for m, v in samples.items()}))
    out = tmp_path / "BENCH.json"
    code = bench_pairs.main([
        "--parent", str(checkouts["parent"]), "--change", str(checkouts["change"]),
        "--seeds", "1-10", "--runs", str(runs), "--out", str(out),
    ])
    assert code == 0
    return json.loads(out.read_text())["workloads"]["w"]["end_to_end"]


def _flat(value: float) -> list[float]:
    return [value] * 10


def test_pairs_match_by_seed_whichever_side_ran_first(tmp_path, monkeypatch):
    # odd seeds ran the parent first, even seeds the change
    parent = [1.0 + seed for seed in SEEDS]
    metrics = _compare(
        tmp_path, monkeypatch,
        {"setup_s": parent, "rate": parent},
        {"setup_s": [p / 4 for p in parent], "rate": [p * 2 for p in parent]},
    )
    for name, ratio in (("setup_s", 0.25), ("rate", 2.0)):
        assert metrics[name]["ratios"] == pytest.approx([ratio] * 10)
        assert metrics[name]["change_wins"] == 10
        assert metrics[name]["verdict"] == "gain"


@pytest.mark.parametrize("ties, verdict", [(1, "gain"), (2, "no_worse")])
def test_ties_count_for_neither_side(tmp_path, monkeypatch, ties, verdict):
    parent = _flat(1.0)
    change = [1.0] * ties + [0.5] * (10 - ties)
    metrics = _compare(
        tmp_path, monkeypatch,
        {"setup_s": parent, "rate": _flat(5.0)},
        {"setup_s": change, "rate": _flat(5.0)},
    )
    assert metrics["setup_s"]["change_wins"] == 10 - ties
    assert metrics["setup_s"]["verdict"] == verdict
    assert metrics["rate"]["change_wins"] == 0
    assert metrics["rate"]["verdict"] == "no_worse"


def test_gain_needs_a_gap_wider_than_the_parent_spread(tmp_path, monkeypatch):
    # the change wins every pair by 1 %, inside the parent's own spread
    parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    metrics = _compare(
        tmp_path, monkeypatch,
        {"setup_s": parent, "rate": _flat(5.0)},
        {"setup_s": [p * 0.99 for p in parent], "rate": _flat(5.0)},
    )
    assert metrics["setup_s"]["change_wins"] == 10
    assert metrics["setup_s"]["verdict"] == "no_worse"


def test_worse_than_the_bound_regresses(tmp_path, monkeypatch):
    metrics = _compare(
        tmp_path, monkeypatch,
        {"setup_s": _flat(1.0), "rate": _flat(10.0)},
        {"setup_s": _flat(1.3), "rate": _flat(7.0)},
    )
    assert metrics["setup_s"]["verdict"] == "regressed"
    assert metrics["rate"]["verdict"] == "regressed"


def test_wide_spread_is_unresolved_unless_the_sides_separate(tmp_path, monkeypatch):
    wide = [1.0, 2.0, 3.0, 1.5, 2.5, 1.0, 2.0, 3.0, 1.5, 2.5]
    split = [1.0, 3.0] * 5
    metrics = _compare(
        tmp_path, monkeypatch,
        # setup_s: same median, spread far past the 0.25 bound
        # rate: as wide, and every change run beats every parent run, but
        # by less than the parent's own spread
        {"setup_s": wide, "rate": split},
        {"setup_s": wide[::-1], "rate": _flat(3.1)},
    )
    assert metrics["setup_s"]["verdict"] == "unresolved"
    assert metrics["rate"]["change_wins"] == 10
    assert metrics["rate"]["verdict"] == "no_worse"
