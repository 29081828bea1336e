"""The benchmark's checks hold on the package as it is.

perfbench drives the package through its public names and checks the first
batch's hash groups against its generator's labels. Running one short
repeat of each workload here means a change to those names or their return
types, or a break in the dense or the no-redundancy path, fails the test
suite, not only a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("gen"), importlib.import_module("pipeline")


def test_hashing_checks_pass_on_a_short_redundant_table(perfbench, tmp_path):
    gen, pipeline = perfbench
    spec = {"data": "redundant", "n": 64, "prototypes": 8, "sigma": 0.05}
    csv_path = str(tmp_path / "table.csv")
    labels = gen.generate(spec, pipeline.COMMON["length"], 3, csv_path)

    wl = pipeline.Workload("redundant_reduced", 3, csv_path, list(labels))
    rec = wl.repeat()
    wl.verify_hashing(rec["first_batch"])
    wl.verify(rec)

    checks = {c["name"]: c for c in wl.checks}
    assert {"groups_equal_labels", "delta_formula", "reduced_keeps_gs_per_group"} <= set(
        checks
    )
    assert wl.failed == 0, [c for c in wl.checks if not c["ok"]]


@pytest.mark.parametrize(
    "name, spec, check",
    [
        ("redundant_dense", {"data": "redundant", "n": 64, "prototypes": 8, "sigma": 0.05},
         "dense_keeps_all"),
        ("noise_reduced", {"data": "noise", "n": 64}, "noise_delta_small"),
    ],
    ids=["redundant_dense", "noise_reduced"],
)
def test_dense_and_noise_checks_pass_on_a_short_table(perfbench, tmp_path, name, spec, check):
    gen, pipeline = perfbench
    csv_path = str(tmp_path / "table.csv")
    labels = gen.generate(spec, pipeline.COMMON["length"], 3, csv_path)

    wl = pipeline.Workload(name, 3, csv_path, None if labels is None else list(labels))
    rec = wl.repeat()
    wl.verify_hashing(rec["first_batch"])
    wl.verify(rec)

    assert check in {c["name"] for c in wl.checks}
    assert wl.failed == 0, [c for c in wl.checks if not c["ok"]]
