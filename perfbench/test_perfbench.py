"""Self-tests for the benchmark's own code: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
import types

import pytest

import gen
from pipeline import END_TO_END, PER_LAYER, ROOT, TARGETS
from spans import Span, Target, Tracer, self_times, summarize
from workloads import WORKLOADS


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake")

    def double(x):
        return 2 * x

    class Box:
        def __init__(self, value):
            self.value = value

        def get(self):
            return module.double(self.value)

    module.double = double
    module.Box = Box
    monkeypatch.setitem(sys.modules, "perfbench_fake", module)
    return module


def test_wrappers_restore_original_names(fake_module):
    original_fn = fake_module.double
    original_method = vars(fake_module.Box)["get"]
    tracer = Tracer()
    targets = [
        Target("fake.double", "perfbench_fake", "double"),
        Target("fake.get", "perfbench_fake:Box", "get"),
    ]
    with tracer.installed(targets) as absent:
        assert absent == []
        assert fake_module.double is not original_fn
        tracer.active = True
        assert fake_module.Box(3).get() == 6
        tracer.active = False
    assert fake_module.double is original_fn
    assert vars(fake_module.Box)["get"] is original_method
    assert [(s.name, s.parent) for s in tracer.spans] == [("fake.get", None), ("fake.double", 0)]

    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            raise RuntimeError("block failed")
    assert fake_module.double is original_fn
    assert vars(fake_module.Box)["get"] is original_method


def test_inactive_tracer_records_nothing(fake_module):
    tracer = Tracer()
    with tracer.installed([Target("fake.double", "perfbench_fake", "double")]):
        assert fake_module.double(4) == 8
    assert tracer.spans == []


def test_missing_name_is_reported_absent(fake_module):
    tracer = Tracer()
    targets = [
        Target("fake.gone", "perfbench_fake", "gone"),
        Target("fake.nomodule", "perfbench_no_such_module", "f"),
        Target("fake.noclass", "perfbench_fake:Missing", "get"),
        Target("fake.double", "perfbench_fake", "double"),
    ]
    with tracer.installed(targets) as absent:
        assert absent == [
            "perfbench_fake.gone",
            "perfbench_no_such_module.f",
            "perfbench_fake:Missing.get",
        ]
        assert hasattr(fake_module.double, "__wrapped__")
    rows = summarize(tracer.spans, ["fake.gone", "fake.double"], [0])
    assert rows[0]["fake.gone"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0}


def test_self_time_is_span_minus_children():
    # root 0-10 with children 1-4 (which has a child 2-3) and 5-7.
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]
    rows = summarize(spans, ["root", "a", "b"], [0])[0]
    assert rows["root"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert rows["a.inner"]["self_s"] == 1.0


def test_tracer_spans_nest_with_a_fake_clock(fake_module):
    ticks = iter([0.0, 1.0, 3.0, 7.0])
    tracer = Tracer(clock=lambda: next(ticks))
    targets = [
        Target("fake.get", "perfbench_fake:Box", "get"),
        Target("fake.double", "perfbench_fake", "double"),
    ]
    with tracer.installed(targets):
        tracer.active = True
        fake_module.Box(1).get()
    assert self_times(tracer.spans) == [5.0, 2.0]


def test_generator_is_deterministic(tmp_path):
    spec = {"data": "redundant", "n": 20, "prototypes": 4, "sigma": 0.05}
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    labels_a = gen.generate(spec, 300, 5, str(paths[0]))
    labels_b = gen.generate(spec, 300, 5, str(paths[1]))
    gen.generate(spec, 300, 6, str(paths[2]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()
    assert labels_a == labels_b
    assert sorted(labels_a.count(g) for g in range(4)) == [5, 5, 5, 5]

    noise = {"data": "noise", "n": 5}
    assert gen.generate(noise, 50, 1, str(paths[0])) is None
    gen.generate(noise, 50, 1, str(paths[1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_prototype_signatures_are_distinct():
    import numpy as np

    bins = gen.prototype_bins(np.random.default_rng(0), 8)
    assert len(set(bins)) == 8
    assert all(1 <= b <= gen.MAX_BIN for triple in bins for b in triple)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.skipif(
    not (ROOT / "src" / "vardrop").is_dir(), reason="package sources not present"
)
def test_every_target_exists_in_the_package(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    with Tracer().installed(TARGETS) as absent:
        assert absent == []
    assert not hasattr(sys.modules["vardrop.model"].kdfh, "__wrapped__")
