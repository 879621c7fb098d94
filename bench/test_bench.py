"""Tests of the benchmark's own code: span self times, the percentile rule,
absent hooks, and agreement of the metric names with BENCHMARK.json.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
from tracing import Hook, Span, Tracer, root_time, self_times


def test_self_time_is_duration_minus_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 7.0, 0),
        Span("other_root", 11.0, 12.5, None),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.5]
    assert root_time(spans) == 11.5


@pytest.fixture
def fake_layers(monkeypatch):
    """A module whose functions call each other through module globals,
    the way the package's layers do."""
    mod = types.ModuleType("fake_layers")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Opt:
        def step(self, x):
            return mod.outer(x)

    mod.inner, mod.outer, mod.Opt = inner, outer, Opt
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_tracer_reports_self_times_and_calls(fake_layers):
    original_outer, original_step = fake_layers.outer, fake_layers.Opt.step
    hooks = (
        Hook("fake_layers", "outer", "fake.outer_s", calls="fake.outer_calls"),
        Hook("fake_layers", "inner", "fake.inner_s"),
        Hook("fake_layers", "Opt.step", "fake.step_s", calls="fake.steps"),
    )
    tracer = Tracer(hooks)
    with tracer:
        assert fake_layers.outer(1) == 4
        assert fake_layers.Opt().step(2) == 6
    assert fake_layers.outer is original_outer
    assert fake_layers.Opt.step is original_step

    names = [s.metric for s in tracer.spans]
    assert names == ["fake.outer_s", "fake.inner_s", "fake.step_s", "fake.outer_s",
                     "fake.inner_s"]
    parents = [s.parent for s in tracer.spans]
    assert parents == [None, 0, None, 2, 3]

    metrics = tracer.layer_metrics(per=2)
    assert metrics["fake.outer_calls"] == 1.0
    assert metrics["fake.steps"] == 0.5
    dur = [s.end - s.start for s in tracer.spans]
    assert metrics["fake.outer_s"] == pytest.approx((dur[0] - dur[1] + dur[3] - dur[4]) / 2)
    assert metrics["fake.step_s"] == pytest.approx((dur[2] - dur[3]) / 2)
    # the self times of all layers add up to the time under root spans
    total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert total == pytest.approx(root_time(tracer.spans) / 2)


def test_missing_functions_make_their_metrics_absent(fake_layers):
    hooks = (
        Hook("fake_layers", "inner", "fake.inner_s"),
        Hook("fake_layers", "renamed_away", "fake.gone_s", calls="fake.gone_calls"),
        Hook("fake_layers", "Opt.missing", "fake.gone_method_s"),
        Hook("fake_layers_no_such_module", "inner", "fake.no_module_s"),
        # one of the two functions feeding this metric is gone: the metric
        # would be incomplete, so it is absent
        Hook("fake_layers", "outer", "fake.partial_s"),
        Hook("fake_layers", "also_gone", "fake.partial_s"),
    )
    tracer = Tracer(hooks)
    with tracer:
        assert fake_layers.outer(1) == 4
    metrics = tracer.layer_metrics(per=1)
    assert set(metrics) == {"fake.inner_s"}
    assert tracer.absent == {"fake.gone_s", "fake.gone_calls", "fake.gone_method_s",
                             "fake.no_module_s", "fake.partial_s"}
    assert [s.metric for s in tracer.spans] == ["fake.partial_s", "fake.inner_s"]


def test_layer_that_never_ran_reports_zero(fake_layers):
    tracer = Tracer((Hook("fake_layers", "inner", "fake.inner_s", calls="fake.inner_calls"),))
    with tracer:
        pass
    assert tracer.layer_metrics(per=3) == {"fake.inner_s": 0.0, "fake.inner_calls": 0.0}


def test_failed_frame_counter_leaves_per_frame_metrics_out(monkeypatch, fake_layers):
    monkeypatch.setattr(tracing, "PER_FRAME", {"fake.us_per_frame": "fake.inner_s"})
    monkeypatch.setattr(tracing, "FRAMES_METRIC", ("fake.frames", "fake.inner_s"))

    class Frames:
        shape = (3, 16)

        def __add__(self, other):
            return self

    def frames(args, kwargs):
        return args[0].shape[0]

    tracer = Tracer((Hook("fake_layers", "inner", "fake.inner_s", frames=frames),))
    with tracer:
        fake_layers.inner(Frames())
    metrics = tracer.layer_metrics(per=1)
    assert metrics["fake.frames"] == 3
    assert metrics["fake.us_per_frame"] == pytest.approx(metrics["fake.inner_s"] / 3 * 1e6)
    with tracer:
        assert fake_layers.inner(1) == 2   # an int has no shape: the count fails, the call not
    metrics = tracer.layer_metrics(per=1)
    assert "fake.frames" not in metrics and "fake.us_per_frame" not in metrics
    assert "fake.inner_s" in metrics


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    with pytest.raises(ValueError):
        run.percentile(values[:99], 90)
    assert run.percentile(list(range(1, 21)), 50) == 10
    with pytest.raises(ValueError):
        run.percentile(list(range(1, 20)), 50)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {name for h in tracing.HOOKS for name in (h.metric, h.calls) if name}
    emitted |= set(tracing.PER_FRAME) | {tracing.FRAMES_METRIC[0]}
    emitted |= {"trace.coverage", "trace.overhead"}
    assert set(layer) == emitted
    assert all(run.unit_of(name) == unit for name, unit in layer.items())
