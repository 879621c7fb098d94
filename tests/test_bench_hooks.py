"""The benchmark's per-layer hooks name functions of the package; a hook
that stops resolving silently drops its metric, so every one must resolve."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

import tracing  # noqa: E402


def test_every_bench_hook_resolves():
    assert tracing.Tracer().absent == set()
