"""The names the benchmark's tracer wraps and reports must exist.

``perfbench/tracer.py`` wraps gpsf functions by module and attribute name,
and ``BENCHMARK.json`` declares the per-layer metrics it reports; renaming or
deleting a wrapped function breaks the benchmark without failing any other
test.  The tracer is loaded from its file and not modified.
"""

import importlib
import json
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tracer():
    # executed from its source, so no bytecode cache is written beside it
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in TRACER.TARGETS])
def test_every_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module("gpsf." + module), attr))


def test_layer_metrics_match_benchmark_declaration():
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert [name for name, _, _ in TRACER.LAYER_METRICS] == declared
