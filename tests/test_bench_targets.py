"""The names the benchmark's tracer wraps and its workloads call must exist.

``perfbench/tracer.py`` wraps gpsf functions by module and attribute name,
``perfbench/workloads.py`` calls gpsf through module aliases, and
``BENCHMARK.json`` declares the per-layer metrics the tracer reports;
renaming or deleting one of those names breaks the benchmark without
failing any other test.  The tracer is loaded from its file and the
workloads are only parsed; neither is modified.
"""

import ast
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


def _workload_attributes():
    # (gpsf submodule, attribute) for every alias.attr in workloads.py whose alias is
    # bound by "import gpsf.<module> as <alias>"
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    aliases = {a.asname or a.name: a.name.removeprefix("gpsf.")
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name.startswith("gpsf.")}
    return sorted({(aliases[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in aliases})


WORKLOAD_ATTRIBUTES = _workload_attributes()


def test_workload_attributes_are_found():
    assert {("ballquad", "surface_harmonic"), ("prolate", "eval_phi"),
            ("spectrum", "harmonic_count"), ("interp", "sampling_rule"),
            ("interp", "ChannelCache"), ("interp", "recover_coeffs"),
            ("interp", "GpsfExpansion"), ("interp", "synthesize"),
            ("cli", "main")} <= set(WORKLOAD_ATTRIBUTES)


@pytest.mark.parametrize("module, attr", WORKLOAD_ATTRIBUTES)
def test_every_workload_attribute_resolves(module, attr):
    assert hasattr(importlib.import_module("gpsf." + module), attr)
