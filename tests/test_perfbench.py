"""Tooling guards: the tracer's names exist in the library it traces and it
can count what the series entry points return, every library name and
call signature the workloads use exists, every exported name resolves,
every committed BENCH record names the machine it was measured on, and the
package version stamped into artifacts is the one pyproject.toml declares."""

import ast
import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import dysonprop
from dysonprop._version import VERSION
from dysonprop.dyson import TimeGrid
from dysonprop.suite import random_graded_model

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_is_a_library_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    spans = importlib.import_module("perfbench.spans")
    assert spans.TRACED
    for short, names in spans.TRACED.items():
        module = importlib.import_module(f"dysonprop.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"dysonprop.{short}.{name}"


def test_the_tracer_counts_every_series_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    spans = importlib.import_module("perfbench.spans")
    model = random_graded_model(seed=8, dim=5, grade_shift=1)
    grid = TimeGrid(0.0, 0.5, panels=2)
    for name in spans.SERIES:
        short, fname = name.split(".")
        entry = getattr(importlib.import_module(f"dysonprop.{short}"), fname)
        result = entry(model.h_free, model.h_int, np.eye(5)[:, 0], grid, 1e-10)
        recorder = spans.Recorder()
        recorder._count(result)
        counts = recorder.counts
        nodes = grid.panels * grid.nodes_per_panel
        assert counts["orders"] == result.achieved_order > 0, name
        assert (counts["panels"], counts["columns"]) == (grid.panels, 1), name
        assert counts["node_matvecs"] == result.achieved_order * nodes, name


def test_every_library_name_the_workloads_use_exists():
    # A deletion or rename in the library must fail here, not only when the
    # benchmark runs: read the workloads' source, import nothing of it.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name: importlib.import_module(f"dysonprop.{alias.name}")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "dysonprop"
        for alias in node.names
    }
    assert modules
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    used = 0
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            continue
        where = f"{node.value.id}.{node.attr} (workloads.py line {node.lineno})"
        assert hasattr(modules[node.value.id], node.attr), where
        used += 1
        call = calls.get(id(node))
        if call is None or any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords
        ):
            continue
        signature = inspect.signature(getattr(modules[node.value.id], node.attr))
        try:
            signature.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            raise AssertionError(f"{where}: {exc}") from None
    assert used


def test_every_exported_name_resolves():
    namespace = {}
    exec("from dysonprop import *", namespace)
    assert set(dysonprop.__all__) <= set(namespace)


def test_every_bench_record_names_its_machine():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        machine = json.loads(path.read_text())["machine"]
        keys = ("nproc", "blas", "numpy", "scipy", "threads")
        missing = [key for key in keys if not machine.get(key)]
        assert not missing, f"{path.name}: machine block lacks {missing}"


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == VERSION
