"""Benchmark tooling: the tracer's names exist in the library it traces, and
every committed BENCH record names the machine it was measured on."""

import importlib
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_is_a_library_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    spans = importlib.import_module("perfbench.spans")
    assert spans.TRACED
    for short, names in spans.TRACED.items():
        module = importlib.import_module(f"dysonprop.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"dysonprop.{short}.{name}"


def test_every_bench_record_names_its_machine():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        machine = json.loads(path.read_text())["machine"]
        keys = ("nproc", "blas", "numpy", "scipy", "threads")
        missing = [key for key in keys if not machine.get(key)]
        assert not missing, f"{path.name}: machine block lacks {missing}"
