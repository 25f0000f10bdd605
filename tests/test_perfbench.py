"""The benchmark tracer's names must exist in the library it traces."""

import importlib
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
