"""The caller audit (tools/test_only_names.py): every library name that only
the tests reference is kept on purpose, and one that is not fails it."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def audit():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "tools"))
        yield importlib.import_module("test_only_names")


def test_every_test_only_name_is_kept_on_purpose(audit, capsys):
    assert audit.main() == 0, capsys.readouterr().out


def test_a_name_not_kept_on_purpose_fails_the_audit(audit, monkeypatch, capsys):
    kept = dict(audit.KEPT)
    dropped = kept.pop("graded.weighted_norm")
    assert dropped
    monkeypatch.setattr(audit, "KEPT", kept)
    assert audit.main() == 1
    assert "1 of them are not kept on purpose" in capsys.readouterr().out
