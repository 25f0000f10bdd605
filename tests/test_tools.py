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



PLANTED = """
from dataclasses import dataclass


def planted(x, width=2):
    return x * width


@dataclass(frozen=True)
class Planted:
    x: int
    width: int = 2
"""


@pytest.mark.parametrize("calls, listed", [
    ("", ["planted.planted(width)", "planted.Planted(width)"]),
    ("planted(1, 3)", ["planted.Planted(width)"]),
    ("planted(1, width=3)", ["planted.Planted(width)"]),
    ("planted(*args)", ["planted.Planted(width)"]),
    ("planted(**kwargs)", ["planted.Planted(width)"]),
    ("replace(Planted(1), width=3)", ["planted.planted(width)"]),
    ("planted(*args); replace(Planted(1), width=3)", []),
], ids=["unbound", "positional", "keyword", "star", "double-star", "replace",
        "star-and-replace"])
def test_a_setting_only_tests_bind_fails_the_audit(audit, monkeypatch, tmp_path,
                                                   capsys, calls, listed):
    # A planted package whose two defaulted parameters the tests bind, and a
    # benchmark that calls both and binds what ``calls`` binds.
    package = tmp_path / "src" / "dysonprop"
    package.mkdir(parents=True)
    (package / "planted.py").write_text(PLANTED)
    for place in ("tests", "tools", "perfbench"):
        (tmp_path / place).mkdir()
    imports = "from dysonprop.planted import Planted, planted\n"
    (tmp_path / "tests" / "test_planted.py").write_text(
        imports + "planted(1, width=3)\nPlanted(1, width=3)\n")
    (tmp_path / "perfbench" / "bench.py").write_text(
        imports + f"Planted(1)\nplanted(1)\n{calls}\n")
    monkeypatch.setattr(audit, "ROOT", tmp_path)
    monkeypatch.setattr(audit, "PACKAGE", package)
    assert audit.main() == (1 if listed else 0)
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()[:-1]] == listed, out
