"""A slice of the soundness harness (tools/soundness.py): on the default
grid the series lies within both the tolerance and its certified tail."""

import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def soundness():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "tools"))
        yield importlib.import_module("soundness")


def test_default_grid_errors_stay_below_tol_and_tail(soundness, fleet_models):
    tol = 1e-10
    for model in fleet_models[::4]:
        for t in soundness.FLEET_TIMES:
            rec = soundness.cell(model, t, tol)
            assert not rec["raised"]
            where = f"{model.name} t={t}: {rec}"
            assert rec["error"] <= tol and rec["error"] <= rec["tail"], where
