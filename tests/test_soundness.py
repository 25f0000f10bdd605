"""A slice of the soundness harness (tools/soundness.py): on the default
grid, and at every output time of a trajectory, the series lies within
both the tolerance and its certified tail; a dense propagator lies within
its composed bound, itself below the tolerance."""

import importlib
from pathlib import Path

import numpy as np
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


def test_trajectory_outputs_stay_below_tol_and_tail(soundness, fleet_models):
    # Output times inside a panel are read from its interpolant; each must
    # meet the tolerance and the tail as the edges do, unless at the floor.
    tol, t = 1e-10, 1.0
    times = np.linspace(0.0, t, soundness.FLEET_STEPS + 1)
    for model in fleet_models[::4]:
        eye = np.eye(model.h_free.dim, dtype=complex)
        refs = soundness.references(model, times, eye)
        rec = soundness.trajectory_cell(model, times, tol, eye, *refs)
        where = f"{model.name}: {rec}"
        assert rec["interior_outputs"] >= 1, where
        for error in rec["errors"]:
            assert rec["floor"] or (error <= tol and error <= rec["tail"]), where


def test_dense_propagator_bounds_dominate_the_oracle_error(soundness, fleet_models):
    # The composed bound of the step's powers, read through the private
    # function dense_propagator itself calls.
    tol = 1e-10
    for model in fleet_models[::4]:
        for t in soundness.FLEET_TIMES:
            rec = soundness.dense_cell(model, t, tol)
            where = f"{model.name} t={t}: {rec}"
            assert not rec["raised"] and rec["error"] <= rec["bound"] < tol, where
