"""Reference routes: matrix exponential, adaptive ODE, and report plumbing."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dysonprop
from dysonprop import oracles
from dysonprop.dyson import _free_spectrum
from dysonprop.errors import StiffnessError
from dysonprop.graded import GradedSpace, LinOp
from dysonprop.oracles import Report, matrix_exp, ode_oracle, oracle_propagator


def test_matrix_exp_identity_and_nilpotent():
    np.testing.assert_allclose(matrix_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(matrix_exp(n), np.eye(2) + n, atol=1e-15)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_matrix_exp_rejects_overflow():
    with pytest.raises(OverflowError):
        matrix_exp(np.array([[2000.0]]))


def test_oracle_propagator_is_identity_without_interaction():
    space = GradedSpace((0.0, 1.0, 2.0))
    h0 = LinOp(space, np.diag([0.0, 1.5, 3.0]).astype(complex))
    zero = LinOp(space, np.zeros((3, 3), dtype=complex))
    u = oracle_propagator(h0, zero, 0.8, -0.3)
    np.testing.assert_allclose(u, np.eye(3), atol=1e-13)


def test_oracle_propagator_closed_form_two_level():
    # h0 = 0 makes the rotated propagator the bare exponential of h1
    space = GradedSpace((0.0, 1.0))
    h0 = LinOp(space, np.zeros((2, 2), dtype=complex))
    m = np.array([[0.0, 0.0], [0.7, 0.0]], dtype=complex)
    u = oracle_propagator(h0, LinOp(space, m), 2.0, 0.0)
    np.testing.assert_allclose(u, np.eye(2) - 2.0j * m, atol=1e-14)


def test_ode_oracle_matches_exponential_route():
    rng = np.random.default_rng(7)
    space = GradedSpace((0.0, 0.0, 1.0, 1.0))
    h0 = LinOp(space, np.diag([0.0, 0.5, 1.0, 2.0]).astype(complex))
    m = rng.normal(size=(4, 4)) * 0.4 + 1j * rng.normal(size=(4, 4)) * 0.4
    h1 = LinOp(space, m)
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    for (t, tp) in ((1.0, 0.0), (-0.5, 0.25)):
        got = ode_oracle(h0, h1, xi, t, tp, tol=1e-12)
        want = oracle_propagator(h0, h1, t, tp) @ xi
        assert np.linalg.norm(got - want) < 1e-9


def _whole_matrix_oracle(h_free, h_int, t, t_prime):
    """The oracle with one exponential of the whole dense h."""
    h = (h_free + h_int).matrix
    mid = matrix_exp(-1j * (t - t_prime) * h)
    free = _free_spectrum(h_free)
    left = free.evolve(-t, mid)
    return np.conjugate(free.evolve(-t_prime, left.conj().T).T, order="C")


def _record_exp_shapes(monkeypatch):
    shapes = []

    def recording(matrix):
        shapes.append(matrix.shape)
        return matrix_exp(matrix)

    monkeypatch.setattr(oracles, "matrix_exp", recording)
    return shapes


def _planted_model():
    """Three components: {0, 1}, {2, 3} and the zero-energy state 4.

    The interaction stores an explicit zero at (0, 3), which would join the
    first two components if it counted as an edge.
    """
    from scipy.sparse import csr_array

    space = GradedSpace((0.0, 0.0, 1.0, 1.0, 2.0))
    h_free = LinOp(space, csr_array(np.diag([0.5, 1.0, 1.5, 2.5, 0.0]).astype(complex)))
    rows, cols = np.array([1, 0, 3, 2, 3]), np.array([0, 3, 2, 3, 3])
    values = np.array([0.3 - 0.1j, 0.0, 0.7, 0.2j, -0.4])
    h_int = LinOp(space, csr_array((values, (rows, cols)), shape=(5, 5)))
    assert h_int.storage.nnz == 5  # the explicit zero is stored
    return h_free, h_int


def test_oracle_propagator_matches_the_whole_matrix_route_on_the_stock_model(toy_model):
    h_free, h_int = toy_model.h_free, toy_model.h_int
    got = oracle_propagator(h_free, h_int, 1.0, -0.25)
    want = _whole_matrix_oracle(h_free, h_int, 1.0, -0.25)
    assert np.linalg.norm(got - want, 2) <= 1e-13 * np.linalg.norm(want, 2)


def test_oracle_propagator_exponentiates_the_stock_model_per_component(toy_model, monkeypatch):
    # 63 components, the largest of 106 states: a fall-back to one 560-state
    # exponential fails here.
    shapes = _record_exp_shapes(monkeypatch)
    oracle_propagator(toy_model.h_free, toy_model.h_int, 0.5, 0.0)
    assert len(shapes) == 63
    assert max(shapes) == (106, 106)
    assert sum(s[0] for s in shapes) == toy_model.h_free.dim


def test_oracle_propagator_is_bit_identical_on_one_component_models(fleet_models, monkeypatch):
    shapes = _record_exp_shapes(monkeypatch)
    for model in fleet_models:
        got = oracle_propagator(model.h_free, model.h_int, 0.7, -0.2)
        assert np.array_equal(got, _whole_matrix_oracle(model.h_free, model.h_int, 0.7, -0.2))
    # one exponential of the whole matrix per model
    assert shapes == [(m.h_free.dim,) * 2 for m in fleet_models]


def test_oracle_propagator_splits_a_planted_model(monkeypatch):
    h_free, h_int = _planted_model()
    shapes = _record_exp_shapes(monkeypatch)
    got = oracle_propagator(h_free, h_int, 1.3, -0.4)
    assert shapes == [(2, 2), (2, 2), (1, 1)]
    np.testing.assert_allclose(got, _whole_matrix_oracle(h_free, h_int, 1.3, -0.4),
                               rtol=0, atol=1e-15)
    assert got[4, 4] == 1.0 and not got[4, :4].any() and not got[:4, 4].any()
    assert not got[:2, 2:].any() and not got[2:, :2].any()
    # The stored explicit zero reaches the labeller only through the bare
    # interaction (a CSR sum drops zeros); it is still no edge.
    shapes.clear()
    bare = oracles._component_exp(-0.5j, h_int.storage)
    assert shapes == [(2, 2), (2, 2), (1, 1)]
    np.testing.assert_allclose(bare, matrix_exp(-0.5j * h_int.matrix), rtol=0, atol=1e-15)


def test_oracle_propagator_rejects_a_labelling_that_splits_a_component(monkeypatch):
    h_free, h_int = _planted_model()
    labeller = oracles._components

    def splitting(n, rows, cols):
        count, labels = labeller(n, rows, cols)
        labels = labels.copy()
        labels[1] = count  # state 1 leaves state 0's component
        return count + 1, labels

    monkeypatch.setattr(oracles, "_components", splitting)
    with pytest.raises(RuntimeError, match="joins two components"):
        oracle_propagator(h_free, h_int, 1.0, 0.0)


@pytest.mark.parametrize("t, t_prime", [(np.nan, 0.3), (0.3, np.nan), (np.inf, 0.3),
                                        (0.3, -np.inf)])
def test_oracles_reject_non_finite_times_before_any_work(fleet_models, monkeypatch, t, t_prime):
    model = fleet_models[1]

    def no_work(*args):
        raise AssertionError("an oracle started work on a non-finite time")

    # Without the check, ode_oracle would spin in solve_ivp on a NaN time.
    monkeypatch.setattr(oracles, "_prepare", no_work)
    monkeypatch.setattr(oracles, "_component_exp", no_work)
    xi = np.ones(model.h_free.dim, dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        oracle_propagator(model.h_free, model.h_int, t, t_prime)
    with pytest.raises(ValueError, match="finite"):
        ode_oracle(model.h_free, model.h_int, xi, t, t_prime)


def test_ode_oracle_raises_stiffness_error_when_the_integrator_fails(fleet_models, monkeypatch):
    import scipy.integrate

    message = "Required step size is less than spacing between numbers."
    calls = []

    def failing(*args, **kwargs):
        calls.append(kwargs["method"])
        return SimpleNamespace(success=False, message=message, y=None)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", failing)
    model = fleet_models[1]
    xi = np.ones(model.h_free.dim, dtype=complex)
    with pytest.raises(StiffnessError, match="failed to reach") as err:
        ode_oracle(model.h_free, model.h_int, xi, 0.5, 0.0)
    assert err.value.detail == message
    assert calls == ["DOP853"]


def test_oracle_propagator_rejects_operators_on_different_spaces(fleet_models):
    model = fleet_models[1]
    grades = model.h_int.space.grades
    reversed_space = GradedSpace(tuple(reversed(grades)))
    assert reversed_space.grades != grades
    h_int = LinOp(reversed_space, model.h_int.matrix)
    with pytest.raises(ValueError, match="different graded spaces"):
        oracle_propagator(model.h_free, h_int, 0.5, 0.0)


def test_package_import_defers_the_heavy_scipy_modules():
    # A fresh interpreter, so the modules other tests loaded do not count:
    # a fresh ``import dysonprop, dysonprop.cli`` loads nothing from scipy.
    script = textwrap.dedent(
        f"""
        import json, sys
        import numpy as np
        import dysonprop, dysonprop.cli
        from dysonprop.suite import dense_propagator, fleet

        at_import = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        model = fleet(count=1)[0]
        xi = np.ones(model.h_free.dim, dtype=complex) / np.sqrt(model.h_free.dim)
        dense = dense_propagator(model.h_free, model.h_int, 0.7, -0.2)
        u = dysonprop.oracle_propagator(model.h_free, model.h_int, 0.7, -0.2)
        sparse_after_dense = "scipy.sparse" in sys.modules
        psi = dysonprop.ode_oracle(model.h_free, model.h_int, xi, 0.7, -0.2)
        after_calls = [m for m in ("scipy.linalg", "scipy.integrate")
                       if m in sys.modules]
        qed = dysonprop.build_model(dysonprop.default_toy_config())
        print(json.dumps({{
            "at_import": at_import,
            "sparse_after_dense": sparse_after_dense,
            "after_calls": after_calls,
            "gap": float(np.linalg.norm(u @ xi - psi)),
            "dense_gap": float(np.linalg.norm(dense - u, 2)),
            "qed_storage": type(qed.h_int.storage).__module__ + "."
                           + type(qed.h_int.storage).__name__,
            "qed_format": qed.h_int.storage.format,
        }}))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dysonprop.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.strip().splitlines()[-1])
    # The package and every dense path load nothing from scipy but the
    # oracle's scipy.linalg; the first CSR operator brings scipy.sparse.
    assert got["at_import"] == []
    assert got["sparse_after_dense"] is False
    assert got["after_calls"] == ["scipy.linalg", "scipy.integrate"]
    assert got["gap"] < 1e-9
    assert got["dense_gap"] < 1e-9
    assert got["qed_storage"].startswith("scipy.sparse.")
    assert got["qed_format"] == "csr"


def test_report_verdict_boundary():
    assert Report("x", 1.0, 1.0).passed
    assert not Report("x", 1.0 + 1e-12, 1.0).passed
    assert not Report("x", float("nan"), 1.0).passed
    with pytest.raises(ValueError):
        Report("x", -0.5, 1.0)


def test_report_json_shape():
    doc = Report("cocycle", 2e-9, 1e-7, context={"t": 0.5}).to_json()
    assert doc == {
        "check_name": "cocycle",
        "residual": 2e-9,
        "tolerance": 1e-7,
        "passed": True,
        "context": {"t": 0.5},
    }
