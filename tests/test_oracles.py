"""Reference routes: matrix exponential, adaptive ODE, and report plumbing."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dysonprop
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
