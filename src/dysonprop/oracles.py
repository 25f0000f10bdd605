"""Independent reference computations the series engine is checked against.

The matrix-exponential route uses Pade scaling-and-squaring; the ODE route
uses an adaptive high-order Runge-Kutta pair.  Both are valid for non-normal
generators, and the two are compared against each other as well as against
the series.  ``scipy.linalg`` and ``scipy.integrate`` are imported on the
first call of ``matrix_exp`` and ``ode_oracle``, not with the package, so a
run that calls neither does not pay for loading them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any

import numpy as np

from .dyson import _free_spectrum, _prepare
from .errors import StiffnessError
from .graded import LinOp, _dense


@dataclass(frozen=True)
class Report:
    """One named check with its residual and verdict.

    ``passed`` is derived: it is true exactly when residual <= tolerance.
    """

    check_name: str
    residual: float
    tolerance: float
    context: dict[str, Any] = dc_field(default_factory=dict)

    def __post_init__(self):
        if not (self.residual >= 0 or np.isnan(self.residual)):
            raise ValueError("residual must be non-negative")

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_json(self) -> dict:
        return {
            "check_name": self.check_name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "context": self.context,
        }


def matrix_exp(matrix: np.ndarray) -> np.ndarray:
    """e^M by Pade scaling-and-squaring, valid for non-normal input."""
    import scipy.linalg

    m = np.asarray(matrix, dtype=complex)
    out = scipy.linalg.expm(m)
    if not np.all(np.isfinite(out.view(float))):
        raise OverflowError("matrix exponential overflowed for this input")
    return out


def oracle_propagator(h_free: LinOp, h_int: LinOp, t: float, t_prime: float) -> np.ndarray:
    """Reference propagator  e^{i t h_free} e^{-i (t - t') h} e^{-i t' h_free}.

    In finite dimension this solves the same initial-value problem as the
    series for any interaction, symmetric or not, by uniqueness.
    """
    h = _dense(h_free.storage + h_int.storage)
    mid = matrix_exp(-1j * (t - t_prime) * h)
    # e^{-i t' h_free} on the right is e^{i t' h_free} applied to the adjoint.
    free = _free_spectrum(h_free)
    left = free.evolve(-t, mid)
    return np.conjugate(free.evolve(-t_prime, left.conj().T).T, order="C")


def ode_oracle(
    h_free: LinOp,
    h_int: LinOp,
    xi: np.ndarray,
    t: float,
    t_prime: float,
    tol: float = 1e-11,
) -> np.ndarray:
    """Integrate  d/dtau psi = -i h_int(tau) psi  from t' to t adaptively.

    An embedded Runge-Kutta pair (DOP853) supplies the reference solution in
    the rotated picture; failure to advance raises StiffnessError.
    """
    import scipy.integrate

    prep = _prepare(h_free, h_int)
    y0 = prep.to_working(np.asarray(xi, dtype=complex).reshape(-1, 1))[:, 0]
    energies = prep.energies
    # The stored operator, not prep.blocks: an independent check of the block apply.
    h_rot = (h_int if prep.h_int_rot is None else prep.h_int_rot).storage

    def rhs(tau, y):
        phase = np.exp(-1j * tau * energies)
        return -1j * (phase.conj() * (h_rot @ (phase * y)))

    sol = scipy.integrate.solve_ivp(
        rhs,
        (t_prime, t),
        y0,
        method="DOP853",
        rtol=tol,
        atol=tol,
        dense_output=False,
    )
    if not sol.success:
        raise StiffnessError(
            "adaptive integrator failed to reach the target time",
            detail=sol.message,
        )
    return prep.from_working(sol.y[:, -1].reshape(-1, 1))[:, 0]
