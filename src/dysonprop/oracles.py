"""Independent reference computations the series engine is checked against.

The matrix-exponential route uses Pade scaling-and-squaring; the ODE route
uses an adaptive high-order Runge-Kutta pair.  Both are valid for non-normal
generators, and the two are compared against each other as well as against
the series.  The exponential of ``h = h_free + h_int`` is taken per connected
component of h's exact non-zero pattern: a matrix that is block diagonal up
to a permutation exponentiates block by block, with no loss of accuracy.
The stock QED model falls into 63 such blocks (the largest of 106 of its
560 states), every fleet model into one.  The ODE route integrates the
whole space, so the two routes stay independent.  ``scipy.linalg`` and
``scipy.integrate`` are imported on the first call of ``matrix_exp`` and
``ode_oracle``, not with the package, so a run that calls neither does not
pay for loading them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Any

import numpy as np

from .dyson import _free_spectrum, _prepare
from .errors import StiffnessError
from .graded import LinOp, _components, _entries


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


def _finite_times(t: float, t_prime: float) -> None:
    if not (np.isfinite(t) and np.isfinite(t_prime)):
        raise ValueError(f"times must be finite, got t={t!r}, t'={t_prime!r}")


def _component_exp(scale: complex, h) -> np.ndarray:
    """e^{scale h}, one ``matrix_exp`` per connected component of h.

    ``h`` is a ``LinOp`` storage (or a sum of them), dense or CSR.  The
    components are those of the undirected graph with an edge i -- j for
    each stored ``h[i, j] != 0``; each one's exponential is scattered into
    its rows and columns of the dense result, which is zero elsewhere.
    """
    n = h.shape[0]
    rows, cols, values = _entries(h)
    count, labels = _components(n, rows, cols)
    # The block scatter is exact only if no entry crosses two components;
    # checking it keeps the oracle independent of the labeller.
    entry_labels = labels[rows]
    if np.any(entry_labels != labels[cols]):
        raise RuntimeError("a non-zero entry joins two components of the labelling")
    out = np.zeros((n, n), dtype=complex)
    local = np.empty(n, dtype=np.intp)  # a state's index inside its component
    for k in range(count):
        states = np.flatnonzero(labels == k)
        local[states] = np.arange(states.size)
        taken = entry_labels == k
        block = np.zeros((states.size, states.size), dtype=complex)
        block[local[rows[taken]], local[cols[taken]]] = values[taken]
        out[np.ix_(states, states)] = matrix_exp(scale * block)
    return out


def oracle_propagator(h_free: LinOp, h_int: LinOp, t: float, t_prime: float) -> np.ndarray:
    """Reference propagator  e^{i t h_free} e^{-i (t - t') h} e^{-i t' h_free}.

    In finite dimension this solves the same initial-value problem as the
    series for any interaction, symmetric or not, by uniqueness.  The middle
    factor is exponentiated per connected component of h (``_component_exp``).
    """
    _finite_times(t, t_prime)
    h_free._same_space(h_int)
    mid = _component_exp(-1j * (t - t_prime), h_free.storage + h_int.storage)
    return _free_spectrum(h_free).two_sided(t, mid, t_prime)


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
    _finite_times(t, t_prime)
    import scipy.integrate

    prep = _prepare(h_free, h_int)
    y0 = prep.to_working(np.asarray(xi, dtype=complex).reshape(-1, 1))[:, 0]
    energies = prep.energies
    # The stored operator itself.  On its CSR path the series kernel
    # multiplies these same stored entries, so this check is independent of
    # the series only in its time integration: an adaptive Runge-Kutta
    # route, not the Gauss-Legendre quadrature.
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
