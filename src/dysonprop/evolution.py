"""Lab-frame state trajectories and Heisenberg observable tracks.

The series engine produces the interaction-picture propagator U(t, 0) at
every time of a single run's interval: at a panel edge from the running
sum, and inside a panel from the panel's interpolant.  The lab-frame group
is

    W(t) = e^{-i t h_free} U(t, 0),

so one run yields a whole trajectory.  ``_sampled_run`` is that run: it
takes the caller's output times as they are, runs ``default_grid``'s panels
to the time farthest from 0, and returns a ``Trajectory`` whose
``states[k]`` belongs to ``times[k]`` and whose ``series`` keeps the
interaction-picture sums at every output time.

Heisenberg evolution B(t) = W(-t) B W(t) has one route per form of its
equation of motion:

* strong: ``heisenberg_track`` assembles the dense B(t) from a forward and a
  backward identity run, and ``heisenberg_residuals`` grades it;
* weak: ``heisenberg_pairing_track`` follows <eta(t), B xi(t)> with its
  derivative, and ``weak_residual`` grades the track on its own;
* split: ``strong_split_residual`` checks the split derivative at one time.

The strong and split routes cost d columns and d x d matrices per time, so
they are small-space checks.  A result that several runs certify reports
the largest order and tail among them (``_joint_certificate``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .dyson import (
    DEFAULT_MAX_ORDER,
    SeriesResult,
    TimeGrid,
    _free_spectrum,
    default_grid,
    evolve_block,
)
from .graded import LinOp, support_level

if TYPE_CHECKING:
    from scipy.sparse import csr_array


def uniform_times(t_end: float, steps: int) -> np.ndarray:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t_end == 0.0:
        raise ValueError("t_end must be non-zero")
    return np.linspace(0.0, float(t_end), steps + 1)


def _as_block(states) -> np.ndarray:
    arr = np.asarray(states, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("states must be a vector or a (dim, columns) block")
    return arr


def _check_times(times) -> np.ndarray:
    """The verification layer's check times as an array; each must be positive."""
    times = np.asarray(times, dtype=float)
    if not (times > 0).all():
        raise ValueError("check times must be positive")
    return times


@dataclass(frozen=True)
class Trajectory:
    """States at the caller's times, certified by the runs they were read from.

    ``states[k]`` has shape (dim, columns) and holds W(times[k]) applied to
    the initial block; ``heisenberg_track`` stores B(times[k]) itself there.
    ``tail_bound`` covers the interaction-picture sums
    the states were read from; the free phase does not change norms.
    ``residuals[k]`` is the central-difference defect of the Schrodinger
    equation at interior times of a uniform track (NaN at the two
    endpoints), maximised over columns.  ``series`` keeps the underlying
    block run for per-order reporting.
    """

    times: np.ndarray
    states: np.ndarray
    achieved_order: int
    tail_bound: float
    grid: TimeGrid
    residuals: np.ndarray | None = None
    series: SeriesResult | None = None


def _sampled_run(
    h_free: LinOp,
    h_int: LinOp,
    block: np.ndarray,
    times,
    tol: float,
    max_order: int,
) -> Trajectory:
    """One block run from 0 that samples W at each of ``times``, in order.

    Every time must lie between 0 and the time farthest from 0, where the
    run's grid ends; ValueError otherwise, before any series runs.  The grid
    takes ``default_grid``'s panel count as it is.  A time on a panel edge
    reads that edge's sum, any other its panel's interpolant
    (``SeriesResult.output_sums``).

    Returns the block's trajectory on those times, without residuals; its
    ``series`` is the run.
    """
    times = np.asarray(times, dtype=float)
    t_end = float(times[np.argmax(np.abs(times))])
    if t_end == 0.0 or (times * t_end < 0).any():
        raise ValueError("output times must lie between 0 and a non-zero time")
    support = float(support_level(h_free.space, block).max())
    grid = default_grid(h_free, h_int, 0.0, t_end, support, tol=tol,
                        max_order=max_order)
    result = evolve_block(h_free, h_int, block, grid, tol, max_order=max_order,
                          _times=times)
    # W(t) = e^{-i t h_free} U(t, 0) at every output time at once.
    states = _free_spectrum(h_free).evolve(times, result.output_sums)
    return Trajectory(times, states, result.achieved_order, result.tail_bound,
                      result.grid, series=result)


def _joint_certificate(*runs) -> tuple[int, float]:
    """Order and tail of a result that several runs certify: the largest of each."""
    return (max(run.achieved_order for run in runs),
            max(run.tail_bound for run in runs))


def schrodinger_defects(
    times: np.ndarray, states: np.ndarray, h_total: np.ndarray | csr_array
) -> np.ndarray:
    """Central-difference defect  || (psi[k+1]-psi[k-1])/(2 dt) + i H psi[k] ||.

    ``h_total`` is a dense or CSR array; CSR is applied as it is stored.

    Defined at interior times only; the endpoint entries are NaN so table
    writers can leave them empty.
    """
    out = np.full(len(times), np.nan)
    if len(times) < 3:
        return out
    dt = float(times[1] - times[0])
    # One product over every interior time: columns ordered (time, column).
    interior = np.moveaxis(states[1:-1], 0, 1)  # (d, times - 2, ...)
    flat = interior.reshape(h_total.shape[0], -1)
    h_psi = (h_total @ flat).reshape(interior.shape)
    defect = (states[2:] - states[:-2]) / (2.0 * dt) + 1j * np.moveaxis(h_psi, 1, 0)
    norms = np.linalg.norm(defect, axis=1)  # over d, per time and column
    out[1:-1] = norms.reshape(len(times) - 2, -1).max(axis=1)
    return out


def schrodinger_trajectory(
    h_free: LinOp,
    h_int: LinOp,
    states0,
    t_end: float,
    steps: int,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
) -> Trajectory:
    """W(t) applied to the initial block at steps+1 uniform times from 0."""
    run = _sampled_run(h_free, h_int, _as_block(states0), uniform_times(t_end, steps),
                       tol, max_order)
    residuals = schrodinger_defects(run.times, run.states,
                                    h_free.storage + h_int.storage)
    return replace(run, residuals=residuals)


@dataclass(frozen=True)
class HeisenbergTrack:
    """Weak-form samples  <eta(t), B xi(t)>  at uniform times, with derivatives.

    eta(t) runs under the conjugate-transposed interaction, so the pairing
    equals the matrix element of B(t) between the two fixed vectors even
    when the interaction is not Hermitian.  ``derivatives[k]`` is the
    instantaneous derivative  i <eta(t), [h, B] xi(t)>  at times[k], with h
    the full generator, so the track grades itself (``weak_residual``).
    """

    times: np.ndarray
    values: np.ndarray        # (times, pairs)
    derivatives: np.ndarray   # (times, pairs)
    achieved_order: int
    tail_bound: float


def heisenberg_pairing_track(
    h_free: LinOp,
    h_int: LinOp,
    observable: LinOp,
    etas,
    xis,
    t_end: float,
    steps: int,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
) -> HeisenbergTrack:
    """The weak-form track of B between each column pair (eta, xi).

    xi runs forward under h and eta under h_free + h_int^*; each time's
    pairings and their derivatives are read from the two runs' states, so
    the track costs two series runs with one column per pair.
    """
    eta_block = _as_block(etas)
    xi_block = _as_block(xis)
    if eta_block.shape != xi_block.shape:
        raise ValueError("eta and xi blocks must have matching shapes")
    times = uniform_times(t_end, steps)
    fwd = _sampled_run(h_free, h_int, xi_block, times, tol, max_order)
    dual = _sampled_run(h_free, h_int.H, eta_block, times, tol, max_order)
    h_mat = (h_free + h_int).matrix
    b_mat = observable.matrix
    comm = h_mat @ b_mat - b_mat @ h_mat
    eta_bar = dual.states.conj()
    values = np.einsum("tdp,de,tep->tp", eta_bar, b_mat, fwd.states)
    derivatives = 1j * np.einsum("tdp,de,tep->tp", eta_bar, comm, fwd.states)
    return HeisenbergTrack(fwd.times, values, derivatives,
                           *_joint_certificate(fwd, dual))


def weak_residual(track: HeisenbergTrack, stride: int = 1) -> dict:
    """Central-difference check of the weak Heisenberg equation.

    The difference of the track's values is compared with the derivatives
    it carries.  ``stride`` subsamples the track, doubling the step for
    the finite-difference order check without a second run.
    """
    times = track.times[::stride]
    values = track.values[::stride]
    if len(times) < 3:
        raise ValueError("need at least three sampled times")
    dt = float(times[1] - times[0])
    diffs = (values[2:] - values[:-2]) / (2.0 * dt)
    resid = np.abs(diffs - track.derivatives[::stride][1:-1])
    return {
        "max_residual": float(resid.max()),
        "dt": dt,
        "per_time": resid.max(axis=1),
        "interior_times": times[1:-1],
    }


def heisenberg_track(
    h_free: LinOp,
    h_int: LinOp,
    observable: LinOp,
    t_end: float,
    steps: int,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
) -> Trajectory:
    """The full B(t) = W(-t) B W(t) matrices at steps+1 uniform times from 0.

    ``states[k]`` is B(times[k]), certified by the forward and backward
    identity runs it is assembled from; the runs carry d columns and the
    result d x d matrices per time, so this is meant for small spaces and
    cross-checks.
    """
    eye = np.eye(h_free.space.dim, dtype=complex)
    fwd = _sampled_run(h_free, h_int, eye, uniform_times(t_end, steps), tol, max_order)
    bwd = _sampled_run(h_free, h_int, eye, uniform_times(-t_end, steps), tol, max_order)
    mats = bwd.states @ observable.matrix @ fwd.states
    return Trajectory(fwd.times, mats, *_joint_certificate(fwd, bwd), fwd.grid)


def heisenberg_residuals(
    track: Trajectory,
    h_total: LinOp,
    pairs: int = 20,
    seed: int = 11,
    stride: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Strong and weak defects of the Heisenberg equation at interior times.

    Both compare one central difference of B(t) per interior time.  The
    strong defect is its distance from i[h, B(t)] in spectral norm.  The
    weak defect contracts it with random fixed pairs (eta, xi), testing the
    sesquilinear form with h acting on the vectors (its adjoint on the left
    slot), and is the max over pairs.  ``stride`` subsamples the track,
    doubling the step for the order check without a second run.
    """
    times = track.times[::stride]
    states = track.states[::stride]
    if len(times) < 3:
        raise ValueError("need at least three sampled times")
    h_mat = h_total.matrix
    dt = float(times[1] - times[0])
    rng = np.random.default_rng(seed)
    dim = h_mat.shape[0]
    etas = rng.normal(size=(dim, pairs)) + 1j * rng.normal(size=(dim, pairs))
    xis = rng.normal(size=(dim, pairs)) + 1j * rng.normal(size=(dim, pairs))
    ih_etas = (1j * h_mat).conj().T @ etas
    ih_xis = 1j * (h_mat @ xis)
    strong = np.empty(len(times) - 2)
    weak = np.empty(len(times) - 2)
    for i in range(len(times) - 2):
        b_now = states[i + 1]
        diff = (states[i + 2] - states[i]) / (2.0 * dt)
        comm = 1j * (h_mat @ b_now - b_now @ h_mat)
        strong[i] = float(np.linalg.norm(diff - comm, 2))
        lhs = np.einsum("dp,de,ep->p", etas.conj(), diff, xis)
        rhs = np.einsum("dp,de,ep->p", ih_etas.conj(), b_now, xis) - np.einsum(
            "dp,dp->p", (b_now.conj().T @ etas).conj(), ih_xis
        )
        weak[i] = float(np.abs(lhs - rhs).max())
    return strong, weak


@dataclass(frozen=True)
class SplitFormCheck:
    """Residuals of the strong Heisenberg equation at one time.

    ``difference_residual`` compares a central difference of B(t) xi with
    the split derivative  W(-t) i[h_int, B] W(t) xi + U(0, t) B0'(t)
    U(t, 0) xi;  ``commutator_residual`` compares the split derivative with
    i [h, B(t)] xi, which it equals in exact arithmetic.
    """

    time: float
    dt: float
    difference_residual: float
    commutator_residual: float
    derivative_norm: float
    tail_bound: float


def strong_split_residual(
    h_free: LinOp,
    h_int: LinOp,
    observable: LinOp,
    xi: np.ndarray,
    t: float,
    substeps: int = 8,
    tol: float = 1e-10,
    max_order: int = DEFAULT_MAX_ORDER,
) -> SplitFormCheck:
    """Check the split strong form at time t with dt = t / substeps."""
    if t <= 0:
        raise ValueError("the check time must be positive")
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    h_mat = (h_free + h_int).matrix
    dt = t / substeps
    track = heisenberg_track(
        h_free, h_int, observable, t + dt, substeps + 1, tol,
        max_order=max_order,
    )
    b_prev, b_here, b_next = track.states[substeps - 1:substeps + 2]
    diff = (b_next - b_prev) @ xi / (2.0 * dt)

    fwd = _sampled_run(h_free, h_int, xi[:, None], (0.0, t), tol, max_order)
    w_xi = fwd.states[1][:, 0]
    h1, b_mat = h_int.matrix, observable.matrix
    comm_int = 1j * (h1 @ b_mat - b_mat @ h1)
    staged = comm_int @ w_xi
    backward = _sampled_run(h_free, h_int, staged[:, None], (0.0, -t), tol, max_order)
    term1 = backward.states[1][:, 0]

    # B0'(t) U(t, 0) xi = e^{i t h0} i[h0, B] W(t) xi.
    h0 = h_free.storage
    comm_free = 1j * (h0 @ (b_mat @ w_xi) - b_mat @ (h0 @ w_xi))
    b0_prime = _free_spectrum(h_free).evolve(-t, comm_free[:, None])[:, 0]
    grid_down = default_grid(
        h_free, h_int, t, 0.0,
        support=support_level(h_free.space, b0_prime), tol=tol,
        max_order=max_order,
    )
    down = evolve_block(
        h_free, h_int, b0_prime[:, None], grid_down, tol, max_order=max_order
    )
    term2 = down.final()[:, 0]
    split = term1 + term2

    commutator = 1j * (h_mat @ (b_here @ xi) - b_here @ (h_mat @ xi))
    return SplitFormCheck(
        time=float(t),
        dt=float(dt),
        difference_residual=float(np.linalg.norm(diff - split)),
        commutator_residual=float(np.linalg.norm(split - commutator)),
        derivative_norm=float(np.linalg.norm(split)),
        tail_bound=_joint_certificate(track, fwd, backward, down)[1],
    )
