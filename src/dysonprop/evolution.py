"""Lab-frame state trajectories and Heisenberg observable tracks.

The series engine produces the interaction-picture propagator U(t, 0) at
every panel boundary of a single run; the lab-frame group is

    W(t) = e^{-i t h_free} U(t, 0),

so one run yields a whole trajectory.  Heisenberg evolution B(t) =
W(-t) B W(t) is sampled through paired forward and backward runs: the
backward run carries one column per output time and the matching boundary
is read off its diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyson import (
    DEFAULT_MAX_ORDER,
    DEFAULT_NODES_PER_PANEL,
    TimeGrid,
    _prepare,
    default_grid,
    evolve_block,
    free_propagator,
)
from .graded import LinOp, support_level


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


def _time_index(times: np.ndarray, t: float) -> int:
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-12 * max(1.0, float(np.abs(times).max())):
        raise ValueError(f"time {t} is not one of the sampled times")
    return idx


def _aligned_steps(times) -> int:
    """Fewest uniform steps from 0 to max(times) that land on every time.

    Raises ValueError when no count up to 64 does.
    """
    t_max = max(times)
    fractions = [t / t_max for t in times]
    steps = 1
    while any(abs(f * steps - round(f * steps)) > 1e-9 for f in fractions):
        steps += 1
        if steps > 64:
            raise ValueError("times do not share a coarse refinement")
    return steps


def _aligned_run(
    h_free: LinOp,
    h_int: LinOp,
    block: np.ndarray,
    t_end: float,
    steps: int,
    tol: float,
    max_order: int,
    nodes_per_panel: int = DEFAULT_NODES_PER_PANEL,
):
    """One block run whose panel edges include steps+1 uniform times from 0.

    Returns (times, states, result, stride): ``states[k]`` is W(times[k])
    applied to the block and ``result.boundary_sums[k * stride]`` the
    interaction-picture sum it was read from.
    """
    times = uniform_times(t_end, steps)
    support = float(support_level(h_free.space, block).max())
    grid = default_grid(
        h_free, h_int, 0.0, float(t_end), support, tol=tol,
        nodes_per_panel=nodes_per_panel, max_order=max_order,
        panel_multiple=steps,
    )
    result = evolve_block(h_free, h_int, block, grid, tol, max_order=max_order)
    stride = grid.panels // steps
    drift = np.abs(grid.boundaries()[::stride] - times).max()
    if drift > 1e-9 * max(1.0, abs(t_end)):
        raise AssertionError("panel boundaries drifted off the output times")
    # W(t) = e^{-i t h_free} U(t, 0), the free phase taken in the eigenbasis.
    prep = _prepare(h_free, h_int)
    states = np.empty((steps + 1,) + block.shape, dtype=complex)
    for k, (t, sums) in enumerate(zip(times, result.boundary_sums[::stride])):
        phase = np.exp(-1j * t * prep.energies)[:, None]
        states[k] = prep.from_working(phase * prep.to_working(sums))
    return times, states, result, stride


@dataclass(frozen=True)
class Trajectory:
    """States sampled on uniform times, all certified by one series run.

    ``states[k]`` has shape (dim, columns) and holds W(times[k]) applied to
    the initial block.  ``tail_bound`` covers the interaction-picture sums
    the states were read from; the free phase does not change norms.
    ``residuals[k]`` is the central-difference defect of the Schrodinger
    equation at interior times (NaN at the two endpoints), maximised over
    columns.  ``series`` keeps the underlying block run for per-order
    reporting.
    """

    times: np.ndarray
    states: np.ndarray
    achieved_order: int
    tail_bound: float
    grid: TimeGrid
    residuals: np.ndarray | None = None
    series: object = None

    def at_time(self, t: float) -> np.ndarray:
        return self.states[_time_index(self.times, t)]


def schrodinger_defects(
    times: np.ndarray, states: np.ndarray, h_total: np.ndarray
) -> np.ndarray:
    """Central-difference defect  || (psi[k+1]-psi[k-1])/(2 dt) + i H psi[k] ||.

    Defined at interior times only; the endpoint entries are NaN so table
    writers can leave them empty.
    """
    out = np.full(len(times), np.nan)
    if len(times) < 3:
        return out
    dt = float(times[1] - times[0])
    for k in range(1, len(times) - 1):
        diff = (states[k + 1] - states[k - 1]) / (2.0 * dt)
        defect = diff + 1j * (h_total @ states[k])
        out[k] = float(np.linalg.norm(defect, axis=0).max())
    return out


def schrodinger_trajectory(
    h_free: LinOp,
    h_int: LinOp,
    states0,
    t_end: float,
    steps: int,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
    nodes_per_panel: int = DEFAULT_NODES_PER_PANEL,
) -> Trajectory:
    """W(t) applied to the initial block at steps+1 uniform times from 0."""
    times, states, result, _ = _aligned_run(
        h_free, h_int, _as_block(states0), t_end, steps, tol, max_order,
        nodes_per_panel,
    )
    residuals = schrodinger_defects(times, states, h_free.matrix + h_int.matrix)
    return Trajectory(
        times=times,
        states=states,
        achieved_order=result.achieved_order,
        tail_bound=result.tail_bound,
        grid=result.grid,
        residuals=residuals,
        series=result,
    )


@dataclass(frozen=True)
class HeisenbergTrack:
    """Weak-form samples  <eta(t), B xi(t)>  on uniform times.

    eta(t) runs under the conjugate-transposed interaction, so the pairing
    equals the matrix element of B(t) between the two fixed vectors even
    when the interaction is not Hermitian.
    """

    times: np.ndarray
    values: np.ndarray        # (times, pairs)
    eta_states: np.ndarray    # (times, dim, pairs)
    xi_states: np.ndarray
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
    eta_block = _as_block(etas)
    xi_block = _as_block(xis)
    if eta_block.shape != xi_block.shape:
        raise ValueError("eta and xi blocks must have matching shapes")
    fwd = schrodinger_trajectory(
        h_free, h_int, xi_block, t_end, steps, tol, max_order=max_order
    )
    dual = schrodinger_trajectory(
        h_free, h_int.H, eta_block, t_end, steps, tol, max_order=max_order
    )
    values = np.einsum(
        "tdp,de,tep->tp", dual.states.conj(), observable.matrix, fwd.states
    )
    return HeisenbergTrack(
        times=fwd.times,
        values=values,
        eta_states=dual.states,
        xi_states=fwd.states,
        achieved_order=max(fwd.achieved_order, dual.achieved_order),
        tail_bound=max(fwd.tail_bound, dual.tail_bound),
    )


def weak_residual(
    track: HeisenbergTrack,
    h_free: LinOp,
    h_int: LinOp,
    observable: LinOp,
    stride: int = 1,
) -> dict:
    """Central-difference check of the weak Heisenberg equation.

    The instantaneous derivative is  i <eta(t), [h, B] xi(t)>  with h the
    full generator.  ``stride`` subsamples the track, doubling the step for
    the finite-difference order check without a second run.
    """
    times = track.times[::stride]
    values = track.values[::stride]
    etas = track.eta_states[::stride]
    xis = track.xi_states[::stride]
    if len(times) < 3:
        raise ValueError("need at least three sampled times")
    h_mat = h_free.matrix + h_int.matrix
    b_mat = observable.matrix
    comm = h_mat @ b_mat - b_mat @ h_mat
    inst = 1j * np.einsum("tdp,de,tep->tp", etas.conj(), comm, xis)
    dt = float(times[1] - times[0])
    diffs = (values[2:] - values[:-2]) / (2.0 * dt)
    resid = np.abs(diffs - inst[1:-1])
    return {
        "max_residual": float(resid.max()),
        "dt": dt,
        "per_time": resid.max(axis=1),
        "interior_times": times[1:-1],
    }


@dataclass(frozen=True)
class ObservableTrack:
    """Dense Heisenberg matrices  B(t_k) = W(-t_k) B W(t_k)  on uniform times.

    Assembled from two identity block runs, so the cost grows with the
    square of the dimension; meant for small spaces and cross-checks.
    """

    times: np.ndarray
    matrices: np.ndarray  # (times, dim, dim)
    source: LinOp

    def at_time(self, t: float) -> np.ndarray:
        return self.matrices[_time_index(self.times, t)]


def heisenberg_track(
    h_free: LinOp,
    h_int: LinOp,
    observable: LinOp,
    t_end: float,
    steps: int,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
) -> ObservableTrack:
    """The full B(t) matrices at steps+1 uniform times from 0."""
    dim = h_free.space.dim
    eye = np.eye(dim, dtype=complex)
    fwd = schrodinger_trajectory(h_free, h_int, eye, t_end, steps, tol,
                                 max_order=max_order)
    bwd = schrodinger_trajectory(h_free, h_int, eye, -t_end, steps, tol,
                                 max_order=max_order)
    mats = np.empty((steps + 1, dim, dim), dtype=complex)
    for k in range(steps + 1):
        mats[k] = bwd.states[k] @ observable.matrix @ fwd.states[k]
    return ObservableTrack(times=fwd.times, matrices=mats, source=observable)


def heisenberg_residuals(
    track: ObservableTrack,
    h_total: LinOp,
    mode: str = "strong",
    pairs: int = 20,
    seed: int = 11,
) -> np.ndarray:
    """Defect of the Heisenberg equation at the interior times.

    Strong mode compares the central difference of B(t) with i[h, B(t)] in
    spectral norm.  Weak mode contracts the same difference with random
    fixed pairs (eta, xi), testing the sesquilinear form with the adjoint
    acting on the left slot, and returns the max over pairs.
    """
    if len(track.times) < 3:
        raise ValueError("need at least three sampled times")
    if mode not in ("strong", "weak"):
        raise ValueError("mode must be 'strong' or 'weak'")
    h_mat = h_total.matrix
    dt = float(track.times[1] - track.times[0])
    interior = range(1, len(track.times) - 1)
    out = np.empty(len(track.times) - 2)
    if mode == "strong":
        for i, k in enumerate(interior):
            diff = (track.matrices[k + 1] - track.matrices[k - 1]) / (2.0 * dt)
            comm = 1j * (h_mat @ track.matrices[k] - track.matrices[k] @ h_mat)
            out[i] = float(np.linalg.norm(diff - comm, 2))
        return out
    rng = np.random.default_rng(seed)
    dim = h_mat.shape[0]
    etas = rng.normal(size=(dim, pairs)) + 1j * rng.normal(size=(dim, pairs))
    xis = rng.normal(size=(dim, pairs)) + 1j * rng.normal(size=(dim, pairs))
    ih_etas = (1j * h_mat).conj().T @ etas
    ih_xis = 1j * (h_mat @ xis)
    for i, k in enumerate(interior):
        diff = (track.matrices[k + 1] - track.matrices[k - 1]) / (2.0 * dt)
        lhs = np.einsum("dp,de,ep->p", etas.conj(), diff, xis)
        b_now = track.matrices[k]
        rhs = np.einsum("dp,de,ep->p", ih_etas.conj(), b_now, xis) - np.einsum(
            "dp,dp->p", (b_now.conj().T @ etas).conj(), ih_xis
        )
        out[i] = float(np.abs(lhs - rhs).max())
    return out


def observable_track(
    h_free: LinOp,
    h_int: LinOp,
    observable: LinOp,
    states0,
    t_end: float,
    steps: int,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
) -> Trajectory:
    """Strong-form samples  B(t) xi = W(-t) B W(t) xi  on uniform times.

    One forward block run produces W(t) xi at every output time; the
    backward run then carries one column per (time, initial column) pair
    and the matching time is read off its own boundary, so the whole track
    costs two series runs.
    """
    block = _as_block(states0)
    dim, m = block.shape
    fwd = schrodinger_trajectory(
        h_free, h_int, block, t_end, steps, tol, max_order=max_order
    )
    n_times = steps + 1
    staged = np.empty((dim, n_times * m), dtype=complex)
    for k in range(n_times):
        staged[:, k * m:(k + 1) * m] = observable.matrix @ fwd.states[k]

    # back_states[j] holds W(-t_j) B W(t_k) xi for every k; the track keeps
    # the column group with k = j.
    _, back_states, back, _ = _aligned_run(
        h_free, h_int, staged, -t_end, steps, tol, max_order
    )
    states = np.stack([back_states[k][:, k * m:(k + 1) * m]
                       for k in range(n_times)])
    return Trajectory(
        times=fwd.times,
        states=states,
        achieved_order=max(fwd.achieved_order, back.achieved_order),
        tail_bound=max(fwd.tail_bound, back.tail_bound),
        grid=fwd.grid,
    )


def free_observable_derivative(h_free: LinOp, observable: LinOp, t: float) -> LinOp:
    """d/dt of the freely-evolved observable at time t.

    Equals  e^{i t h0} (i [h0, B]) e^{-i t h0}.
    """
    comm = 1j * (h_free.matrix @ observable.matrix - observable.matrix @ h_free.matrix)
    left = free_propagator(h_free, -t)
    right = free_propagator(h_free, t)
    return LinOp(h_free.space, left @ comm @ right)


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
    h_mat = h_free.matrix + h_int.matrix
    columns = np.stack([xi, h_mat @ xi], axis=1)
    dt = t / substeps
    track = observable_track(
        h_free, h_int, observable, columns, t + dt, substeps + 1, tol,
        max_order=max_order,
    )
    v_prev = track.states[substeps - 1][:, 0]
    v_here = track.states[substeps]
    v_next = track.states[substeps + 1][:, 0]
    diff = (v_next - v_prev) / (2.0 * dt)

    fwd = schrodinger_trajectory(h_free, h_int, xi, t, 1, tol, max_order=max_order)
    w_xi = fwd.states[1][:, 0]
    comm_int = 1j * (h_int.matrix @ observable.matrix - observable.matrix @ h_int.matrix)
    staged = comm_int @ w_xi
    backward = schrodinger_trajectory(
        h_free, h_int, staged, -t, 1, tol, max_order=max_order
    )
    term1 = backward.states[1][:, 0]

    u_t_xi = free_propagator(h_free, -t) @ w_xi
    b0_prime = free_observable_derivative(h_free, observable, t).matrix @ u_t_xi
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

    commutator = 1j * (h_mat @ v_here[:, 0] - v_here[:, 1])
    return SplitFormCheck(
        time=float(t),
        dt=float(dt),
        difference_residual=float(np.linalg.norm(diff - split)),
        commutator_residual=float(np.linalg.norm(split - commutator)),
        derivative_norm=float(np.linalg.norm(split)),
        tail_bound=max(track.tail_bound, fwd.tail_bound, backward.tail_bound,
                       down.tail_bound),
    )
