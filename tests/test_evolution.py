"""Trajectories in lab frame, Heisenberg tracks, and the split-form check."""

import dataclasses

import numpy as np
import pytest

from dysonprop.dyson import _free_spectrum, free_propagator
from dysonprop.evolution import (
    heisenberg_pairing_track,
    heisenberg_residuals,
    heisenberg_track,
    schrodinger_defects,
    schrodinger_trajectory,
    strong_split_residual,
    uniform_times,
    weak_residual,
)
from dysonprop.graded import GradedSpace, LinOp, vectors_supported_below
from dysonprop.oracles import matrix_exp, oracle_propagator
from dysonprop.suite import dense_propagator, random_graded_model


def full_h(model):
    return model.h_free.matrix + model.h_int.matrix


def block_free_model():
    """The small model's sizes with a sector-block (non-diagonal) free part."""
    return random_graded_model(11, 8, 2, block_free_part=True)


def unit(dim, j):
    v = np.zeros(dim, dtype=complex)
    v[j] = 1.0
    return v


def test_uniform_times_validation():
    with pytest.raises(ValueError):
        uniform_times(1.0, 0)
    with pytest.raises(ValueError):
        uniform_times(0.0, 5)
    ts = uniform_times(-1.0, 4)
    assert ts[0] == 0.0 and ts[-1] == -1.0 and len(ts) == 5


def test_free_case_is_a_pure_phase():
    space = GradedSpace((0.0, 1.0))
    h0 = LinOp(space, np.diag([0.5, 2.0]).astype(complex))
    zero = LinOp(space, np.zeros((2, 2), dtype=complex))
    xi = np.array([0.6, 0.8], dtype=complex)
    traj = schrodinger_trajectory(h0, zero, xi, t_end=1.0, steps=4, tol=1e-12)
    for k, t in enumerate(traj.times):
        want = np.exp(-1j * t * np.array([0.5, 2.0])) * xi
        np.testing.assert_allclose(traj.states[k][:, 0], want, atol=1e-14)
        assert np.linalg.norm(traj.states[k][:, 0]) == pytest.approx(1.0)


def test_trajectory_matches_full_exponential(small_model):
    xi = unit(8, 0)
    for model in (small_model, block_free_model()):
        h = full_h(model)
        traj = schrodinger_trajectory(
            model.h_free, model.h_int, xi, t_end=0.8, steps=8, tol=1e-12
        )
        for k, t in enumerate(traj.times):
            want = matrix_exp(-1j * t * h) @ xi
            assert np.linalg.norm(traj.states[k][:, 0] - want) < 1e-9
        assert traj.tail_bound < 1e-12
        # states[k] belongs to times[k], the uniform times asked for.
        np.testing.assert_array_equal(traj.times, uniform_times(0.8, 8))


def test_central_difference_defect_scales_quadratically(small_model):
    xi = unit(8, 1)
    coarse = schrodinger_trajectory(
        small_model.h_free, small_model.h_int, xi, 0.4, 40, tol=1e-13
    )
    fine = schrodinger_trajectory(
        small_model.h_free, small_model.h_int, xi, 0.4, 80, tol=1e-13
    )
    r_c = np.nanmax(coarse.residuals)
    r_f = np.nanmax(fine.residuals)
    assert r_c / r_f == pytest.approx(4.0, rel=0.05)
    assert np.isnan(coarse.residuals[0]) and np.isnan(coarse.residuals[-1])


def test_batched_defects_match_the_per_time_loop(small_model):
    block = np.eye(8)[:, [1, 4]]
    traj = schrodinger_trajectory(
        small_model.h_free, small_model.h_int, block, 0.4, 40, tol=1e-13
    )
    h = full_h(small_model)
    got = schrodinger_defects(traj.times, traj.states, h)
    dt = traj.times[1] - traj.times[0]
    eps = np.finfo(float).eps
    assert np.isnan(got[0]) and np.isnan(got[-1])
    for k in range(1, len(traj.times) - 1):
        psi = traj.states[k]
        diff = (traj.states[k + 1] - traj.states[k - 1]) / (2.0 * dt)
        want = np.linalg.norm(diff + 1j * (h @ psi), axis=0).max()
        # Only the rounding of H psi differs: d eps ||H||_F ||psi|| bounds it.
        assert abs(got[k] - want) <= 8 * eps * np.linalg.norm(h) * np.linalg.norm(psi)


def test_propagator_w_equals_exponential(small_model):
    t = 0.7
    w = free_propagator(small_model.h_free, t) @ dense_propagator(
        small_model.h_free, small_model.h_int, t, 0.0, 1e-12
    )
    want = matrix_exp(-1j * t * full_h(small_model))
    assert np.linalg.norm(w - want, 2) < 1e-9


def test_heisenberg_track_initial_value_and_oracle(small_model):
    rng = np.random.default_rng(2)
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    obs = LinOp(small_model.h_free.space, b)
    track = heisenberg_track(
        small_model.h_free, small_model.h_int, obs, t_end=0.6, steps=6, tol=1e-12
    )
    np.testing.assert_array_equal(track.states[0], b)
    h = full_h(small_model)
    for k in (3, 6):
        t = track.times[k]
        want = matrix_exp(1j * t * h) @ b @ matrix_exp(-1j * t * h)
        assert np.linalg.norm(track.states[k] - want, 2) < 1e-8
    assert track.times[3] == pytest.approx(0.3)


def test_heisenberg_residuals_strong_and_weak(small_model):
    obs = LinOp(small_model.h_free.space, np.diag(np.arange(8, dtype=float)))
    track = heisenberg_track(
        small_model.h_free, small_model.h_int, obs, t_end=0.4, steps=40, tol=1e-12
    )
    h_total = LinOp(small_model.h_free.space, full_h(small_model))
    strong, _ = heisenberg_residuals(track, h_total)
    assert strong.shape == (39,)
    assert strong.max() < 1e-2
    _, weak = heisenberg_residuals(track, h_total, pairs=5, seed=3)
    assert weak.max() < strong.max() * 50  # random pairs scale, same dt order
    for stride in (40, 0, -1):
        with pytest.raises(ValueError):
            heisenberg_residuals(track, h_total, stride=stride)


def reference_residuals(track, h_total, mode, pairs=20, seed=11):
    """The strong and the weak loop, each run on its own as separate modes."""
    h_mat = h_total.matrix
    dt = float(track.times[1] - track.times[0])
    interior = range(1, len(track.times) - 1)
    out = np.empty(len(track.times) - 2)
    if mode == "strong":
        for i, k in enumerate(interior):
            diff = (track.states[k + 1] - track.states[k - 1]) / (2.0 * dt)
            comm = 1j * (h_mat @ track.states[k] - track.states[k] @ h_mat)
            out[i] = float(np.linalg.norm(diff - comm, 2))
        return out
    rng = np.random.default_rng(seed)
    dim = h_mat.shape[0]
    etas = rng.normal(size=(dim, pairs)) + 1j * rng.normal(size=(dim, pairs))
    xis = rng.normal(size=(dim, pairs)) + 1j * rng.normal(size=(dim, pairs))
    ih_etas = (1j * h_mat).conj().T @ etas
    ih_xis = 1j * (h_mat @ xis)
    for i, k in enumerate(interior):
        diff = (track.states[k + 1] - track.states[k - 1]) / (2.0 * dt)
        lhs = np.einsum("dp,de,ep->p", etas.conj(), diff, xis)
        b_now = track.states[k]
        rhs = np.einsum("dp,de,ep->p", ih_etas.conj(), b_now, xis) - np.einsum(
            "dp,dp->p", (b_now.conj().T @ etas).conj(), ih_xis
        )
        out[i] = float(np.abs(lhs - rhs).max())
    return out


def test_one_pass_residuals_equal_the_separate_loops(small_model):
    rng = np.random.default_rng(4)
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    obs = LinOp(small_model.h_free.space, b)
    track = heisenberg_track(
        small_model.h_free, small_model.h_int, obs, t_end=0.4, steps=12, tol=1e-12
    )
    h_total = small_model.h_free + small_model.h_int
    strong, weak = heisenberg_residuals(track, h_total, pairs=6, seed=5)
    np.testing.assert_array_equal(strong, reference_residuals(track, h_total, "strong"))
    np.testing.assert_array_equal(
        weak, reference_residuals(track, h_total, "weak", pairs=6, seed=5)
    )
    coarse = dataclasses.replace(track, times=track.times[::2],
                                 states=track.states[::2])
    for got, want in zip(heisenberg_residuals(track, h_total, stride=2),
                         heisenberg_residuals(coarse, h_total)):
        np.testing.assert_array_equal(got, want)


def test_split_form_matches_commutator_form(small_model, monkeypatch):
    from dysonprop import evolution

    runs = []
    real = evolution.evolve_block

    def counted(*args, **kwargs):
        runs.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "evolve_block", counted)
    rng = np.random.default_rng(21)
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    obs = LinOp(small_model.h_free.space, b)
    xi = rng.normal(size=8) + 1j * rng.normal(size=8)
    xi /= np.linalg.norm(xi)
    check = strong_split_residual(
        small_model.h_free, small_model.h_int, obs, xi, t=0.5, substeps=10,
        tol=1e-12,
    )
    assert check.commutator_residual < 1e-10
    assert check.difference_residual < 5e-3 * max(1.0, check.derivative_norm)
    assert check.dt == pytest.approx(0.05)
    # B(t) from two runs, W(t) xi from one, and both split terms carried
    # back from t in one.
    assert len(runs) == 4
    for kwargs in ({"t": -1.0}, {"t": 0.5, "substeps": 0}):
        with pytest.raises(ValueError):
            strong_split_residual(
                small_model.h_free, small_model.h_int, obs, xi, **kwargs
            )
    assert len(runs) == 4


def test_pairing_track_matches_dense_pairing(small_model):
    rng = np.random.default_rng(31)
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    obs = LinOp(small_model.h_free.space, b)
    eta = rng.normal(size=8) + 1j * rng.normal(size=8)
    xi = rng.normal(size=8) + 1j * rng.normal(size=8)
    track = heisenberg_pairing_track(
        small_model.h_free, small_model.h_int, obs, eta, xi,
        t_end=0.6, steps=6, tol=1e-12,
    )
    dense = heisenberg_track(
        small_model.h_free, small_model.h_int, obs, 0.6, 6, tol=1e-12
    )
    for k in range(7):
        want = eta.conj() @ dense.states[k] @ xi
        assert abs(track.values[k, 0] - want) < 1e-9
    with pytest.raises(ValueError):
        heisenberg_pairing_track(
            small_model.h_free, small_model.h_int, obs,
            np.zeros((8, 2)), np.zeros((8, 3)), 0.5, 4, 1e-10,
        )


def test_pairing_track_derivatives_match_the_dense_commutator(small_model):
    rng = np.random.default_rng(41)
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    obs = LinOp(small_model.h_free.space, b)
    etas = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    xis = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    track = heisenberg_pairing_track(
        small_model.h_free, small_model.h_int, obs, etas, xis,
        t_end=0.6, steps=6, tol=1e-12,
    )
    dense = heisenberg_track(
        small_model.h_free, small_model.h_int, obs, 0.6, 6, tol=1e-12
    )
    h = full_h(small_model)
    assert track.derivatives.shape == (7, 3)
    for k in range(7):
        comm = h @ dense.states[k] - dense.states[k] @ h
        want = 1j * np.einsum("dp,de,ep->p", etas.conj(), comm, xis)
        assert np.abs(track.derivatives[k] - want).max() < 1e-9


def test_weak_residual_stride_doubling(small_model):
    rng = np.random.default_rng(6)
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    obs = LinOp(small_model.h_free.space, b)
    etas = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    xis = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
    track = heisenberg_pairing_track(
        small_model.h_free, small_model.h_int, obs, etas, xis,
        t_end=0.4, steps=80, tol=1e-13,
    )
    fine = weak_residual(track)
    coarse = weak_residual(track, stride=2)
    assert coarse["dt"] == pytest.approx(2 * fine["dt"])
    ratio = coarse["max_residual"] / fine["max_residual"]
    assert ratio == pytest.approx(4.0, rel=0.1)
    for stride in (50, 0, -2):
        with pytest.raises(ValueError):
            weak_residual(track, stride=stride)


def test_interaction_is_actually_nonnormal(small_model):
    m = small_model.h_int.matrix
    assert np.linalg.norm(m @ m.conj().T - m.conj().T @ m, 2) > 1e-6


def test_track_drivers_compute_no_schrodinger_defects(small_model, monkeypatch):
    from dysonprop import evolution

    calls = []
    real = evolution.schrodinger_defects

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(evolution, "schrodinger_defects", counted)
    h_free, h_int = small_model.h_free, small_model.h_int
    obs = LinOp(h_free.space, np.diag(np.arange(8.0)).astype(complex))
    xi = unit(8, 0)
    heisenberg_track(h_free, h_int, obs, 0.4, 4, tol=1e-10)
    heisenberg_pairing_track(h_free, h_int, obs, xi, xi, 0.4, 4, tol=1e-10)
    strong_split_residual(h_free, h_int, obs, xi, t=0.4, substeps=4)
    assert calls == []
    schrodinger_trajectory(h_free, h_int, xi, 0.4, 4, tol=1e-10)
    assert calls == [1]


def test_bad_output_times_fail_before_any_run(small_model, monkeypatch):
    # Every time must lie between 0 and the time farthest from 0; other times
    # are refused before any series runs.
    from dysonprop import evolution

    def no_run(*args, **kwargs):
        raise AssertionError("a series ran")

    monkeypatch.setattr(evolution, "evolve_block", no_run)
    h_free, h_int = small_model.h_free, small_model.h_int
    xi = np.eye(8, dtype=complex)[:, :1]
    for times in ((0.0, 0.5, -0.25), (-1.0, 0.5), (0.0,), (0.0, 0.0)):
        with pytest.raises(ValueError):
            evolution._sampled_run(h_free, h_int, xi, times, 1e-10, 64)


def lab_frame_oracle(model, t, block):
    """W(t) block = e^{-i t h_free} U(t, 0) block from the exact propagator."""
    u = oracle_propagator(model.h_free, model.h_int, float(t), 0.0)
    return _free_spectrum(model.h_free).evolve(float(t), u @ block)


def test_interior_outputs_track_the_oracle_on_the_stock_model(toy_model):
    # default_grid asks for 5 panels at t = 1; each then holds 40 output times.
    rng = np.random.default_rng(5)
    level = toy_model.config.photon_cap - 2
    xi = vectors_supported_below(rng, toy_model.space, level, 1)
    traj = schrodinger_trajectory(toy_model.h_free, toy_model.h_int, xi,
                                  1.0, 200, tol=1e-10)
    assert traj.grid.panels == 5
    for k in range(0, 201, 10):
        want = lab_frame_oracle(toy_model, traj.times[k], xi)
        assert np.linalg.norm(traj.states[k] - want) <= 1e-10, k


@pytest.mark.parametrize("t_end", [1.0, -1.0])
def test_interior_outputs_of_an_identity_block_stay_within_tol(fleet_models, t_end):
    model = fleet_models[8]
    dim, tol = model.h_free.dim, 1e-10
    eye = np.eye(dim, dtype=complex)
    traj = schrodinger_trajectory(model.h_free, model.h_int, eye, t_end, 40, tol)
    assert traj.grid.panels < 40
    for t, state in zip(traj.times, traj.states):
        assert np.linalg.norm(state - lab_frame_oracle(model, t, eye), 2) <= tol, t


@pytest.mark.parametrize("t_end", [1.0, -1.0])
def test_irregular_output_times_of_an_identity_block_stay_within_tol(fleet_models,
                                                                    t_end):
    from dysonprop.evolution import _sampled_run

    model = fleet_models[8]
    dim, tol = model.h_free.dim, 1e-10
    eye = np.eye(dim, dtype=complex)
    times = t_end * np.array([0.0, 0.1, 1.0 / 3.0, 2.0 ** -0.5, 0.9, 1.0])
    traj = _sampled_run(model.h_free, model.h_int, eye, times, tol, 64)
    np.testing.assert_array_equal(traj.times, times)
    np.testing.assert_array_equal(traj.states[0], eye)
    for t, state in zip(times, traj.states):
        assert np.linalg.norm(state - lab_frame_oracle(model, t, eye), 2) <= tol, t
