"""Gauge-field toy model: spinors, polarizations, and the assembled operators."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array, issparse

from dysonprop import graded
from dysonprop.dyson import _prepare, default_grid, evolve_block
from dysonprop.evolution import schrodinger_defects, schrodinger_trajectory
from dysonprop.fock import FockBasis, eta_metric, second_quantize
from dysonprop.graded import certify, grade_shift_bound, vectors_supported_below
from dysonprop.oracles import ode_oracle
from dysonprop.qed import (
    MINKOWSKI,
    QedConfig,
    alpha_matrices,
    build_model,
    default_toy_config,
    dirac_spinors,
    eta_unitarity_check,
    fermion_energy,
    field_commutators,
    gamma_matrices,
    polarization_vectors,
    structure_reports,
)


def small_config(coupling=0.3, cap=2):
    """One photon point, one fermion point, low cap: 240 joint dimensions."""
    return QedConfig(
        momentum_points=((0.8, -0.3, 0.5),),
        fermion_momenta=((0.2, 0.1, -0.4),),
        mass=1.0,
        coupling=coupling,
        photon_cap=cap,
        chi_sp=(1.0,),
        chi_ph=(0.2,),
        chi_el=(0.3,),
    )


# ------------------------------------------------------------ free algebra

def test_gamma_algebra_exact():
    g = gamma_matrices()
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            np.testing.assert_array_equal(anti, 2 * MINKOWSKI[mu, nu] * np.eye(4))
    np.testing.assert_array_equal(g[0], g[0].conj().T)
    for mu in range(1, 4):
        np.testing.assert_array_equal(g[mu], -g[mu].conj().T)


def test_alpha_matrices_hermitian():
    for a in alpha_matrices():
        np.testing.assert_array_equal(a, a.conj().T)
    assert np.array_equal(alpha_matrices()[0], np.eye(4))


def test_rest_frame_spinor():
    u, v = dirac_spinors((0.0, 0.0, 0.0), 1.0)
    root2 = math.sqrt(2.0)
    np.testing.assert_allclose(u[:, 0], [root2, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(u[:, 1], [0, root2, 0, 0], atol=1e-15)
    np.testing.assert_allclose(v[:, 0], [0, 0, root2, 0], atol=1e-15)


def test_spinor_normalisation_and_completeness():
    rng = np.random.default_rng(4)
    for mass in (0.5, 1.0, 2.0):
        p = rng.normal(size=3)
        u, v = dirac_spinors(p, mass)
        two_e = 2.0 * fermion_energy(p, mass)
        np.testing.assert_allclose(u.conj().T @ u, two_e * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v.conj().T @ v, two_e * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(u.conj().T @ v, np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(
            u @ u.conj().T + v @ v.conj().T, two_e * np.eye(4), atol=1e-12
        )


def test_spinor_input_validation():
    with pytest.raises(ValueError):
        dirac_spinors((1.0, 0.0), 1.0)
    with pytest.raises(ValueError):
        dirac_spinors((0.0, 0.0, 0.0), -1.0)


def test_polarization_frame_along_x():
    pol = polarization_vectors((1.0, 0.0, 0.0))
    np.testing.assert_array_equal(pol[0], [1, 0, 0, 0])
    np.testing.assert_array_equal(pol[1], [0, 0, 1, 0])
    np.testing.assert_array_equal(pol[2], [0, 0, 0, 1])
    np.testing.assert_array_equal(pol[3], [0, 1, 0, 0])


def test_polarization_minkowski_gram():
    rng = np.random.default_rng(12)
    for _ in range(5):
        k = rng.normal(size=3)
        k[2] = abs(k[2]) * 0.5
        pol = polarization_vectors(k)
        gram = np.einsum("lm,l,ln->mn", pol, np.diag(MINKOWSKI), pol)
        np.testing.assert_allclose(gram, MINKOWSKI, atol=1e-14)
        # transverse rows are orthogonal to k
        for lam in (1, 2):
            assert abs(pol[lam, 1:] @ k) < 1e-14 * np.linalg.norm(k)


def test_polarization_rejects_z_axis():
    with pytest.raises(ValueError):
        polarization_vectors((0.0, 0.0, 2.0))


# ------------------------------------------------------------ grids, config

def test_momentum_grid_validation():
    # The config checks the lattice data its grids are made from.
    with pytest.raises(ValueError, match="momentum_points must be a non-empty"):
        dataclasses.replace(small_config(), momentum_points=(), chi_ph=())
    with pytest.raises(ValueError, match="momentum_weights must be positive"):
        dataclasses.replace(small_config(), momentum_weights=(0.0,))
    grid = dataclasses.replace(small_config(), momentum_points=((1, 2, 3),)).photon_grid()
    assert grid.points.shape == (1, 3) and grid.points.dtype == float
    assert grid.weights.tolist() == [1.0] and len(grid) == 1


def test_config_roundtrip_and_validation():
    cfg = small_config()
    assert QedConfig.from_json(cfg.to_json()) == QedConfig.from_json(
        QedConfig.from_json(cfg.to_json()).to_json()
    )
    doc = cfg.to_json()
    del doc["mass"]
    with pytest.raises(ValueError, match="mass"):
        QedConfig.from_json(doc)
    with pytest.raises(ValueError):
        QedConfig.from_json("[1, 2]")
    with pytest.raises(ValueError):
        small_config(cap=0)
    bad = small_config().to_json()
    bad["chi_ph"] = [0.1, 0.2]
    with pytest.raises(ValueError):
        QedConfig.from_json(bad)


def test_config_codec_reads_json_numbers_and_defaults():
    doc = small_config().to_json()
    doc.update(mass=1, photon_cap=2.0, positions=None, position_weights=None)
    cfg = QedConfig.from_json(doc)
    assert cfg == dataclasses.replace(small_config(),
                                      momentum_weights=(1.0,), fermion_weights=(1.0,))
    assert type(cfg.mass) is float and type(cfg.photon_cap) is int
    assert cfg.to_json() == small_config().to_json()
    # A zero position weight drops its term; zero momentum weights are refused.
    build_model(dataclasses.replace(small_config(), position_weights=(0.0,)))
    with pytest.raises(ValueError, match="fermion_weights must be positive"):
        dataclasses.replace(small_config(), fermion_weights=(0.0,))


def test_photon_momentum_on_axis_is_rejected_at_build():
    doc = small_config().to_json()
    doc["momentum_points"] = [[0.0, 0.0, 1.0]]
    with pytest.raises(ValueError):
        build_model(QedConfig.from_json(doc))


# ------------------------------------------------------------ built model

def test_toy_model_shape_and_constants():
    model = build_model(default_toy_config())
    assert model.photon_basis.dim == 35
    assert model.fermion_basis.dim == 16
    assert model.space.dim == 560
    c = model.constants
    assert c["chi_sp_l1"] == 1.0
    assert c["current_norm_sum"] == pytest.approx(1.225, rel=1e-12)
    omega = math.sqrt(1.0 + 0.25 + 0.0625)
    assert c["photon_profile_norm_doubled"] == pytest.approx(
        2 * 0.15 / math.sqrt(2 * omega), rel=1e-12
    )
    assert c["interaction_bound"] == pytest.approx(
        0.1 * 1.0 * c["current_norm_sum"] * c["photon_profile_norm_doubled"],
        rel=1e-12,
    )
    # certified constant is dominated by the lattice product bound
    assert certify(model.h_int).rel_bound <= c["interaction_bound"] * (1 + 1e-9)


def test_certified_constant_equals_the_dense_svd():
    model = build_model(default_toy_config())
    weights = (model.space.grade_array() + 1.0) ** -0.5
    for op in (model.h_int, model.h_int.H):
        dense = np.linalg.norm(op.matrix * weights, 2)
        assert certify(op).rel_bound == pytest.approx(dense, rel=1e-13)


def test_certify_never_takes_a_dense_norm_of_the_stock_interaction(monkeypatch):
    # The stock interaction splits into charge/photon-parity blocks, the
    # largest 78 x 28; a norm of anything taller means the dense path is back.
    model = build_model(default_toy_config())
    dense_norm = graded.np.linalg.norm
    shapes = []

    def recording_norm(x, *args, **kwargs):
        shapes.append(np.shape(x))
        return dense_norm(x, *args, **kwargs)

    monkeypatch.setattr(graded.np.linalg, "norm", recording_norm)
    c = graded.relative_bound_constant(model.h_int)
    monkeypatch.undo()
    assert shapes and c > 0.0
    assert max(shape[0] for shape in shapes) <= 100


def test_interaction_raises_grade_by_one():
    model = build_model(small_config())
    assert grade_shift_bound(model.h_int) == 1.0


def test_zero_coupling_kills_the_interaction():
    model = build_model(small_config(coupling=0.0))
    assert np.all(model.h_int.matrix == 0.0)
    assert model.constants["interaction_bound"] == 0.0


def test_full_hamiltonian_is_metric_symmetric():
    model = build_model(small_config())
    h = model.h_free.matrix + model.h_int.matrix
    eta = model.eta.matrix
    assert np.linalg.norm(eta @ h @ eta - h.conj().T, 2) < 1e-12
    # and the interaction alone is genuinely non-Hermitian
    assert np.linalg.norm(model.h_int.matrix - model.h_int.matrix.conj().T, 2) > 1e-3


def test_eta_adjoint_matches_field_structure():
    model = build_model(small_config())
    a = model.photon_field(2, (0.1, 0.0, -0.2)).matrix
    eta = model.eta.matrix
    np.testing.assert_allclose(eta @ a.conj().T @ eta, a, atol=1e-13)
    j = model.current_factor(1, (0.0, 0.0, 0.0))
    np.testing.assert_allclose(j, j.conj().T, atol=1e-13)


def test_field_commutators_below_cap():
    model = build_model(small_config(cap=3))
    assert field_commutators(model, samples=2).passed


def test_structure_reports_all_pass_small_model():
    model = build_model(small_config())
    reports = structure_reports(model, seed=5)
    names = [r.check_name for r in reports]
    assert "gamma-anticommutators" in names
    assert "interaction-grade-shift" in names
    failed = [r for r in reports if not r.passed]
    assert failed == []


def test_metric_symmetry_report_is_the_dense_norm_of_the_defect():
    model = build_model(small_config())
    h = model.h_int.matrix.copy()
    top = np.unravel_index(np.abs(h).argmax(), h.shape)
    h[top] *= 1.5  # breaks eta h eta = h^H on one supported entry
    model.h_int = graded.LinOp(model.space, csr_array(h))
    signs = np.real(model.eta.storage.diagonal())
    want = np.linalg.norm(signs[:, None] * h * signs[None, :] - h.conj().T, 2)
    report = next(
        r for r in structure_reports(model, seed=5)
        if r.check_name == "interaction-metric-symmetry"
    )
    assert want > 1e-6 and not report.passed
    assert report.residual == pytest.approx(want, rel=1e-12)


def test_eta_unitarity_check_small_model():
    model = build_model(small_config(cap=3))
    # The times need not share a uniform step.
    for times in ((0.5, 1.0), (0.25, 1.0), (1.0, math.sqrt(2))):
        reports = eta_unitarity_check(
            model, times=times, pairs=4, tol=1e-6, series_tol=1e-9, seed=1
        )
        assert [r.check_name for r in reports] == [
            "eta-pairing-drift",
            "metric-adjoint-inverse",
            "group-inverse",
            "top-sector-leakage",
        ]
        assert all(r.passed for r in reports), times
    with pytest.raises(ValueError):
        eta_unitarity_check(model, times=(0.0, 1.0), pairs=2)


@pytest.mark.parametrize("times", [(1.0, 0.5), (math.sqrt(2), 1.0)])
def test_eta_unitarity_inverse_checks_run_at_the_largest_time(times):
    # The states come back in the order of the times asked for, so the
    # inverse checks must find the largest time, not take the last state.
    model = build_model(small_config(cap=3))
    kwargs = dict(pairs=4, tol=1e-6, series_tol=1e-9, seed=1)
    got = eta_unitarity_check(model, times=times, **kwargs)
    want = eta_unitarity_check(model, times=sorted(times), **kwargs)
    assert all(r.passed for r in got)
    assert [r.check_name for r in got] == [r.check_name for r in want]
    # The largest time ends the grid, so both orders read the same edge sum.
    for g, w in zip(got[1:3], want[1:3]):
        assert g.residual == w.residual, g.check_name
    for g, w in zip(got[::3], want[::3]):
        assert g.residual == pytest.approx(w.residual, rel=1e-9), g.check_name


# ------------------------------------------------------- operator storage

def _two_momentum_config():
    """The stock config plus a second photon momentum of the same |k|: 2640 states."""
    base = default_toy_config()
    return dataclasses.replace(
        base,
        momentum_points=base.momentum_points + ((-0.5, 1.0, -0.25),),
        chi_ph=base.chi_ph + base.chi_ph,
    )


def _dense_reference(model):
    """Row slabs of the operators as the dense build made them.

    Returns ``rows(lo, hi) -> (h_int, h_free, eta)`` rows lo:hi, lo and hi
    multiples of the fermion dimension: the np.kron sum of the interaction
    terms (each scaled in place, then added in order), and the rows of
    np.diag of the free energies (summed mode by mode over the states) and
    of the metric signs.  Slabs keep the reference at 2640 states small.
    """
    dim, dim_f = model.basis.dim, model.fermion_basis.dim
    weights = model.config.position_weights or (1.0,) * len(model.config.positions)
    terms = [
        (model.photon_field_factor(mu, x), model.current_factor(mu, x),
         model.config.coupling * wx * chi)
        for x, wx, chi in zip(model.config.positions, weights, model.config.chi_sp)
        if chi != 0.0 and wx != 0.0
        for mu in range(4)
    ]
    modes = model.spec.bosons + model.spec.fermions
    energy = np.zeros(dim)
    sign = np.zeros(dim, dtype=complex)
    scalar = [i for i, m in enumerate(model.spec.bosons)
              if m.label in model.spec.scalar_modes]
    for idx, (bocc, focc) in enumerate(model.basis.states):
        e = 0.0
        for m, n in zip(modes, bocc + focc):
            e += n * m.energy
        energy[idx] = e
        sign[idx] = (-1.0) ** sum(bocc[i] for i in scalar)

    def rows(lo, hi):
        total = np.zeros((hi - lo, dim), dtype=complex)
        for a_part, j_part, scale in terms:
            term = np.kron(a_part[lo // dim_f:hi // dim_f], j_part)
            term *= scale
            total += term
        diag = np.eye(hi - lo, dim, k=lo)
        return total, diag * energy.astype(complex), diag * sign

    return rows


@pytest.mark.parametrize("config", [default_toy_config(), _two_momentum_config()],
                         ids=["stock", "two-momentum"])
def test_structured_operators_equal_the_dense_build(config):
    model = build_model(config)
    ops = (model.h_int, model.h_free, model.eta)
    assert all(issparse(op.storage) for op in ops)
    # The stored pattern is the exact != 0 pattern: no explicit zeros.
    assert all(np.all(op.storage.data != 0) for op in ops)
    rows = _dense_reference(model)
    step = 16 * model.fermion_basis.dim  # 16 photon states per slab
    for lo in range(0, model.space.dim, step):
        hi = min(lo + step, model.space.dim)
        for op, want in zip(ops, rows(lo, hi)):
            assert np.array_equal(op.storage[lo:hi].toarray(), want), (lo, op)


@pytest.mark.parametrize("config", [default_toy_config(), _two_momentum_config()],
                         ids=["stock", "two-momentum"])
def test_fock_diagonals_equal_the_loop_definition(config):
    basis = build_model(config).basis
    assert [(tuple(b), tuple(f)) for b, f in zip(basis.boson_occ, basis.fermion_occ)] \
        == basis.states
    modes = basis.spec.bosons + basis.spec.fermions
    # Mixed signs and an omitted mode; every mode added in declaration order.
    energies = {m.label: (-1.0) ** k * (0.3 + 0.7 * k) for k, m in enumerate(modes)
                if k != 1}
    scalar = sorted(basis.spec.scalar_modes)
    for labels in (scalar, scalar[:1], []):
        sign = [(-1.0) ** sum(b[basis.boson_slot(lb)] for lb in labels)
                for b, _ in basis.states]
        spec = dataclasses.replace(basis.spec, scalar_modes=frozenset(labels))
        declared = FockBasis(spec, basis.total_boson_cap)
        assert np.array_equal(eta_metric(declared).storage.diagonal(),
                              np.array(sign, dtype=complex))
    energy = np.zeros(basis.dim)
    for idx, (bocc, focc) in enumerate(basis.states):
        e = 0.0
        for m, n in zip(modes, bocc + focc):
            e += n * energies.get(m.label, 0.0)
        energy[idx] = e
    got = second_quantize(basis, energies).storage.diagonal()
    assert np.array_equal(got, energy.astype(complex))
    assert np.array_equal(basis.grades(), [float(sum(b)) for b, _ in basis.states])


def test_stock_pipeline_reads_no_dense_structured_operator(monkeypatch):
    model = build_model(default_toy_config())
    dense = graded.LinOp.matrix.fget

    def guarded(op):
        if issparse(op.storage):
            raise AssertionError("dense read of a CSR operator")
        return dense(op)

    monkeypatch.setattr(graded.LinOp, "matrix", property(guarded))
    with pytest.raises(AssertionError):
        model.h_int.matrix
    h_free, h_int = model.h_free, model.h_int
    assert certify(h_int).grade_shift == certify(h_int.H).grade_shift == 1.0
    level = model.config.photon_cap - 2
    grid = default_grid(h_free, h_int, 0.0, 0.5, support=level, tol=1e-9)
    cols = vectors_supported_below(np.random.default_rng(3), model.space, level, 2)
    assert evolve_block(h_free, h_int, cols, grid, 1e-9).tail_bound < 1e-9
    reports = eta_unitarity_check(model, pairs=4, series_tol=1e-9, seed=2)
    assert all(r.passed for r in reports)


def test_trajectory_and_ode_oracle_densify_no_stored_operator(monkeypatch):
    model = build_model(default_toy_config())
    h_free, h_int = model.h_free, model.h_int
    dense_copy = [graded.LinOp(model.space, op.matrix) for op in (h_free, h_int)]
    xi = vectors_supported_below(
        np.random.default_rng(5), model.space, model.config.photon_cap - 2, 1
    )[:, 0]
    dense = graded.LinOp.matrix.fget
    csr_reads = []

    def counted(op):
        if issparse(op.storage):
            csr_reads.append(op)
        return dense(op)

    monkeypatch.setattr(graded.LinOp, "matrix", property(counted))
    traj = schrodinger_trajectory(h_free, h_int, xi, 0.5, 4, 1e-9)
    ode = ode_oracle(h_free, h_int, xi, 0.5, 0.0)
    assert csr_reads == []
    assert np.linalg.norm(ode - ode_oracle(*dense_copy, xi, 0.5, 0.0)) <= 1e-13
    # The CSR defects equal the dense-sum ones up to the rounding of H psi,
    # a sum of at most d products on each side: 2 d eps ||H||_F ||psi||.
    h_dense = dense_copy[0].matrix + dense_copy[1].matrix
    want = schrodinger_defects(traj.times, traj.states, h_dense)
    psi_norm = np.linalg.norm(traj.states, axis=(1, 2)).max()
    bound = 2 * model.space.dim * np.finfo(float).eps * np.linalg.norm(h_dense) * psi_norm
    np.testing.assert_allclose(traj.residuals[1:-1], want[1:-1], rtol=0, atol=bound)


def test_stock_build_certify_prepare_peak_below_one_dense_array():
    tracemalloc.start()
    try:
        model = build_model(default_toy_config())
        certify(model.h_int)
        _prepare(model.h_free, model.h_int)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * model.space.dim ** 2, peak
