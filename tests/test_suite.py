"""Model fleet generation, identity/oracle report bundles, convergence tables."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonprop import dyson, suite
from dysonprop.dyson import (
    _prepare,
    _run_block,
    apriori_tail,
    default_grid,
)
from dysonprop.errors import TruncationError
from dysonprop.graded import (
    GradedSpace,
    LinOp,
    certify,
    grade_shift_bound,
    growth_rates,
    support_level,
    weighted_norm,
)
from dysonprop.oracles import oracle_propagator
from dysonprop.suite import (
    FLEET_DIMS,
    ConvergenceTable,
    appendix_convergence,
    dense_propagator,
    fleet,
    fleet_verification,
    identity_suite,
    oracle_reports,
    random_graded_model,
)


# ------------------------------------------------------------ fleet models

@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 100_000),
    st.integers(4, 12),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
)
def test_random_model_plants_its_certificates(seed, dim, shift, herm, block):
    model = random_graded_model(
        seed=seed, dim=dim, grade_shift=shift,
        target_rel_bound=0.3, hermitian=herm, block_free_part=block,
    )
    # the planted rise is achieved exactly, not just bounded
    assert grade_shift_bound(model.h_int) == float(shift)
    assert certify(model.h_int).rel_bound == pytest.approx(0.3, rel=1e-12)
    m = model.h_int.matrix
    gap = np.linalg.norm(m - m.conj().T, 2)
    if herm:
        assert gap < 1e-14
    else:
        assert gap > 1e-6
    h0 = model.h_free.matrix
    assert np.linalg.norm(h0 - h0.conj().T, 2) < 1e-14
    g = model.h_free.space.grade_array()
    mixing = np.where(g[:, None] != g[None, :], h0, 0.0)
    assert np.linalg.norm(mixing) == 0.0


def test_random_model_rejects_bad_requests():
    with pytest.raises(ValueError):
        random_graded_model(seed=1, dim=3)
    with pytest.raises(ValueError):
        random_graded_model(seed=1, dim=5, grade_shift=0)


def test_fleet_composition(fleet_models):
    assert len(fleet_models) == 20
    assert [m.h_free.space.dim for m in fleet_models] == list(FLEET_DIMS)
    assert {m.grade_shift for m in fleet_models} == {1, 2, 3}
    assert sum(max(growth_rates(m.h_int)) == 0.0 for m in fleet_models) >= 6
    assert len({m.name for m in fleet_models}) == 20


def test_fleet_is_deterministic(fleet_models):
    again = fleet(seed=2026)
    for a, b in zip(fleet_models, again):
        np.testing.assert_array_equal(a.h_int.matrix, b.h_int.matrix)
        np.testing.assert_array_equal(a.h_free.matrix, b.h_free.matrix)
    other = fleet(seed=1)
    assert not np.array_equal(other[0].h_int.matrix, fleet_models[0].h_int.matrix)


# ----------------------------------------------------- report bundles

def test_dense_propagator_matches_oracle():
    model = random_graded_model(seed=40, dim=5, grade_shift=1)
    u = dense_propagator(model.h_free, model.h_int, 0.6, -0.2, tol=1e-11)
    want = oracle_propagator(model.h_free, model.h_int, 0.6, -0.2)
    assert np.linalg.norm(u - want, 2) < 1e-8


@pytest.mark.parametrize("index", [0, 1])  # diagonal and sector-block free parts
def test_dense_propagator_at_equal_times_is_the_identity(fleet_models, index):
    model = fleet_models[index]
    u = dense_propagator(model.h_free, model.h_int, 0.3, 0.3)
    dim = model.h_free.dim  # the free phases and eigenbasis round to a few eps
    assert np.linalg.norm(u - np.eye(dim), 2) <= 4 * dim * np.finfo(float).eps


def test_backward_dense_propagator_reads_the_backward_rate(fleet_models, monkeypatch):
    model = fleet_models[7]  # non-Hermitian: mu+ != mu-
    h_free, h_int = model.h_free, model.h_int
    forward, backward = growth_rates(h_int)
    assert forward != backward
    u = dense_propagator(h_free, h_int, -0.2, 0.6)
    assert np.linalg.norm(u - oracle_propagator(h_free, h_int, -0.2, 0.6), 2) < 1e-10
    # A huge backward rate fails the backward pair's bound, not the forward one's.
    monkeypatch.setattr(suite, "growth_rates", lambda op: (forward, 1e3))
    with pytest.raises(TruncationError):
        dense_propagator(h_free, h_int, -0.2, 0.6)
    u = dense_propagator(h_free, h_int, 0.6, -0.2)
    assert np.linalg.norm(u - oracle_propagator(h_free, h_int, 0.6, -0.2), 2) < 1e-10


@pytest.mark.parametrize("t, tol", [(1.0, 1e-300), (1e4, 1e-10)])
def test_dense_propagator_raises_when_the_composed_bound_misses_tol(small_model, t, tol):
    # A tol below reach, and a non-Hermitian pair so long that the panel cap
    # leaves wide steps and g^{P - 1} overflows: the bound is checked before
    # any power is formed, and no matrix comes back.
    with pytest.raises(TruncationError) as info:
        dense_propagator(small_model.h_free, small_model.h_int, t, 0.0, tol=tol)
    assert not info.value.tail_bound < tol


def test_a_step_one_order_short_breaks_the_cocycle(fleet_models, monkeypatch):
    # Every propagator is a power of its own step, and the step width differs
    # between time pairs, so a step that silently drops its last order (its
    # tails still those of the full run) breaks the cocycle.  At series_tol
    # 1e-6 the dropped order sits above the laws' 1e-7; at 1e-10 it would not.
    real = suite.evolve_block

    def short(h_free, h_int, block, grid, tol):
        full = real(h_free, h_int, block, grid, tol)
        cut = _run_block(_prepare(h_free, h_int), grid, block, tol,
                         full.achieved_order - 1, keep_terms=False)
        return replace(cut, tail_bounds=full.tail_bounds)

    for model in fleet_models[3::4]:
        args = dict(h_free=model.h_free, h_int=model.h_int, tuples=3, series_tol=1e-6)
        clean = {r.check_name: r for r in identity_suite(**args)}
        with monkeypatch.context() as mp:
            mp.setattr(suite, "evolve_block", short)
            planted = {r.check_name: r for r in identity_suite(**args)}
        assert clean["cocycle"].passed, (model.name, clean["cocycle"])
        assert not planted["cocycle"].passed, (model.name, planted["cocycle"])


def test_identity_suite_free_case_is_exact():
    space = GradedSpace((0.0, 1.0, 2.0, 2.0))
    h0 = LinOp(space, np.diag([0.0, 1.0, 2.0, 2.5]).astype(complex))
    zero = LinOp(space, np.zeros((4, 4), dtype=complex))
    reports = identity_suite(h0, zero, tuples=3, seed=9)
    names = [r.check_name for r in reports]
    assert names == [
        "cocycle",
        "translation-covariance",
        "group-inverse",
        "adjoint-duality",
        "unitarity",
    ]
    for r in reports:
        assert r.residual < 1e-13


def test_identity_suite_skips_unitarity_for_nonhermitian():
    model = random_graded_model(seed=50, dim=4, grade_shift=1)
    reports = identity_suite(model.h_free, model.h_int, tuples=2)
    assert "unitarity" not in [r.check_name for r in reports]
    assert all(r.passed for r in reports)
    assert all(r.context["model"] == "model" for r in reports)


def test_oracle_reports_bundle():
    model = random_graded_model(seed=60, dim=6, grade_shift=2, name="m60")
    reports = oracle_reports(model)
    assert [r.check_name for r in reports] == [
        "oracle-propagator-agreement",
        "order-bound-compliance",
        "ode-oracle-agreement",
        "cross-oracle-agreement",
        "support-growth",
    ]
    assert all(r.passed for r in reports)
    assert all(r.context["model"] == "m60" for r in reports)


def test_oracle_reports_reads_check_times_inside_panels():
    # Two panels serve t = 1, so ORACLE_TIMES' 0.25 sits inside the first.
    model = random_graded_model(9, 4, 1, target_rel_bound=0.01)
    reports = oracle_reports(model)
    assert all(r.passed for r in reports)


def test_fleet_verification_report_count():
    models = [
        random_graded_model(seed=70, dim=4, grade_shift=1, name="a"),
        random_graded_model(seed=71, dim=5, grade_shift=1, hermitian=True,
                            name="b"),
    ]
    reports = fleet_verification(models, tuples=2)
    # 4 identity + 5 oracle for the first, 5 + 5 for the Hermitian one
    assert len(reports) == 19
    assert sum(1 for r in reports if not r.passed) == 0


# ---------------------------------------------------- convergence tables

def make_table(norm_col, tail_col=None):
    n = len(norm_col)
    norms = np.array(norm_col, dtype=float)[:, None]
    tails = (
        np.array(tail_col, dtype=float)[:, None]
        if tail_col is not None
        else norms * 2 + 1.0
    )
    return ConvergenceTable(
        alphas=(0.0,), orders=tuple(range(n)), norms=norms, tails=tails,
    )


def test_onset_walks_back_through_the_decreasing_tail():
    assert make_table([5, 4, 3, 2, 1]).onset(0) == 0
    assert make_table([4, 5, 3, 2, 1]).onset(0) == 1
    assert make_table([1, 2, 3, 4, 5]).onset(0) == 4
    # exact zeros mean the deepest sum was reached; they do not stall the walk
    assert make_table([3, 2, 0, 0, 0]).onset(0) == 0
    assert make_table([2, 3, 0, 0, 0]).onset(0) == 1
    assert make_table([0, 0, 0]).onset(0) == 0


def test_dominated_ratio():
    ok, worst = make_table([1.0, 0.5], [2.0, 0.5]).dominated()
    assert ok and worst == 1.0
    ok, worst = make_table([1.0, 0.5], [0.25, 0.5]).dominated()
    assert not ok and worst == 4.0


def test_table_json_shape():
    doc = make_table([2.0, 1.0]).to_json()
    assert doc["onsets"] == [0]
    assert doc["dominated"] is True
    assert doc["orders"] == [0, 1]


def test_weighted_tail_reduces_to_plain_tail_at_alpha_zero():
    t0, t1, t2 = (dyson._apriori_table(2, 1.0, 0.5, 1.0, [0.0], [1.0], alpha)[1][2, 0]
                  for alpha in (0.0, 1.0, 2.0))
    assert t0 == pytest.approx(apriori_tail(2, 1.0, 0.5, 1.0, 0.0, 1.0), rel=1e-14)
    # heavier weights can only grow the tail
    assert t0 <= t1 <= t2


def test_appendix_convergence_free_case_collapses():
    space = GradedSpace((0.0, 1.0))
    h0 = LinOp(space, np.diag([0.0, 1.0]).astype(complex))
    zero = LinOp(space, np.zeros((2, 2), dtype=complex))
    table = appendix_convergence(h0, zero, np.array([1.0, 0.0]), n_max=3)
    # every term beyond order zero vanishes, so all distances are zero
    assert np.all(table.norms == 0.0)
    assert table.dominated()[0]


def test_appendix_convergence_random_model():
    model = random_graded_model(seed=80, dim=6, grade_shift=1)
    xi = np.zeros(6, dtype=complex)
    xi[0] = 1.0
    table = appendix_convergence(model.h_free, model.h_int, xi, n_max=8)
    assert table.norms.shape == (8, 3)
    ok, worst = table.dominated()
    assert ok, f"tail domination failed with ratio {worst}"
    # weighted columns are ordered in alpha row by row
    for n in range(8):
        assert table.norms[n, 0] <= table.norms[n, 1] * (1 + 1e-12)
        assert table.norms[n, 1] <= table.norms[n, 2] * (1 + 1e-12)
    for a in range(3):
        onset = table.onset(a)
        col = table.norms[onset:, a]
        assert np.all(np.diff(col) < 0.0)
    # the vectorised norms equal weighted_norm taken row by row
    grid = default_grid(model.h_free, model.h_int, 0.0, 1.0,
                        support=support_level(model.h_free.space, xi), tol=1e-10)
    prep = _prepare(model.h_free, model.h_int)
    run = _run_block(prep, grid, xi[:, None], tol=0.0, max_order=8, keep_terms=True)
    rows = [np.concatenate([t.node_values.reshape(-1, 6), t.boundary_values[..., 0]])
            for t in run.terms]
    partials = np.cumsum(rows, axis=0)
    for n in range(8):
        for a, alpha in enumerate(table.alphas):
            assert table.norms[n, a] == max(
                weighted_norm(model.h_free.space, row, alpha)
                for row in partials[n] - partials[-1]
            )


def test_appendix_convergence_validation():
    model = random_graded_model(seed=81, dim=4, grade_shift=1)
    xi = np.zeros(4)
    xi[0] = 1.0
    with pytest.raises(ValueError):
        appendix_convergence(model.h_free, model.h_int, xi, n_max=1)
    with pytest.raises(ValueError):
        appendix_convergence(model.h_free, model.h_int, xi, alphas=(-1.0,))
