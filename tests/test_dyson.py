"""Series engine: grids, certified bounds, and agreement with closed forms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonprop import dyson
from dysonprop.dyson import (
    TimeGrid,
    _prepare,
    _run_block,
    apriori_bound,
    apriori_tail,
    coupled_gap,
    default_grid,
    evolve_adjoint,
    evolve_block,
    evolve_vector,
    free_propagator,
    interaction_picture,
)
from dysonprop.errors import TruncationError
from dysonprop.evolution import schrodinger_trajectory
from dysonprop.graded import (
    GradedSpace,
    LinOp,
    as_linop,
    certify,
    random_vector,
    vectors_supported_below,
)
from dysonprop.oracles import oracle_propagator
from dysonprop.suite import fleet, random_graded_model


def two_level(delta=1.0, g=0.3):
    space = GradedSpace((0.0, 1.0))
    h0 = LinOp(space, np.diag([0.0, delta]).astype(complex))
    m = np.zeros((2, 2), dtype=complex)
    m[1, 0] = g
    return h0, LinOp(space, m)


# ---------------------------------------------------------------- grids

def test_grid_nodes_stay_inside_panels():
    grid = TimeGrid(0.0, 2.0, panels=4, nodes_per_panel=6)
    bnd = grid.boundaries()
    nodes = grid.nodes()
    assert nodes.shape == (4, 6)
    for p in range(4):
        assert np.all(nodes[p] > bnd[p])
        assert np.all(nodes[p] < bnd[p + 1])


def test_grid_reversal_swaps_endpoints():
    grid = TimeGrid(0.25, -1.5, panels=3)
    rev = grid.reversed()
    assert (rev.t_start, rev.t_end) == (-1.5, 0.25)
    assert rev.reversed() == grid
    assert rev.duration == grid.duration == 1.75


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, panels=0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, panels=2, nodes_per_panel=1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, float("nan"), panels=1)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
    st.integers(1, 9),
)
def test_grid_boundaries_span_the_interval(t0, t1, panels):
    grid = TimeGrid(t0, t1, panels)
    bnd = grid.boundaries()
    assert bnd[0] == t0
    assert bnd[-1] == pytest.approx(t1, abs=1e-12)
    assert len(bnd) == panels + 1


# ------------------------------------------------------- a-priori bounds

def test_apriori_bound_frozen_values():
    # 1/2! * 1^2 * sqrt(1 * 2) * 1
    assert apriori_bound(2, 1.0, 1.0, 1.0, 0.0, 1.0) == pytest.approx(
        0.7071067811865476, rel=1e-15
    )
    # 2^3/3! * 0.5^3 * sqrt(2 * 4 * 6) * 2
    assert apriori_bound(3, 2.0, 0.5, 2.0, 1.0, 2.0) == pytest.approx(
        2.3094010767585034, rel=1e-14
    )


def test_apriori_bound_edges():
    assert apriori_bound(0, 5.0, 2.0, 1.0, 3.0, 0.25) == 0.25
    assert apriori_bound(4, 0.0, 2.0, 1.0, 0.0, 1.0) == 0.0
    assert apriori_bound(4, 1.0, 0.0, 1.0, 0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        apriori_bound(-1, 1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        apriori_bound(2, -1.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        apriori_bound(3, 1.0, 1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        apriori_bound(2, 1.0, 1.0, 1.0, -3.0, 1.0)
    with pytest.raises(ValueError):
        apriori_tail(0, 1.0, 1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        apriori_tail(0, 1.0, 1.0, 1.0, 0.0, 1.0, alpha=-1.0)


def test_apriori_bound_overflow_is_inf():
    assert apriori_bound(400, 10.0, 10.0, 1.0, 0.0, 1.0) == math.inf


def test_apriori_tail_dominates_first_term():
    args = (1.0, 0.8, 1.0, 0.0, 1.0)
    tail = apriori_tail(3, *args)
    assert tail >= apriori_bound(4, *args)
    assert tail <= apriori_bound(4, *args) * 5  # factorial decay is fast here


@pytest.mark.parametrize(
    "args, alpha",
    [
        ((0, 1.0, 1.0, 1.0, 0.0, 1.0), 0.0),
        ((1, 1.5, 1.0, 2.0, 1.0, 1.0), 0.0),
        ((1, 1.5, 1.0, 2.0, 1.0, 1.0), 1.0),
    ],
)
def test_apriori_tail_is_the_whole_remaining_sum(args, alpha):
    after, duration, c, b, support, norm = args
    brute = math.fsum(
        apriori_bound(n, duration, c, b, support, norm)
        * (support + n * b + 1.0) ** (alpha / 2.0)
        for n in range(after + 1, 400)
    )
    assert apriori_tail(*args, alpha=alpha) == pytest.approx(brute, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.floats(0.01, 3.0),
    st.floats(0.01, 2.0),
    st.floats(0, 3),
    st.floats(0, 4),
)
def test_apriori_bound_recursion_step(order, duration, c, b, support):
    """Each order is the previous one times duration*C*sqrt(L+(n-1)b+1)/n."""
    lo = apriori_bound(order - 1, duration, c, b, support, 1.0)
    hi = apriori_bound(order, duration, c, b, support, 1.0)
    factor = duration * c * math.sqrt(support + (order - 1) * b + 1.0) / order
    assert hi == pytest.approx(lo * factor, rel=1e-10)


# -------------------------------------------------- rotated interaction

def test_interaction_picture_flips_sign_at_pi():
    space = GradedSpace((0.0, 0.0))
    h0 = LinOp(space, np.diag([0.0, 1.0]).astype(complex))
    h1 = LinOp(space, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    rot = interaction_picture(h0, h1, math.pi)
    np.testing.assert_allclose(rot.matrix, -h1.matrix, atol=1e-14)
    # diagonal entries never move
    same = interaction_picture(h0, as_linop(space.grades, np.eye(2)), 0.7)
    np.testing.assert_allclose(same.matrix, np.eye(2), atol=1e-15)


def test_free_propagator_diagonal_and_rotated():
    h0, _ = two_level(delta=2.0)
    u = free_propagator(h0, 0.5)
    np.testing.assert_allclose(u, np.diag([1.0, np.exp(-1j)]), atol=1e-15)
    # non-diagonal free part within one sector
    space = GradedSpace((0.0, 0.0))
    m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    u2 = free_propagator(LinOp(space, m), 0.3)
    from dysonprop.oracles import matrix_exp

    np.testing.assert_allclose(u2, matrix_exp(-0.3j * m), atol=1e-13)


def test_coupled_gap_reads_the_supported_entries():
    space = GradedSpace((0.0, 1.0, 2.0))
    h0 = LinOp(space, np.diag([0.0, 1.0, 10.0]).astype(complex))
    m = np.zeros((3, 3), dtype=complex)
    m[1, 0] = 1.0  # couples gap 1, not the gap-10 pair
    assert coupled_gap(h0, LinOp(space, m)) == pytest.approx(1.0)
    assert coupled_gap(h0, LinOp(space, np.zeros((3, 3)))) == 0.0


# ------------------------------------------------------ prepared model

def test_one_preparation_per_operator_pair(monkeypatch):
    model = fleet(count=10)[9]  # sector-block free part
    calls = []
    real_check = dyson.check_free_part

    def counted(h_free):
        calls.append(h_free)
        return real_check(h_free)

    monkeypatch.setattr(dyson, "check_free_part", counted)
    h_free, h_int = model.h_free, model.h_int
    grid = default_grid(h_free, h_int, 0.0, 0.6, support=0.0)
    evolve_block(h_free, h_int, np.eye(model.space.dim)[:, :2], grid, 1e-10)
    schrodinger_trajectory(h_free, h_int, np.eye(model.space.dim)[:, 0],
                           0.6, 3, 1e-10)
    assert len(calls) == 1 and calls[0] is h_free
    prep = _prepare(h_free, h_int)
    assert prep.rotation is not None
    assert _prepare(h_free, h_int) is prep
    assert prep.cert is certify(h_int)
    assert prep.gap == coupled_gap(h_free, h_int)


def test_same_interaction_with_another_free_part():
    model = fleet(count=10)[9]
    h_int = model.h_int
    diagonal = LinOp(model.space, np.diag(np.linspace(-1.0, 2.0, model.space.dim)))
    eye = np.eye(model.space.dim)
    for h_free in (model.h_free, diagonal, model.h_free):
        prep = _prepare(h_free, h_int)
        assert (prep.rotation is None) == (h_free is diagonal)
        grid = default_grid(h_free, h_int, 0.0, 0.7, support=max(model.space.grades))
        u = evolve_block(h_free, h_int, eye, grid, 1e-10).final()
        ref = oracle_propagator(h_free, h_int, 0.7, 0.0)
        assert np.abs(u - ref).max() < 1e-9


def test_linop_equality_and_repr_ignore_the_memo():
    # One-by-one operators: the generated equality can compare their arrays.
    space = GradedSpace((0.0,))
    h_free = LinOp(space, [[0.5]])
    h_int = LinOp(space, [[0.3]])
    twin = LinOp(space, [[0.3]])
    before = repr(h_int)
    _prepare(h_free, h_int)
    assert set(h_int._memo) == {"blocks", "cert", "prepared"} and not twin._memo
    assert h_int == twin
    assert repr(h_int) == repr(twin) == before
    assert "_memo" not in before


def test_adjoint_is_built_and_prepared_once(monkeypatch):
    space = GradedSpace((0.0,))
    one = LinOp(space, [[0.3 + 0.4j]])
    assert one.H is one.H
    assert one.H == LinOp(space, one.matrix.conj().T)
    adj = one.H
    assert "adjoint" not in adj._memo  # one direction only: no reference cycle
    assert adj.H is not one

    model = random_graded_model(seed=13, dim=6, grade_shift=1)
    h_int = model.h_int
    np.testing.assert_array_equal(h_int.H.matrix, h_int.matrix.conj().T)
    grid = default_grid(model.h_free, h_int, 0.0, 0.6, support=6.0)
    certified = []
    real_certify = dyson.certify

    def counted(op):
        certified.append(op)
        return real_certify(op)

    monkeypatch.setattr(dyson, "certify", counted)
    xi = np.eye(6)[:, 2]
    for _ in range(2):
        evolve_adjoint(model.h_free, h_int, xi, grid, tol=1e-12,
                       estimate_quadrature=False)
    assert len(certified) == 1 and certified[0] is h_int.H


# -------------------------------------------------------- block apply

def test_block_apply_matches_the_single_product(toy_model):
    h_free, h_int = toy_model.h_free, toy_model.h_int
    prep = _prepare(h_free, h_int)
    assert prep.rotation is None and len(prep.blocks) == 32
    assert max(b.shape for _, _, b in prep.blocks) == (78, 28)
    rng = np.random.default_rng(5)
    level = toy_model.config.photon_cap - 2
    block = vectors_supported_below(rng, toy_model.space, level, 3)
    grid = default_grid(h_free, h_int, 0.0, 0.4, support=level, tol=1e-9)
    by_blocks, _ = _run_block(prep, grid, block, 1e-9, 64, keep_terms=False)
    whole = ((slice(None), slice(None), prep.h_int_rot),)
    dense, _ = _run_block(dataclasses.replace(prep, blocks=whole), grid, block,
                          1e-9, 64, keep_terms=False)
    # The block path reads the blocks alone, never the dense d x d matrix.
    blind = dataclasses.replace(prep, h_int_rot=np.zeros_like(prep.h_int_rot))
    blind_run, _ = _run_block(blind, grid, block, 1e-9, 64, keep_terms=False)
    np.testing.assert_array_equal(blind_run.boundary_sums, by_blocks.boundary_sums)
    assert by_blocks.achieved_order == dense.achieved_order > 1
    for name in ("boundary_sums", "tail_bounds", "per_order_sup_norms"):
        got, want = getattr(by_blocks, name), getattr(dense, name)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_block_apply_with_zero_rows_under_a_rotated_free_part():
    # Sectors of sizes 2, 3, 2, 2, 2, 1 at grades 0..5; the interaction maps
    # sector 0 to 1, 2 to 3 and 3 to 0, so sectors 4 and 5 (and the rows of
    # sector 2, the columns of sector 1) are all zero.
    rng = np.random.default_rng(21)
    sizes = (2, 3, 2, 2, 2, 1)
    grades = np.repeat(np.arange(6.0), sizes)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    sector = [np.arange(starts[k], starts[k + 1]) for k in range(6)]
    dim = grades.size
    h0 = np.zeros((dim, dim), dtype=complex)
    for idx in sector:
        a = rng.normal(size=(idx.size,) * 2) + 1j * rng.normal(size=(idx.size,) * 2)
        h0[np.ix_(idx, idx)] = a + a.conj().T
    h1 = np.zeros((dim, dim), dtype=complex)
    for to, frm in ((1, 0), (3, 2), (0, 3)):
        shape = (sizes[to], sizes[frm])
        entries = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        h1[np.ix_(sector[to], sector[frm])] = entries
    perm = rng.permutation(dim)
    space = GradedSpace(tuple(grades[perm]))
    h_free = LinOp(space, h0[np.ix_(perm, perm)])
    h_int = LinOp(space, 0.4 * h1[np.ix_(perm, perm)])
    prep = _prepare(h_free, h_int)
    assert prep.rotation is not None and len(prep.blocks) == 3
    t = 0.8
    grid = default_grid(h_free, h_int, 0.0, t, support=5.0, tol=1e-11)
    u = evolve_block(h_free, h_int, np.eye(dim), grid, 1e-11).final()
    assert np.abs(u - oracle_propagator(h_free, h_int, t, 0.0)).max() < 1e-9


def test_fleet_takes_the_single_product_path(fleet_models):
    for model in fleet_models:
        prep = _prepare(model.h_free, model.h_int)
        (rows, cols, block), = prep.blocks
        assert rows == cols == slice(None)
        assert np.shares_memory(block, prep.h_int_rot)  # a view, not a copy


# -------------------------------------------------------- series values

def test_nilpotent_interaction_truncates_exactly():
    """With h_free = 0 and a square-zero raising interaction the series is
    xi - i t h_int xi and every order beyond the first vanishes."""
    space = GradedSpace((0.0, 1.0))
    h0 = LinOp(space, np.zeros((2, 2), dtype=complex))
    m = np.zeros((2, 2), dtype=complex)
    m[1, 0] = 0.8
    h1 = LinOp(space, m)
    xi = np.array([1.0, 0.0], dtype=complex)
    grid = TimeGrid(0.0, 1.5, panels=4)
    res = evolve_vector(h0, h1, xi, grid, tol=1e-12)
    expected = xi - 1.5j * (m @ xi)
    np.testing.assert_allclose(res.partial_sum, expected, atol=1e-13)
    assert res.per_order_sup_norms[2] < 1e-14
    assert res.support_in == 0.0


def test_order_one_closed_form():
    delta, g, t = 1.3, 0.4, 0.9
    h0, h1 = two_level(delta, g)
    res = evolve_vector(h0, h1, np.array([1.0, 0.0]), TimeGrid(0.0, t, panels=6),
                        tol=1e-10)
    term1 = res.terms[1]
    assert term1.order == 1
    # -i g int_0^t e^{i tau delta} dtau = -g (e^{i t delta} - 1) / delta
    expected = -g * (np.exp(1j * t * delta) - 1.0) / delta
    np.testing.assert_allclose(
        term1.value_at_end(), [0.0, expected], atol=1e-12
    )


def test_zero_interaction_gives_identity():
    h0, _ = two_level()
    zero = LinOp(h0.space, np.zeros((2, 2), dtype=complex))
    xi = np.array([0.6, 0.8j])
    grid = TimeGrid(0.0, 2.0, panels=2)
    res = evolve_vector(h0, zero, xi, grid, tol=1e-12)
    np.testing.assert_allclose(res.partial_sum, xi, atol=1e-15)
    assert res.achieved_order == 0
    assert res.tail_bound == 0.0
    prep = _prepare(h0, zero)
    assert prep.blocks == () and prep.gap == 0.0
    values = np.ones((grid.nodes_per_panel, 2, grid.panels), dtype=complex)
    applied = dyson._GridKernels(grid, prep.energies).apply_interaction(prep, values)
    assert applied.shape == values.shape and not applied.any()


def test_series_matches_exponential_oracle():
    rng = np.random.default_rng(5)
    model = random_graded_model(seed=21, dim=6, grade_shift=1)
    xi = rng.normal(size=6) + 1j * rng.normal(size=6)
    for t in (0.5, -0.75):
        grid = default_grid(model.h_free, model.h_int, 0.0, t, support=6.0)
        res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-12)
        want = oracle_propagator(model.h_free, model.h_int, t, 0.0) @ xi
        np.testing.assert_allclose(res.partial_sum, want, atol=1e-9)
        assert res.tail_bound < 1e-12
        assert res.quadrature_estimate < 1e-9


def test_node_values_follow_the_grid_nodes():
    # Every node value against the propagator at that node's own time, so a
    # swap of panels and nodes cannot pass as a sup over all nodes would.
    model = fleet(count=10)[9]  # sector-block free part
    h_free, h_int = model.h_free, model.h_int
    assert _prepare(h_free, h_int).rotation is not None
    xi = random_vector(np.random.default_rng(17), model.space.dim)
    grid = default_grid(h_free, h_int, 0.3, 1.1, support=max(model.space.grades))
    assert grid.panels >= 2
    res = evolve_vector(h_free, h_int, xi, grid, tol=1e-12,
                        estimate_quadrature=False)
    values = sum(term.node_values for term in res.terms)
    nodes = grid.nodes()
    assert values.shape == nodes.shape + (model.space.dim,)
    for p in range(grid.panels):
        for j in range(grid.nodes_per_panel):
            want = oracle_propagator(h_free, h_int, nodes[p, j], grid.t_start) @ xi
            assert np.abs(values[p, j] - want).max() < 1e-9


def test_per_order_norms_respect_their_bounds():
    model = random_graded_model(seed=3, dim=8, grade_shift=2)
    xi = np.zeros(8, dtype=complex)
    xi[0] = 1.0
    grid = default_grid(model.h_free, model.h_int, 0.0, 1.0, support=0.0)
    res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-11)
    cert = res.cert
    for n, sup in enumerate(res.per_order_sup_norms):
        bound = apriori_bound(
            n, 1.0, cert.rel_bound, cert.grade_shift, res.support_in, 1.0
        )
        assert sup <= bound * (1 + 1e-9)


def test_block_and_vector_routes_agree():
    model = random_graded_model(seed=8, dim=5, grade_shift=1)
    rng = np.random.default_rng(1)
    block = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    grid = default_grid(model.h_free, model.h_int, 0.0, 0.8, support=5.0)
    blk = evolve_block(model.h_free, model.h_int, block, grid, tol=1e-11)
    for col in range(3):
        one = evolve_vector(
            model.h_free, model.h_int, block[:, col], grid, tol=1e-11,
            estimate_quadrature=False,
        )
        np.testing.assert_allclose(blk.final()[:, col], one.partial_sum, atol=1e-13)
    assert blk.per_order_sup_norms.shape[1] == 3


def test_block_bounds_match_the_per_column_bounds():
    from dysonprop.graded import support_level

    model = random_graded_model(seed=3, dim=12, grade_shift=2)
    space = model.h_free.space
    block = np.zeros((12, 3), dtype=complex)
    block[0, 0] = 1.0
    block[-1, 1] = 0.5
    block[:, 2] = 3.0 * np.random.default_rng(4).normal(size=12)
    grid = default_grid(model.h_free, model.h_int, 0.0, 0.7, support=6.0)
    res = evolve_block(model.h_free, model.h_int, block, grid, tol=1e-11)
    cert = res.cert
    assert len(set(res.supports_in)) > 1
    for j in range(3):
        args = (0.7, cert.rel_bound, cert.grade_shift, res.supports_in[j],
                np.linalg.norm(block[:, j]))
        assert res.supports_in[j] == support_level(space, block[:, j])
        want = [apriori_bound(n, *args) for n in range(res.achieved_order + 1)]
        np.testing.assert_allclose(res.per_order_bounds[:, j], want, rtol=1e-13)
        assert res.tail_bounds[j] == pytest.approx(
            apriori_tail(res.achieved_order, *args), rel=1e-13
        )


def test_adjoint_route_is_the_conjugate_transpose():
    model = random_graded_model(seed=13, dim=6, grade_shift=1)
    t = 0.6
    grid = default_grid(model.h_free, model.h_int, 0.0, t, support=6.0)
    u = oracle_propagator(model.h_free, model.h_int, t, 0.0)
    eta = np.zeros(6, dtype=complex)
    eta[2] = 1.0
    res = evolve_adjoint(model.h_free, model.h_int, eta, grid, tol=1e-12)
    np.testing.assert_allclose(res.partial_sum, u.conj().T @ eta, atol=1e-9)


def test_support_growth_per_order():
    """Order n of the series lives at grade at most L + n*b."""
    from dysonprop.graded import support_level

    model = random_graded_model(seed=17, dim=8, grade_shift=2)
    xi = np.zeros(8, dtype=complex)
    xi[0] = 1.0
    space = model.h_free.space
    start = support_level(space, xi)
    grid = default_grid(model.h_free, model.h_int, 0.0, 0.5, support=start)
    res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-10)
    for term in res.terms:
        lvl = support_level(space, term.value_at_end())
        assert lvl <= start + term.order * res.cert.grade_shift + 1e-12


def test_quadrature_refinement_converges():
    # two-node panels leave visible quadrature error, so doubling must shrink it
    h0, h1 = two_level(delta=6.0, g=0.9)
    xi = np.array([1.0, 1.0]) / np.sqrt(2)
    exact = oracle_propagator(h0, h1, 1.0, 0.0) @ xi
    errs = []
    for panels in (2, 4, 8):
        res = evolve_vector(
            h0, h1, xi, TimeGrid(0.0, 1.0, panels, nodes_per_panel=2),
            tol=1e-12, estimate_quadrature=False,
        )
        errs.append(np.linalg.norm(res.partial_sum - exact))
    assert errs[0] > errs[1] > errs[2]
    # and the default rule is already near machine precision
    res = evolve_vector(h0, h1, xi, TimeGrid(0.0, 1.0, panels=8), tol=1e-12,
                        estimate_quadrature=False)
    assert np.linalg.norm(res.partial_sum - exact) < 1e-12


def test_truncation_error_carries_the_tail():
    h0, h1 = two_level(delta=0.0, g=40.0)
    xi = np.array([1.0, 0.0])
    for route in (evolve_vector, evolve_block):
        with pytest.raises(TruncationError) as exc:
            route(h0, h1, xi, TimeGrid(0.0, 1.0, panels=8), tol=1e-10,
                  max_order=3)
        assert exc.value.tail_bound > 1.0
        assert exc.value.max_order == 3


def test_default_grid_aligns_to_multiple():
    model = random_graded_model(seed=2, dim=4, grade_shift=1)
    grid = default_grid(model.h_free, model.h_int, 0.0, 1.0, support=0.0,
                        panel_multiple=7)
    assert grid.panels % 7 == 0
    zero_len = default_grid(model.h_free, model.h_int, 0.5, 0.5, support=0.0)
    assert zero_len.duration == 0.0


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 7), st.integers(1, 2))
def test_random_models_track_the_oracle(seed, dim, shift):
    """Certified series agrees with the exponential route on random models."""
    model = random_graded_model(seed=seed, dim=dim, grade_shift=shift)
    xi = np.zeros(dim, dtype=complex)
    xi[seed % dim] = 1.0
    t = 0.4 + (seed % 5) * 0.1
    grid = default_grid(model.h_free, model.h_int, 0.0, t, support=float(dim))
    res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-11,
                        estimate_quadrature=False)
    want = oracle_propagator(model.h_free, model.h_int, t, 0.0) @ xi
    assert np.linalg.norm(res.partial_sum - want) < 1e-8
