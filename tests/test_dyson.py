"""Series engine: grids, certified bounds, and agreement with closed forms."""

import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonprop import dyson
from dysonprop.dyson import (
    DEFAULT_NODES_PER_PANEL,
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
)
from dysonprop.errors import TruncationError
from dysonprop.evolution import schrodinger_trajectory, strong_split_residual
from dysonprop.graded import (
    ENTRY_THRESHOLD,
    GradedSpace,
    LinOp,
    certify,
    grade_shift_bound,
    random_vector,
    support_level,
    vectors_supported_below,
)
from dysonprop.oracles import matrix_exp, oracle_propagator
from dysonprop.qed import build_model, default_toy_config, eta_unitarity_check
from dysonprop.suite import fleet, identity_suite, random_graded_model


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


def test_reference_rule_is_read_only():
    for arr in dyson._reference_rule(DEFAULT_NODES_PER_PANEL):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, panels=0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, panels=2, nodes_per_panel=1)
    with pytest.raises(ValueError):
        TimeGrid(0.0, float("nan"), panels=1)
    for panels, nodes in ((2.5, 4), (2.0, 4), (True, 4), (2, 3.0), (2, False)):
        with pytest.raises(ValueError, match="must be an integer"):
            TimeGrid(0.0, 1.0, panels=panels, nodes_per_panel=nodes)
    assert TimeGrid(0.0, 1.0, panels=np.int64(2)).boundaries().size == 3


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
    for i in range(1, 6):  # NaN duration, C, shift, support or norm
        args = [3, 1.0, 1.0, 1.0, 0.0, 1.0]
        args[i] = math.nan
        with pytest.raises(ValueError):
            apriori_bound(*args)
        with pytest.raises(ValueError):
            apriori_tail(*args)
    for top in (math.nan, -1.0):
        with pytest.raises(ValueError):
            dyson._apriori_table(3, 1.0, 1.0, 1.0, [0.0], [1.0], top=top)


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
    free = dyson._free_spectrum(h0)
    rot = free.two_sided(math.pi, h1.matrix, math.pi)
    np.testing.assert_allclose(rot, -h1.matrix, atol=1e-14)
    # diagonal entries never move
    same = free.two_sided(0.7, np.eye(2), 0.7)
    np.testing.assert_allclose(same, np.eye(2), atol=1e-15)


def test_free_propagator_diagonal_and_rotated():
    h0, _ = two_level(delta=2.0)
    u = free_propagator(h0, 0.5)
    np.testing.assert_allclose(u, np.diag([1.0, np.exp(-1j)]), atol=1e-15)
    # non-diagonal free part within one sector
    space = GradedSpace((0.0, 0.0))
    m = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    u2 = free_propagator(LinOp(space, m), 0.3)
    np.testing.assert_allclose(u2, matrix_exp(-0.3j * m), atol=1e-13)


@pytest.mark.parametrize("index", [0, 1], ids=["diagonal", "block"])
def test_free_evolution_matches_the_matrix_exponential(fleet_models, index):
    h_free = fleet_models[index].h_free
    free = dyson._free_spectrum(h_free)
    assert (free.rotation is None) == (index == 0)
    rng = np.random.default_rng(4)
    data = rng.normal(size=(3, h_free.dim, 2)) + 1j * rng.normal(size=(3, h_free.dim, 2))
    times = np.array([0.7, -0.45, 1.3])

    def exact(t, block):
        return matrix_exp(-1j * t * h_free.matrix) @ block

    for t in times[:2]:
        np.testing.assert_allclose(free.evolve(t, data[0]), exact(t, data[0]),
                                   rtol=0, atol=1e-13)
    stacked = free.evolve(times, data)
    for k, t in enumerate(times):
        np.testing.assert_allclose(stacked[k], exact(t, data[k]), rtol=0, atol=1e-13)


def test_no_library_path_builds_a_dense_free_propagator(monkeypatch):
    def refuse(h_free, t):
        raise AssertionError("a library path built a dense free propagator")

    for name, module in list(sys.modules.items()):
        if name == "dysonprop" or name.startswith("dysonprop."):
            if getattr(module, "free_propagator", None) is free_propagator:
                monkeypatch.setattr(module, "free_propagator", refuse)
    certified = []
    real_certify = dyson.certify

    def counted(op):
        certified.append(op)
        return real_certify(op)

    monkeypatch.setattr(dyson, "certify", counted)
    # Fresh operators throughout, so no memo hides a call.
    eta_unitarity_check(build_model(default_toy_config()), pairs=4)
    assert certified
    block = random_graded_model(seed=21, dim=6, grade_shift=1, block_free_part=True)
    identity_suite(block.h_free, block.h_int, tuples=1, pairs=4)
    small = random_graded_model(11, 8, grade_shift=2)
    rng = np.random.default_rng(6)
    obs = LinOp(small.h_free.space, rng.normal(size=(8, 8)) + 0j)
    strong_split_residual(small.h_free, small.h_int, obs, np.eye(8)[:, 1], t=0.4,
                          substeps=4)


def test_coupled_gap_reads_the_supported_entries():
    space = GradedSpace((0.0, 1.0, 2.0))
    h0 = LinOp(space, np.diag([0.0, 1.0, 10.0]).astype(complex))
    m = np.zeros((3, 3), dtype=complex)
    m[1, 0] = 1.0  # couples gap 1, not the gap-10 pair
    assert coupled_gap(h0, LinOp(space, m)) == pytest.approx(1.0)
    assert coupled_gap(h0, LinOp(space, np.zeros((3, 3)))) == 0.0


def _rotated(prep, h_int):
    """The prepared (eigenbasis) interaction as a dense array."""
    return (h_int if prep.h_int_rot is None else prep.h_int_rot).matrix


def _dense_support(matrix):
    """Rows and columns of the entries above the relative entry threshold."""
    mags = np.abs(matrix)
    return np.nonzero(mags > ENTRY_THRESHOLD * mags.max())


def test_block_shift_and_gap_match_the_dense_formulas(toy_model, fleet_models):
    models = [(m.h_free, m.h_int) for m in (*fleet_models, toy_model)]
    models.append(_three_block_model())
    for h_free, h_int in models:
        g = h_int.space.grade_array()
        rows, cols = _dense_support(h_int.matrix)
        assert grade_shift_bound(h_int) == float(max(0.0, np.max(g[rows] - g[cols])))
        prep = _prepare(h_free, h_int)
        rows, cols = _dense_support(_rotated(prep, h_int))
        e = prep.energies
        assert coupled_gap(h_free, h_int) == float(np.abs(e[rows] - e[cols]).max())


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
        evolve_adjoint(model.h_free, h_int, xi, grid, tol=1e-12)
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
    by_blocks = _run_block(prep, grid, block, 1e-9, 64, keep_terms=False)
    # The one-block reference works in the prepared basis itself.
    whole = ((slice(None), slice(None), _rotated(prep, h_int)),)
    single = dataclasses.replace(prep, order=slice(None), unorder=slice(None),
                                 blocks=whole)
    dense = _run_block(single, grid, block, 1e-9, 64, keep_terms=False)
    # The block path reads the blocks alone, never the dense d x d matrix.
    zero = LinOp(prep.space, np.zeros((h_int.dim,) * 2))
    blind = dataclasses.replace(prep, h_int_rot=zero)
    blind_run = _run_block(blind, grid, block, 1e-9, 64, keep_terms=False)
    np.testing.assert_array_equal(blind_run.boundary_sums, by_blocks.boundary_sums)
    assert by_blocks.achieved_order == dense.achieved_order > 1
    for name in ("boundary_sums", "tail_bounds", "per_order_sup_norms"):
        got, want = getattr(by_blocks, name), getattr(dense, name)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _three_block_model():
    """Sectors of sizes 2, 3, 2, 2, 2, 1 at grades 0..5 under a permutation,
    with a non-diagonal free part; the interaction maps sector 0 to 1, 2 to 3
    and 3 to 0, so sectors 4 and 5 (and the rows of sector 2, the columns of
    sector 1) are all zero."""
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
    return h_free, h_int


def test_block_apply_with_zero_rows_under_a_rotated_free_part():
    h_free, h_int = _three_block_model()
    dim = h_free.dim
    prep = _prepare(h_free, h_int)
    assert prep.rotation is not None and len(prep.blocks) == 3
    t = 0.8
    grid = default_grid(h_free, h_int, 0.0, t, support=5.0, tol=1e-11)
    u = evolve_block(h_free, h_int, np.eye(dim), grid, 1e-11).final()
    assert np.abs(u - oracle_propagator(h_free, h_int, t, 0.0)).max() < 1e-9


def test_diagonal_free_part_reuses_the_certified_blocks(toy_model, fleet_models):
    for model in (toy_model, *fleet_models):
        prep = _prepare(model.h_free, model.h_int)
        if prep.rotation is not None:
            continue
        certified = model.h_int._memo["blocks"]
        assert len(prep.blocks) == len(certified) > 0
        for (_, _, block), (_, _, gathered) in zip(prep.blocks, certified):
            assert block is gathered


def test_fleet_takes_the_single_product_path(fleet_models):
    for model in fleet_models:
        prep = _prepare(model.h_free, model.h_int)
        (rows, cols, block), = prep.blocks
        assert rows == cols == slice(None)
        assert prep.order == prep.unorder == slice(None)
        # a view, not a copy
        assert np.shares_memory(block, _rotated(prep, model.h_int))


def test_apply_path_is_read_off_the_stored_interaction(
    toy_model, fleet_models, lattice2_model
):
    ratio = dyson.CSR_APPLY_RATIO
    h_int = lattice2_model.h_int
    for op in (h_int, h_int.H):
        prep = _prepare(lattice2_model.h_free, op)
        entries = sum(block.size for _, _, block in prep.blocks)
        assert entries > ratio * op.storage.count_nonzero()
        # Permuted back out of the kernel's basis, it is the stored operator.
        back = prep.csr[prep.unorder][:, prep.unorder]
        assert back.shape == op.storage.shape and abs(back - op.storage).max() == 0
    stock = _prepare(toy_model.h_free, toy_model.h_int)
    entries = sum(block.size for _, _, block in stock.blocks)
    assert entries <= ratio * toy_model.h_int.storage.count_nonzero()
    pairs = [(m.h_free, m.h_int) for m in (toy_model, *fleet_models)]
    pairs.append(_three_block_model())
    assert len(pairs) == 22
    for h_free, op in pairs:
        assert _prepare(h_free, op).csr is None


def _assert_same_series(got, want):
    assert got.achieved_order == want.achieved_order >= 3
    np.testing.assert_array_equal(got.tail_bounds, want.tail_bounds)
    pairs = [(got.boundary_sums, want.boundary_sums),
             (got.per_order_sup_norms, want.per_order_sup_norms)]
    assert len(got.terms) == len(want.terms)
    for a, b in zip(got.terms, want.terms):
        pairs += [(a.node_values, b.node_values), (a.boundary_values, b.boundary_values)]
    for a, b in pairs:
        assert np.abs(a - b).max() <= 1e-15 * np.abs(b).max()


def test_csr_apply_matches_the_block_apply(lattice2_model, monkeypatch):
    h_free, h_int = lattice2_model.h_free, lattice2_model.h_int
    level = lattice2_model.config.photon_cap - 2
    rng = np.random.default_rng(17)
    block = vectors_supported_below(rng, lattice2_model.space, level, 3)
    grid = default_grid(h_free, h_int, 0.0, 1.0, support=level, tol=1e-9)
    routes = [(evolve_block, block), (evolve_vector, block[:, 0]),
              (evolve_adjoint, block)]
    by_csr = [route(h_free, h_int, xi, grid, 1e-9) for route, xi in routes]
    assert by_csr[1].terms
    # The CSR path reads the CSR array alone, never the blocks.
    prep = _prepare(h_free, h_int)
    blind = dataclasses.replace(prep, blocks=())
    blind_run = _run_block(blind, grid, block, 1e-9, 64, keep_terms=False)
    np.testing.assert_array_equal(blind_run.boundary_sums, by_csr[0].boundary_sums)
    # Every route again, on the block path of the same prepared model.
    monkeypatch.setattr(dyson, "_prepare", lambda f, h: dataclasses.replace(
        _prepare(f, h), csr=None))
    assert dyson._prepare(h_free, h_int).csr is None
    for (route, xi), got in zip(routes, by_csr):
        _assert_same_series(got, route(h_free, h_int, xi, grid, 1e-9))


def test_block_rows_are_disjoint_contiguous_slices(toy_model, fleet_models):
    models = [toy_model, fleet_models[9], fleet_models[19]]
    for model in models:
        prep = _prepare(model.h_free, model.h_int)
        dim = model.space.dim
        h_rot = _rotated(prep, model.h_int)
        order = np.arange(dim)[prep.order]
        np.testing.assert_array_equal(order[np.arange(dim)[prep.unorder]],
                                      np.arange(dim))
        stop = 0
        for rows, cols, block in prep.blocks:
            assert isinstance(rows, slice) and rows.step is None
            start, end, _ = rows.indices(dim)
            assert start == stop < end  # each range starts where the last ended
            stop = end
            got = h_rot[np.ix_(order[rows], order[cols])]
            np.testing.assert_array_equal(block, got)
        # Rows past the last block are the interaction's all-zero rows.
        assert not h_rot[order[stop:]].any()


def test_run_without_kept_terms_reuses_two_order_buffers(
    toy_model, fleet_models, lattice2_model
):
    # The design holds two order-sized buffers (the order's node values and
    # the apply output, one edge row longer).  The (d, P + 1, m) edge arrays,
    # the per-grid integration matrices and, on the CSR path (the 2640-state
    # model), the one node's product that `csr @` returns add well under one
    # more order at these sizes, so the peak stays below three orders;
    # building every order afresh needs at least four.
    cases = [(fleet_models[19], TimeGrid(0.0, 0.5, 16, 8), 64),
             (toy_model, TimeGrid(0.0, 0.2, 4, 8), 32),
             (lattice2_model, TimeGrid(0.0, 0.2, 5, 8), 16)]
    for model, grid, m in cases:
        prep = _prepare(model.h_free, model.h_int)
        dim = model.space.dim
        block = np.eye(dim, dtype=complex)[:, :m]
        order_bytes = 16 * grid.nodes_per_panel * dim * grid.panels * m
        tracemalloc.start()
        try:
            result = _run_block(prep, grid, block, 1e-10, 64, keep_terms=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.achieved_order >= 3 and result.terms == ()
        assert peak < 3 * order_bytes, peak / order_bytes


def test_kept_terms_are_not_overwritten(toy_model, fleet_models):
    rng = np.random.default_rng(8)
    fleet_xi = random_vector(rng, fleet_models[9].space.dim)
    level = toy_model.config.photon_cap - 2
    toy_xi = vectors_supported_below(rng, toy_model.space, level, 1)[:, 0]
    for model, xi, t in ((fleet_models[9], fleet_xi, 0.9), (toy_model, toy_xi, 0.4)):
        h_free, h_int = model.h_free, model.h_int
        support = support_level(model.space, xi)
        grid = default_grid(h_free, h_int, 0.0, t, support=support, tol=1e-10)
        res = evolve_vector(h_free, h_int, xi, grid, tol=1e-10)
        assert res.achieved_order >= 3 and len(res.terms) == res.achieved_order + 1
        sups = [term.sup_norm for term in res.terms]
        np.testing.assert_allclose(sups, res.per_order_sup_norms[:, 0], rtol=1e-12)
        edges = sum(term.boundary_values for term in res.terms)
        scale = np.abs(res.boundary_sums).max()
        assert np.abs(edges - res.boundary_sums).max() <= 1e-14 * scale
        # Each kept order's node values still give the next order's panel
        # increments: -i h_p sum_j w_j h_int(tau_pj) U_n(tau_pj) xi.
        _, weights, _ = dyson._reference_rule(grid.nodes_per_panel)
        halfw = 0.5 * np.diff(grid.boundaries())
        free = dyson._free_spectrum(h_free)
        rotated = [[free.two_sided(tau, h_int.matrix, tau) for tau in row]
                   for row in grid.nodes()]
        for lower, upper in zip(res.terms, res.terms[1:]):
            want = [-1j * h * sum(w * (m @ v) for w, m, v in zip(weights, mats, vals))
                    for h, mats, vals in zip(halfw, rotated, lower.node_values)]
            step = np.diff(upper.boundary_values, axis=0)
            assert np.abs(step - want).max() <= 1e-12 * np.abs(step).max()


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
    np.testing.assert_allclose(res.final()[:, 0], expected, atol=1e-13)
    assert res.per_order_sup_norms[2, 0] < 1e-14
    assert res.supports_in[0] == 0.0


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
        term1.boundary_values[-1][:, 0], [0.0, expected], atol=1e-12
    )


def test_zero_interaction_gives_identity():
    h0, _ = two_level()
    zero = LinOp(h0.space, np.zeros((2, 2), dtype=complex))
    xi = np.array([0.6, 0.8j])
    grid = TimeGrid(0.0, 2.0, panels=2)
    res = evolve_vector(h0, zero, xi, grid, tol=1e-12)
    np.testing.assert_allclose(res.final()[:, 0], xi, atol=1e-15)
    assert res.achieved_order == 0
    assert res.tail_bound == 0.0
    prep = _prepare(h0, zero)
    assert prep.blocks == () and prep.gap == 0.0
    # With no block, nothing writes the applied buffer: every later order is 0.
    terms = _run_block(prep, grid, xi[:, None], 0.0, 2, keep_terms=True).terms
    assert len(terms) == 3
    for term in terms[1:]:
        assert not term.node_values.any() and not term.boundary_values.any()


@pytest.mark.parametrize("t0, t1", [(0.0, 1.0), (1.0, -0.5)])
def test_integration_matrices_match_the_direct_construction(toy_model, t0, t1):
    prep = _prepare(toy_model.h_free, toy_model.h_int)
    energies = prep.energies[prep.order]
    grid = TimeGrid(t0, t1, panels=200)
    kern = dyson._GridKernels(grid, energies)
    x, w, s = dyson._reference_rule(grid.nodes_per_panel)
    bnd = grid.boundaries()
    mid, halfw = 0.5 * (bnd[1:] + bnd[:-1]), 0.5 * (bnd[1:] - bnd[:-1])
    # Node offsets from the panel midpoint, straight from the grid's nodes.
    offsets = grid.nodes()[0] - mid[0]
    minus = np.exp(-1j * offsets[None, :] * energies[:, None])  # [r, j]
    plus = -1j * halfw[0] * minus.conj()
    step = minus[:, :, None] * s[None] * plus[:, None, :]
    assert kern.step.shape == (energies.size, x.size, x.size + 1)
    scale = np.abs(halfw).max()
    assert np.abs(kern.step[:, :, :-1] - step).max() <= 1e-14 * scale
    assert np.abs(kern.step[:, :, -1] - minus).max() <= 1e-14
    assert np.abs(kern.weights[:, 0] - w * plus).max() <= 1e-14 * scale
    panel = np.exp(-1j * energies[:, None] * mid)
    assert np.abs(kern.panel_phase - panel).max() <= 1e-14
    # Panel times node factor is e^{-i tau E} at every node [r, p, j].
    direct = np.exp(-1j * grid.nodes()[None] * energies[:, None, None])
    frame = kern.panel_phase[:, :, None] * kern.step[:, None, :, -1]
    assert np.abs(frame - direct).max() <= 1e-14


def test_grid_kernels_hold_no_per_node_phase_table(toy_model):
    # O(d (P + q^2)) bytes: no array of size P*q*d.
    prep = _prepare(toy_model.h_free, toy_model.h_int)
    grid = TimeGrid(0.0, 1.0, panels=200)
    kern = dyson._GridKernels(grid, prep.energies[prep.order])
    d, p, q = toy_model.space.dim, grid.panels, grid.nodes_per_panel
    arrays = [v for v in vars(kern).values() if isinstance(v, np.ndarray)]
    assert max(a.size for a in arrays) < p * q * d // 4
    assert sum(a.nbytes for a in arrays) == 16 * d * (p + q * (q + 1) + q)


def _plain_recursion(prep, h_rot, grid, work, orders):
    """Orders 0..orders of the series in the prepared basis, node by node.

    Returns per order the node values (P, q, d, m) and edge values
    (P + 1, d, m), each in the interaction picture, straight from
    U_{n+1}(tau) = -i int h_int(s) U_n(s) ds on the interpolant.
    """
    _, w, s = dyson._reference_rule(grid.nodes_per_panel)
    halfw = 0.5 * np.diff(grid.boundaries())
    e = prep.energies
    nodes = np.broadcast_to(work, (grid.panels, grid.nodes_per_panel) + work.shape)
    edges = np.broadcast_to(work, (grid.panels + 1,) + work.shape)
    out = [(nodes.copy(), edges.copy())]
    for _ in range(orders):
        g = np.empty_like(nodes)
        for p, row in enumerate(grid.nodes()):
            for j, tau in enumerate(row):
                h_tau = np.exp(1j * tau * e)[:, None] * h_rot * np.exp(-1j * tau * e)
                g[p, j] = -1j * halfw[p] * (h_tau @ nodes[p, j])
        totals = np.einsum("j,pjdm->pdm", w, g)
        edges = np.concatenate([np.zeros_like(totals[:1]),
                                np.cumsum(totals, axis=0)])
        nodes = np.einsum("ji,pidm->pjdm", s, g) + edges[:-1, None]
        out.append((nodes, edges))
    return out


@pytest.mark.parametrize("keep_terms", [False, True])
def test_series_matches_a_plain_interaction_picture_recursion(
    toy_model, fleet_models, keep_terms
):
    rng = np.random.default_rng(23)
    level = toy_model.config.photon_cap - 2
    cases = [  # many blocks, diagonal free part; one block, rotated free part
        (toy_model, vectors_supported_below(rng, toy_model.space, level, 2), 0.4),
        (fleet_models[9], np.eye(fleet_models[9].space.dim)[:, :3], 0.9),
    ]
    for model, block, t in cases:
        prep = _prepare(model.h_free, model.h_int)
        grid = TimeGrid(0.0, t, 3, 8)
        result = _run_block(prep, grid, block.astype(complex), 0.0, 5, keep_terms)
        want = _plain_recursion(prep, _rotated(prep, model.h_int), grid,
                                prep.to_working(block), 5)
        assert result.achieved_order == 5
        assert len(result.terms) == (6 if keep_terms else 0)
        for term, (want_nodes, want_edges) in zip(result.terms, want):
            # Kept terms are in the original basis, the recursion's in the
            # prepared one.
            scale = np.abs(want_edges).max()
            got = prep.to_working(term.node_values)
            assert np.abs(got - want_nodes).max() <= 1e-14 * scale
            got = prep.to_working(term.boundary_values)
            assert np.abs(got - want_edges).max() <= 1e-14 * scale
        sums = prep.from_working(sum(e for _, e in want).transpose(1, 0, 2)
                                 .reshape(model.space.dim, -1))
        sums = sums.reshape(model.space.dim, 4, -1).transpose(1, 0, 2)
        scale = np.abs(sums).max()
        assert np.abs(result.boundary_sums - sums).max() <= 1e-14 * scale
        sups = [max(np.linalg.norm(n, axis=2).max(axis=(0, 1)).max(),
                    np.linalg.norm(e, axis=1).max()) for n, e in want]
        np.testing.assert_allclose(result.per_order_sup_norms.max(axis=1), sups,
                                   rtol=1e-14)


def test_series_matches_exponential_oracle():
    rng = np.random.default_rng(5)
    model = random_graded_model(seed=21, dim=6, grade_shift=1)
    xi = rng.normal(size=6) + 1j * rng.normal(size=6)
    for t in (0.5, -0.75):
        grid = default_grid(model.h_free, model.h_int, 0.0, t, support=6.0)
        res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-12)
        want = oracle_propagator(model.h_free, model.h_int, t, 0.0) @ xi
        np.testing.assert_allclose(res.final()[:, 0], want, atol=1e-9)
        assert res.tail_bound < 1e-12


def test_node_values_follow_the_grid_nodes():
    # Every node value against the propagator at that node's own time, so a
    # swap of panels and nodes cannot pass as a sup over all nodes would.
    model = fleet(count=10)[9]  # sector-block free part
    h_free, h_int = model.h_free, model.h_int
    assert _prepare(h_free, h_int).rotation is not None
    xi = random_vector(np.random.default_rng(17), model.space.dim)
    grid = default_grid(h_free, h_int, 0.3, 1.1, support=max(model.space.grades))
    assert grid.panels >= 2
    res = evolve_vector(h_free, h_int, xi, grid, tol=1e-12)
    values = sum(term.node_values[..., 0] for term in res.terms)
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
    for n, sup in enumerate(res.per_order_sup_norms[:, 0]):
        bound = apriori_bound(
            n, 1.0, cert.rel_bound, cert.grade_shift, res.supports_in[0], 1.0
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
        )
        np.testing.assert_allclose(blk.final()[:, col], one.final()[:, 0], atol=1e-13)
    assert blk.per_order_sup_norms.shape[1] == 3


def test_vector_route_makes_one_series_pass(monkeypatch):
    model = random_graded_model(seed=8, dim=5, grade_shift=1)
    grid = TimeGrid(0.0, 0.8, panels=4)
    grids = []
    real_run = dyson._run_block

    def counted(prep, grid, *args, **kwargs):
        grids.append(grid)
        return real_run(prep, grid, *args, **kwargs)

    monkeypatch.setattr(dyson, "_run_block", counted)
    res = evolve_vector(model.h_free, model.h_int, np.eye(5)[:, 0], grid, tol=1e-11)
    assert grids == [grid]
    assert len(res.terms) == res.achieved_order + 1


def test_block_bounds_match_the_per_column_bounds():
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
        assert res.supports_in[j] == support_level(space, block[:, j])
        bounds, tails = dyson._apriori_table(
            res.achieved_order, 0.7, cert.rel_bound, cert.grade_shift,
            [res.supports_in[j]], [np.linalg.norm(block[:, j])],
            top=max(space.grades),
        )
        np.testing.assert_allclose(res.per_order_bounds[:, j], bounds[:, 0], rtol=1e-13)
        assert res.tail_bounds[j] == pytest.approx(tails[-1, 0], rel=1e-13)


@pytest.mark.parametrize("t", [1.0, 4.0])
def test_grade_capped_bounds_dominate_every_order_on_the_fleet(fleet_models, t):
    """Each order's sup norm stays below its bound, capped at the top grade."""
    for model in fleet_models:
        top = max(model.h_free.space.grades)
        grid = default_grid(model.h_free, model.h_int, 0.0, t, support=top)
        res = evolve_block(model.h_free, model.h_int, np.eye(model.h_free.dim),
                           grid, tol=1e-10)
        norms, bounds = res.per_order_sup_norms[1:], res.per_order_bounds[1:]
        assert (norms <= bounds).all(), model.name


def test_grade_cap_reaches_long_times_on_the_readme_model():
    """The uncapped bound gives up at t = 8 (tail 1.3e-7 at order 64)."""
    model = random_graded_model(seed=3, dim=12, grade_shift=2)
    xi = np.zeros(12, dtype=complex)
    xi[0] = 1.0
    for t, order, panels in ((8.0, 29, 56), (16.0, 46, 112)):
        grid = default_grid(model.h_free, model.h_int, 0.0, t, support=0, tol=1e-10)
        res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-10)
        assert (res.achieved_order, grid.panels) == (order, panels)
        want = oracle_propagator(model.h_free, model.h_int, t, 0.0) @ xi
        assert np.linalg.norm(res.final()[:, 0] - want) <= 1e-9


def test_adjoint_route_is_the_conjugate_transpose():
    model = random_graded_model(seed=13, dim=6, grade_shift=1)
    t = 0.6
    grid = default_grid(model.h_free, model.h_int, 0.0, t, support=6.0)
    u = oracle_propagator(model.h_free, model.h_int, t, 0.0)
    eta = np.zeros(6, dtype=complex)
    eta[2] = 1.0
    rng = np.random.default_rng(31)
    block = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    for etas in (eta[:, None], block):
        res = evolve_adjoint(model.h_free, model.h_int, etas, grid, tol=1e-12)
        assert res.final().shape == etas.shape and res.grid == grid.reversed()
        np.testing.assert_allclose(res.final(), u.conj().T @ etas, atol=1e-9)


def test_support_growth_per_order():
    """Order n of the series lives at grade at most L + n*b."""
    model = random_graded_model(seed=17, dim=8, grade_shift=2)
    xi = np.zeros(8, dtype=complex)
    xi[0] = 1.0
    space = model.h_free.space
    start = support_level(space, xi)
    grid = default_grid(model.h_free, model.h_int, 0.0, 0.5, support=start)
    res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-10)
    for term in res.terms:
        lvl = support_level(space, term.boundary_values[-1][:, 0])
        assert lvl <= start + term.order * res.cert.grade_shift + 1e-12


def test_quadrature_refinement_converges():
    # two-node panels leave visible quadrature error, so doubling must shrink it
    h0, h1 = two_level(delta=6.0, g=0.9)
    xi = np.array([1.0, 1.0]) / np.sqrt(2)
    exact = oracle_propagator(h0, h1, 1.0, 0.0) @ xi
    errs = []
    for panels in (2, 4, 8):
        res = evolve_vector(
            h0, h1, xi, TimeGrid(0.0, 1.0, panels, nodes_per_panel=2), tol=1e-12,
        )
        errs.append(np.linalg.norm(res.final()[:, 0] - exact))
    assert errs[0] > errs[1] > errs[2]
    # and the default rule is already near machine precision
    res = evolve_vector(h0, h1, xi, TimeGrid(0.0, 1.0, panels=8), tol=1e-12)
    assert np.linalg.norm(res.final()[:, 0] - exact) < 1e-12


def test_truncation_error_carries_the_tail():
    h0, h1 = two_level(delta=0.0, g=40.0)
    xi = np.array([1.0, 0.0])
    for route in (evolve_vector, evolve_block):
        with pytest.raises(TruncationError) as exc:
            route(h0, h1, xi, TimeGrid(0.0, 1.0, panels=8), tol=1e-10,
                  max_order=3)
        assert exc.value.tail_bound > 1.0
        assert exc.value.max_order == 3


def test_default_grid_of_zero_duration():
    model = random_graded_model(seed=2, dim=4, grade_shift=1)
    zero_len = default_grid(model.h_free, model.h_int, 0.5, 0.5, support=0.0)
    assert zero_len.duration == 0.0
    assert zero_len.panels == 1


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000), st.integers(4, 7), st.integers(1, 2))
def test_random_models_track_the_oracle(seed, dim, shift):
    """Certified series agrees with the exponential route on random models."""
    model = random_graded_model(seed=seed, dim=dim, grade_shift=shift)
    xi = np.zeros(dim, dtype=complex)
    xi[seed % dim] = 1.0
    t = 0.4 + (seed % 5) * 0.1
    grid = default_grid(model.h_free, model.h_int, 0.0, t, support=float(dim))
    res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-11)
    want = oracle_propagator(model.h_free, model.h_int, t, 0.0) @ xi
    assert np.linalg.norm(res.final()[:, 0] - want) < 1e-8
