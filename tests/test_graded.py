"""Graded spaces, operator certificates, and the wire format."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import SparseEfficiencyWarning, coo_matrix, csr_array
from scipy.sparse.csgraph import connected_components

from dysonprop.errors import AssumptionViolation
from dysonprop.graded import (
    STRUCTURE_RTOL,
    GradedSpace,
    LinOp,
    _blocks,
    _components,
    _gather,
    _spectral_norm,
    certify,
    check_free_part,
    grade_shift_bound,
    growth_rates,
    relative_bound_constant,
    support_level,
    weighted_norm,
)
from dysonprop.oracles import oracle_propagator
from dysonprop.suite import fleet


def test_space_roundtrip():
    space = GradedSpace((0.0, 1.0, 1.0, 2.0))
    assert GradedSpace.from_json({"dim": 4, "grades": [0, 1, 1, 2]}) == space
    assert GradedSpace.from_json({"grades": [0.0, 1.0, 1.0, 2.0]}) == space
    with pytest.raises(ValueError, match="dim field"):
        GradedSpace.from_json({"dim": 3, "grades": [0.0, 1.0, 1.0, 2.0]})


def test_linop_roundtrip():
    space = GradedSpace((0.0, 1.0))
    m = np.array([[1.0, 2.0 - 1.0j], [0.0, 3.5j]])
    op = LinOp(space, m)
    back = LinOp.from_json(op.to_json())
    assert back.space == space
    np.testing.assert_array_equal(back.matrix, m)


def test_linop_rejects_bad_wire_shape():
    doc = {"dim": 2, "grades": [0.0, 1.0], "matrix": [[1.0, 0.0]]}
    with pytest.raises(ValueError):
        LinOp.from_json(doc)


def test_linop_is_write_locked():
    op = LinOp(GradedSpace((0.0, 1.0)), np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_csr_operator_densifies_afresh_and_read_only():
    dense = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0j], [0.0, 0.0, 0.0]])
    op = LinOp(GradedSpace((0.0, 1.0, 2.0)), csr_array(dense))
    first, second = op.matrix, op.matrix
    assert first is not second
    assert np.array_equal(first, dense) and np.array_equal(second, first)
    with pytest.raises(ValueError):
        first[0, 1] = 5.0
    assert not op._memo  # the dense copy is never cached
    certify(op)
    assert all(value is not first for value in op._memo.values())
    # The stored values are locked, and a write that would add an entry
    # changes the sparsity structure: an error under the test settings.
    with pytest.raises(ValueError):
        op.storage[0, 1] = 5.0
    with pytest.raises(SparseEfficiencyWarning):
        op.storage[2, 0] = 5.0
    assert np.array_equal(op.matrix, dense)


def test_csr_sum_and_difference_stay_csr(toy_model):
    h_free, h_int = toy_model.h_free, toy_model.h_int
    dense_free, dense_int = h_free.matrix, h_int.matrix
    op, want = h_free + h_int, dense_free + dense_int
    assert isinstance(op.storage, csr_array)
    assert np.array_equal(op.matrix, want)
    assert op.norm2() == LinOp(op.space, want).norm2()


def test_grade_shift_bound_planted():
    space = GradedSpace((0.0, 1.0, 3.0))
    m = np.zeros((3, 3), dtype=complex)
    m[2, 0] = 0.7  # rise 3
    m[1, 0] = 1.0  # rise 1
    assert grade_shift_bound(LinOp(space, m)) == 3.0
    m2 = np.zeros((3, 3), dtype=complex)
    m2[0, 2] = 4.0  # rise -3 only
    assert grade_shift_bound(LinOp(space, m2)) == 0.0


def test_relative_bound_of_truncated_annihilator():
    # a|n> = sqrt(n)|n-1> on occupations 0..4: the weighted matrix
    # a diag((A+1)^{-1/2}) has columns sqrt(n)/sqrt(n+1), largest at n = 4.
    grades = (0.0, 1.0, 2.0, 3.0, 4.0)
    a = np.zeros((5, 5), dtype=complex)
    for n in range(1, 5):
        a[n - 1, n] = np.sqrt(n)
    c = relative_bound_constant(LinOp(GradedSpace(grades), a))
    assert c == pytest.approx(np.sqrt(4.0 / 5.0), rel=1e-12)


def _permuted_block_diagonal(rng):
    """Rectangular complex blocks on the diagonal, with all-zero rows and
    columns appended, under random row and column permutations."""
    shapes = [(3, 5), (4, 1), (1, 4), (6, 6), (2, 3)]
    m = np.zeros((sum(r for r, _ in shapes) + 3, sum(c for _, c in shapes) + 2),
                 dtype=complex)
    r0 = c0 = 0
    for r, c in shapes:
        m[r0:r0 + r, c0:c0 + c] = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
        r0, c0 = r0 + r, c0 + c
    return m[rng.permutation(m.shape[0])][:, rng.permutation(m.shape[1])]


def test_block_norm_equals_dense_norm():
    rng = np.random.default_rng(7)
    m = _permuted_block_diagonal(rng)
    dense = np.linalg.norm(m, 2)
    assert _spectral_norm(_blocks(m)) == pytest.approx(dense, rel=1e-13)
    scale = rng.uniform(0.2, 1.0, size=m.shape[1])
    assert _spectral_norm(_blocks(m), scale) == pytest.approx(
        np.linalg.norm(m * scale, 2), rel=1e-13
    )
    diag = np.diag(rng.normal(size=7) + 1j * rng.normal(size=7))
    diag_norm = _spectral_norm(_blocks(diag))
    assert diag_norm == pytest.approx(np.linalg.norm(diag, 2), rel=1e-13)
    zero = np.zeros((5, 5), dtype=complex)
    assert _blocks(zero) == [] and _spectral_norm([]) == 0.0
    assert LinOp(GradedSpace((0.0,) * 7), diag).norm2() == diag_norm


def test_block_norm_is_bit_identical_on_the_fleet():
    for model in fleet():
        m = model.h_int.matrix
        assert [(r, c) for r, c, _ in _blocks(m)] == [(slice(None), slice(None))]
        assert _spectral_norm(_blocks(m)) == float(np.linalg.norm(m, 2))
        g = model.h_int.space.grade_array()
        assert relative_bound_constant(model.h_int) == float(
            np.linalg.norm(m * (g + 1.0) ** -0.5, 2)
        )


def _csgraph_labels(storage):
    """``connected_components`` of the bipartite row/column graph of a matrix."""
    n_rows, n_cols = storage.shape
    rows, cols = storage.nonzero()
    graph = coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, n_rows + cols)),
        shape=(n_rows + n_cols,) * 2,
    )
    return connected_components(graph, directed=False)


def _csgraph_blocks(storage):
    """The block list as csgraph labels and one ``_gather`` per block give it."""
    n_rows = storage.shape[0]
    count, labels = _csgraph_labels(storage)
    if count == 1:
        whole = slice(None)
        return [(whole, whole, _gather(storage, whole, whole))]
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(count + 1))
    out = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        nodes = order[lo:hi]
        rows, cols = nodes[nodes < n_rows], nodes[nodes >= n_rows] - n_rows
        if rows.size and cols.size:
            out.append((rows, cols, _gather(storage, *np.ix_(rows, cols))))
    return out


def _permuted_tridiagonal(rng, n, cut_every=None):
    """A tridiagonal pattern under one random permutation of rows and columns,
    optionally with every ``cut_every``-th coupling removed."""
    i = np.arange(n)
    up = i[:-1] if cut_every is None else i[:-1][(i[:-1] + 1) % cut_every != 0]
    rows = np.concatenate([i, up, up + 1])
    cols = np.concatenate([i, up + 1, up])
    m = csr_array((np.full(rows.size, 1.0 + 0.5j), (rows, cols)), shape=(n, n))
    perm = rng.permutation(n)
    return csr_array(m[perm][:, perm])


def test_components_and_blocks_match_csgraph(toy_model, fleet_models, lattice2_model):
    rng = np.random.default_rng(5)
    block_diagonal = _permuted_block_diagonal(rng)
    inputs = [model.h_int.storage for model in fleet_models]
    for model in (toy_model, lattice2_model):
        inputs += [model.h_int.storage, model.h_int.H.storage]
    inputs += [
        block_diagonal,
        csr_array(block_diagonal),
        np.zeros((1, 1), dtype=complex),
        np.zeros((5, 5), dtype=complex),
        np.full((1, 1), 0.3 - 0.2j),
        _permuted_tridiagonal(rng, 2000, cut_every=40),
    ]
    for storage in inputs:
        n_rows, n_cols = storage.shape
        rows, cols = storage.nonzero()
        count, labels = _components(n_rows + n_cols, rows, n_rows + cols)
        want_count, want_labels = _csgraph_labels(storage)
        assert count == want_count and np.array_equal(labels, want_labels)
        got, want = _blocks(storage), _csgraph_blocks(storage)
        assert len(got) == len(want)
        for (r, c, block), (want_r, want_c, want_block) in zip(got, want):
            for idx, want_idx in ((r, want_r), (c, want_c)):
                if isinstance(want_idx, slice):
                    assert idx == want_idx
                else:
                    assert idx.dtype == want_idx.dtype
                    assert np.array_equal(idx, want_idx)
            assert block.dtype == want_block.dtype and block.shape == want_block.shape
            assert block.tobytes() == want_block.tobytes()  # signed zeros too
            assert block.flags.c_contiguous and not block.flags.writeable
    # The labelling alone on a large connected pattern: its one block is the
    # whole dense matrix, too large to gather here.
    tri = _permuted_tridiagonal(rng, 10_000)
    rows, cols = tri.nonzero()
    count, labels = _components(20_000, rows, 10_000 + cols)
    want_count, want_labels = _csgraph_labels(tri)
    assert count == want_count == 1 and np.array_equal(labels, want_labels)


def test_fresh_certify_stays_below_one_dense_float_array(toy_model):
    h_int = toy_model.h_int
    fresh = LinOp(h_int.space, h_int.matrix)
    tracemalloc.start()
    try:
        cert = certify(fresh)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert == certify(h_int)
    assert peak < 8 * fresh.dim ** 2, peak


def test_certify_is_cached():
    op = LinOp(GradedSpace((0.0, 1.0, 2.0)), np.triu(np.ones((3, 3))))
    assert certify(op) is certify(op)


def test_support_level():
    space = GradedSpace((0.0, 1.0, 2.0))
    assert support_level(space, np.array([1.0, 0.0, 0.0])) == 0.0
    assert support_level(space, np.array([1.0, 0.0, 1e-3])) == 2.0
    # entries at relative rounding level do not count as support
    assert support_level(space, np.array([1.0, 0.0, 1e-17])) == 0.0
    assert support_level(space, np.zeros(3)) == 0.0
    block = np.array([[1.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, 1e-3, 1e-17]])
    levels = support_level(space, block)
    assert levels.tolist() == [support_level(space, col) for col in block.T]
    assert levels.tolist() == [0.0, 0.0, 2.0, 1.0]
    with pytest.raises(ValueError):
        support_level(space, np.array([1.0, np.nan, 0.0]))


def test_weighted_norm_matches_hand_value():
    space = GradedSpace((0.0, 2.0))
    v = np.array([3.0, 4.0])
    # weights (g+1)^{alpha/2} with alpha = 2: 1 and 3
    assert weighted_norm(space, v, 2.0) == pytest.approx(np.sqrt(9 + 144.0))
    assert weighted_norm(space, v, 0.0) == pytest.approx(5.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.integers(0, 3), st.data())
def test_weighted_norm_monotone_in_alpha(dim, alpha, data):
    grades = tuple(sorted(data.draw(
        st.lists(st.integers(0, 4), min_size=dim, max_size=dim))))
    space = GradedSpace(tuple(float(g) for g in grades))
    vec = np.array(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=dim, max_size=dim)))
    assert weighted_norm(space, vec, float(alpha)) <= (
        weighted_norm(space, vec, float(alpha + 1)) + 1e-12
    )


def test_dynamics_assumptions_hermitian_gate():
    space = GradedSpace((0.0, 1.0))
    bad = LinOp(space, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(AssumptionViolation) as exc:
        check_free_part(bad)
    assert exc.value.code == "free-part-not-hermitian"


def test_dynamics_assumptions_grading_gate():
    space = GradedSpace((0.0, 1.0))
    mixer = LinOp(space, np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(AssumptionViolation) as exc:
        check_free_part(mixer)
    assert exc.value.code == "free-part-mixes-grades"


def test_dynamics_assumptions_accepts_sector_blocks():
    space = GradedSpace((0.0, 0.0, 1.0))
    h0 = np.zeros((3, 3), dtype=complex)
    h0[:2, :2] = [[1.0, 2.0j], [-2.0j, 0.5]]
    assert check_free_part(LinOp(space, h0)) is False
    cert = certify(LinOp(space, np.zeros((3, 3))))
    assert cert.rel_bound == 0.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_shift_bound_never_exceeds_grade_range(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    grades = np.sort(rng.integers(0, 4, size=dim)).astype(float)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op = LinOp(GradedSpace(tuple(grades)), m)
    b = grade_shift_bound(op)
    assert 0.0 <= b <= grades.max() - grades.min()
    # and the a-priori constant is bounded by the plain operator norm
    assert relative_bound_constant(op) <= np.linalg.norm(m, 2) + 1e-12


def _dense_free_part_verdict(m, grades):
    """check_free_part's verdict through full-size temporaries only."""
    scale = max(1.0, float(np.linalg.norm(m)))
    if float(np.linalg.norm(m - m.conj().T)) > STRUCTURE_RTOL * scale:
        return "free-part-not-hermitian"
    off = np.abs(m - np.diag(np.diag(m))).max()
    g = np.asarray(grades)
    if off > 0.0 and float(np.linalg.norm(
            np.where(g[:, None] != g[None, :], m, 0.0))) > STRUCTURE_RTOL * scale:
        return "free-part-mixes-grades"
    return bool(off <= STRUCTURE_RTOL * scale)


def _free_part_verdict(op):
    try:
        return check_free_part(op)
    except AssumptionViolation as exc:
        return exc.code


def test_diagonal_free_part_with_an_imaginary_entry_is_rejected():
    space = GradedSpace((0.0, 1.0, 1.0))
    bad = LinOp(space, np.diag([1.0, 2.0 + 1e-6j, 3.0]))
    with pytest.raises(AssumptionViolation) as exc:
        check_free_part(bad)
    assert exc.value.code == "free-part-not-hermitian"
    assert check_free_part(LinOp(space, np.diag([1.0, 2.0 + 1e-14j, 3.0]))) is True


def test_free_part_verdicts_match_the_dense_check(fleet_models):
    rng = np.random.default_rng(31)
    grades = (0.0, 0.0, 1.0, 1.0, 2.0)
    herm = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    herm = herm + herm.conj().T
    sector = np.where(np.equal.outer(grades, grades), herm, 0.0)
    tilt = np.zeros((5, 5), dtype=complex)
    tilt[1, 0], tilt[0, 1] = 1e-13, 3e-13
    cases = [
        np.diag(rng.normal(size=5)),
        np.diag(rng.normal(size=5) + 1e-9j * rng.normal(size=5)),
        np.diag(rng.normal(size=5) + 1e-15j * rng.normal(size=5)),
        np.zeros((5, 5)),
        sector,
        sector + tilt,
        herm,
        rng.normal(size=(5, 5)),
    ]
    ops = [LinOp(GradedSpace(grades), m) for m in cases]
    ops += [model.h_free for model in fleet_models]
    verdicts = [_free_part_verdict(op) for op in ops]
    assert verdicts == [
        _dense_free_part_verdict(op.matrix, op.space.grades) for op in ops
    ]
    assert {True, False, "free-part-not-hermitian",
            "free-part-mixes-grades"} <= set(verdicts)


def test_growth_rates_bound_the_propagator_in_both_directions(fleet_models, toy_model):
    # ||U(t, t')||_2 = ||e^{-i (t - t') (h_free + h_int)}||_2: e^{tau mu+}
    # bounds it at (tau, 0), e^{tau mu-} at (0, tau).  A Hermitian interaction
    # gives a unitary, whose computed norm is 1 up to the oracle's rounding.
    cases = [(m, (1.0, 8.0)) for m in fleet_models] + [(toy_model, (1.0, 20.0))]
    for model, taus in cases:
        rates = growth_rates(model.h_int)
        for tau in taus:
            for rate, pair in zip(rates, ((tau, 0.0), (0.0, tau))):
                u = oracle_propagator(model.h_free, model.h_int, *pair)
                norm = float(np.linalg.norm(u, 2))
                assert norm <= math.exp(tau * rate) * (1.0 + 1e-13), (model.h_int.dim, pair, rate)


def test_growth_rates_give_the_skew_norm_and_are_memoised_apart_from_certify(
    fleet_models, toy_model
):
    # max(mu+, mu-) = ||K||_2 = ||h1 - h1*||_2 / 2, which is all the Hermitian
    # test of identity_suite reads; it is 0 exactly on the Hermitian models.
    for model in [*fleet_models, toy_model]:
        h1 = model.h_int.matrix
        skew = float(np.linalg.norm(h1 - h1.conj().T, 2))
        assert 2 * max(growth_rates(model.h_int)) == pytest.approx(skew, rel=1e-12, abs=0)
    assert [max(growth_rates(m.h_int)) == 0.0 for m in fleet_models] == [
        m.hermitian for m in fleet_models]
    op = LinOp(toy_model.space, toy_model.h_int.storage)
    certify(op)
    assert "growth" not in op._memo
    assert growth_rates(op) is growth_rates(op) == growth_rates(toy_model.h_int)
