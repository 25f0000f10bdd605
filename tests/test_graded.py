"""Graded spaces, operator certificates, and the wire format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dysonprop.errors import AssumptionViolation
from dysonprop.graded import (
    STRUCTURE_RTOL,
    GradedSpace,
    LinOp,
    _blocks,
    _spectral_norm,
    as_linop,
    certify,
    check_free_part,
    grade_shift_bound,
    relative_bound_constant,
    sector_projector,
    support_level,
    weighted_norm,
)
from dysonprop.suite import fleet


def test_space_roundtrip():
    space = GradedSpace((0.0, 1.0, 1.0, 2.0))
    doc = space.to_json()
    assert doc["dim"] == 4
    assert GradedSpace.from_json(doc) == space


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
    op = as_linop([0.0, 1.0], np.eye(2))
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


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
    assert _spectral_norm(m, _blocks(m)) == pytest.approx(dense, rel=1e-13)
    scale = rng.uniform(0.2, 1.0, size=m.shape[1])
    assert _spectral_norm(m, _blocks(m), scale) == pytest.approx(
        np.linalg.norm(m * scale, 2), rel=1e-13
    )
    diag = np.diag(rng.normal(size=7) + 1j * rng.normal(size=7))
    diag_norm = _spectral_norm(diag, _blocks(diag))
    assert diag_norm == pytest.approx(np.linalg.norm(diag, 2), rel=1e-13)
    zero = np.zeros((5, 5), dtype=complex)
    assert _blocks(zero) == [] and _spectral_norm(zero, []) == 0.0
    assert LinOp(GradedSpace((0.0,) * 7), diag).norm2() == diag_norm


def test_block_norm_is_bit_identical_on_the_fleet():
    for model in fleet():
        m = model.h_int.matrix
        assert _blocks(m) == [(slice(None), slice(None))]
        assert _spectral_norm(m, _blocks(m)) == float(np.linalg.norm(m, 2))
        g = model.h_int.space.grade_array()
        assert relative_bound_constant(model.h_int) == float(
            np.linalg.norm(m * (g + 1.0) ** -0.5, 2)
        )


def test_certify_is_cached():
    op = as_linop([0.0, 1.0, 2.0], np.triu(np.ones((3, 3))))
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


def test_sector_projector_idempotent():
    space = GradedSpace((0.0, 0.0, 1.0, 2.0))
    p = sector_projector(space, 1.0)
    np.testing.assert_array_equal(p.matrix @ p.matrix, p.matrix)
    assert np.trace(p.matrix).real == 3.0


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
    cert = certify(as_linop(space.grades, np.zeros((3, 3))))
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
