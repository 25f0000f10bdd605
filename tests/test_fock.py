"""Occupation bases, ladder operators, and the indefinite metric."""

import numpy as np
import pytest

from dysonprop.fock import (
    BosonMode,
    FermionMode,
    FockBasis,
    ModeSpec,
    boson_ops,
    eta_metric,
    fermion_ops,
    second_quantize,
    top_sector_fraction,
)


def make_basis(cutoffs=(2,), fermions=0, cap=None, scalars=()):
    spec = ModeSpec(
        bosons=tuple(
            BosonMode(f"b{i}", 1.0 + i, c) for i, c in enumerate(cutoffs)
        ),
        fermions=tuple(FermionMode(f"f{i}", 2.0) for i in range(fermions)),
        scalar_modes=frozenset(scalars),
    )
    return FockBasis(spec, total_boson_cap=cap)


def test_dimension_formulas():
    assert make_basis((2,)).dim == 3
    assert make_basis((1, 1, 1)).dim == 8
    assert make_basis((2, 2), fermions=2).dim == 9 * 4
    # four modes capped at total occupation 3: C(3+4, 4) = 35
    assert make_basis((3, 3, 3, 3), cap=3).dim == 35


def test_state_order_is_lexicographic_bosons_first():
    basis = make_basis((1,), fermions=1)
    assert basis.states == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]
    assert basis.index_of((1,), (0,)) == 2


def test_vacuum_and_grades():
    basis = make_basis((2, 1))
    v = basis.vacuum()
    assert v[basis.index_of((0, 0), ())] == 1.0
    assert np.count_nonzero(v) == 1
    g = basis.grades()
    assert g[basis.index_of((2, 1), ())] == 3.0
    assert g.min() == 0.0
    assert basis.grades() is g
    with pytest.raises(ValueError):
        g[0] = 1.0


def test_boson_annihilator_matrix_cutoff_two():
    basis = make_basis((2,))
    a, adag = boson_ops(basis, "b0")
    want = np.array(
        [[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex
    )
    np.testing.assert_allclose(a.matrix, want)
    np.testing.assert_allclose(adag.matrix, want.conj().T)


def test_ccr_defect_is_confined_to_the_top_level():
    cutoff = 4
    basis = make_basis((cutoff,))
    a, adag = boson_ops(basis, "b0")
    comm = a.matrix @ adag.matrix - adag.matrix @ a.matrix
    defect = comm - np.eye(basis.dim)
    top = np.zeros((basis.dim, basis.dim))
    top[cutoff, cutoff] = 1.0
    # truncation shows up only as -(cutoff+1) on the full-occupation state
    np.testing.assert_allclose(defect, -(cutoff + 1) * top, atol=1e-14)


def test_distinct_boson_modes_commute():
    basis = make_basis((1, 2))
    a0, _ = boson_ops(basis, "b0")
    a1, c1 = boson_ops(basis, "b1")
    np.testing.assert_allclose(
        a0.matrix @ a1.matrix, a1.matrix @ a0.matrix, atol=1e-14
    )
    np.testing.assert_allclose(
        a0.matrix @ c1.matrix, c1.matrix @ a0.matrix, atol=1e-14
    )


def test_car_exact():
    basis = make_basis((1,), fermions=3)
    ident = np.eye(basis.dim)
    ops = [fermion_ops(basis, f"f{k}") for k in range(3)]
    for j, (bj, cj) in enumerate(ops):
        for k, (bk, ck) in enumerate(ops):
            anti = bj.matrix @ ck.matrix + ck.matrix @ bj.matrix
            want = ident if j == k else 0.0 * ident
            np.testing.assert_array_equal(anti, want)
            np.testing.assert_array_equal(
                bj.matrix @ bk.matrix + bk.matrix @ bj.matrix, 0.0 * ident
            )


def test_fermion_sign_convention():
    basis = make_basis((1,), fermions=2)
    b1, _ = fermion_ops(basis, "f1")
    # lowering the second mode past an occupied first mode picks up -1
    both = basis.index_of((0,), (1, 1))
    first_only = basis.index_of((0,), (1, 0))
    assert b1.matrix[first_only, both] == -1.0
    second_only = basis.index_of((0,), (0, 1))
    empty = basis.index_of((0,), (0, 0))
    assert b1.matrix[empty, second_only] == 1.0


def test_second_quantize_diagonal():
    basis = make_basis((2,), fermions=1)
    h = second_quantize(basis, {"b0": 1.5, "f0": 7.0})
    idx = basis.index_of((2,), (1,))
    assert h.matrix[idx, idx] == 2 * 1.5 + 7.0
    assert np.count_nonzero(h.matrix - np.diag(np.diag(h.matrix))) == 0
    with pytest.raises(ValueError):
        second_quantize(basis, {"nope": 1.0})


def test_number_operator_equals_grading():
    basis = make_basis((2, 1), fermions=1)
    n = second_quantize(basis, {"b0": 1.0, "b1": 1.0})
    np.testing.assert_array_equal(np.diag(n.matrix).real, basis.grades())


def test_eta_metric_is_an_involution():
    basis = make_basis((2, 1), scalars=("b1",))
    eta = eta_metric(basis)
    np.testing.assert_array_equal(eta.matrix @ eta.matrix, np.eye(basis.dim))
    np.testing.assert_array_equal(eta.matrix, eta.matrix.conj().T)
    # sign flips exactly with the scalar-mode occupation
    minus = basis.index_of((0, 1), ())
    plus = basis.index_of((2, 0), ())
    assert eta.matrix[minus, minus] == -1.0
    assert eta.matrix[plus, plus] == 1.0


def test_eta_metric_counts_only_listed_modes():
    np.testing.assert_array_equal(eta_metric(make_basis((1, 1))).matrix, np.eye(4))
    basis = make_basis((1, 1), scalars=("b0",))
    signs = [(-1.0) ** b[0] for b, _ in basis.states]
    np.testing.assert_array_equal(eta_metric(basis).storage.diagonal(), signs)


def test_mode_spec_validation_and_roundtrip():
    with pytest.raises(ValueError):
        ModeSpec(bosons=(BosonMode("x", 1.0, 2), BosonMode("x", 2.0, 2)))
    with pytest.raises(ValueError):
        ModeSpec(bosons=(BosonMode("x", 1.0, 2),), scalar_modes=frozenset({"y"}))
    with pytest.raises(ValueError):
        BosonMode("x", -1.0, 2)
    with pytest.raises(ValueError):
        BosonMode("x", 1.0, 0)


def test_total_cap_prunes_states():
    basis = make_basis((2, 2), cap=2)
    occupations = {b for b, _ in basis.states}
    assert (2, 2) not in occupations
    assert (2, 0) in occupations
    assert all(sum(b) <= 2 for b in occupations)
    with pytest.raises(ValueError):
        make_basis((2,), cap=-1)


def test_top_sector_fraction():
    basis = make_basis((2,))
    v = np.array([1.0, 0.0, 1.0])
    assert top_sector_fraction(basis, v) == pytest.approx(0.5)
    assert top_sector_fraction(basis, np.zeros(3)) == 0.0
    assert top_sector_fraction(basis, basis.vacuum()) == 0.0


def _column_fraction(basis, v):
    """The single-vector definition: top-grade weight over total weight."""
    total = float(np.sum(np.abs(v) ** 2))
    if total == 0.0:
        return 0.0
    g = basis.grades()
    return float(np.sum(np.abs(v[g == g.max()]) ** 2) / total)


@pytest.mark.parametrize("order", ["C", "F"])
def test_block_leakage_is_the_largest_column_fraction(toy_model, order):
    basis = toy_model.basis
    rng = np.random.default_rng(17)
    d, m = basis.dim, 100
    # Columns spread over many magnitudes, so a change in summation order
    # shows in the last bit.
    w = (rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m))) * np.exp(
        rng.uniform(-30.0, 0.0, size=(d, 1))
    )
    w[:, 3] = 0.0
    w = np.asarray(w, order=order)
    loop = [_column_fraction(basis, w[:, c]) for c in range(m)]
    assert top_sector_fraction(basis, w) == max(loop)
    for c in (0, 3, 57):
        assert top_sector_fraction(basis, w[:, c]) == loop[c]
        assert top_sector_fraction(basis, w[:, c:c + 1]) == loop[c]
    # Every column's fraction, not only the largest one.
    for c in range(0, m, 7):
        assert top_sector_fraction(basis, w[:, c:c + 7]) == max(loop[c:c + 7])
    assert top_sector_fraction(basis, np.zeros((d, 4))) == 0.0
