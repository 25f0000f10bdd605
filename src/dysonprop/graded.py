"""Graded finite-dimensional spaces and operators on them.

A grading is a non-negative weight per basis vector (for Fock models: the
total boson occupation).  Operators carry two certificates derived from the
grading: the largest upward grade shift their support allows, and the
relative bound constant ``C`` with ``||T v|| <= C ||(A + 1)^{1/2} v||`` where
``A`` is the diagonal grading operator.  ``C`` and ``LinOp.norm2`` are exact
spectral norms, taken block by block over the independent blocks of the
matrix's exact non-zero pattern (for the QED interaction: the charge and
photon-parity sectors), so no dense SVD of the full matrix is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import AssumptionViolation

# Entries below ENTRY_THRESHOLD times the largest magnitude in a matrix (or
# vector) are treated as structural zeros when reading off supports.
ENTRY_THRESHOLD = 1e-14

# Hermiticity and sector-commutation checks are relative to this factor.
STRUCTURE_RTOL = 1e-12


@dataclass(frozen=True)
class GradedSpace:
    """A finite-dimensional space with a non-negative grade per basis index."""

    grades: tuple[float, ...]

    def __post_init__(self):
        g = np.asarray(self.grades, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("grades must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(g)) or np.any(g < 0):
            raise ValueError("grades must be finite and non-negative")
        object.__setattr__(self, "grades", tuple(float(x) for x in g))

    @property
    def dim(self) -> int:
        return len(self.grades)

    def grade_array(self) -> np.ndarray:
        return np.asarray(self.grades, dtype=float)

    def to_json(self) -> dict:
        return {"dim": self.dim, "grades": list(self.grades)}

    @staticmethod
    def from_json(doc: dict) -> "GradedSpace":
        space = GradedSpace(tuple(float(x) for x in doc["grades"]))
        if int(doc.get("dim", space.dim)) != space.dim:
            raise ValueError("dim field does not match the number of grades")
        return space


@dataclass(frozen=True)
class GradeCert:
    """Upward grade shift and relative bound constant of an operator."""

    grade_shift: float
    rel_bound: float


def _pairs(matrix: np.ndarray) -> list[list[float]]:
    flat = matrix.reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _from_pairs(pairs: Sequence[Sequence[float]], dim: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (dim * dim, 2):
        raise ValueError(
            f"matrix must hold {dim * dim} [re, im] pairs, got shape {arr.shape}"
        )
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(dim, dim)


@dataclass(frozen=True)
class LinOp:
    """A dense operator attached to a graded space.

    Immutable once constructed; derived data is computed lazily and memoised
    in ``_memo``.  Arithmetic helpers return new instances on the same space.
    """

    space: GradedSpace
    matrix: np.ndarray
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match space dim {self.space.dim}"
            )
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def H(self) -> "LinOp":
        """Conjugate transpose on the same space, built once per operator.

        Only this operator's memo holds the adjoint, so ``h.H.H`` is a new
        operator and no reference cycle forms.
        """
        if "adjoint" not in self._memo:
            self._memo["adjoint"] = LinOp(self.space, self.matrix.conj().T)
        return self._memo["adjoint"]

    def __matmul__(self, other: "LinOp") -> "LinOp":
        self._same_space(other)
        return LinOp(self.space, self.matrix @ other.matrix)

    def __add__(self, other: "LinOp") -> "LinOp":
        self._same_space(other)
        return LinOp(self.space, self.matrix + other.matrix)

    def __sub__(self, other: "LinOp") -> "LinOp":
        self._same_space(other)
        return LinOp(self.space, self.matrix - other.matrix)

    def __neg__(self) -> "LinOp":
        return LinOp(self.space, -self.matrix)

    def __mul__(self, scalar: complex) -> "LinOp":
        return LinOp(self.space, self.matrix * complex(scalar))

    __rmul__ = __mul__

    def norm2(self) -> float:
        return _spectral_norm(self.matrix, _op_blocks(self))

    def _same_space(self, other: "LinOp") -> None:
        if other.space.grades != self.space.grades:
            raise ValueError("operators live on different graded spaces")

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "grades": list(self.space.grades),
            "matrix": _pairs(self.matrix),
        }

    @staticmethod
    def from_json(doc: dict) -> "LinOp":
        space = GradedSpace.from_json(doc)
        return LinOp(space, _from_pairs(doc["matrix"], space.dim))


def _blocks(matrix: np.ndarray) -> list[tuple[np.ndarray | slice, np.ndarray | slice]]:
    """Row and column indices of each independent block of ``matrix``.

    The blocks are the connected components of the bipartite row/column
    graph of the exact non-zero pattern (``matrix != 0``), each with at least
    one row and one column; all-zero rows and columns lie in no block.  A
    pattern that is one component is one block of whole-axis slices, so
    ``matrix[rows][:, cols]`` is then a view of the matrix itself.
    """
    n_rows, n_cols = matrix.shape
    rows, cols = np.nonzero(matrix)
    graph = coo_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, n_rows + cols)),
        shape=(n_rows + n_cols,) * 2,
    )
    count, labels = connected_components(graph, directed=False)
    if count == 1:
        return [(slice(None), slice(None))]
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(count + 1))
    out = []
    for lo, hi in zip(starts[:-1], starts[1:]):
        nodes = order[lo:hi]
        block_rows = nodes[nodes < n_rows]
        block_cols = nodes[nodes >= n_rows] - n_rows
        if block_rows.size and block_cols.size:
            out.append((block_rows, block_cols))
    return out


def _spectral_norm(
    matrix: np.ndarray,
    blocks: list[tuple[np.ndarray | slice, np.ndarray | slice]],
    col_scale: np.ndarray | None = None,
) -> float:
    """Exact 2-norm of ``matrix * col_scale``, one SVD per independent block.

    ``blocks`` is ``_blocks(matrix)``, so the norm is the largest block norm
    and nothing is dropped.  Column scaling is applied to each block only.
    """
    top = 0.0
    for block_rows, block_cols in blocks:
        block = matrix[block_rows][:, block_cols]
        if col_scale is not None:
            block = block * col_scale[block_cols]
        top = max(top, float(np.linalg.norm(block, 2)))
    return top


def _op_blocks(op: LinOp) -> list[tuple[np.ndarray | slice, np.ndarray | slice]]:
    """``_blocks`` of the operator's matrix, labelled once (memoised)."""
    if "blocks" not in op._memo:
        op._memo["blocks"] = _blocks(op.matrix)
    return op._memo["blocks"]


def sector_projector(space: GradedSpace, level: float) -> LinOp:
    """Orthogonal projector onto basis indices with grade <= level."""
    diag = (space.grade_array() <= level).astype(complex)
    return LinOp(space, np.diag(diag))


def grade_shift_bound(op: LinOp) -> float:
    """Largest upward grade shift carried by the support of ``op``.

    Entries with magnitude at most ``ENTRY_THRESHOLD`` times the largest
    entry are ignored, so the number is invariant under scaling.  The zero
    operator shifts by 0.
    """
    m = np.abs(op.matrix)
    top = m.max()
    if top == 0.0:
        return 0.0
    g = op.space.grade_array()
    rows, cols = np.nonzero(m > ENTRY_THRESHOLD * top)
    if rows.size == 0:
        return 0.0
    shift = np.max(g[rows] - g[cols])
    return float(max(0.0, shift))


def relative_bound_constant(op: LinOp) -> float:
    """The constant C with  ||op v|| <= C ||(A + 1)^{1/2} v||  for all v.

    Computed exactly as the largest singular value of ``op`` right-scaled by
    ``diag((grade + 1)^{-1/2})``, taken block by block over the independent
    blocks of the exact non-zero pattern of ``op`` (``_op_blocks``).
    """
    g = op.space.grade_array()
    return _spectral_norm(op.matrix, _op_blocks(op), (g + 1.0) ** -0.5)


def certify(op: LinOp) -> GradeCert:
    """Compute (and cache) the grade-shift / relative-bound certificate."""
    if "cert" not in op._memo:
        op._memo["cert"] = GradeCert(grade_shift_bound(op), relative_bound_constant(op))
    return op._memo["cert"]


def weighted_norm(space: GradedSpace, vec: np.ndarray, alpha: float) -> float:
    """The norm  sqrt(sum_j (grade_j + 1)^alpha |v_j|^2)  (alpha >= 0)."""
    v = np.asarray(vec, dtype=complex)
    if v.shape != (space.dim,):
        raise ValueError(f"vector shape {v.shape} does not match dim {space.dim}")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    w = (space.grade_array() + 1.0) ** alpha
    return float(np.sqrt(np.sum(w * np.abs(v) ** 2)))


def support_level(space: GradedSpace, vec: np.ndarray) -> float | np.ndarray:
    """Largest grade carried by the numerically non-zero components of vec.

    The threshold is relative (ENTRY_THRESHOLD times the largest component)
    so the level is invariant under scaling.  The zero vector sits at the
    lowest grade present.  A (dim, m) block gives an array with one level
    per column.
    """
    v = np.abs(np.asarray(vec, dtype=complex))
    if v.ndim not in (1, 2) or v.shape[0] != space.dim:
        raise ValueError(f"vector shape {v.shape} does not match dim {space.dim}")
    if not np.isfinite(v).all():
        raise ValueError("vector has non-finite entries")
    g = space.grade_array().reshape((-1,) + (1,) * (v.ndim - 1))
    top = v.max(axis=0)
    levels = np.where(v > ENTRY_THRESHOLD * top, g, g.min()).max(axis=0)
    return float(levels) if v.ndim == 1 else levels


def check_free_part(h_free: LinOp) -> bool:
    """Require a Hermitian free part that preserves the grading sectors.

    Raises AssumptionViolation with a behavioural code otherwise, and returns
    whether ``h_free`` is diagonal to STRUCTURE_RTOL.  An exactly diagonal
    free part is checked on its diagonal alone; otherwise the sector test
    runs when any off-diagonal entry is non-zero.
    """
    m = h_free.matrix
    diag = np.diagonal(m)
    diagonal = np.count_nonzero(m) == np.count_nonzero(diag)
    if diagonal:
        # Every non-zero entry is on the diagonal: m - m^H is 2i Im(diag)
        # and no entry mixes grades, so nothing full-size is allocated.
        scale = max(1.0, float(np.linalg.norm(diag)))
        skew_norm = 2.0 * float(np.linalg.norm(diag.imag))
    else:
        scale = max(1.0, float(np.linalg.norm(m)))
        # m - m^H, then the off-diagonal magnitudes: one full-size buffer at
        # a time, as the free part of a large model is itself a dense matrix.
        skew = np.conjugate(m.T, order="C")
        np.subtract(m, skew, out=skew)
        skew_norm = float(np.linalg.norm(skew))
        del skew
    if skew_norm > STRUCTURE_RTOL * scale:
        raise AssumptionViolation(
            "free-part-not-hermitian",
            "the free part of the Hamiltonian must be Hermitian",
        )
    if diagonal:
        return True
    mags = np.abs(m)
    np.fill_diagonal(mags, 0.0)
    off = mags.max()
    if off > 0.0:
        g = h_free.space.grade_array()
        mix = np.where(g[:, None] != g[None, :], m, 0.0)
        if float(np.linalg.norm(mix)) > STRUCTURE_RTOL * scale:
            raise AssumptionViolation(
                "free-part-mixes-grades",
                "the free part must commute with the grading (block-diagonal "
                "over constant-grade sectors)",
            )
    return bool(off <= STRUCTURE_RTOL * scale)


def grade_sectors(space: GradedSpace) -> list[tuple[float, np.ndarray]]:
    """Indices grouped by grade value, ascending."""
    g = space.grade_array()
    out = []
    for val in np.unique(g):
        out.append((float(val), np.nonzero(g == val)[0]))
    return out


def random_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A complex unit vector with rotation-invariant direction."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def vectors_supported_below(
    rng: np.random.Generator, space: GradedSpace, level: float, count: int
) -> np.ndarray:
    """Unit vectors supported on grades <= level, as columns."""
    mask = space.grade_array() <= level
    if not np.any(mask):
        raise ValueError(f"no basis index has grade <= {level}")
    cols = np.zeros((space.dim, count), dtype=complex)
    sub = rng.normal(size=(int(mask.sum()), count)) + 1j * rng.normal(
        size=(int(mask.sum()), count)
    )
    sub /= np.linalg.norm(sub, axis=0, keepdims=True)
    cols[mask, :] = sub
    return cols


def as_linop(space_or_grades: GradedSpace | Iterable[float], matrix: np.ndarray) -> LinOp:
    """Convenience constructor accepting either a space or raw grades."""
    if isinstance(space_or_grades, GradedSpace):
        return LinOp(space_or_grades, matrix)
    return LinOp(GradedSpace(tuple(float(g) for g in space_or_grades)), matrix)
