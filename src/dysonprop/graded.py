"""Graded finite-dimensional spaces and operators on them.

A grading is a non-negative weight per basis vector (for Fock models: the
total boson occupation).  Operators carry two certificates derived from the
grading: the largest upward grade shift their support allows, and the
relative bound constant ``C`` with ``||T v|| <= C ||(A + 1)^{1/2} v||`` where
``A`` is the diagonal grading operator.

An operator is stored dense or as a CSR array, as its builder made it.
``scipy.sparse`` is imported by the first CSR construction (a CSR storage
passed to ``LinOp``, the Fock diagonals or the QED
interaction), not with the package, so a run on dense operators alone loads
numpy and nothing from scipy.  One block list per operator (``_op_blocks``)
serves every reader.  The blocks are the connected components of the
bipartite row/column graph of the storage's exact non-zero pattern (for the
QED interaction: the charge and photon-parity sectors), labelled by a small
numpy hook-and-shortcut routine (``_components``) and ordered by each
component's first row.  Each block is filled once, for a CSR operator by one
scatter of its non-zero entries, so no dense full-space matrix is made.
``C`` and ``LinOp.norm2`` are exact spectral norms taken block by block, so
no dense SVD of the full matrix is needed.  The grade shift, and the series
engine's coupled gap, come from the entries inside the blocks above
``ENTRY_THRESHOLD`` times the largest magnitude; the series kernel applies
the same blocks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import AssumptionViolation

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# Entries below ENTRY_THRESHOLD times the largest magnitude in a matrix (or
# vector) are treated as structural zeros when reading off supports.
ENTRY_THRESHOLD = 1e-14

# Hermiticity and sector-commutation checks are relative to this factor.
STRUCTURE_RTOL = 1e-12

# LAPACK's Hermitian eigensolvers return each eigenvalue of an n x n block
# within p(n) eps ||K||_2, p(n) a modest function of n (LAPACK Users' Guide,
# 3rd ed., section 4.7); ``growth_rates`` takes p(n) = GROWTH_SLACK * n.
GROWTH_SLACK = 10

# (rows, cols, block) of one independent block of a matrix; see _blocks.
_Block = tuple[np.ndarray | slice, np.ndarray | slice, np.ndarray]


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


def _issparse(obj) -> bool:
    """Whether ``obj`` is a ``scipy.sparse`` array, without importing it.

    No object can be sparse before ``scipy.sparse`` is loaded, so a run that
    builds no CSR operator never loads it.
    """
    sparse = sys.modules.get("scipy.sparse")
    return sparse is not None and sparse.issparse(obj)


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
    """An operator attached to a graded space, stored dense or as CSR.

    ``storage`` is a dense array or a ``scipy.sparse`` CSR array; the
    builder picks it from how it built the operator (diagonal operators and
    the QED interaction are CSR, and building them loads ``scipy.sparse``;
    dense storage never does).  Structured readers (``_op_blocks``,
    ``check_free_part``, ``.H``) read the storage directly; every other
    reader takes ``.matrix``, the dense array, which for CSR storage is a
    read-only array built afresh on each access and never cached.

    Immutable once constructed; derived data is computed lazily and memoised
    in ``_memo``.  Sums add the stored arrays, so CSR plus CSR stays CSR.
    """

    space: GradedSpace
    storage: np.ndarray | csr_array
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if _issparse(self.storage):
            from scipy.sparse import csr_array

            m = csr_array(self.storage, dtype=complex, copy=True)
            m.sum_duplicates()  # canonical: no later read rewrites the arrays
            values = m.data
        else:
            m = values = np.array(self.storage, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match space dim {self.space.dim}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "storage", m)

    @property
    def matrix(self) -> np.ndarray:
        """The operator as a read-only dense array."""
        if isinstance(self.storage, np.ndarray):
            return self.storage
        dense = self.storage.toarray()
        dense.setflags(write=False)
        return dense

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
            adjoint = self.storage.conj().T
            if _issparse(adjoint):
                adjoint = adjoint.tocsr()
            self._memo["adjoint"] = LinOp(self.space, adjoint)
        return self._memo["adjoint"]

    def __add__(self, other: "LinOp") -> "LinOp":
        self._same_space(other)
        return LinOp(self.space, self.storage + other.storage)

    def norm2(self) -> float:
        return _spectral_norm(_op_blocks(self))

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


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """``(count, labels)`` of the connected components of an undirected graph.

    The graph has nodes ``0 .. n - 1`` and an edge ``a[k] -- b[k]`` for each
    k.  Each round hooks the root of the larger end of every edge that joins
    two trees to the smaller root (``np.minimum.at``), then shortcuts
    ``parent = parent[parent]`` until every node points at its root; it stops
    when every edge joins one root.  A parent is never larger than its node,
    so each root is its component's smallest node, and ``labels`` numbers the
    components by that node: the numbering of
    ``scipy.sparse.csgraph.connected_components``.
    """
    parent = np.arange(n)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            break
        ra, rb = ra[cross], rb[cross]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    is_root = parent == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[parent]


def _entries(storage: np.ndarray | csr_array) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, values)`` of the exact non-zero entries (``!= 0``) of a
    storage, dense or CSR; explicit CSR zeros are dropped."""
    if _issparse(storage):
        stored = storage.tocoo()
        nonzero = stored.data != 0
        return stored.row[nonzero], stored.col[nonzero], stored.data[nonzero]
    rows, cols = np.nonzero(storage)
    return rows, cols, storage[rows, cols]


def _blocks(storage: np.ndarray | csr_array) -> list[_Block]:
    """``(rows, cols, block)`` for each independent block of a matrix.

    ``storage`` is a ``LinOp`` storage, dense or CSR.  The blocks are the
    connected components of the bipartite row/column graph of the exact
    non-zero pattern (``!= 0``), labelled by ``_components`` with the rows
    numbered before the columns, so the blocks come in the order of their
    first rows.  Each block has at least one row and one column; all-zero
    rows and columns lie in no block.  ``block`` is the dense
    ``matrix[np.ix_(rows, cols)]`` as a read-only C-contiguous array: for
    CSR storage the non-zero entries are summed into a zero block in one
    scatter, as ``toarray`` would, and dense storage is indexed directly.  A
    pattern that is one component is one block of whole-axis slices whose
    ``block`` is the whole dense matrix (for dense storage, the array itself
    made C-contiguous).
    """
    n_rows, n_cols = storage.shape
    sparse = _issparse(storage)
    rows, cols, values = _entries(storage)
    count, labels = _components(n_rows + n_cols, rows, n_rows + cols)
    if count == 1:
        whole = slice(None)
        return [(whole, whole, _gather(storage, whole, whole))]
    # Nodes grouped by component, ascending inside each, so rows first.
    order = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[order], np.arange(count + 1))
    rows_per = np.bincount(labels[:n_rows], minlength=count)
    blocked = np.flatnonzero((rows_per > 0) & (rows_per < np.diff(starts)))
    if sparse:
        # A node's index among its component's rows (or columns), and the
        # non-zero entries grouped by component.
        local = np.empty_like(order)
        local[order] = np.arange(order.size) - starts[labels[order]]
        local[n_rows:] -= rows_per[labels[n_rows:]]
        by_block = np.argsort(labels[rows], kind="stable")
        entry_starts = np.searchsorted(labels[rows[by_block]], np.arange(count + 1))
        entry_rows = local[rows[by_block]]
        entry_cols = local[n_rows + cols[by_block]]
        values = values[by_block]
    out = []
    for k in blocked:
        nodes = order[starts[k]:starts[k + 1]]
        block_rows, block_cols = nodes[:rows_per[k]], nodes[rows_per[k]:] - n_rows
        if sparse:
            block = np.zeros((block_rows.size, block_cols.size), dtype=storage.dtype)
            taken = slice(entry_starts[k], entry_starts[k + 1])
            block[entry_rows[taken], entry_cols[taken]] += values[taken]
            block.setflags(write=False)
        else:
            block = _gather(storage, *np.ix_(block_rows, block_cols))
        out.append((block_rows, block_cols, block))
    return out


def _gather(storage: np.ndarray | csr_array, rows, cols) -> np.ndarray:
    """``storage[rows, cols]`` as a read-only C-contiguous dense array."""
    block = storage[rows, cols]
    block = block.toarray() if _issparse(block) else np.ascontiguousarray(block)
    block.setflags(write=False)
    return block


def _spectral_norm(blocks: list[_Block], col_scale: np.ndarray | None = None) -> float:
    """Exact 2-norm of a matrix times ``col_scale``, one SVD per block.

    ``blocks`` is ``_blocks(matrix)``, so the norm is the largest block norm
    and nothing is dropped.  Column scaling is applied to each block only.
    """
    top = 0.0
    for _, block_cols, block in blocks:
        if col_scale is not None:
            block = block * col_scale[block_cols]
        top = max(top, float(np.linalg.norm(block, 2)))
    return top


def _support_differences(blocks: list[_Block], values: np.ndarray) -> np.ndarray:
    """``values[i] - values[j]`` over the supported entries (i, j) of the blocks.

    An entry is supported when its magnitude exceeds ``ENTRY_THRESHOLD``
    times the largest magnitude in any block; entries outside every block
    are exact zeros, so this is the thresholded support of the whole matrix.
    """
    mags = [np.abs(block) for _, _, block in blocks]
    top = max((mag.max() for mag in mags), default=0.0)
    out = [np.empty(0)]
    for (rows, cols, _), mag in zip(blocks, mags):
        r, c = np.nonzero(mag > ENTRY_THRESHOLD * top)
        out.append(values[rows][r] - values[cols][c])
    return np.concatenate(out)


def _op_blocks(op: LinOp) -> list[_Block]:
    """``_blocks`` of the operator's storage, labelled and gathered once (memoised)."""
    if "blocks" not in op._memo:
        op._memo["blocks"] = _blocks(op.storage)
    return op._memo["blocks"]


def _diagonal_op(space: GradedSpace, diag: np.ndarray) -> LinOp:
    """The diagonal operator with entries ``diag``, stored as CSR."""
    from scipy.sparse import diags_array

    return LinOp(space, diags_array(diag, format="csr"))


def grade_shift_bound(op: LinOp) -> float:
    """Largest upward grade shift carried by the support of ``op``.

    The blocks come from the exact non-zero pattern (``_op_blocks``); inside
    them, entries with magnitude at most ``ENTRY_THRESHOLD`` times the
    largest entry are ignored, so the number is invariant under scaling.
    The zero operator shifts by 0.
    """
    shifts = _support_differences(_op_blocks(op), op.space.grade_array())
    return float(shifts.max(initial=0.0))


def relative_bound_constant(op: LinOp) -> float:
    """The constant C with  ||op v|| <= C ||(A + 1)^{1/2} v||  for all v.

    Computed exactly as the largest singular value of ``op`` right-scaled by
    ``diag((grade + 1)^{-1/2})``, taken block by block over the independent
    blocks of the exact non-zero pattern of ``op`` (``_op_blocks``).
    """
    g = op.space.grade_array()
    return _spectral_norm(_op_blocks(op), (g + 1.0) ** -0.5)


def certify(op: LinOp) -> GradeCert:
    """Compute (and cache) the grade-shift / relative-bound certificate."""
    if "cert" not in op._memo:
        op._memo["cert"] = GradeCert(grade_shift_bound(op), relative_bound_constant(op))
    return op._memo["cert"]


def growth_rates(op: LinOp) -> tuple[float, float]:
    """``(mu+, mu-)``: ||e^{-i tau (h0 + op)}|| <= e^{|tau| mu+} for tau >= 0
    and <= e^{|tau| mu-} for tau <= 0, for every Hermitian h0 (memoised).

    They are the logarithmic norms of -i(h0 + op) and i(h0 + op), in which h0
    drops out: mu+ = lambda_max(K) and mu- = lambda_max(-K) for the Hermitian
    K = (i/2)(op* - op), so ||K||_2 = max(mu+, mu-) and a Hermitian ``op``
    gives (0, 0).  K is block-diagonal over the connected components of its
    exact non-zero pattern (inside that of op and op^T), one ``eigvalsh``
    each.  Each eigenvalue is moved outward by GROWTH_SLACK times the
    block's size, eps and largest |eigenvalue|, above the eigensolver's
    error; both rates are floored at 0.
    """
    if "growth" not in op._memo:
        k = 0.5j * (op.storage.conj().T - op.storage)
        rows, cols, _ = _entries(k)
        _, labels = _components(op.dim, rows, cols)
        up = down = 0.0
        for label in np.unique(labels[rows]):
            idx = np.flatnonzero(labels == label)
            lam = np.linalg.eigvalsh(_gather(k, *np.ix_(idx, idx)))
            slack = GROWTH_SLACK * idx.size * np.finfo(float).eps * np.abs(lam).max()
            up, down = max(up, lam[-1] + slack), max(down, slack - lam[0])
        op._memo["growth"] = (float(up), float(down))
    return op._memo["growth"]


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
    free part is checked on its stored diagonal alone; otherwise the sector
    test runs on the dense matrix when any off-diagonal entry is non-zero.
    """
    storage = h_free.storage
    diag = storage.diagonal()
    nnz = storage.count_nonzero() if _issparse(storage) else np.count_nonzero(storage)
    diagonal = nnz == np.count_nonzero(diag)
    if diagonal:
        # Every non-zero entry is on the diagonal: m - m^H is 2i Im(diag)
        # and no entry mixes grades, so nothing full-size is allocated.
        scale = max(1.0, float(np.linalg.norm(diag)))
        skew_norm = 2.0 * float(np.linalg.norm(diag.imag))
    else:
        m = h_free.matrix
        scale = max(1.0, float(np.linalg.norm(m)))
        # m - m^H, then the off-diagonal magnitudes: one full-size buffer at
        # a time on top of the dense matrix.
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
