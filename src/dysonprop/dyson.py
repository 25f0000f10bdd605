"""Iterated-integral (Dyson) series engine with a-priori truncation bounds.

The propagator is built order by order through the recursion

    U_{n+1}(t, t') xi = -i * integral_{t'}^{t} h_int(tau) U_n(tau, t') xi dtau,

with ``h_int(tau) = e^{i tau h_free} h_int e^{-i tau h_free}``.  Each order is
certified by the product bound

    ||U_n(t, t') xi|| <= |t - t'|^n / n! * C^n *
                         prod_{k<n} (L + k*b + 1)^{1/2} * ||xi||

where C is the relative bound constant of the interaction, b its grade
shift, and L the support level of xi.  The engine reads every grade
L + k b there as min(L + k b, g_top), g_top the space's top grade:
``check_free_part`` makes h_free Hermitian and grade-preserving, so
U_k(tau) xi lies in grades <= min(L + k b, g_top), and
||h_int(tau) v|| <= C ||(A + 1)^{1/2} v|| <= C sqrt(min(L + k b, g_top) + 1)
||v|| for such v, whether or not h_int is normal.  The term ratio
|t - t'| C sqrt(min(L + k b, g_top) + 1) / (k + 1) still does not grow from
order 1 on, so the tail's geometric closure holds as before; past g_top the
terms shrink like 1/n! rather than 1/sqrt(n!).  ``apriori_bound`` and
``apriori_tail`` keep the paper's uncapped formula.  Summation stops once
the certified tail, these bounds summed over every later order, is below
the tolerance.

Quadrature: composite Gauss-Legendre panels.  Cumulative integrals inside a
panel integrate the degree-(q-1) interpolant through the panel's own nodes.
Every order is held node-major, as (q, d, P*m) arrays (q nodes per panel,
dimension d, P panels, m columns), in the node frame: the value at node tau
is e^{-i tau E} times the interaction-picture value, E the free energies.
Applying h_int(tau) there is the bare product with the rotated interaction,
taken in one of two ways fixed per operator by ``_prepare``.  By default it
is one mat-mat product over all nodes per independent block; the kernel
orders the basis so that each block's rows are one contiguous range written
in place, and reads a block's columns as a view when they are one range too.
An interaction stored as CSR whose dense blocks hold more than
``CSR_APPLY_RATIO`` times its non-zeros (the larger QED lattices) is instead
applied as one CSR product per node, the CSR array permuted into the
kernel's basis once; a rotated interaction is dense and always takes blocks.
Every phase, with the series' -i and the panel half-width, sits in small
per-state integration matrices built once per grid (``_GridKernels``): one
batched product per order maps the applied values and the panel-frame edge
starts to the next order's node values.  Edges and boundary sums stay in the
interaction picture.  A run reuses two order buffers for all its orders.

Output times: a trajectory run (``evolution._sampled_run``) also reads its
sums at the caller's times.  A time on a panel edge reads that edge's sum.
Any other time is read from its panel's degree-(q-1) interpolant, the one
that gives the node values, exact to degree q - 1: its row integrates each
Lagrange basis polynomial from the panel's left edge to the time's local
point (``_partial_integrals``, the ``S`` map at that point).  The recursion
is linear, so the run sums h_int applied at the nodes over every order that
feeds the next (one add per order) and applies each panel's rows to that sum
with one product after the loop; the rows feed only the sums, never the next
order.  A run given no times, or only edge times, keeps no sum, and its loop
is the plain one.

Derived model data (free spectrum, rotated interaction, certificate, coupled
gap) is computed once per operator pair and memoised on the operators.
Every free evolution e^{-i t h_free} of the library is applied in
``_FreeBasis``, the memoised eigenbasis of h_free, as one phase per energy;
only the kernel's phase tables and the ODE oracle's right-hand side form
phases of their own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import TruncationError
from .graded import (
    GradeCert,
    GradedSpace,
    LinOp,
    _issparse,
    _op_blocks,
    _support_differences,
    certify,
    check_free_part,
    grade_sectors,
    support_level,
)

if TYPE_CHECKING:
    from scipy.sparse import csr_array

DEFAULT_MAX_ORDER = 64
DEFAULT_NODES_PER_PANEL = 8
# Width cap per panel: the product rule from the a-priori bound, and an
# oscillation cap set by the largest free-energy gap the interaction couples.
PANEL_PRODUCT_FACTOR = 0.1
PANEL_PHASE_FACTOR = 0.7
# Panel count cap of ``default_grid``.
MAX_PANELS = 4096
# A CSR-stored interaction is applied as one CSR product per node once its
# dense blocks hold more than this many entries per non-zero.  Per node
# column, a CSR product costs about 8.5-11 times as much per non-zero as a
# block GEMM per block entry, and on a density sweep the two cross between
# ratios 10 and 12 (BENCH_sparse_apply.json).  The stock 560-state
# interaction (ratio 6.2) keeps the blocks; the 2640- and 7280-state
# lattices (18.7 and 38.6) take CSR.
CSR_APPLY_RATIO = 10


def _partial_integrals(q: int, points) -> np.ndarray:
    """Row k integrates each Lagrange basis polynomial through the q
    Gauss-Legendre nodes from -1 to ``points[k]``: (len(points), q)."""
    x, _ = npleg.leggauss(q)
    coeffs = np.linalg.inv(npleg.legvander(x, q - 1))  # column j: ell_j
    return npleg.legval(np.asarray(points, dtype=float), npleg.legint(coeffs, lbnd=-1)).T


@cache
def _reference_rule(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] plus the partial-integral map.

    S[m, j] = integral_{-1}^{x_m} of the j-th Lagrange basis polynomial
    through the nodes (``_partial_integrals`` at the nodes), so ``S @ g``
    integrates the interpolant of nodal data g from the left panel edge to
    each node.  Every grid shares the cached arrays, so they are read-only.
    """
    if q < 2:
        raise ValueError("nodes_per_panel must be at least 2")
    x, w = npleg.leggauss(q)
    s = _partial_integrals(q, x)
    for arr in (x, w, s):
        arr.setflags(write=False)
    return x, w, s


@dataclass(frozen=True)
class TimeGrid:
    """Uniform composite quadrature grid from t_start to t_end.

    t_start may exceed t_end; integrals then carry the signed orientation.
    """

    t_start: float
    t_end: float
    panels: int
    nodes_per_panel: int = DEFAULT_NODES_PER_PANEL

    def __post_init__(self):
        for name in ("panels", "nodes_per_panel"):
            count = getattr(self, name)
            if isinstance(count, bool) or not isinstance(count, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {count!r}")
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.nodes_per_panel < 2:
            raise ValueError("nodes_per_panel must be >= 2")
        for name in ("t_start", "t_end"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def duration(self) -> float:
        return abs(self.t_end - self.t_start)

    def boundaries(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.panels + 1)

    def nodes(self) -> np.ndarray:
        """Quadrature nodes, shape (panels, nodes_per_panel)."""
        x, _, _ = _reference_rule(self.nodes_per_panel)
        bnd = self.boundaries()
        mid = 0.5 * (bnd[1:] + bnd[:-1])
        half = 0.5 * (bnd[1:] - bnd[:-1])
        return mid[:, None] + half[:, None] * x[None, :]

    def reversed(self) -> "TimeGrid":
        return TimeGrid(self.t_end, self.t_start, self.panels, self.nodes_per_panel)


@dataclass(frozen=True)
class DysonTerm:
    """One series order sampled on a grid, for every column of the input.

    node_values has shape (panels, nodes_per_panel, dim, m) and
    boundary_values (panels + 1, dim, m); the boundary values anchor the
    term at the panel edges, with boundary_values[0] the value at t_start
    (the input block for order 0, zero for every higher order).  Both are in
    the original basis and the interaction picture.
    """

    order: int
    grid: TimeGrid
    node_values: np.ndarray
    boundary_values: np.ndarray

    @property
    def sup_norm(self) -> float:
        """Largest column 2-norm over every node and panel edge."""
        nodes = np.linalg.norm(self.node_values, axis=-2).max()
        edges = np.linalg.norm(self.boundary_values, axis=-2).max()
        return float(max(nodes, edges))


@dataclass(frozen=True)
class SeriesResult:
    """Series applied to a block of m columns, in the original basis.

    Sums are in the interaction picture: ``boundary_sums`` at every panel
    edge, and ``output_sums`` at the times a trajectory run
    (``evolution._sampled_run``) asked for, in its order; None on a plain
    run.  Bounds and norms are per column; ``terms`` holds every order when
    the run kept them.
    """

    boundary_sums: np.ndarray  # (panels + 1, dim, m), running sum at the edges
    achieved_order: int
    tail_bounds: np.ndarray  # (m,) certified tail after achieved_order
    per_order_sup_norms: np.ndarray  # (orders + 1, m), sup over nodes and edges
    per_order_bounds: np.ndarray  # matching a-priori bounds
    grid: TimeGrid
    terms: tuple[DysonTerm, ...] = ()
    output_sums: np.ndarray | None = None  # (times, dim, m), running sum at each time

    @property
    def tail_bound(self) -> float:
        return float(self.tail_bounds.max())

    def final(self) -> np.ndarray:
        return self.boundary_sums[-1]


def _apriori_table(
    n_max: int, duration: float, rel_bound: float, grade_shift: float,
    supports, norms, alpha: float = 0.0, top: float = math.inf,
) -> tuple[np.ndarray, np.ndarray]:
    """A-priori bounds and closed tails of orders 0..n_max, one column each.

    Row n of ``bounds`` is the product bound times the sector weight
    (L + n b + 1)^{alpha/2}, infinite once its log passes 700; row n of
    ``tails`` sums the bounds of every later order.  Every grade L + k b
    there is read as min(L + k b, top), the space's top grade (the lemma in
    the module docstring).  The term ratio does not grow from order 1 on,
    so the sum runs to the first K where it is at most 1/2 and the term is
    below e^-40 of order n_max + 1, then adds the geometric remainder
    ``bounds[K + 1] / (1 - ratio)``.
    """
    levels = np.asarray(supports, dtype=float)
    norms = np.asarray(norms, dtype=float)
    inputs = np.hstack([n_max, duration, rel_bound, grade_shift, alpha, top, levels, norms])
    if not (inputs >= 0).all():  # also rejects NaN
        raise ValueError("orders and every a-priori input must be non-negative")
    with np.errstate(divide="ignore"):  # a zero factor has log -inf
        log_step = np.log(duration) + np.log(rel_bound)
        log_norms = np.log(norms)
    first, rows = n_max + 1, n_max + 3
    while True:
        k = np.arange(rows, dtype=float)[:, None]
        reach = np.log(np.minimum(levels + k * grade_shift, top) + 1.0)
        steps = log_step - np.log(k[1:]) + 0.5 * reach[:-1]  # log(b_{k+1} / b_k)
        logs = np.cumsum(np.vstack([log_norms, steps]), axis=0) + 0.5 * alpha * reach
        seg = logs[first:]
        over = (seg > 700.0).any(axis=0)
        live = np.isfinite(seg[0]) & ~over
        run = seg[:, live]
        halving = np.diff(run, axis=0) <= -math.log(2.0)
        closed = (halving & (run[:-1] < run[0] - 40.0)).all(axis=1)
        if closed.any():
            break
        rows *= 2
    last = first + int(closed.argmax())
    logs = logs[: last + 2]
    terms = np.where(logs > 700.0, math.inf, np.exp(np.minimum(logs, 700.0)))
    terms[0] = norms * (levels + 1.0) ** (0.5 * alpha)
    ratio = np.exp(run[last + 1 - first] - run[last - first])
    terms[last, live] += terms[last + 1, live] / (1.0 - ratio)
    tails = np.cumsum(terms[last:0:-1], axis=0)[::-1]
    tails[:, over] = math.inf
    return terms[: n_max + 1], tails[: n_max + 1]


def apriori_bound(
    order: int,
    duration: float,
    rel_bound: float,
    grade_shift: float,
    support: float,
    vec_norm: float,
) -> float:
    """The certified bound on ||U_n(t, t') xi|| for one order.

    Equals ``duration^n / n! * C^n * prod_{k<n} (L + k b + 1)^{1/2} * ||xi||``
    and reduces to ||xi|| at order 0.  Evaluated in log space so large orders
    do not overflow; a bound above e^700 is reported as infinite.
    """
    bounds, _ = _apriori_table(
        order, duration, rel_bound, grade_shift, [support], [vec_norm]
    )
    return float(bounds[order, 0])


def apriori_tail(
    after_order: int,
    duration: float,
    rel_bound: float,
    grade_shift: float,
    support: float,
    vec_norm: float,
) -> float:
    """Sum of the a-priori bounds over all orders beyond ``after_order``.

    Every later order counts: the sum is closed by a geometric remainder,
    not cut off.  ``_apriori_table`` also gives the grade-weighted tails.
    """
    _, tails = _apriori_table(
        after_order, duration, rel_bound, grade_shift, [support], [vec_norm]
    )
    return float(tails[after_order, 0])


@dataclass(frozen=True)
class _FreeBasis:
    """The free part's energies and sector-wise eigenbasis.

    Every free evolution e^{-i t h_free} of the library is ``evolve``: a
    phase per energy, applied in this basis.
    """

    energies: np.ndarray  # real, length dim
    rotation: np.ndarray | None  # columns: eigenbasis; None when already diagonal

    def to_working(self, vecs: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            return np.asarray(vecs, dtype=complex)
        return self.rotation.conj().T @ vecs

    def from_working(self, vecs: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            return vecs
        return self.rotation @ vecs

    def _phases(self, t) -> np.ndarray:
        """e^{-i t E} per energy E; a 1-D array of n times gives (n, dim)."""
        times = np.asarray(t, dtype=float)
        return np.exp(-1j * times[..., None] * self.energies)

    def evolve(self, t, data: np.ndarray) -> np.ndarray:
        """e^{-i t h_free} applied to the (dim, m) block ``data``.

        A 1-D array of n times takes a (n, dim, m) stack and evolves
        ``data[k]`` by ``t[k]``.
        """
        phase = self._phases(t)[..., None]
        return self.from_working(phase * self.to_working(data))

    def two_sided(self, t: float, m: np.ndarray, t_prime: float) -> np.ndarray:
        """e^{i t h_free} M e^{-i t' h_free} for a square M, as a new C array.

        The right factor is e^{i t' h_free} applied to the adjoint of the
        left product, then adjoined back.  On a diagonal free part that is
        a row phase, a conjugation, a column phase and a conjugation, done
        in place on one array.
        """
        if self.rotation is not None:
            left = self.evolve(-t, m)
            return np.conjugate(self.evolve(-t_prime, left.conj().T).T, order="C")
        out = np.empty(m.shape, dtype=complex)
        np.multiply(self._phases(-t)[:, None], m, out=out)
        np.conjugate(out, out=out)
        np.multiply(self._phases(-t_prime), out, out=out)
        return np.conjugate(out, out=out)


@dataclass(frozen=True)
class _Prepared(_FreeBasis):
    """Model rotated so the free part is diagonal (sector-wise eigenbasis).

    The free basis and its maps are the ``_FreeBasis`` of h_free, so every
    e^{-i t h_free} is applied there.
    """

    space: GradedSpace
    # The interaction in the eigenbasis; None when the free part is diagonal,
    # where it is h_int itself (held here, it would form a reference cycle
    # through h_int's memo).
    h_int_rot: LinOp | None
    # The kernel's basis: its index i is prepared index order[i], and
    # prepared index j is its index unorder[j].  Each block's rows are one
    # contiguous range in it, followed by the rows in no block.  Both are
    # slice(None) when the non-zero pattern is one component.
    order: np.ndarray | slice
    unorder: np.ndarray | slice
    # (rows, cols, block) per independent block of the rotated interaction,
    # as gathered by graded._op_blocks (for a diagonal free part, the very
    # arrays certify read), indexed in the kernel's basis: rows is a slice,
    # cols a slice when the block's columns are one increasing range there
    # (every stock QED block), else the index array that gathers them.  One
    # component is one block of whole-axis slices holding the whole dense
    # matrix; a zero interaction has no block.
    blocks: tuple[tuple[slice, np.ndarray | slice, np.ndarray], ...]
    # The interaction as CSR in the kernel's basis when the kernel applies
    # it that way: stored as CSR, with blocks holding more than
    # CSR_APPLY_RATIO times its non-zeros.  None otherwise, and then the
    # kernel multiplies ``blocks``.
    csr: csr_array | None
    cert: GradeCert
    gap: float  # see coupled_gap

    def apply_interaction(self, values: np.ndarray, out: np.ndarray) -> None:
        """The interaction applied to each node's values, into ``out``.

        ``values`` and ``out`` are (q, d, k) node-major arrays in the kernel's
        basis, and ``out[j]`` becomes h ``values[j]``.  Rows in no block are
        zero rows of h: the block products leave them as they are, so
        ``out`` must hold zeros there.
        """
        if self.csr is not None:
            for node, dest in zip(values, out):
                dest[...] = self.csr @ node
            return
        for rows, cols, mat in self.blocks:
            np.matmul(mat, values[:, cols], out=out[:, rows])


def _free_spectrum(h_free: LinOp) -> _FreeBasis:
    """Energies of h_free and its sector-wise eigenbasis (None when diagonal).

    Checked and computed once per ``h_free`` (memoised on it).  Diagonalizing
    sector by sector keeps the grading diagonal in the new basis.
    """
    if "spectrum" in h_free._memo:
        return h_free._memo["spectrum"]
    if check_free_part(h_free):
        energies, rotation = np.real(h_free.storage.diagonal()).copy(), None
    else:
        m = h_free.matrix
        space = h_free.space
        energies = np.zeros(space.dim)
        rotation = np.zeros((space.dim, space.dim), dtype=complex)
        for _, idx in grade_sectors(space):
            vals, vecs = np.linalg.eigh(m[np.ix_(idx, idx)])
            energies[idx] = vals
            rotation[np.ix_(idx, idx)] = vecs
        rotation.setflags(write=False)
    energies.setflags(write=False)
    h_free._memo["spectrum"] = basis = _FreeBasis(energies, rotation)
    return basis


def _as_range(index: np.ndarray) -> np.ndarray | slice:
    """``index`` as a slice when it is one increasing contiguous range."""
    if (np.diff(index) == 1).all():
        return slice(int(index[0]), int(index[-1]) + 1)
    return index


def _prepare(h_free: LinOp, h_int: LinOp) -> _Prepared:
    """Prepared model of one pair, memoised on h_int for this h_free object."""
    cached_free, prep = h_int._memo.get("prepared", (None, None))
    if cached_free is h_free:
        return prep
    h_free._same_space(h_int)
    free = _free_spectrum(h_free)
    rotation = free.rotation
    if rotation is None:
        h_rot, labels = None, _op_blocks(h_int)  # shared with certify
    else:
        h_rot = LinOp(h_int.space, rotation.conj().T @ h_int.matrix @ rotation)
        labels = _op_blocks(h_rot)
    gap = float(np.abs(_support_differences(labels, free.energies)).max(initial=0.0))
    if labels and isinstance(labels[0][0], slice):  # one component
        order = unorder = slice(None)
        blocks = tuple(labels)
    else:
        covered = [rows for rows, _, _ in labels]
        idle = np.ones(h_int.dim, dtype=bool)
        for rows in covered:
            idle[rows] = False
        order = np.concatenate(covered + [np.flatnonzero(idle)])
        unorder = np.argsort(order)
        ends = np.cumsum([0] + [rows.size for rows in covered]).tolist()
        blocks = tuple(
            (slice(lo, hi), _as_range(unorder[cols]), mat)
            for lo, hi, (_, cols, mat) in zip(ends, ends[1:], labels)
        )
    stored = (h_int if h_rot is None else h_rot).storage
    csr = None
    if _issparse(stored):
        entries = sum(mat.size for _, _, mat in blocks)
        if entries > CSR_APPLY_RATIO * stored.count_nonzero():
            csr = stored[order][:, order]
    prep = _Prepared(
        free.energies, rotation, h_free.space, h_rot, order, unorder,
        blocks, csr, certify(h_int), gap,
    )
    h_int._memo["prepared"] = h_free, prep
    return prep


def free_propagator(h_free: LinOp, t: float) -> np.ndarray:
    """The unitary  e^{-i t h_free}  as a dense matrix."""
    return _free_spectrum(h_free).evolve(t, np.eye(h_free.dim, dtype=complex))


class _GridKernels:
    """Per-state integration matrices bound to one grid and one energy vector.

    Nodal data is node-major, shape (q, d, P*m), panel-major within the last
    axis, so element [j, r, p*m + c] belongs to node j of panel p, state r,
    column c.  It is held in the node frame: the interaction-picture value
    times e^{-i tau E_r} at its node tau.  The energies are those of the
    kernel's basis (``_Prepared.order``).

    A node is tau = m_p + h x_j, with m_p the panel midpoint and h the
    uniform signed half-width.  With phi-[j, r] = e^{-i h x_j E_r},
    phi+[j, r] = -i h e^{+i h x_j E_r} and pi[r, p] = e^{-i m_p E_r}, every
    phase of the recursion sits in three small arrays: ``panel_phase`` is pi
    (d, P); ``step`` (d, q, q + 1) holds, per state r, the partial-integral
    map S[j, i] scaled to phi-[j, r] S[j, i] phi+[i, r], followed by the
    column phi-[:, r]; ``weights`` (d, 1, q) holds w_i phi+[i, r].  The
    output times of a trajectory run take phi+ from that phi- column and
    ``half_width`` h (``time_sums``).
    """

    def __init__(self, grid: TimeGrid, energies: np.ndarray):
        x, w, s = _reference_rule(grid.nodes_per_panel)
        self.panels = grid.panels
        bnd = grid.boundaries()
        self.half_width = h = 0.5 * (grid.t_end - grid.t_start) / grid.panels
        mid = 0.5 * (bnd[1:] + bnd[:-1])
        self.panel_phase = np.exp(-1j * energies[:, None] * mid)
        minus = np.exp(-1j * h * energies[:, None] * x)  # (d, q)
        plus = -1j * h * minus.conj()
        q = x.size
        self.step = np.empty((energies.size, q, q + 1), dtype=complex)
        np.multiply(minus[:, :, None] * s, plus[:, None, :], out=self.step[:, :, :q])
        self.step[:, :, q] = minus
        self.weights = (w * plus)[:, None, :]

    def order_zero(self, xi: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """Node-frame values of the constant xi (d, m) into out (q, d, P*m).

        ``scratch`` is any (d, P*m) buffer; it is overwritten.
        """
        q, d, _ = out.shape
        start = scratch.reshape(d, self.panels, -1)
        np.multiply(self.panel_phase[:, :, None], xi[:, None, :], out=start)
        np.multiply(self.step[:, :, q].T[:, :, None, None], start,
                    out=out.reshape(q, d, self.panels, -1))

    def interaction_frame(self, values: np.ndarray) -> np.ndarray:
        """Node-frame values (q, d, P*m) as a new interaction-picture array."""
        q, d, _ = values.shape
        shaped = values.reshape(q, d, self.panels, -1)
        out = shaped * self.step[:, :, q].T.conj()[:, :, None, None]
        out *= self.panel_phase.conj()[:, :, None]
        return out.reshape(values.shape)

    def integrate(
        self, applied: np.ndarray, out: np.ndarray, edges: np.ndarray
    ) -> None:
        """Next order's node and edge values from h_int applied at every node.

        ``applied`` is (q + 1, d, P*m): rows 0..q-1 hold the applied node
        values, row q is overwritten.  The node integrals from t_start go to
        ``out`` (q, d, P*m), the edge integrals, in the interaction picture,
        to ``edges`` (d, P + 1, m).  Row q first takes the panel totals,
        which are taken to the interaction picture and summed over panels in
        order, then the panel-frame edge starts pi * edges[:, :-1], so that
        one batched product with ``step`` gives the node values.
        """
        q = out.shape[0]
        rows = applied.transpose(1, 0, 2)  # (d, q + 1, P*m)
        np.matmul(self.weights, rows[:, :q], out=rows[:, q:])
        totals = applied[q].reshape(edges.shape[0], self.panels, -1)
        totals *= self.panel_phase.conj()[:, :, None]
        edges[:, 0] = 0.0
        np.cumsum(totals, axis=1, out=edges[:, 1:])
        np.multiply(self.panel_phase[:, :, None], edges[:, :-1], out=totals)
        np.matmul(self.step, rows, out=out.transpose(1, 0, 2))

    def time_sums(
        self, applied: np.ndarray | None, sums: np.ndarray, pos: np.ndarray
    ) -> np.ndarray:
        """Running sums at the output times, as a new (d, n, m) array.

        Time k lies ``pos[k]`` panels from t_start.  On an edge (an integer
        ``pos[k]``) it reads that edge's sum in ``sums`` (d, P + 1, m).  Any
        other time adds one row, the partial integrals R[i] of
        ``_partial_integrals`` to its local point, to its panel's left-edge
        sum.  ``applied`` (q, d, P*m) sums the applied node values of every
        order that fed the next one; it is None when no time lies inside a
        panel.  The recursion is linear, so per panel one product of its rows
        with that sum, scaled by phi+, integrates all those orders to its
        times, and the conjugate panel phase takes them to the interaction
        picture.
        """
        left = np.floor(pos).astype(int)
        out = sums[:, left]
        inside = pos != left
        if not inside.any():
            return out
        q, d, _ = applied.shape
        m = sums.shape[2]
        plus = -1j * self.half_width * self.step[:, :, q].conj()  # (d, q)
        rows = _partial_integrals(q, 2.0 * (pos - left) - 1.0)
        shaped = applied.reshape(q, d, self.panels, m)
        for p in np.unique(left[inside]):
            ks = np.flatnonzero(inside & (left == p))
            scaled = shaped[:, :, p] * plus.T[:, :, None]  # (q, d, m)
            inner = (rows[ks] @ scaled.reshape(q, -1)).reshape(-1, d, m)
            out[:, ks] += self.panel_phase[:, p, None, None].conj() * inner.transpose(1, 0, 2)
        return out


def _column_norms(node_vals: np.ndarray, edge_vals: np.ndarray) -> np.ndarray:
    """Largest 2-norm of each column over nodes (q, d, P*m) and edges (d, P+1, m)."""
    m = edge_vals.shape[-1]
    nf, ef = node_vals.view(float), edge_vals.view(float)  # (re, im) side by side
    n = np.einsum("qdk,qdk->qk", nf, nf).reshape(-1, m, 2).sum(axis=2)
    e = np.einsum("dpk,dpk->pk", ef, ef).reshape(-1, m, 2).sum(axis=2)
    return np.sqrt(np.maximum(n.max(axis=0), e.max(axis=0)))


def _run_block(
    prep: _Prepared,
    grid: TimeGrid,
    block: np.ndarray,
    tol: float,
    max_order: int,
    keep_terms: bool,
    times: np.ndarray | None = None,
) -> SeriesResult:
    """Core series loop in the rotated basis; block has shape (dim, m).

    Adds orders until every column's certified tail is below ``tol`` or
    ``max_order`` is reached, whichever comes first.  The loop runs in the
    kernel's basis (``prep.order``) and the node frame (``_GridKernels``);
    sums and kept terms leave both, in the original basis and the
    interaction picture.  Each order is built in the buffers of the order
    before, so two order-sized buffers serve the whole run.  When some of
    ``times`` lies inside a panel, a third sums h_int applied to the node
    values of every order, and the sums at those times are read from it
    after the loop (``_GridKernels.time_sums``).
    """
    kern = _GridKernels(grid, prep.energies[prep.order])
    dim, m = block.shape
    p, q = grid.panels, grid.nodes_per_panel
    work = prep.to_working(block)
    supports = support_level(prep.space, work)
    norms0 = np.linalg.norm(work, axis=0)
    bounds, tails = _apriori_table(
        max_order, grid.duration, prep.cert.rel_bound, prep.cert.grade_shift,
        supports, norms0, top=max(prep.space.grades),
    )

    # Row q of applied is the integral's edge row; rows in no block stay zero.
    applied = np.zeros((q + 1, dim, p * m), dtype=complex)
    node_vals = np.empty((q, dim, p * m), dtype=complex)
    xi = work[prep.order]
    kern.order_zero(xi, node_vals, applied[q])
    edge_vals = np.tile(xi[:, None, :], (1, p + 1, 1))  # (d, P + 1, m)
    sums = edge_vals.copy()
    sup_norms = [norms0]
    terms: list[DysonTerm] = []
    pos = None  # each time's distance from t_start, in panels
    if times is not None:
        pos = (np.asarray(times, dtype=float) - grid.t_start) / (grid.t_end - grid.t_start) * p
    applied_sum = np.zeros_like(node_vals) if pos is not None and (pos % 1).any() else None

    order = 0
    while True:
        if keep_terms:
            nodes = kern.interaction_frame(node_vals)[:, prep.unorder]
            edges = edge_vals[prep.unorder].copy().reshape(dim, -1)
            terms.append(DysonTerm(
                order, grid,
                prep.from_working(nodes).reshape(q, dim, p, m).transpose(2, 0, 1, 3),
                prep.from_working(edges).reshape(dim, p + 1, m).transpose(1, 0, 2),
            ))
        if order >= max_order or tails[order].max() < tol:
            break
        prep.apply_interaction(node_vals, applied[:q])
        if applied_sum is not None:
            applied_sum += applied[:q]
        kern.integrate(applied, out=node_vals, edges=edge_vals)
        sums += edge_vals
        order += 1
        sup_norms.append(_column_norms(node_vals, edge_vals))

    del node_vals, applied  # so the conversions below do not add to the peak

    def original(kernel_sums: np.ndarray) -> np.ndarray:
        """(d, k, m) kernel-basis sums as (k, d, m) in the original basis."""
        out = prep.from_working(kernel_sums[prep.unorder].reshape(dim, -1))
        return np.moveaxis(out.reshape(dim, -1, m), 1, 0)

    return SeriesResult(
        boundary_sums=original(sums),
        achieved_order=order,
        tail_bounds=tails[order],
        per_order_sup_norms=np.array(sup_norms),
        per_order_bounds=bounds[: order + 1],
        grid=grid,
        terms=tuple(terms),
        output_sums=None if pos is None else original(kern.time_sums(applied_sum, sums, pos)),
    )


def _require_tail(result: SeriesResult, tol: float, max_order: int) -> SeriesResult:
    """``result`` itself; raises TruncationError unless its tail is below tol."""
    if not result.tail_bound < tol:
        raise TruncationError(
            f"series tail {result.tail_bound:.3e} still above tolerance {tol:.3e} "
            f"at order {max_order}",
            tail_bound=result.tail_bound,
            max_order=max_order,
        )
    return result


def evolve_block(
    h_free: LinOp,
    h_int: LinOp,
    block: np.ndarray,
    grid: TimeGrid,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
    _times: np.ndarray | None = None,
) -> SeriesResult:
    """Apply the series propagator U(t_end, t_start) to a block of columns.

    Column support levels are tracked individually, so the certified tails
    are tight for basis columns of differing grades.  Raises TruncationError
    carrying the last tail bound when some column's certified tail cannot be
    brought below ``tol`` within ``max_order`` orders.  ``_times`` is private
    to ``evolution._sampled_run``: the times of ``SeriesResult.output_sums``,
    each between t_start and t_end.
    """
    blk = np.asarray(block, dtype=complex)
    if blk.ndim == 1:
        blk = blk[:, None]
    result = _run_block(_prepare(h_free, h_int), grid, blk, tol, max_order,
                        keep_terms=False, times=_times)
    return _require_tail(result, tol, max_order)


def evolve_vector(
    h_free: LinOp,
    h_int: LinOp,
    xi: np.ndarray,
    grid: TimeGrid,
    tol: float,
) -> SeriesResult:
    """``evolve_block`` on the one column xi, keeping every order.

    The result's ``terms`` hold each order as a ``DysonTerm`` with a column
    axis of length 1; ``final()[:, 0]`` is U(t_end, t_start) xi.  One series
    pass of at most ``DEFAULT_MAX_ORDER`` orders, certified like
    ``evolve_block``.
    """
    vec = np.asarray(xi, dtype=complex).reshape(-1, 1)
    result = _run_block(_prepare(h_free, h_int), grid, vec, tol, DEFAULT_MAX_ORDER,
                        keep_terms=True)
    return _require_tail(result, tol, DEFAULT_MAX_ORDER)


def evolve_adjoint(
    h_free: LinOp,
    h_int: LinOp,
    block: np.ndarray,
    grid: TimeGrid,
    tol: float,
) -> SeriesResult:
    """Apply the adjoint U(t_end, t_start)* to a block of columns.

    The adjoint solves the same recursion with the conjugate-transposed
    interaction and the roles of the two time arguments exchanged, so this
    is ``evolve_block`` under h_int* on the reversed grid, at most
    ``DEFAULT_MAX_ORDER`` orders; the result's grid is that reversed grid.
    Every adjoint run of the library is formed here.
    """
    return evolve_block(h_free, h_int.H, block, grid.reversed(), tol)


def coupled_gap(h_free: LinOp, h_int: LinOp) -> float:
    """Largest free-energy gap across the support of the interaction.

    This is the fastest phase the rotated interaction can carry, which is
    what limits the panel width, not the size of the interaction itself.
    """
    return _prepare(h_free, h_int).gap


def default_grid(
    h_free: LinOp,
    h_int: LinOp,
    t_start: float,
    t_end: float,
    support: float,
    tol: float = 1e-10,
    max_order: int = DEFAULT_MAX_ORDER,
) -> TimeGrid:
    """Panel count satisfying both width caps for the given run.

    The first cap keeps panels below
    PANEL_PRODUCT_FACTOR / (C * sqrt(min(L + N b, g_top) + 1)) with N the
    order the tail needs at this tolerance and g_top the space's top grade:
    no order rises above g_top, so neither the factor nor the tail that
    picks N grows past it (the lemma in the module docstring).  The second
    cap keeps the fastest coupled phase resolved.  The count depends on
    accuracy alone: a trajectory run reads its output times off these
    panels as they are.
    """
    prep = _prepare(h_free, h_int)
    cert = prep.cert
    duration = abs(t_end - t_start)
    if duration == 0.0:
        return TimeGrid(t_start, t_end, 1)
    top = max(prep.space.grades)
    _, tails = _apriori_table(
        max(max_order, 1), duration, cert.rel_bound, cert.grade_shift, [support], [1.0],
        top=top,
    )
    order = next((n for n in range(1, max_order) if tails[n, 0] < tol), max(max_order, 1))
    reach = min(support + order * cert.grade_shift, top) + 1.0
    width_caps = [duration]
    if cert.rel_bound > 0:
        width_caps.append(PANEL_PRODUCT_FACTOR / (cert.rel_bound * math.sqrt(reach)))
    if prep.gap > 0:
        width_caps.append(PANEL_PHASE_FACTOR / prep.gap)
    width = min(width_caps)
    panels = max(1, math.ceil(duration / width))
    return TimeGrid(t_start, t_end, min(MAX_PANELS, panels))
