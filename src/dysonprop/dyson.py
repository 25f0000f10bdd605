"""Iterated-integral (Dyson) series engine with a-priori truncation bounds.

The propagator is built order by order through the recursion

    U_{n+1}(t, t') xi = -i * integral_{t'}^{t} h_int(tau) U_n(tau, t') xi dtau,

with ``h_int(tau) = e^{i tau h_free} h_int e^{-i tau h_free}``.  Each order is
certified by the product bound

    ||U_n(t, t') xi|| <= |t - t'|^n / n! * C^n *
                         prod_{k<n} (L + k*b + 1)^{1/2} * ||xi||

where C is the relative bound constant of the interaction, b its grade
shift, and L the support level of xi.  Summation stops once the certified
tail, these bounds summed over every later order, is below the tolerance.

Quadrature: composite Gauss-Legendre panels.  Cumulative integrals inside a
panel integrate the degree-(q-1) interpolant through the panel's own nodes,
so one order costs one mat-mat product over all nodes per independent block
of the rotated interaction.  Every order is held node-major, as (q, d, P*m)
arrays (q nodes per panel, dimension d, P panels, m columns), so the panel
integrals are products of the quadrature weights with a (q, .) view and no
order transposes its values.

Derived model data (free spectrum, rotated interaction, certificate, coupled
gap) is computed once per operator pair and memoised on the operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre as npleg

from .errors import TruncationError
from .graded import (
    ENTRY_THRESHOLD,
    GradeCert,
    GradedSpace,
    LinOp,
    _blocks,
    _op_blocks,
    certify,
    check_free_part,
    grade_sectors,
    support_level,
)

DEFAULT_MAX_ORDER = 64
DEFAULT_NODES_PER_PANEL = 8
# Width cap per panel: the product rule from the a-priori bound, and an
# oscillation cap set by the largest free-energy gap the interaction couples.
PANEL_PRODUCT_FACTOR = 0.1
PANEL_PHASE_FACTOR = 0.7


@lru_cache(maxsize=None)
def _reference_rule(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1, 1] plus the partial-integral map.

    S[m, j] = integral_{-1}^{x_m} of the j-th Lagrange basis polynomial
    through the nodes, so ``S @ g`` integrates the interpolant of nodal data
    g from the left panel edge to each node.
    """
    if q < 2:
        raise ValueError("nodes_per_panel must be at least 2")
    x, w = npleg.leggauss(q)
    vand = npleg.legvander(x, q - 1)
    coeffs = np.linalg.inv(vand)  # column j: Legendre coefficients of ell_j
    s = np.empty((q, q))
    for j in range(q):
        anti = npleg.legint(coeffs[:, j], lbnd=-1)
        s[:, j] = npleg.legval(x, anti)
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

    def coarsened(self) -> "TimeGrid":
        return TimeGrid(
            self.t_start, self.t_end, max(1, self.panels // 2), self.nodes_per_panel
        )


@dataclass(frozen=True)
class DysonTerm:
    """One series order sampled on a grid.

    node_values has shape (panels, nodes_per_panel, dim); boundary_values has
    shape (panels + 1, dim) and anchors the term at the panel edges, with
    boundary_values[0] the value at t_start (the initial vector for order 0,
    zero for every higher order).
    """

    order: int
    grid: TimeGrid
    node_values: np.ndarray
    boundary_values: np.ndarray

    @property
    def sup_norm(self) -> float:
        nodes = np.linalg.norm(self.node_values, axis=-1).max()
        edges = np.linalg.norm(self.boundary_values, axis=-1).max()
        return float(max(nodes, edges))

    def value_at_end(self) -> np.ndarray:
        return self.boundary_values[-1]


@dataclass(frozen=True)
class SeriesResult:
    """Summed series with its certificates."""

    terms: tuple[DysonTerm, ...]
    partial_sum: np.ndarray
    achieved_order: int
    tail_bound: float
    quadrature_estimate: float | None
    per_order_sup_norms: tuple[float, ...]
    per_order_bounds: tuple[float, ...]  # the a-priori bound of each order
    boundary_sums: np.ndarray  # (panels + 1, dim), running sum at panel edges
    grid: TimeGrid
    cert: GradeCert
    support_in: float


def _apriori_table(
    n_max: int, duration: float, rel_bound: float, grade_shift: float,
    supports, norms, alpha: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """A-priori bounds and closed tails of orders 0..n_max, one column each.

    Row n of ``bounds`` is the product bound times the sector weight
    (L + n b + 1)^{alpha/2}, infinite once its log passes 700; row n of
    ``tails`` sums the bounds of every later order.  The term ratio does not
    grow from order 1 on, so the sum runs to the first K where it is at most
    1/2 and the term is below e^-40 of order n_max + 1, then adds the
    geometric remainder ``bounds[K + 1] / (1 - ratio)``.
    """
    levels = np.asarray(supports, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if min(n_max, duration, rel_bound, grade_shift, alpha, *levels, *norms) < 0:
        raise ValueError("orders and every a-priori input must be non-negative")
    with np.errstate(divide="ignore"):  # a zero factor has log -inf
        log_step = np.log(duration) + np.log(rel_bound)
        log_norms = np.log(norms)
    first, rows = n_max + 1, n_max + 3
    while True:
        k = np.arange(rows, dtype=float)[:, None]
        reach = np.log(levels + k * grade_shift + 1.0)
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
    alpha: float = 0.0,
) -> float:
    """Sum of the a-priori bounds over all orders beyond ``after_order``.

    With ``alpha > 0`` this bounds the (grade + 1)^{alpha/2}-weighted norm
    instead: the order-k term carries the sector weight
    (L + k b + 1)^{alpha/2}.  Every later order counts: the sum is closed by
    a geometric remainder, not cut off.
    """
    _, tails = _apriori_table(
        after_order, duration, rel_bound, grade_shift, [support], [vec_norm], alpha
    )
    return float(tails[after_order, 0])


@dataclass(frozen=True)
class _Prepared:
    """Model rotated so the free part is diagonal (sector-wise eigenbasis)."""

    space: GradedSpace
    energies: np.ndarray  # real, length dim
    rotation: np.ndarray | None  # columns: eigenbasis; None when already diagonal
    h_int_rot: np.ndarray
    # (rows, cols, h_int_rot[rows][:, cols]) per independent block of
    # h_int_rot, as labelled by graded._blocks (whole-axis slices when its
    # non-zero pattern is one component; no block when it is zero).
    blocks: tuple[tuple[np.ndarray | slice, np.ndarray | slice, np.ndarray], ...]
    cert: GradeCert
    gap: float  # see coupled_gap

    def to_working(self, vecs: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            return np.asarray(vecs, dtype=complex)
        return self.rotation.conj().T @ vecs

    def from_working(self, vecs: np.ndarray) -> np.ndarray:
        if self.rotation is None:
            return vecs
        return self.rotation @ vecs


def _free_spectrum(h_free: LinOp) -> tuple[np.ndarray, np.ndarray | None]:
    """Energies of h_free and its sector-wise eigenbasis (None when diagonal).

    Checked and computed once per ``h_free`` (memoised on it).  Diagonalizing
    sector by sector keeps the grading diagonal in the new basis.
    """
    if "spectrum" in h_free._memo:
        return h_free._memo["spectrum"]
    m = h_free.matrix
    if check_free_part(h_free):
        energies, rotation = np.real(np.diag(m)).copy(), None
    else:
        space = h_free.space
        energies = np.zeros(space.dim)
        rotation = np.zeros((space.dim, space.dim), dtype=complex)
        for _, idx in grade_sectors(space):
            vals, vecs = np.linalg.eigh(m[np.ix_(idx, idx)])
            energies[idx] = vals
            rotation[np.ix_(idx, idx)] = vecs
        rotation.setflags(write=False)
    energies.setflags(write=False)
    h_free._memo["spectrum"] = energies, rotation
    return energies, rotation


def _prepare(h_free: LinOp, h_int: LinOp) -> _Prepared:
    """Prepared model of one pair, memoised on h_int for this h_free object."""
    cached_free, prep = h_int._memo.get("prepared", (None, None))
    if cached_free is h_free:
        return prep
    h_free._same_space(h_int)
    energies, rotation = _free_spectrum(h_free)
    if rotation is None:
        h_rot, labels = h_int.matrix, _op_blocks(h_int)  # shared with certify
    else:
        h_rot = rotation.conj().T @ h_int.matrix @ rotation
        h_rot.setflags(write=False)
        labels = _blocks(h_rot)
    blocks = tuple(
        (rows, cols, np.ascontiguousarray(h_rot[rows][:, cols]))
        for rows, cols in labels
    )
    # Entries outside every block are exact zeros, so the gap reads the blocks.
    mags = [np.abs(b) for _, _, b in blocks]
    top = max((mag.max() for mag in mags), default=0.0)
    gap = 0.0
    for (rows, cols, _), mag in zip(blocks, mags):
        r, c = np.nonzero(mag > ENTRY_THRESHOLD * top)
        spread = np.abs(energies[rows][r] - energies[cols][c]).max(initial=0.0)
        gap = max(gap, float(spread))
    prep = _Prepared(
        h_free.space, energies, rotation, h_rot, blocks, certify(h_int), gap
    )
    h_int._memo["prepared"] = h_free, prep
    return prep


def interaction_picture(h_free: LinOp, h_int: LinOp, tau: float) -> LinOp:
    """The rotated interaction  e^{i tau h_free} h_int e^{-i tau h_free}.

    For a diagonal free part with energies E the entries are exactly
    ``h_int[j, k] * exp(i tau (E_j - E_k))``.
    """
    prep = _prepare(h_free, h_int)
    phase = np.exp(1j * tau * prep.energies)
    core = phase[:, None] * prep.h_int_rot * phase.conj()[None, :]
    if prep.rotation is not None:
        core = prep.rotation @ core @ prep.rotation.conj().T
    return LinOp(h_free.space, core)


def free_propagator(h_free: LinOp, t: float) -> np.ndarray:
    """The unitary  e^{-i t h_free}  as a dense matrix."""
    energies, rotation = _free_spectrum(h_free)
    phase = np.exp(-1j * t * energies)
    if rotation is None:
        return np.diag(phase)
    return (rotation * phase[None, :]) @ rotation.conj().T


class _GridKernels:
    """Precomputed quadrature data bound to one grid and one energy vector.

    Nodal data is node-major: shape (q, d, P*m), panel-major within the last
    axis, so element [j, i, p*m + c] belongs to node j of panel p, column c.
    """

    def __init__(self, grid: TimeGrid, energies: np.ndarray):
        _, self.weights, self.partial = _reference_rule(grid.nodes_per_panel)
        bnd = grid.boundaries()
        self.halfw = 0.5 * (bnd[1:] - bnd[:-1])  # signed
        # e^{-i tau E} and e^{+i tau E} at every node, shape (q, d, P, 1)
        nodes = grid.nodes().T[:, None, :, None]
        self.phase_minus = np.exp(-1j * nodes * energies[None, :, None, None])
        self.phase_plus = self.phase_minus.conj()

    def apply_interaction(self, prep: _Prepared, values: np.ndarray) -> np.ndarray:
        """h_int(tau_node) applied nodewise to values of shape (q, d, P*m).

        One product per independent block of the rotated interaction; rows
        in no block stay zero.
        """
        q, d, _ = values.shape
        p = self.halfw.size
        x = (self.phase_minus * values.reshape(q, d, p, -1)).reshape(values.shape)
        y = np.zeros_like(x)
        for rows, cols, block in prep.blocks:
            y[:, rows] = block @ x[:, cols]
        phased = y.reshape(q, d, p, -1)
        phased *= self.phase_plus
        return y

    def cumulative_integral(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integrate nodal data g (q, d, P*m) from t_start up to every node and edge.

        Returns (node integrals (q, d, P*m), edge integrals (d, P + 1, m)).
        """
        q, d, _ = g.shape
        p = self.halfw.size
        flat = g.view(float).reshape(q, -1)  # real weights act on re and im alike
        full = (self.weights @ flat).view(complex).reshape(d, p, -1)
        full *= self.halfw[:, None]
        part = (self.partial @ flat).view(complex).reshape(q, d, p, -1)
        part *= self.halfw[:, None]
        edges = np.zeros((d, p + 1, full.shape[-1]), dtype=complex)
        np.cumsum(full, axis=1, out=edges[:, 1:])
        part += edges[:, :-1]
        return part.reshape(g.shape), edges


@dataclass
class BlockSeriesResult:
    """Series applied to a block of columns, kept in the original basis."""

    boundary_sums: np.ndarray  # (P + 1, dim, m)
    achieved_order: int
    tail_bounds: np.ndarray  # per column
    per_order_sup_norms: np.ndarray  # (orders + 1, m), sup over nodes and edges
    per_order_bounds: np.ndarray  # matching a-priori bounds
    supports_in: np.ndarray  # per-column support level of the input
    cert: GradeCert
    grid: TimeGrid

    @property
    def tail_bound(self) -> float:
        return float(self.tail_bounds.max())

    def final(self) -> np.ndarray:
        return self.boundary_sums[-1]


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
) -> tuple[BlockSeriesResult, list[tuple[np.ndarray, np.ndarray]]]:
    """Core series loop in the rotated basis; block has shape (dim, m).

    Adds orders until every column's certified tail is below ``tol`` or
    ``max_order`` is reached, whichever comes first.
    """
    kern = _GridKernels(grid, prep.energies)
    dim, m = block.shape
    p, q = grid.panels, grid.nodes_per_panel
    work = prep.to_working(block)
    supports = support_level(prep.space, work)
    norms0 = np.linalg.norm(work, axis=0)
    bounds, tails = _apriori_table(
        max_order, grid.duration, prep.cert.rel_bound, prep.cert.grade_shift,
        supports, norms0,
    )

    node_vals = np.tile(work, (q, 1, p))  # (q, d, P*m)
    edge_vals = np.tile(work[:, None, :], (1, p + 1, 1))  # (d, P + 1, m)
    sums = edge_vals
    sup_norms = [norms0]
    terms: list[tuple[np.ndarray, np.ndarray]] = []
    if keep_terms:
        terms.append((node_vals, edge_vals))

    order = 0
    while order < max_order and not tails[order].max() < tol:
        node_vals, edge_vals = kern.cumulative_integral(
            kern.apply_interaction(prep, node_vals)
        )
        node_vals *= -1j
        edge_vals *= -1j
        sums = sums + edge_vals
        order += 1
        sup_norms.append(_column_norms(node_vals, edge_vals))
        if keep_terms:
            terms.append((node_vals, edge_vals))

    sums = prep.from_working(sums.reshape(dim, -1)).reshape(dim, p + 1, m)
    result = BlockSeriesResult(
        boundary_sums=np.moveaxis(sums, 1, 0),
        achieved_order=order,
        tail_bounds=tails[order],
        per_order_sup_norms=np.array(sup_norms),
        per_order_bounds=bounds[: order + 1],
        supports_in=supports,
        cert=prep.cert,
        grid=grid,
    )
    return result, terms


def _require_tail(result: BlockSeriesResult, tol: float, max_order: int) -> None:
    """Raise TruncationError unless the certified tail is below tol."""
    if not result.tail_bound < tol:
        raise TruncationError(
            f"series tail {result.tail_bound:.3e} still above tolerance {tol:.3e} "
            f"at order {max_order}",
            tail_bound=result.tail_bound,
            max_order=max_order,
        )


def _rotate_terms(
    prep: _Prepared, terms: list[tuple[np.ndarray, np.ndarray]], grid: TimeGrid
) -> tuple[DysonTerm, ...]:
    """Single-column terms in the original basis, in the DysonTerm shapes."""
    out = []
    for n, (nodes, edges) in enumerate(terms):
        nv = prep.from_working(nodes).transpose(2, 0, 1)  # (P, q, d)
        ev = prep.from_working(edges[..., 0]).T  # (P + 1, d)
        out.append(DysonTerm(n, grid, nv, ev))
    return tuple(out)


def evolve_block(
    h_free: LinOp,
    h_int: LinOp,
    block: np.ndarray,
    grid: TimeGrid,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
) -> BlockSeriesResult:
    """Apply the series propagator U(t_end, t_start) to a block of columns.

    Column support levels are tracked individually, so the certified tails
    are tight for basis columns of differing grades.
    """
    prep = _prepare(h_free, h_int)
    blk = np.asarray(block, dtype=complex)
    if blk.ndim == 1:
        blk = blk[:, None]
    result, _ = _run_block(prep, grid, blk, tol, max_order, keep_terms=False)
    _require_tail(result, tol, max_order)
    return result


def evolve_vector(
    h_free: LinOp,
    h_int: LinOp,
    xi: np.ndarray,
    grid: TimeGrid,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
    estimate_quadrature: bool = True,
) -> SeriesResult:
    """Sum the series for U(t_end, t_start) xi to a certified tolerance.

    Raises TruncationError carrying the last tail bound when the certified
    tail cannot be brought below ``tol`` within ``max_order`` orders.  When
    ``estimate_quadrature`` is set, the sum is recomputed once on a grid with
    half the panels and the difference is reported.
    """
    prep = _prepare(h_free, h_int)
    vec = np.asarray(xi, dtype=complex).reshape(-1, 1)
    result, raw_terms = _run_block(prep, grid, vec, tol, max_order, keep_terms=True)
    _require_tail(result, tol, max_order)
    estimate = None
    if estimate_quadrature and grid.panels > 1:
        coarse, _ = _run_block(
            prep, grid.coarsened(), vec, tol, max_order, keep_terms=False
        )
        estimate = float(np.linalg.norm(result.final() - coarse.final()))
    return SeriesResult(
        terms=_rotate_terms(prep, raw_terms, grid),
        partial_sum=result.final()[:, 0],
        achieved_order=result.achieved_order,
        tail_bound=result.tail_bound,
        quadrature_estimate=estimate,
        per_order_sup_norms=tuple(float(x) for x in result.per_order_sup_norms[:, 0]),
        per_order_bounds=tuple(float(x) for x in result.per_order_bounds[:, 0]),
        boundary_sums=result.boundary_sums[:, :, 0],
        grid=grid,
        cert=result.cert,
        support_in=float(result.supports_in[0]),
    )


def evolve_adjoint(
    h_free: LinOp,
    h_int: LinOp,
    xi: np.ndarray,
    grid: TimeGrid,
    tol: float,
    max_order: int = DEFAULT_MAX_ORDER,
    estimate_quadrature: bool = True,
) -> SeriesResult:
    """Sum the adjoint series U(t_end, t_start)* xi.

    The adjoint solves the same recursion with the conjugate-transposed
    interaction and the roles of the two time arguments exchanged, so this
    is the forward engine on the reversed grid.
    """
    return evolve_vector(
        h_free,
        h_int.H,
        xi,
        grid.reversed(),
        tol,
        max_order=max_order,
        estimate_quadrature=estimate_quadrature,
    )


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
    nodes_per_panel: int = DEFAULT_NODES_PER_PANEL,
    max_order: int = DEFAULT_MAX_ORDER,
    panel_multiple: int = 1,
    max_panels: int = 4096,
) -> TimeGrid:
    """Panel count satisfying both width caps for the given run.

    The first cap keeps panels below PANEL_PRODUCT_FACTOR / (C * sqrt(L + N b
    + 1)) with N the order the tail needs at this tolerance; the second keeps
    the fastest coupled phase resolved.  ``panel_multiple`` rounds the count
    up to a multiple, which aligns panel edges with output times.
    """
    prep = _prepare(h_free, h_int)
    cert = prep.cert
    duration = abs(t_end - t_start)
    if duration == 0.0:
        return TimeGrid(t_start, t_end, panel_multiple, nodes_per_panel)
    _, tails = _apriori_table(
        max(max_order, 1), duration, cert.rel_bound, cert.grade_shift, [support], [1.0]
    )
    order = next((n for n in range(1, max_order) if tails[n, 0] < tol), max(max_order, 1))
    reach = support + order * cert.grade_shift + 1.0
    width_caps = [duration]
    if cert.rel_bound > 0:
        width_caps.append(PANEL_PRODUCT_FACTOR / (cert.rel_bound * math.sqrt(reach)))
    if prep.gap > 0:
        width_caps.append(PANEL_PHASE_FACTOR / prep.gap)
    width = min(width_caps)
    panels = max(1, math.ceil(duration / width))
    panels = min(max_panels, panels)
    if panels % panel_multiple:
        panels += panel_multiple - panels % panel_multiple
    return TimeGrid(t_start, t_end, panels, nodes_per_panel)
