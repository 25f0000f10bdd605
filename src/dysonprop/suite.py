"""Seeded model fleet and the identity/oracle verification suite.

Every generated model satisfies the structural assumptions by construction:
the free part is Hermitian and block-diagonal over grade sectors, the
interaction is supported only on entries whose grade rise stays within the
planted shift, and its relative-bound constant is rescaled to a prescribed
target so series runs stay short.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyson import (
    DEFAULT_MAX_ORDER,
    TimeGrid,
    _FreeBasis,
    _apriori_table,
    _free_spectrum,
    _prepare,
    _run_block,
    default_grid,
    evolve_adjoint,
    evolve_block,
    evolve_vector,
)
from .errors import TruncationError
from .evolution import _check_times, _sampled_run
from .graded import (
    STRUCTURE_RTOL,
    GradedSpace,
    LinOp,
    certify,
    grade_sectors,
    growth_rates,
    support_level,
)
from .oracles import Report, ode_oracle, oracle_propagator

FLEET_DIMS = (4, 5, 6, 8, 10, 12, 14, 16, 18, 20,
              24, 28, 32, 36, 40, 44, 48, 52, 58, 64)

# The composition laws compare powers of steps (``_step_power``) whose width
# differs from one time pair to the next, so an error every step shares still
# breaks them; times are drawn from this range.
COMPOSITION_TIME_RANGE = (-0.8, 0.8)

# A convergence-table entry may exceed its certified tail by this fraction.
TAIL_SLACK = 1e-3


@dataclass(frozen=True)
class FleetModel:
    name: str
    h_free: LinOp
    h_int: LinOp
    grade_shift: int
    hermitian: bool
    seed: int

    @property
    def space(self) -> GradedSpace:
        return self.h_free.space


def random_graded_model(
    seed: int,
    dim: int,
    grade_shift: int = 1,
    target_rel_bound: float = 0.35,
    hermitian: bool = False,
    block_free_part: bool = False,
    name: str | None = None,
) -> FleetModel:
    """One random model with the requested planted structure.

    The grade list always contains 0 and the shift value, and one matrix
    entry achieving exactly that rise is forced to stay nonzero, so the
    certified shift equals ``grade_shift`` rather than something smaller.
    """
    if dim < 4:
        raise ValueError("dim must be at least 4")
    if grade_shift < 1:
        raise ValueError("grade_shift must be a positive integer")
    rng = np.random.default_rng(seed)
    grades = rng.integers(0, grade_shift + 2, size=dim)
    grades[0] = 0
    grades[1] = grade_shift
    grades = np.sort(grades)
    space = GradedSpace(tuple(int(g) for g in grades))

    if block_free_part:
        h0 = np.zeros((dim, dim), dtype=complex)
        for _, idx in grade_sectors(space):
            k = len(idx)
            blk = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            blk = 0.5 * (blk + blk.conj().T)
            h0[np.ix_(idx, idx)] = blk
    else:
        h0 = np.diag(rng.uniform(-2.0, 2.0, size=dim)).astype(complex)
    h_free = LinOp(space, h0)

    rise = grades[:, None] - grades[None, :]
    mask = rise <= grade_shift
    if hermitian:
        mask &= rise >= -grade_shift
    h1 = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) * mask
    exact_rows, exact_cols = np.nonzero(rise == grade_shift)
    pick = rng.integers(len(exact_rows))
    h1[exact_rows[pick], exact_cols[pick]] = 1.0 + 0.5j
    if hermitian:
        h1 = 0.5 * (h1 + h1.conj().T)
    probe = LinOp(space, h1)
    scale = target_rel_bound / certify(probe).rel_bound
    h_int = LinOp(space, h1 * scale)
    return FleetModel(
        name=name or f"model-d{dim}-b{grade_shift}-s{seed}",
        h_free=h_free,
        h_int=h_int,
        grade_shift=grade_shift,
        hermitian=hermitian,
        seed=seed,
    )


def fleet(seed: int = 2026, count: int = 20) -> list[FleetModel]:
    """The standard verification fleet: dims spread over 4..64, shifts 1..3,
    a third of the interactions Hermitian, free parts alternating between
    diagonal and sector-block form."""
    rng = np.random.default_rng(seed)
    models = []
    for i in range(count):
        dim = FLEET_DIMS[i % len(FLEET_DIMS)]
        models.append(
            random_graded_model(
                seed=int(rng.integers(2**31)),
                dim=dim,
                grade_shift=1 + i % 3,
                target_rel_bound=float(rng.uniform(0.25, 0.45)),
                hermitian=(i % 3 == 2),
                block_free_part=(i % 2 == 1),
                name=f"fleet-{i:02d}-d{dim}",
            )
        )
    return models


def _step_power(
    h_free: LinOp, h_int: LinOp, t: float, t_prime: float, tol: float
) -> tuple[np.ndarray, float]:
    """U(t, t') from the P-th power of one panel step, and the bound on its
    error; raises TruncationError unless that bound is below ``tol``.

    P is ``default_grid``'s panel count and h = (t - t') / P, signed.  The
    pair does not depend on time, so U(t, t') = e^{i t h_free} S^P
    e^{-i t' h_free} with S = e^{-i h (h_free + h_int)}, and one series run
    over ``TimeGrid(0, h, 1)`` gives e^{i h h_free} S.  Its column tails
    give eps = sqrt(sum_j eps_j^2) >= ||S~ - S||_2, so with
    g = e^{|h| mu} >= ||S|| (mu from ``growth_rates`` in the step's
    direction) the returned bound P eps (g + eps)^{P - 1} >= ||S~^P - S^P||_2.
    The step runs at tol / (P sqrt(d) g^{P - 1}), which keeps the bound
    below tol (1 + eps / g)^{P - 1} unless the step reaches the order cap;
    the powers are formed only once the bound is below tol.
    """
    panels = default_grid(h_free, h_int, t_prime, t, max(h_free.space.grades), tol).panels
    h = (t - t_prime) / panels
    forward, backward = growth_rates(h_int)
    rate = abs(h) * (backward if h < 0 else forward)  # log g, g >= ||S||
    # The step, its powers and the free phases stay in the free eigenbasis,
    # so the rotation's rounding enters once, not P times: the step runs on
    # the pair rotated there, with a diagonal free part built once.
    prep = _prepare(h_free, h_int)
    eig_free, eig_int = h_free, h_int
    if prep.rotation is not None:
        eig_int = prep.h_int_rot
        if "diagonal_free" not in eig_int._memo:
            eig_int._memo["diagonal_free"] = LinOp(h_free.space, np.diag(prep.energies))
        eig_free = eig_int._memo["diagonal_free"]
    step_tol = tol / (panels * math.sqrt(h_free.dim)) * math.exp(-(panels - 1) * rate)
    try:
        run = evolve_block(eig_free, eig_int, np.eye(h_free.dim, dtype=complex),
                           TimeGrid(0.0, h, 1), step_tol)
        eps = float(np.linalg.norm(run.tail_bounds))
    except TruncationError as exc:  # eps <= sqrt(d) max_j eps_j puts bound at tol or above
        run, eps = None, math.sqrt(h_free.dim) * exc.tail_bound
    with np.errstate(over="ignore"):  # an infinite bound fails
        bound = float(panels * eps * (np.exp(rate) + eps) ** (panels - 1))
    if run is None or not bound < tol:
        raise TruncationError(f"composed step bound {bound:.3e} not below tolerance "
                              f"{tol:.3e}", bound, DEFAULT_MAX_ORDER)
    eigen = _FreeBasis(prep.energies, None)
    u = eigen.two_sided(t, np.linalg.matrix_power(eigen.evolve(h, run.final()), panels), t_prime)
    if prep.rotation is not None:
        u = prep.rotation @ u @ prep.rotation.conj().T
    return u, bound


def dense_propagator(
    h_free: LinOp, h_int: LinOp, t: float, t_prime: float, tol: float = 1e-10
) -> np.ndarray:
    """U(t, t'), certified within ``tol`` in the spectral norm.

    It is the P-th power of one certified panel step (``_step_power``),
    formed by binary powering, about log2 P + popcount(P) products of
    d x d.  Raises TruncationError carrying the composed bound unless that
    bound is below ``tol``.  The rounding of the products is not in the
    bound; no result bounds rounding yet.
    """
    return _step_power(h_free, h_int, t, t_prime, tol)[0]


def identity_suite(
    h_free: LinOp,
    h_int: LinOp,
    tuples: int = 10,
    pairs: int = 20,
    tol: float = 1e-7,
    duality_tol: float = 1e-9,
    seed: int = 505,
    series_tol: float = 1e-10,
    model_name: str = "model",
) -> list[Report]:
    """Composition-law checks on randomized time tuples.

    Emits one aggregated Report per law: cocycle, translation covariance,
    inverse, adjoint duality, and (for Hermitian interactions) unitarity.
    Failures come back as failing Reports, never exceptions.
    """
    rng = np.random.default_rng(seed)
    space = h_free.space
    dim = space.dim
    # ||h1 - h1*||_2 = 2 ||K||_2 = 2 max(mu+, mu-) (growth_rates).
    hermitian = 2 * max(growth_rates(h_int)) <= STRUCTURE_RTOL * max(1.0, h_int.norm2())
    cocycle = covariance = inverse = unitarity = duality = 0.0
    eye = np.eye(dim)
    free = _free_spectrum(h_free)
    for _ in range(tuples):
        t, t_p, t_pp, s = rng.uniform(*COMPOSITION_TIME_RANGE, size=4)
        u_t_tp = dense_propagator(h_free, h_int, t, t_p, series_tol)
        u_tp_tpp = dense_propagator(h_free, h_int, t_p, t_pp, series_tol)
        u_t_tpp = dense_propagator(h_free, h_int, t, t_pp, series_tol)
        cocycle = max(
            cocycle, float(np.linalg.norm(u_t_tp @ u_tp_tpp - u_t_tpp, 2))
        )
        shifted = dense_propagator(h_free, h_int, t + s, t_p + s, series_tol)
        conj = free.two_sided(s, u_t_tp, s)  # e^{i s h0} U(t, t') e^{-i s h0}
        covariance = max(covariance, float(np.linalg.norm(conj - shifted, 2)))
        u_back = dense_propagator(h_free, h_int, t_p, t, series_tol)
        inverse = max(inverse, float(np.linalg.norm(u_t_tp @ u_back - eye, 2)))
        if hermitian:
            unitarity = max(
                unitarity,
                float(np.linalg.norm(u_t_tp.conj().T @ u_t_tp - eye, 2)),
            )

    t, t_p = rng.uniform(*COMPOSITION_TIME_RANGE, size=2)
    grid = default_grid(
        h_free, h_int, t_p, t, support=max(space.grades), tol=series_tol
    )
    etas = rng.normal(size=(dim, pairs)) + 1j * rng.normal(size=(dim, pairs))
    xis = rng.normal(size=(dim, pairs)) + 1j * rng.normal(size=(dim, pairs))
    forward = evolve_block(h_free, h_int, etas, grid, series_tol).final()
    adjoint = evolve_adjoint(h_free, h_int, xis, grid, series_tol).final()
    left = np.einsum("dp,dp->p", forward.conj(), xis)
    right = np.einsum("dp,dp->p", etas.conj(), adjoint)
    duality = float(np.max(np.abs(left - right)))

    context = {"model": model_name, "tuples": tuples, "seed": seed,
               "dim": dim, "series_tol": series_tol}
    reports = [
        Report("cocycle", cocycle, tol, context),
        Report("translation-covariance", covariance, tol, context),
        Report("group-inverse", inverse, tol, context),
        Report("adjoint-duality", duality, duality_tol,
               {**context, "pairs": pairs}),
    ]
    if hermitian:
        reports.append(Report("unitarity", unitarity, 1e-8, context))
    return reports


def oracle_reports(
    model: FleetModel,
    times: tuple[float, ...] = (0.25, 0.5, 1.0),
    tol: float = 1e-7,
    series_tol: float = 1e-10,
    seed: int = 707,
) -> list[Report]:
    """Series engine against the two independent oracles, plus the a-priori
    bound and support-growth certificates from the same runs."""
    rng = np.random.default_rng(seed)
    h_free, h_int = model.h_free, model.h_int
    space = h_free.space
    dim = space.dim
    traj = _sampled_run(h_free, h_int, np.eye(dim, dtype=complex),
                        _check_times(times), series_tol, DEFAULT_MAX_ORDER)
    free = _free_spectrum(h_free)
    worst = 0.0
    for t, w_run in zip(times, traj.states):
        # W(t) = e^{-i t h_free} U(t, 0) from the run against the oracle's.
        w_ref = free.evolve(t, oracle_propagator(h_free, h_int, t, 0.0))
        worst = max(worst, float(np.linalg.norm(w_run - w_ref, 2)))
    run = traj.series
    context = {"model": model.name, "dim": dim, "times": list(times),
               "series_tol": series_tol}
    reports = [Report("oracle-propagator-agreement", worst, tol, context)]

    sups, bounds = run.per_order_sup_norms, run.per_order_bounds
    zero = bounds == 0.0
    compliance = max(
        float(sups[zero].max(initial=0.0)),
        float((sups[~zero] / bounds[~zero] - 1.0).max(initial=0.0)),
    )
    reports.append(
        Report("order-bound-compliance", compliance, 1e-6, context)
    )

    xi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    xi /= np.linalg.norm(xi)
    t_probe = 0.7
    grid_probe = default_grid(
        h_free, h_int, 0.0, t_probe,
        support=support_level(space, xi), tol=series_tol,
    )
    series = evolve_vector(h_free, h_int, xi, grid_probe, series_tol)
    ode = ode_oracle(h_free, h_int, xi, t_probe, 0.0, tol=1e-11)
    reports.append(
        Report(
            "ode-oracle-agreement",
            float(np.linalg.norm(series.final()[:, 0] - ode)),
            1e-8,
            context,
        )
    )
    closed = oracle_propagator(h_free, h_int, t_probe, 0.0) @ xi
    reports.append(
        Report("cross-oracle-agreement", float(np.linalg.norm(closed - ode)),
               1e-8, context)
    )

    growth = 0.0
    level = support_level(space, xi)
    shift = certify(h_int).grade_shift
    grades = space.grade_array()
    for term in series.terms:
        outside = term.node_values[..., 0] * (grades > level + term.order * shift)
        norm_out = float(np.linalg.norm(outside, axis=-1).max())
        growth = max(growth, norm_out / max(term.sup_norm, 1e-300))
    reports.append(Report("support-growth", growth, 1e-12, context))
    return reports


def fleet_verification(
    models: list[FleetModel] | None = None,
    seed: int = 2026,
    tuples: int = 10,
    tol: float = 1e-7,
    series_tol: float = 1e-10,
) -> list[Report]:
    """identity_suite plus oracle checks over the whole fleet, flattened."""
    if models is None:
        models = fleet(seed=seed)
    reports: list[Report] = []
    for i, model in enumerate(models):
        reports.extend(
            identity_suite(
                model.h_free, model.h_int, tuples=tuples, tol=tol,
                seed=seed + 31 * i, series_tol=series_tol,
                model_name=model.name,
            )
        )
        reports.extend(
            oracle_reports(model, tol=tol, series_tol=series_tol,
                           seed=seed + 31 * i + 7)
        )
    return reports


@dataclass(frozen=True)
class ConvergenceTable:
    """Weighted-norm distances of partial sums from the deepest one.

    ``norms[n, a]`` is the sup over grid nodes of the (grade+1)^{alpha/2}-
    weighted norm of (partial sum through order n) - (partial sum through
    order n_max); ``tails[n, a]`` is the certified tail bound for the same
    quantity.  Monotone onset is observed, never assumed.
    """

    alphas: tuple[float, ...]
    orders: tuple[int, ...]
    norms: np.ndarray
    tails: np.ndarray

    def onset(self, alpha_index: int) -> int:
        """First order from which the column decreases strictly to the end.

        Trailing exact zeros are skipped first: a nilpotent interaction
        truncates the series, the partial sums reach the deepest one early,
        and those orders count as converged rather than stalled.
        """
        col = self.norms[:, alpha_index]
        n = len(col) - 1
        while n > 0 and col[n] == 0.0:
            n -= 1
        while n > 0 and col[n - 1] > col[n] > 0.0:
            n -= 1
        return n

    def dominated(self) -> tuple[bool, float]:
        """Whether every entry sits below (1 + TAIL_SLACK) times its tail bound."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(self.norms > 0, self.norms / self.tails, 0.0)
        worst = float(ratio.max()) if ratio.size else 0.0
        return worst <= 1.0 + TAIL_SLACK, worst

    def to_json(self) -> dict:
        ok, worst = self.dominated()
        return {
            "alphas": list(self.alphas),
            "orders": list(self.orders),
            "norms": [[float(x) for x in row] for row in self.norms],
            "tail_bounds": [[float(x) for x in row] for row in self.tails],
            "onsets": [self.onset(a) for a in range(len(self.alphas))],
            "dominated": ok,
            "worst_tail_ratio": worst,
        }


def appendix_convergence(
    h_free: LinOp,
    h_int: LinOp,
    xi: np.ndarray,
    alphas: tuple[float, ...] = (0.0, 1.0, 2.0),
    n_max: int = 12,
    t_end: float = 1.0,
    grid: TimeGrid | None = None,
) -> ConvergenceTable:
    """Convergence of partial sums in the grade-weighted sup norms.

    Terms are generated to exactly order ``n_max`` by the series kernel with
    no early stopping, so the table exists even where the tolerance-driven
    engine would have stopped sooner.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if any(a < 0 for a in alphas):
        raise ValueError("alpha values must be non-negative")
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    space = h_free.space
    level = support_level(space, xi)
    if grid is None:
        grid = default_grid(h_free, h_int, 0.0, t_end, support=level, tol=1e-10)
    prep = _prepare(h_free, h_int)
    cert = prep.cert
    terms = _run_block(
        prep, grid, xi[:, None], tol=0.0, max_order=n_max, keep_terms=True
    ).terms

    def stacked(term):
        flat_nodes = term.node_values[..., 0].reshape(-1, space.dim)
        return np.concatenate([flat_nodes, term.boundary_values[..., 0]], axis=0)

    partial = np.zeros_like(stacked(terms[0]))
    partials = []
    for term in terms:
        partial = partial + stacked(term)
        partials.append(partial)
    limit = partials[-1]

    orders = tuple(range(n_max))
    norms = np.zeros((n_max, len(alphas)))
    tails = np.zeros((n_max, len(alphas)))
    for a, alpha in enumerate(alphas):
        tails[:, a] = _apriori_table(
            n_max, grid.duration, cert.rel_bound, cert.grade_shift, [level],
            [np.linalg.norm(xi)], alpha,
        )[1][:n_max, 0]
    # weighted_norm of every stacked row at once: one weight vector per alpha.
    weights = [(space.grade_array() + 1.0) ** alpha for alpha in alphas]
    for n in orders:
        squares = np.abs(partials[n] - limit) ** 2
        for a, w in enumerate(weights):
            norms[n, a] = np.sqrt(np.sum(w * squares, axis=1)).max()
    return ConvergenceTable(
        alphas=tuple(float(a) for a in alphas),
        orders=orders,
        norms=norms,
        tails=tails,
    )
