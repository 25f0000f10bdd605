"""Desk-scale covariant-gauge photon/electron model on momentum lattices.

Continuum integrals are replaced by weighted sums over declared momentum
and position grids.  The photon one-particle space carries four components
per momentum point; the component-0 (scalar) modes flip the sign of the
indefinite metric, which makes the interaction eta-symmetric rather than
Hermitian.  All model constants are recomputed from the lattice data.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from typing import Sequence

import numpy as np

from .dyson import DEFAULT_MAX_ORDER, _free_spectrum, evolve_adjoint
from .evolution import _check_times, _sampled_run
from .fock import (
    LEAKAGE_WARN_THRESHOLD,
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
from .graded import (
    LinOp,
    certify,
    grade_shift_bound,
    vectors_supported_below,
)
from .oracles import Report

MINKOWSKI = np.diag([1.0, -1.0, -1.0, -1.0])

_SPINS = (0.5, -0.5)
_SPIN_TAG = {0.5: "+", -0.5: "-"}


def gamma_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four gamma matrices in the standard Dirac representation.

    gamma^0 is Hermitian, the spatial ones anti-Hermitian, and the
    anticommutators reproduce twice the metric exactly (entries are 0, +-1,
    +-i, so no rounding enters).
    """
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    g0 = np.block([[eye, zero], [zero, -eye]])
    gs = [np.block([[zero, s], [-s, zero]]) for s in (s1, s2, s3)]
    return (g0, gs[0], gs[1], gs[2])


def alpha_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """alpha^mu = gamma^0 gamma^mu; all four are Hermitian."""
    g = gamma_matrices()
    return tuple(g[0] @ g[mu] for mu in range(4))


def _helicity_pair(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norm = float(np.linalg.norm(p))
    if norm < 1e-300:
        theta, phi = 0.0, 0.0
    else:
        theta = math.acos(max(-1.0, min(1.0, p[2] / norm)))
        phi = math.atan2(p[1], p[0])
    ch, sh = math.cos(theta / 2), math.sin(theta / 2)
    chi_plus = np.array([ch, sh * np.exp(1j * phi)], dtype=complex)
    chi_minus = np.array([-sh * np.exp(-1j * phi), ch], dtype=complex)
    return chi_plus, chi_minus


def dirac_spinors(p: Sequence[float], mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Positive- and negative-energy spinors at momentum p.

    Returns (u, v), each of shape (4, 2) with spin columns ordered
    (+1/2, -1/2).  Away from p = 0 the spin label is the helicity; at p = 0
    it is the third spin component.  Normalisation: u*u = v*v = 2 E(p) per
    column, u*v = 0, and the rank-one sums over all four columns add up to
    2 E(p) times the identity.
    """
    pv = np.asarray(p, dtype=float)
    if pv.shape != (3,):
        raise ValueError("momentum must be a 3-vector")
    if mass < 0:
        raise ValueError("mass must be non-negative")
    energy = math.sqrt(float(pv @ pv) + mass * mass)
    plus = math.sqrt(max(0.0, energy + mass))
    minus = math.sqrt(max(0.0, energy - mass))
    chi_p, chi_m = _helicity_pair(pv)
    u = np.zeros((4, 2), dtype=complex)
    v = np.zeros((4, 2), dtype=complex)
    for col, (chi, sgn) in enumerate(((chi_p, 1.0), (chi_m, -1.0))):
        u[:2, col] = plus * chi
        u[2:, col] = minus * sgn * chi
        v[:2, col] = -minus * sgn * chi
        v[2:, col] = plus * chi
    return u, v


def fermion_energy(p: Sequence[float], mass: float) -> float:
    pv = np.asarray(p, dtype=float)
    return math.sqrt(float(pv @ pv) + mass * mass)


def polarization_vectors(k: Sequence[float]) -> np.ndarray:
    """The four polarization 4-vectors at photon momentum k, rows by label.

    Row 0 is the scalar direction (1, 0, 0, 0), row 3 the longitudinal one
    (0, k/|k|), rows 1 and 2 a transverse pair built from z x k.  Momenta on
    the z-axis are rejected: the transverse frame has no continuous
    extension there.
    """
    kv = np.asarray(k, dtype=float)
    if kv.shape != (3,):
        raise ValueError("momentum must be a 3-vector")
    perp = math.hypot(kv[0], kv[1])
    if perp == 0.0:
        raise ValueError(
            "photon momentum lies on the z-axis where the transverse "
            "polarization frame is undefined; move the grid point off the axis"
        )
    khat = kv / np.linalg.norm(kv)
    e1 = np.array([-kv[1], kv[0], 0.0]) / perp
    e2 = np.cross(khat, e1)
    pol = np.zeros((4, 4))
    pol[0, 0] = 1.0
    pol[1, 1:] = e1
    pol[2, 1:] = e2
    pol[3, 1:] = khat
    return pol


@dataclass(frozen=True)
class MomentumGrid:
    """Momentum points, shape (n, 3), with positive quadrature weights.

    Made only by ``QedConfig.photon_grid``/``fermion_grid``, from lattice
    data the config has checked.
    """

    points: np.ndarray
    weights: np.ndarray

    def inner(self, f: np.ndarray, g: np.ndarray) -> complex:
        return complex(np.sum(self.weights * np.conj(f) * g))

    def norm(self, f: np.ndarray) -> float:
        return math.sqrt(abs(self.inner(f, f)))

    def __len__(self) -> int:
        return self.points.shape[0]


# Each lattice of a config: its points, the chi values sampled on them, its
# weights (unit weights when unset), and whether a weight may be zero.  Zero
# position weights only drop a term of the interaction.
_LATTICES = (
    ("momentum_points", "chi_ph", "momentum_weights", False),
    ("fermion_momenta", "chi_el", "fermion_weights", False),
    ("positions", "chi_sp", "position_weights", True),
)
_POINTS_OF = {weights: points for points, _, weights, _ in _LATTICES}


def _is_number(value) -> bool:
    """A real number that is finite as a float: bools, NaN, the infinities
    and integers beyond the float range are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _finite(name: str, value) -> None:
    if not _is_number(value):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")


def _from_wire(value):
    """JSON lists become tuples and JSON numbers in the float range floats;
    the rest is checked later."""
    if isinstance(value, list):
        return tuple(_from_wire(v) for v in value)
    if isinstance(value, int) and _is_number(value):
        return float(value)
    return value


def _to_wire(value):
    if isinstance(value, (tuple, list)):
        return [_to_wire(v) for v in value]
    return value


@dataclass(frozen=True)
class QedConfig:
    """Lattice data defining one model instance.

    chi_ph and chi_el are momentum-space cutoff samples at the photon and
    fermion grid points; chi_sp holds position-space coupling values at the
    declared positions.  Every field is checked when the config is made.
    """

    momentum_points: tuple[tuple[float, float, float], ...]
    fermion_momenta: tuple[tuple[float, float, float], ...]
    mass: float
    coupling: float
    photon_cap: int
    chi_sp: tuple[float, ...]
    chi_ph: tuple[float, ...]
    chi_el: tuple[float, ...]
    momentum_weights: tuple[float, ...] | None = None
    fermion_weights: tuple[float, ...] | None = None
    positions: tuple[tuple[float, float, float], ...] = ((0.0, 0.0, 0.0),)
    position_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        _finite("mass", self.mass)
        _finite("coupling", self.coupling)
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        cap = self.photon_cap
        if not _is_number(cap) or not isinstance(cap, numbers.Integral) or cap < 1:
            raise ValueError(f"photon_cap must be an integer >= 1, not {cap!r}")
        for points, chi, weights, zero_ok in _LATTICES:
            pts = getattr(self, points)
            if (not isinstance(pts, (tuple, list)) or not pts or not all(
                    isinstance(p, (tuple, list)) and len(p) == 3 for p in pts)):
                raise ValueError(f"{points} must be a non-empty list of 3-vectors")
            for p in pts:
                for x in p:
                    _finite(points, x)
            for name in (chi, weights):
                values = self._field(name)
                if not isinstance(values, (tuple, list)) or len(values) != len(pts):
                    raise ValueError(f"{name} must have one value per entry of {points}")
                for v in values:
                    _finite(name, v)
            if any(w < 0 or (w == 0 and not zero_ok) for w in self._field(weights)):
                raise ValueError(f"{weights} must be "
                                 f"{'non-negative' if zero_ok else 'positive'}")
        if any(k[0] == 0 and k[1] == 0 for k in self.momentum_points):
            raise ValueError(
                "a photon momentum lies on the z-axis, where the transverse "
                "polarization frame is undefined; move the point off the axis"
            )

    def _field(self, name: str):
        """Field ``name``; an unset weights field reads as unit weights, one
        per point."""
        value = getattr(self, name)
        if value is None:
            value = (1.0,) * len(getattr(self, _POINTS_OF[name]))
        return value

    def photon_grid(self) -> MomentumGrid:
        return MomentumGrid(np.array(self.momentum_points, dtype=float),
                            np.array(self._field("momentum_weights"), dtype=float))

    def fermion_grid(self) -> MomentumGrid:
        return MomentumGrid(np.array(self.fermion_momenta, dtype=float),
                            np.array(self._field("fermion_weights"), dtype=float))

    def to_json(self) -> dict:
        return {f.name: _to_wire(self._field(f.name)) for f in fields(self)}

    @staticmethod
    def from_json(doc: dict | str) -> "QedConfig":
        """Read a config document; unknown or missing fields are errors.

        A null optional field takes its default; an integral photon_cap
        (2 or 2.0) reads as an integer.
        """
        if isinstance(doc, str):
            doc = json.loads(doc)
        if not isinstance(doc, dict):
            raise ValueError("model config must be a JSON object")
        known = fields(QedConfig)
        unknown = sorted(set(doc) - {f.name for f in known})
        if unknown:
            raise ValueError(f"unknown fields {unknown}")
        kwargs = {}
        for f in known:
            if doc.get(f.name) is None:
                if f.default is MISSING:
                    raise ValueError(f"missing required field {f.name!r}")
                continue
            kwargs[f.name] = _from_wire(doc[f.name])
        cap = kwargs["photon_cap"]
        if isinstance(cap, float) and cap.is_integer():
            kwargs["photon_cap"] = int(cap)
        return QedConfig(**kwargs)


def default_toy_config() -> QedConfig:
    """The stock desk-scale instance: one photon momentum off the axis, one
    fermion momentum at rest, cap 3, coupling 0.1."""
    return QedConfig(
        momentum_points=((1.0, 0.5, 0.25),),
        fermion_momenta=((0.0, 0.0, 0.0),),
        mass=1.0,
        coupling=0.1,
        photon_cap=3,
        chi_sp=(1.0,),
        chi_ph=(0.15,),
        chi_el=(0.35,),
    )


def fock_basis(config: QedConfig) -> FockBasis:
    """The occupation basis of a config's model, without any operator.

    Four photon modes (component 0 scalar) per photon momentum, capped in
    total at ``photon_cap``, then an electron and a positron mode per
    fermion momentum and spin.
    """
    omegas = np.linalg.norm(config.photon_grid().points, axis=1)
    energies = [fermion_energy(p, config.mass) for p in config.fermion_grid().points]
    bosons = tuple(BosonMode(f"ph{i}.{lam}", float(w), config.photon_cap)
                   for i, w in enumerate(omegas) for lam in range(4))
    fermions = tuple(FermionMode(f"{kind}{j}.{_SPIN_TAG[s]}", float(e))
                     for kind in ("el", "po") for j, e in enumerate(energies)
                     for s in _SPINS)
    scalar = frozenset(f"ph{i}.0" for i in range(len(omegas)))
    return FockBasis(ModeSpec(bosons, fermions, scalar),
                     total_boson_cap=config.photon_cap)


class QedModel:
    """Assembled operators and lattice constants for one QedConfig."""

    def __init__(self, config: QedConfig):
        self.config = config
        ph_grid = config.photon_grid()
        el_grid = config.fermion_grid()
        self.photon_grid = ph_grid
        self.fermion_grid = el_grid
        self.basis = fock_basis(config)
        spec = self.spec = self.basis.spec
        energies = {m.label: m.energy for m in spec.bosons + spec.fermions}
        self.omegas = np.array([energies[f"ph{i}.0"] for i in range(len(ph_grid))])
        self.energies = np.array([energies[f"el{j}.+"] for j in range(len(el_grid))])
        self.pol = np.array([polarization_vectors(k) for k in ph_grid.points])
        self.photon_basis = FockBasis(
            ModeSpec(spec.bosons, (), spec.scalar_modes),
            total_boson_cap=config.photon_cap,
        )
        self._photon_eta = np.real(eta_metric(self.photon_basis).storage.diagonal())
        self.fermion_basis = FockBasis(ModeSpec((), spec.fermions))
        self.space = self.basis.graded_space()

        self._photon_ann = {
            (i, lam): boson_ops(self.photon_basis, f"ph{i}.{lam}")[0].matrix
            for i in range(len(ph_grid))
            for lam in range(4)
        }
        self._el_ann = {
            (j, s): fermion_ops(self.fermion_basis, f"el{j}.{_SPIN_TAG[s]}")[0].matrix
            for j in range(len(el_grid))
            for s in _SPINS
        }
        self._po_ann = {
            (j, s): fermion_ops(self.fermion_basis, f"po{j}.{_SPIN_TAG[s]}")[0].matrix
            for j in range(len(el_grid))
            for s in _SPINS
        }
        self.eta = eta_metric(self.basis)

        self.h_free = second_quantize(self.basis, energies)

        self.spinors_u = {}
        self.spinors_v_reflected = {}
        for j, p in enumerate(el_grid.points):
            u, _ = dirac_spinors(p, config.mass)
            _, v_ref = dirac_spinors(-p, config.mass)
            self.spinors_u[j] = u
            self.spinors_v_reflected[j] = v_ref

        self.h_int = self._assemble_interaction()
        self.constants = self._lattice_constants()

    # -- factor-space builders ------------------------------------------------

    def photon_annihilator(self, f_values: np.ndarray, mu: int) -> np.ndarray:
        """a_mu(f) on the photon factor for grid samples f (antilinear in f)."""
        w = self.photon_grid.weights
        out = np.zeros((self.photon_basis.dim,) * 2, dtype=complex)
        for i in range(len(self.photon_grid)):
            for lam in range(4):
                coeff = np.conj(np.sqrt(w[i]) * f_values[i]) * self.pol[i, lam, mu]
                if coeff != 0:
                    out += coeff * self._photon_ann[(i, lam)]
        return out

    def photon_creator_dagger(self, f_values: np.ndarray, mu: int) -> np.ndarray:
        """The creator entering the field: eta a_mu(f)^* eta, the eta-adjoint of
        the annihilator on the photon factor (the scalar row flips sign)."""
        eta = self._photon_eta
        return eta[:, None] * self.photon_annihilator(f_values, mu).conj().T * eta

    def photon_field_factor(self, mu: int, x: Sequence[float]) -> np.ndarray:
        """A_mu at position x on the photon factor."""
        xv = np.asarray(x, dtype=float)
        phases = np.exp(-1j * self.photon_grid.points @ xv)
        f = phases * np.asarray(self.config.chi_ph) / np.sqrt(2.0 * self.omegas)
        return self.photon_annihilator(f, mu) + self.photon_creator_dagger(f, mu)

    def dirac_field_factor(self, component: int, x: Sequence[float]) -> np.ndarray:
        """psi_component at position x on the fermion factor.

        The particle part weighs the annihilators with u / sqrt(2E); the
        antiparticle part weighs the creators with the reflected v spinor.
        """
        xv = np.asarray(x, dtype=float)
        chi = np.asarray(self.config.chi_el, dtype=complex)
        w = self.fermion_grid.weights
        out = np.zeros((self.fermion_basis.dim,) * 2, dtype=complex)
        for j, p in enumerate(self.fermion_grid.points):
            phase = np.exp(-1j * float(p @ xv))
            root = np.sqrt(w[j] / (2.0 * self.energies[j]))
            for col, s in enumerate(_SPINS):
                cb = root * np.conj(phase * chi[j]) * self.spinors_u[j][component, col]
                cd = root * phase * chi[j] * self.spinors_v_reflected[j][component, col]
                if cb != 0:
                    out += cb * self._el_ann[(j, s)]
                if cd != 0:
                    out += cd * self._po_ann[(j, s)].conj().T
        return out

    def current_factor(self, mu: int, x: Sequence[float]) -> np.ndarray:
        """j^mu(x) on the fermion factor; Hermitian and bounded."""
        alpha = alpha_matrices()[mu]
        psi = [self.dirac_field_factor(l, x) for l in range(4)]
        out = np.zeros((self.fermion_basis.dim,) * 2, dtype=complex)
        for l in range(4):
            for lp in range(4):
                if alpha[l, lp] != 0:
                    out += alpha[l, lp] * (psi[l].conj().T @ psi[lp])
        return out

    # -- joint-space operators ------------------------------------------------

    def lift_photon(self, op: np.ndarray) -> LinOp:
        return LinOp(self.space, np.kron(op, np.eye(self.fermion_basis.dim)))

    def photon_field(self, mu: int, x: Sequence[float]) -> LinOp:
        return self.lift_photon(self.photon_field_factor(mu, x))

    def _assemble_interaction(self) -> LinOp:
        """Sum of the (photon x current) Kronecker terms, built as CSR.

        The factors are small dense matrices; each term is their sparse
        Kronecker product, so no full-size dense array is made.  Explicit
        zeros (exact cancellations) are dropped at the end, so the stored
        pattern is the exact ``!= 0`` pattern.
        """
        from scipy.sparse import csr_array
        from scipy.sparse import kron as sparse_kron

        total = csr_array((self.basis.dim,) * 2, dtype=complex)
        weights = self.config._field("position_weights")
        for x, wx, chi in zip(self.config.positions, weights, self.config.chi_sp):
            if chi == 0.0 or wx == 0.0:
                continue
            for mu in range(4):
                a_part = csr_array(self.photon_field_factor(mu, x))
                j_part = csr_array(self.current_factor(mu, x))
                term = sparse_kron(a_part, j_part, format="csr")
                term *= self.config.coupling * wx * chi
                total = total + term
        total.eliminate_zeros()
        return LinOp(self.space, total)

    def _lattice_constants(self) -> dict:
        weights = self.config._field("position_weights")
        current_norm = 0.0
        for mu in range(4):
            best = max(
                float(np.linalg.norm(self.current_factor(mu, x), 2))
                for x in self.config.positions
            )
            current_norm += best
        photon_profile = np.asarray(self.config.chi_ph) / np.sqrt(2.0 * self.omegas)
        m_ph = 2.0 * self.photon_grid.norm(photon_profile)
        chi_sp_l1 = float(
            sum(w * abs(c) for w, c in zip(weights, self.config.chi_sp))
        )
        m_int = abs(self.config.coupling) * chi_sp_l1 * current_norm * m_ph
        return {
            "current_norm_sum": current_norm,
            "photon_profile_norm_doubled": m_ph,
            "chi_sp_l1": chi_sp_l1,
            "interaction_bound": m_int,
        }


def build_model(config: QedConfig) -> QedModel:
    """Assemble free part, interaction, and metric (all stored as CSR) for a config."""
    return QedModel(config)


def _eta_signs(model: QedModel) -> np.ndarray:
    """The diagonal of the metric, read from its storage: a real +-1 vector."""
    return np.real(model.eta.storage.diagonal())


def field_commutators(model: QedModel, seed: int = 101, samples: int = 4) -> Report:
    """Residual of [a_mu(f), a_nu^dagger(g)] + g_{mu nu} <f, g> below the cap.

    The identity holds exactly on states whose total occupation stays below
    the cap; the projector removes the top sector where the truncation
    necessarily deforms it.
    """
    rng = np.random.default_rng(seed)
    npts = len(model.photon_grid)
    grades = model.photon_basis.grades()
    below = np.diag((grades <= model.config.photon_cap - 1).astype(complex))
    worst = 0.0
    for _ in range(samples):
        f = rng.normal(size=npts) + 1j * rng.normal(size=npts)
        g = rng.normal(size=npts) + 1j * rng.normal(size=npts)
        pairing = model.photon_grid.inner(f, g)
        for mu in range(4):
            for nu in range(4):
                a = model.photon_annihilator(f, mu)
                adag = model.photon_creator_dagger(g, nu)
                comm = a @ adag - adag @ a
                expected = -MINKOWSKI[mu, nu] * pairing
                defect = (comm - expected * np.eye(comm.shape[0])) @ below
                worst = max(worst, float(np.linalg.norm(defect, 2)))
    return Report(
        "photon-field-commutators",
        worst,
        1e-14,
        {"samples": samples, "seed": seed},
    )


def eta_unitarity_check(
    model: QedModel,
    times: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    pairs: int = 50,
    tol: float = 1e-6,
    series_tol: float = 1e-9,
    seed: int = 7,
) -> list[Report]:
    """Drift of the indefinite pairing under W(t), plus inverse and leakage.

    Random unit pairs are drawn with photon occupation at most cap - 2 so
    the cap has headroom; the drift |<W psi, eta W phi> - <psi, eta phi>| is
    maximised over pairs and times.  One report covers the pairing, one the
    metric adjoint inverse applied through the adjoint series, one the group
    inverse W(-t) W(t) = 1 through a backward run (``group-inverse``), and
    one the top-sector leakage of every evolved state.  The two inverse
    checks run at the largest time.  Every time must be positive, else
    ValueError.
    """
    rng = np.random.default_rng(seed)
    cap = model.config.photon_cap
    level = max(0, cap - 2)
    psi = vectors_supported_below(rng, model.space, level, pairs)
    phi = vectors_supported_below(rng, model.space, level, pairs)
    block = np.concatenate([psi, phi], axis=1)

    times = _check_times(times)
    run = _sampled_run(model.h_free, model.h_int, block, times, series_tol,
                       DEFAULT_MAX_ORDER)
    eta_diag = _eta_signs(model)
    base = np.einsum("dm,d,dm->m", psi.conj(), eta_diag, phi)

    drift = 0.0
    leakage = 0.0
    for w_cols in run.states:
        w_psi, w_phi = w_cols[:, :pairs], w_cols[:, pairs:]
        pairing = np.einsum("dm,d,dm->m", w_psi.conj(), eta_diag, w_phi)
        drift = max(drift, float(np.max(np.abs(pairing - base))))
        leakage = max(leakage, top_sector_fraction(model.basis, w_cols))

    # eta W(t)* eta W(t) = 1 on a handful of columns: the adjoint series
    # U(t, 0)* runs on the reversed grid under h_int*, after the free phase
    # e^{i t h0} and before the outer eta.
    sample = min(4, pairs)
    last = int(np.argmax(times))
    t_max = float(times[last])
    w_final = run.states[last][:, :sample]
    rotated = _free_spectrum(model.h_free).evolve(-t_max, eta_diag[:, None] * w_final)
    adjoint = evolve_adjoint(
        model.h_free, model.h_int, rotated, run.grid, series_tol
    ).final()
    inverse_residual = float(
        np.max(np.linalg.norm(eta_diag[:, None] * adjoint - psi[:, :sample], axis=0))
    )
    # W(-t) W(t) = 1 on the same handful, via a backward run.
    back = _sampled_run(model.h_free, model.h_int, w_final, (0.0, -t_max),
                        series_tol, DEFAULT_MAX_ORDER)
    group_residual = float(
        np.max(np.linalg.norm(back.states[-1] - psi[:, :sample], axis=0))
    )

    context = {
        "pairs": pairs,
        "times": times.tolist(),
        "series_tol": series_tol,
        "achieved_order": run.achieved_order,
    }
    return [
        Report("eta-pairing-drift", drift, tol, context),
        Report("metric-adjoint-inverse", inverse_residual, 10 * tol, context),
        Report("group-inverse", group_residual, 10 * tol, context),
        Report("top-sector-leakage", leakage, LEAKAGE_WARN_THRESHOLD, context),
    ]


def structure_reports(model: QedModel, seed: int = 23) -> list[Report]:
    """Algebraic sanity bundle for one assembled model.

    Everything here is a closed identity of the construction: gamma algebra,
    spinor normalisation and completeness, polarization completeness, ladder
    relations below the cap, the metric symmetry of the interaction, its
    exact grade shift, and the lattice bound on the certified interaction
    constant.
    """
    rng = np.random.default_rng(seed)
    reports: list[Report] = []

    g = gamma_matrices()
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            anti = g[mu] @ g[nu] + g[nu] @ g[mu]
            target = 2.0 * MINKOWSKI[mu, nu] * np.eye(4)
            worst = max(worst, float(np.abs(anti - target).max()))
    reports.append(Report("gamma-anticommutators", worst, 0.0, {}))

    ortho = 0.0
    complete = 0.0
    momenta = [np.zeros(3)] + [rng.normal(size=3) for _ in range(3)]
    for p in momenta:
        u, v = dirac_spinors(p, model.config.mass)
        two_e = 2.0 * fermion_energy(p, model.config.mass)
        gram_u = u.conj().T @ u
        gram_v = v.conj().T @ v
        cross = u.conj().T @ v
        ortho = max(
            ortho,
            float(np.abs(gram_u - two_e * np.eye(2)).max()),
            float(np.abs(gram_v - two_e * np.eye(2)).max()),
            float(np.abs(cross).max()),
        )
        rank_sum = u @ u.conj().T + v @ v.conj().T
        complete = max(
            complete, float(np.abs(rank_sum - two_e * np.eye(4)).max())
        )
    reports.append(Report("spinor-orthogonality", ortho, 1e-12, {}))
    reports.append(Report("spinor-completeness", complete, 1e-12, {}))

    pol_res = 0.0
    for i, k in enumerate(model.photon_grid.points):
        pol = model.pol[i]
        gram = np.einsum("lm,l,ln->mn", pol, np.diag(MINKOWSKI), pol)
        pol_res = max(pol_res, float(np.abs(gram - MINKOWSKI).max()))
        for lam in (1, 2):
            pol_res = max(pol_res, abs(float(pol[lam, 1:] @ k)) / np.linalg.norm(k))
    reports.append(Report("polarization-completeness", pol_res, 1e-14, {}))

    reports.append(field_commutators(model, seed=seed + 1))

    car = 0.0
    labels = [(j, s) for j in range(len(model.fermion_grid)) for s in _SPINS]
    for j, s in labels:
        for jp, sp in labels:
            b = model._el_ann[(j, s)]
            bp = model._el_ann[(jp, sp)]
            d = model._po_ann[(j, s)]
            anti = b @ bp.conj().T + bp.conj().T @ b
            expected = np.eye(b.shape[0]) if (j, s) == (jp, sp) else 0.0
            car = max(car, float(np.abs(anti - expected).max()))
            car = max(car, float(np.abs(b @ bp + bp @ b).max()))
            car = max(car, float(np.abs(b @ d + d @ b).max()))
    reports.append(Report("fermion-anticommutators", car, 0.0, {}))

    # The difference keeps the block pattern of h_int and h_int^H, so its
    # exact 2-norm is taken block by block, as certify takes C.
    eta, h_int = model.eta.storage, model.h_int.storage
    sym = LinOp(model.space, eta @ h_int @ eta - h_int.conj().T).norm2()
    reports.append(Report("interaction-metric-symmetry", sym, 1e-12, {}))

    if model.config.coupling != 0.0:
        shift = grade_shift_bound(model.h_int)
        reports.append(
            Report("interaction-grade-shift", float(abs(shift - 1)), 0.0, {})
        )

    cert = certify(model.h_int)
    bound = model.constants["interaction_bound"]
    excess = max(0.0, cert.rel_bound - bound) / max(bound, 1e-300)
    reports.append(
        Report(
            "interaction-bound-domination",
            excess,
            1e-9,
            {"certified": cert.rel_bound, "lattice_bound": bound},
        )
    )

    # Each Dirac component is norm-bounded by its one-particle data: the
    # annihilation part contributes the l2 norm of its smearing vector, the
    # creation part likewise, and the two add.
    field_norm_excess = 0.0
    chi = np.asarray(model.config.chi_el, dtype=complex)
    for x in model.config.positions:
        for comp in range(4):
            mat = model.dirac_field_factor(comp, x)
            op_norm = float(np.linalg.norm(mat, 2))
            sq_b = 0.0
            sq_d = 0.0
            for j in range(len(model.fermion_grid)):
                scale = model.fermion_grid.weights[j] * abs(chi[j]) ** 2 / (
                    2.0 * model.energies[j]
                )
                sq_b += scale * float(
                    np.sum(np.abs(model.spinors_u[j][comp, :]) ** 2)
                )
                sq_d += scale * float(
                    np.sum(np.abs(model.spinors_v_reflected[j][comp, :]) ** 2)
                )
            bound = math.sqrt(sq_b) + math.sqrt(sq_d)
            field_norm_excess = max(
                field_norm_excess, max(0.0, op_norm - bound) / max(bound, 1e-300)
            )
    reports.append(Report("dirac-field-norm", field_norm_excess, 1e-12, {}))

    # ||a_mu(f) psi|| <= ||f|| * ||(N_ph + something)^{1/2} psi|| with the plain
    # photon number operator; the Euclidean frame makes the component sum sharp.
    grades = model.photon_basis.grades().astype(float)
    number_half = np.sqrt(grades)
    ann_ratio = 0.0
    for _ in range(20):
        f = rng.normal(size=len(model.photon_grid)) + 1j * rng.normal(
            size=len(model.photon_grid)
        )
        fnorm = model.photon_grid.norm(f)
        psi = rng.normal(size=model.photon_basis.dim) + 1j * rng.normal(
            size=model.photon_basis.dim
        )
        weighted = float(np.linalg.norm(number_half * psi))
        if weighted == 0.0:
            continue
        for mu in range(4):
            lowered = model.photon_annihilator(f, mu) @ psi
            ratio = float(np.linalg.norm(lowered)) / (fnorm * weighted)
            ann_ratio = max(ann_ratio, max(0.0, ratio - 1.0))
    reports.append(Report("annihilator-number-bound", ann_ratio, 1e-12, {}))

    return reports
