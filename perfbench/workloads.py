"""The four benchmark workloads: inputs made from a seed, ops, and checks.

An op is one public dysonprop call that returns a certified result.  A
workload's setup builds its models and inputs from the seed and returns one
pass: a fixed list of ops that the run repeats.  Each op carries its own
correctness check with the acceptance tolerance; checks run after the last
op of the pass.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from dysonprop import dyson, evolution, graded, oracles, qed, suite

Check = tuple[str, float, float]  # (name, residual, tolerance)


@dataclass
class Op:
    label: str
    columns: int  # input columns the op carries to a certified result
    checks: int  # checks the op carries; an op that raises fails all of them
    run: Callable[[], object]
    check: Callable[[object], list[Check]]


# The fleet the acceptance suite runs on.  The seed only places the time
# pairs: re-drawing the fleet per seed moved the modelled cost of a pass by
# 8-25 % (interquartile range over 12 seeds), more than a bound can absorb.
FLEET_SEED = 2026
FLEET_T_MAX = 0.8
FLEET_SCRAMBLE = 7  # coprime with the fleet size
FLEET_SMALL = 5  # models in the smallest pass
SERIES_TOL_FLEET = 1e-10
ORACLE_TOL = 1e-7


def fleet_durations(count: int) -> np.ndarray:
    """One |t - t'| per model, stratified over its law for uniform pairs.

    For (t, t') uniform on (-T, T)^2 the duration D has density
    2 (2T - D) / (2T)^2.  Model i gets the midpoint of stratum
    (FLEET_SCRAMBLE * i mod count) of ``count`` equal-probability strata, so
    durations cover the law, are not sorted by model size, and are the same
    for every seed: the cost of an op depends on D alone.
    """
    span = 2.0 * FLEET_T_MAX
    u = (FLEET_SCRAMBLE * np.arange(count) % count + 0.5) / count
    return span * (1.0 - np.sqrt(1.0 - u))


def fleet_dense(seed: int, size: str) -> list[Op]:
    """suite.dense_propagator once per fleet model, checked by the oracle.

    The seed places each pair uniformly inside (-T, T) and picks its
    orientation.
    """
    rng = np.random.default_rng(seed)
    models = suite.fleet(FLEET_SEED)
    for m in models:
        graded.certify(m.h_int)
    durations = fleet_durations(len(models))
    if size == "small":
        models = models[:FLEET_SMALL]
    ops = []
    for m, d in zip(models, durations):
        lo = rng.uniform(-FLEET_T_MAX, FLEET_T_MAX - d)
        t, t_prime = (lo + d, lo) if rng.uniform() < 0.5 else (lo, lo + d)
        ops.append(_dense_op(m, float(t), float(t_prime)))
    return ops


def _dense_op(model, t: float, t_prime: float) -> Op:
    h_free, h_int = model.h_free, model.h_int

    def run():
        return suite.dense_propagator(h_free, h_int, t, t_prime, SERIES_TOL_FLEET)

    def check(u):
        ref = oracles.oracle_propagator(h_free, h_int, t, t_prime)
        return [("oracle-propagator", float(np.linalg.norm(u - ref, 2)), ORACLE_TOL)]

    return Op(f"{model.name} t={t:+.4f} t'={t_prime:+.4f}", h_free.space.dim, 1, run, check)


def _stock_model():
    model = qed.build_model(qed.default_toy_config())
    graded.certify(model.h_int)
    return model


PAIRING_PAIRS = 50
PAIRING_SERIES_TOL = 1e-9


def qed_pairing(seed: int, size: str) -> list[Op]:
    """qed.eta_unitarity_check on the stock model; its four reports are the checks."""
    rng = np.random.default_rng(seed)
    model = _stock_model()
    op_seed = int(rng.integers(2**31))

    def run():
        return qed.eta_unitarity_check(
            model, pairs=PAIRING_PAIRS, series_tol=PAIRING_SERIES_TOL, seed=op_seed
        )

    def check(reports):
        return [(r.check_name, float(r.residual), float(r.tolerance)) for r in reports]

    return [Op(f"eta-unitarity seed={op_seed}", 2 * PAIRING_PAIRS, 4, run, check)]


TRAJECTORY_STATES = {"full": 4, "small": 1}
TRAJECTORY_STEPS = 200
TRAJECTORY_TOL = 1e-10


def qed_trajectory(seed: int, size: str) -> list[Op]:
    """The `dysonprop evolve` defaults on the stock model, checked by both oracles."""
    rng = np.random.default_rng(seed)
    model = _stock_model()
    h_free, h_int = model.h_free, model.h_int
    level = model.config.photon_cap - 2
    states = graded.vectors_supported_below(
        rng, model.space, level, TRAJECTORY_STATES[size]
    )
    # Lab frame: W(1) = e^{-i h_free} U(1, 0).
    free_1 = dyson.free_propagator(h_free, 1.0)
    w_ref = free_1 @ oracles.oracle_propagator(h_free, h_int, 1.0, 0.0)
    return [
        _trajectory_op(h_free, h_int, states[:, j], free_1, w_ref, j)
        for j in range(states.shape[1])
    ]


def _trajectory_op(h_free, h_int, xi, free_1, w_ref, j: int) -> Op:
    def run():
        return evolution.schrodinger_trajectory(
            h_free, h_int, xi, 1.0, TRAJECTORY_STEPS, TRAJECTORY_TOL
        )

    def check(traj):
        final = traj.states[-1][:, 0]
        ode = free_1 @ oracles.ode_oracle(h_free, h_int, xi, 1.0, 0.0)
        return [
            ("oracle-propagator", float(np.linalg.norm(final - w_ref @ xi)), ORACLE_TOL),
            ("ode-oracle", float(np.linalg.norm(final - ode)), ORACLE_TOL),
        ]

    return Op(f"trajectory state {j}", 1, 2, run, check)


# A second photon momentum, same |k| as the stock one: 2640 states.
LATTICE2_EXTRA_MOMENTUM = (-0.5, 1.0, -0.25)
LATTICE2_COLUMNS = 8
LATTICE2_TOL = 1e-9
DRIFT_TOL = 1e-6


def lattice2_config():
    base = qed.default_toy_config()
    return dataclasses.replace(
        base,
        momentum_points=base.momentum_points + (LATTICE2_EXTRA_MOMENTUM,),
        chi_ph=base.chi_ph + base.chi_ph,
    )


def qed_lattice2(seed: int, size: str) -> list[Op]:
    """Build, certify, grid and evolve the 2640-state model; check the eta pairing."""
    rng = np.random.default_rng(seed)
    config = lattice2_config()
    level = config.photon_cap - 2
    # One build tells the space the low-grade columns live in; every op
    # builds its own model again.
    space = qed.build_model(config).space
    cols = graded.vectors_supported_below(rng, space, level, LATTICE2_COLUMNS)

    def run():
        model = qed.build_model(config)
        graded.certify(model.h_int)
        grid = dyson.default_grid(
            model.h_free, model.h_int, 0.0, 1.0, support=level, tol=LATTICE2_TOL
        )
        result = dyson.evolve_block(model.h_free, model.h_int, cols, grid, LATTICE2_TOL)
        return model, result

    def check(out):
        model, result = out
        eta = np.real(np.diag(model.eta.matrix))
        phase = np.exp(-1j * np.real(np.diag(model.h_free.matrix)))
        w_cols = phase[:, None] * result.final()
        before = cols.conj().T @ (eta[:, None] * cols)
        after = w_cols.conj().T @ (eta[:, None] * w_cols)
        return [("eta-pairing-drift", float(np.abs(after - before).max()), DRIFT_TOL)]

    return [Op("lattice2 build+certify+evolve", LATTICE2_COLUMNS, 1, run, check)]


WORKLOADS = {
    "fleet-dense": fleet_dense,
    "qed-pairing": qed_pairing,
    "qed-trajectory": qed_trajectory,
    "qed-lattice2": qed_lattice2,
}
