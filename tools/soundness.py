"""Measure the certified tail against the exact propagator.

    python3 tools/soundness.py [OUT]    # default: SOUNDNESS.json

Runs every cell of a fixed corpus on one BLAS thread and writes one JSON
file: a machine block, the method, a summary per grid and tolerance, and
one record per cell.

Corpus:

* the 20 fleet models (``suite.fleet()``), identity block, at
  t in {0.25, 1, 2} and tol in {1e-6, 1e-10, 1e-13}, each on the default
  grid and on one panel of 4 nodes; the reference is ``oracle_propagator``;
* the README model (``random_graded_model(3, 12, 2)``, e_0, tol 1e-10,
  default grid) at t in {4, 8, 16, 32};
* trajectories (one ``evolution._sampled_run`` each, the run behind
  ``schrodinger_trajectory``): the fleet's identity blocks at the same
  times and tols, on 40 uniform steps and on the irregular times
  t * (0.1, 1/3, 1/sqrt 2, 0.9, 1); and the stock QED model (four seeded
  unit columns of photon grade <= cap - 2) at t = 1 with 200 steps and the
  same tols.  Each runs ``default_grid``'s panels, so most output times lie
  inside a panel;
* dense propagators: ``suite._step_power``, the route of
  ``dense_propagator``, on the 20 fleet models at U(t, 0) for the same
  times and tols; each cell keeps the composed ``bound`` in place of a
  tail.

Per cell: ``error`` is the spectral norm of the computed block minus the
oracle's (for one column, its 2-norm) and ``tail`` the largest column tail
(``SeriesResult.tail_bound``).  A run that raises ``TruncationError`` is
recorded as raised, with its tail.  A cell is ``floor`` when its error is
at most FLOOR_MULTIPLE * d * u * ||U||_2 (u the unit roundoff): the error
that rounding alone leaves in a d-state propagator of that norm.  Each cell
whose error exceeds its tail is run again on 4x the panels and 16 nodes
(``refined_error``): an error that stays put there is rounding, not
quadrature or truncation.  A trajectory cell compares the run's
interaction-picture sum at every output time (``output_sums``) with the
oracle's U(t, 0) applied to the block, as the other cells compare the
final sum, and keeps each time's error (``errors``); its ``error`` is the
largest, and its floor uses the largest ||U(t)||_2 times ||block||_2.
``edge_error`` and ``interior_error`` split that largest error between
output times on a panel edge and those inside a panel, and
``interior_outputs`` counts the latter.  Numbers are kept
to 4 significant digits, so a rerun on the same machine writes the same
file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads its BLAS
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dysonprop.dyson import (  # noqa: E402
    DEFAULT_MAX_ORDER,
    TimeGrid,
    default_grid,
    evolve_block,
)
from dysonprop.errors import TruncationError  # noqa: E402
from dysonprop.evolution import _sampled_run, uniform_times  # noqa: E402
from dysonprop.graded import support_level, vectors_supported_below  # noqa: E402
from dysonprop.oracles import oracle_propagator  # noqa: E402
from dysonprop.qed import build_model, default_toy_config  # noqa: E402
from dysonprop.suite import _step_power, fleet, random_graded_model  # noqa: E402

FLEET_TIMES = (0.25, 1.0, 2.0)
TOLS = (1e-6, 1e-10, 1e-13)
COARSE = (1, 4)  # panels, nodes per panel
README_TIMES = (4.0, 8.0, 16.0, 32.0)
README_TOL = 1e-10
UNIT_ROUNDOFF = 2.0 ** -53
# A few units of d * u * ||U||: rounding in d-term products summed over the
# series' orders.  The fleet's default-grid cells whose error exceeds their
# tail read 0.45-1.99 units, and their refined-grid errors agree within 0.3 %.
FLOOR_MULTIPLE = 4.0
FLEET_STEPS = 40
# Output times of the irregular cells, as fractions of t.
IRREGULAR = (0.1, 1.0 / 3.0, 2.0 ** -0.5, 0.9, 1.0)
QED_STEPS = 200
QED_TIME = 1.0
QED_COLUMNS = 4
QED_SEED = 29


def cell(model, t: float, tol: float, block=None, grid=None) -> dict:
    """One run against the oracle: its error, tail and grid as a record.

    ``block`` defaults to the identity and ``grid`` to the default grid for
    the block's highest support.
    """
    h_free, h_int = model.h_free, model.h_int
    space = h_free.space
    block = np.eye(space.dim, dtype=complex) if block is None else block
    if grid is None:
        support = float(support_level(space, block).max())
        grid = default_grid(h_free, h_int, 0.0, t, support=support, tol=tol)
    record = {"model": model.name, "t": t, "tol": tol, "panels": grid.panels,
              "nodes": grid.nodes_per_panel}
    try:
        res = evolve_block(h_free, h_int, block, grid, tol)
    except TruncationError as exc:
        return {**record, "raised": True, "tail": exc.tail_bound}
    exact = oracle_propagator(h_free, h_int, t, 0.0)
    error = float(np.linalg.norm(res.final() - exact @ block, 2))
    floor = FLOOR_MULTIPLE * space.dim * UNIT_ROUNDOFF * np.linalg.norm(exact, 2)
    return {
        **record, "raised": False, "order": res.achieved_order,
        "error": error, "tail": res.tail_bound, "error_over_tol": error / tol,
        "error_over_tail": error / res.tail_bound, "floor": bool(error <= floor),
    }


def dense_cell(model, t: float, tol: float) -> dict:
    """``_step_power`` at U(t, 0) against the oracle: its error and composed
    bound as a record."""
    record = {"model": model.name, "t": t, "tol": tol}
    try:
        u, bound = _step_power(model.h_free, model.h_int, t, 0.0, tol)
    except TruncationError as exc:
        return {**record, "raised": True, "bound": exc.tail_bound}
    exact = oracle_propagator(model.h_free, model.h_int, t, 0.0)
    error = float(np.linalg.norm(u - exact, 2))
    floor = FLOOR_MULTIPLE * model.h_free.dim * UNIT_ROUNDOFF * np.linalg.norm(exact, 2)
    return {
        **record, "raised": False, "error": error, "bound": bound,
        "error_over_tol": error / tol, "error_over_bound": error / bound,
        "floor": bool(error <= floor),
    }


def references(model, times, block) -> tuple[list, float]:
    """The oracle's U(t, 0) block at each of ``times``, and the largest
    ||U(t, 0)||_2 among them."""
    refs, u_norm = [], 0.0
    for t in times:
        exact = oracle_propagator(model.h_free, model.h_int, float(t), 0.0)
        refs.append(exact @ block)
        u_norm = max(u_norm, float(np.linalg.norm(exact, 2)))
    return refs, u_norm


def trajectory_cell(model, times, tol: float, block, refs, u_norm) -> dict:
    """One run sampled at ``times`` against the oracle's ``refs``: every
    output time's error.

    ``refs`` and ``u_norm`` are ``references`` of the same times; the record
    leaves the model's name to the caller.
    """
    traj = _sampled_run(model.h_free, model.h_int, block, times, tol, DEFAULT_MAX_ORDER)
    grid = traj.grid
    errors = [float(np.linalg.norm(got - ref, 2))
              for got, ref in zip(traj.series.output_sums, refs)]
    # A time inside a panel sits a non-integer number of panels from 0.
    inside = (traj.times / grid.t_end * grid.panels) % 1 != 0
    edge = [e for e, i in zip(errors, inside) if not i]
    interior = [e for e, i in zip(errors, inside) if i]
    floor = (FLOOR_MULTIPLE * model.h_free.dim * UNIT_ROUNDOFF * u_norm
             * np.linalg.norm(block, 2))
    error = max(errors)
    return {
        "t": float(grid.t_end), "tol": tol, "outputs": len(errors), "panels": grid.panels,
        "interior_outputs": len(interior), "raised": False, "order": traj.achieved_order,
        "tail": traj.tail_bound, "error": error, "error_over_tol": error / tol,
        "error_over_tail": error / traj.tail_bound, "floor": bool(error <= floor),
        "edge_error": max(edge, default=None), "interior_error": max(interior, default=None),
        "errors": errors,
    }


def trajectory_sections() -> dict[str, list[dict]]:
    sections: dict[str, list[dict]] = {}
    for model in fleet():
        eye = np.eye(model.h_free.dim, dtype=complex)
        for t in FLEET_TIMES:
            for kind, times in (("", uniform_times(t, FLEET_STEPS)),
                                (" irregular", t * np.array(IRREGULAR))):
                refs = references(model, times, eye)
                for tol in TOLS:
                    rec = trajectory_cell(model, times, tol, eye, *refs)
                    sections.setdefault(f"trajectory{kind} tol={tol:g}", []).append(
                        {"model": model.name, **rec})
    qed = build_model(default_toy_config())
    rng = np.random.default_rng(QED_SEED)
    cols = vectors_supported_below(rng, qed.space, qed.config.photon_cap - 2, QED_COLUMNS)
    times = uniform_times(QED_TIME, QED_STEPS)
    refs = references(qed, times, cols)
    sections["trajectory qed"] = [
        {"model": "qed-default", **trajectory_cell(qed, times, tol, cols, *refs)}
        for tol in TOLS
    ]
    return sections


def summary(cells: list[dict]) -> dict:
    done = [c for c in cells if not c["raised"]]
    bound = "bound" if "bound" in cells[0] else "tail"  # what the cells certify
    over_bound = [c for c in done if c[f"error_over_{bound}"] > 1.0]
    over_tol = [c for c in done if c["error_over_tol"] > 1.0]
    row = {
        "cells": len(cells),
        "raised": len(cells) - len(done),
        "worst_error_over_tol": max(c["error_over_tol"] for c in done),
        f"median_{bound}_over_error": statistics.median(c[bound] / c["error"] for c in done),
        "error_over_tol_gt_1": len(over_tol),
        "error_over_tol_gt_1_not_floor": sum(not c["floor"] for c in over_tol),
        f"error_over_{bound}_gt_1": len(over_bound),
        f"error_over_{bound}_gt_1_not_floor": sum(not c["floor"] for c in over_bound),
    }
    if "errors" in done[0]:
        for kind in ("edge", "interior"):
            row[f"worst_{kind}_error_over_tol"] = max(
                (c[f"{kind}_error"] / c["tol"] for c in done
                 if c[f"{kind}_error"] is not None), default=None)
    return row


def run_corpus() -> dict:
    sections: dict[str, list[dict]] = {}
    for model in fleet():
        for tol in TOLS:
            for t in FLEET_TIMES:
                coarse = TimeGrid(0.0, t, *COARSE)
                for name, grid in (("default", None), ("coarse", coarse)):
                    rec = cell(model, t, tol, grid=grid)
                    if not rec["raised"] and rec["error_over_tail"] > 1.0:
                        fine = TimeGrid(0.0, t, 4 * rec["panels"], 16)
                        rec["refined_error"] = cell(model, t, tol, grid=fine)["error"]
                    sections.setdefault(f"{name} tol={tol:g}", []).append(rec)
    readme = random_graded_model(3, 12, 2, name="readme")
    xi = np.zeros((12, 1), dtype=complex)
    xi[0] = 1.0
    sections["readme"] = [cell(readme, t, README_TOL, block=xi) for t in README_TIMES]
    models = fleet()
    dense = {f"dense tol={tol:g}": [dense_cell(m, t, tol) for m in models for t in FLEET_TIMES]
             for tol in TOLS}
    return {**sections, **trajectory_sections(), **dense}


def machine_block() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _rounded(obj):
    """``obj`` with every float kept to 4 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.4g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else ROOT / "SOUNDNESS.json"
    sections = run_corpus()
    doc = {
        "machine": machine_block(),
        "method": {
            "floor": "error <= FLOOR_MULTIPLE * d * u * ||U||_2",
            "floor_multiple": FLOOR_MULTIPLE,
            "unit_roundoff": UNIT_ROUNDOFF,
            "coarse_grid": {"panels": COARSE[0], "nodes_per_panel": COARSE[1]},
            "trajectory_steps": {"fleet": FLEET_STEPS, "qed": QED_STEPS},
            "irregular_fractions": list(IRREGULAR),
        },
        "summary": {name: summary(cells) for name, cells in sections.items()},
        "cells": sections,
    }
    out.write_text(json.dumps(_rounded(doc), indent=1) + "\n")
    for name, row in doc["summary"].items():
        print(name, _rounded(row))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
