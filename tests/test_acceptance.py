"""Acceptance gate: ten numbered criteria, one verdict line each.

Each test prints exactly one PASS/FAIL line (visible with -s or on failure)
and asserts the criterion with the tolerances pinned below.  Expensive
inputs (the twenty-model fleet runs) are shared through module fixtures so
the whole gate stays within a small wall-clock budget.
"""

import json
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dysonprop.cli import main as cli_main
from dysonprop.evolution import (
    heisenberg_residuals,
    heisenberg_track,
    schrodinger_trajectory,
    strong_split_residual,
)
from dysonprop.graded import LinOp, certify
from dysonprop.oracles import matrix_exp
from dysonprop.qed import eta_unitarity_check, structure_reports
from dysonprop.suite import (
    appendix_convergence,
    dense_propagator,
    identity_suite,
    oracle_reports,
)

SEED = 2026


def verdict(number: int, passed: bool, detail: str) -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {tag}: {detail}")
    assert passed, f"criterion {number:02d}: {detail}"


@pytest.fixture(scope="module")
def oracle_bundle(fleet_models):
    """Series-vs-oracle reports for every fleet model, with wall time."""
    start = time.perf_counter()
    bundle = {
        m.name: oracle_reports(m, times=(0.25, 0.5, 1.0), tol=1e-7,
                               series_tol=1e-10, seed=SEED + 31 * i + 7)
        for i, m in enumerate(fleet_models)
    }
    return time.perf_counter() - start, bundle


@pytest.fixture(scope="module")
def identity_bundle(fleet_models):
    """Composition-law reports (10 tuples, 20 pairs) for every fleet model."""
    return {
        m.name: identity_suite(
            m.h_free, m.h_int, tuples=10, pairs=20, tol=1e-7,
            duality_tol=1e-9, seed=SEED + 31 * i, series_tol=1e-10,
            model_name=m.name,
        )
        for i, m in enumerate(fleet_models)
    }


def pick(reports, name):
    found = [r for r in reports if r.check_name == name]
    assert len(found) == 1, f"expected exactly one {name!r} report"
    return found[0]


def test_criterion_01_oracle_agreement_across_fleet(fleet_models, oracle_bundle):
    """Twenty models, dims 4..64, shifts 1..3: series propagator within
    1e-7 of the exponential oracle at t in {0.25, 0.5, 1.0}, under 30 s."""
    elapsed, bundle = oracle_bundle
    dims = sorted(m.h_free.space.dim for m in fleet_models)
    assert len(fleet_models) == 20
    assert dims[0] == 4 and dims[-1] == 64
    assert {m.grade_shift for m in fleet_models} == {1, 2, 3}
    worst = max(
        pick(reports, "oracle-propagator-agreement").residual
        for reports in bundle.values()
    )
    ok = worst <= 1e-7 and elapsed < 30.0
    verdict(1, ok, f"worst deviation {worst:.3e} over 20 models in "
                   f"{elapsed:.1f}s (limits 1e-7, 30s)")


def test_criterion_02_per_order_bounds_hold(oracle_bundle):
    """Every computed order obeys its a-priori bound within 1 + 1e-6."""
    _, bundle = oracle_bundle
    violations = sum(
        0 if pick(reports, "order-bound-compliance").residual <= 1e-6 else 1
        for reports in bundle.values()
    )
    worst = max(
        pick(reports, "order-bound-compliance").residual
        for reports in bundle.values()
    )
    verdict(2, violations == 0,
            f"{violations} bound violations, worst relative excess {worst:.3e}")


def test_criterion_03_composition_laws(identity_bundle):
    """Cocycle, translation covariance and group inverse within 1e-7 on
    ten random time tuples per model."""
    worst = 0.0
    for reports in identity_bundle.values():
        for name in ("cocycle", "translation-covariance", "group-inverse"):
            worst = max(worst, pick(reports, name).residual)
    verdict(3, worst <= 1e-7, f"worst composition residual {worst:.3e}")


def test_criterion_04_hermitian_interactions_give_unitaries(fleet_models):
    """With the interaction forced Hermitian the propagator is unitary to
    1e-8 in spectral norm at t = 1."""
    worst = 0.0
    for model in fleet_models:
        m = model.h_int.matrix
        herm = LinOp(model.h_int.space, 0.5 * (m + m.conj().T))
        u = dense_propagator(model.h_free, herm, 1.0, 0.0, tol=1e-10)
        eye = np.eye(u.shape[0])
        worst = max(worst, float(np.linalg.norm(u.conj().T @ u - eye, 2)))
    verdict(4, worst <= 1e-8, f"worst unitarity defect {worst:.3e}")


def test_criterion_05_adjoint_duality(identity_bundle):
    """<U* eta, xi> equals <eta, U xi> to 1e-9 over 20 random pairs/model."""
    worst = max(
        pick(reports, "adjoint-duality").residual
        for reports in identity_bundle.values()
    )
    verdict(5, worst <= 1e-9, f"worst duality residual {worst:.3e}")


def test_criterion_06_residual_order_and_split_form(small_model):
    """Halving the step from 1e-3 to 5e-4 divides the Schrodinger and the
    strong Heisenberg residuals by 4 within 20 percent; the split form of
    the Heisenberg derivative matches the commutator form to 1e-8."""
    h_free, h_int = small_model.h_free, small_model.h_int
    rng = np.random.default_rng(SEED)
    xi = rng.normal(size=8) + 1j * rng.normal(size=8)
    xi /= np.linalg.norm(xi)

    t_end = 0.05
    coarse = schrodinger_trajectory(h_free, h_int, xi, t_end, 50, tol=1e-13)
    fine = schrodinger_trajectory(h_free, h_int, xi, t_end, 100, tol=1e-13)
    schro_ratio = float(np.nanmax(coarse.residuals) / np.nanmax(fine.residuals))

    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    obs = LinOp(h_free.space, b)
    h_total = h_free + h_int
    track_c = heisenberg_track(h_free, h_int, obs, t_end, 50, tol=1e-13)
    track_f = heisenberg_track(h_free, h_int, obs, t_end, 100, tol=1e-13)
    heis_ratio = float(
        heisenberg_residuals(track_c, h_total)[0].max()
        / heisenberg_residuals(track_f, h_total)[0].max()
    )

    split = strong_split_residual(h_free, h_int, obs, xi, t=0.5, substeps=10,
                                  tol=1e-12)
    ok = (
        3.2 <= schro_ratio <= 4.8
        and 3.2 <= heis_ratio <= 4.8
        and split.commutator_residual <= 1e-8
    )
    verdict(6, ok,
            f"residual ratios {schro_ratio:.3f} / {heis_ratio:.3f} "
            f"(window [3.2, 4.8]), split-vs-commutator "
            f"{split.commutator_residual:.3e} (limit 1e-8)")


def test_criterion_07_model_structure(toy_model):
    """Stock model: grade shift exactly one, metric symmetry of the
    interaction to 1e-12, exact gamma and fermion algebra, spinor
    completeness to 1e-12, polarization completeness to 1e-14, photon
    commutators below the cap to 1e-14."""
    reports = structure_reports(toy_model, seed=23)
    limits = {
        "interaction-grade-shift": 0.0,
        "interaction-metric-symmetry": 1e-12,
        "gamma-anticommutators": 0.0,
        "fermion-anticommutators": 0.0,
        "spinor-completeness": 1e-12,
        "polarization-completeness": 1e-14,
        "photon-field-commutators": 1e-14,
    }
    worst_name, ok = "", True
    for name, limit in limits.items():
        r = pick(reports, name)
        if r.residual > limit:
            ok = False
            worst_name = f"{name} at {r.residual:.3e} (limit {limit:g})"
    extra_failures = [r.check_name for r in reports if not r.passed]
    ok = ok and not extra_failures
    verdict(7, ok, worst_name or
            f"all {len(limits)} structural identities within their limits")


def test_criterion_08_metric_pairing_drift(toy_model):
    """Indefinite pairing preserved to 1e-6 over 50 pairs up to t = 1, with
    top-sector leakage below 1e-6."""
    reports = eta_unitarity_check(
        toy_model, times=(0.25, 0.5, 0.75, 1.0), pairs=50, tol=1e-6,
        series_tol=1e-9, seed=7,
    )
    drift = pick(reports, "eta-pairing-drift")
    leak = pick(reports, "top-sector-leakage")
    ok = drift.residual <= 1e-6 and leak.residual <= 1e-6
    verdict(8, ok, f"pairing drift {drift.residual:.3e}, top-sector leakage "
                   f"{leak.residual:.3e} (limits 1e-6)")


def test_criterion_09_weighted_convergence(toy_model):
    """Weighted sup-norm distances of the partial sums decrease strictly
    beyond the onset for alpha in {0, 1, 2} and stay within 1.001 of the
    certified tails."""
    vacuum = toy_model.basis.vacuum()
    table = appendix_convergence(
        toy_model.h_free, toy_model.h_int, vacuum, alphas=(0.0, 1.0, 2.0),
        n_max=6, t_end=1.0,
    )
    strict = True
    onsets = []
    for a in range(3):
        onset = table.onset(a)
        onsets.append(onset)
        col = table.norms[onset:, a]
        strict = strict and bool(np.all(np.diff(col) < 0.0))
    dominated, worst_ratio = table.dominated()
    ok = strict and dominated and max(onsets) <= 3
    verdict(9, ok, f"onsets {onsets}, strictly decreasing beyond onset: "
                   f"{strict}, worst norm/tail ratio {worst_ratio:.4f} "
                   f"(limit 1.001)")


def test_criterion_10_byte_identical_artifacts(tmp_path):
    """Identical config and seed produce byte-identical JSON (and XML)."""
    cfg = {"command": "verify", "count": 2, "tuples": 2, "seed": 11}
    blobs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        conf = dict(cfg, out_dir=str(out))
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(conf))
        assert cli_main(["verify", str(path)]) == 0
        blobs.append(
            {
                "json": (out / "verify.json").read_bytes(),
                "xml": (out / "verify.xml").read_bytes(),
            }
        )
    identical = blobs[0] == blobs[1]
    root = ET.fromstring(blobs[0]["xml"].decode())
    ok = identical and root.get("failures") == "0"
    verdict(10, ok, "verify.json and verify.xml byte-identical across reruns"
            if identical else "artifact bytes differ between identical runs")
