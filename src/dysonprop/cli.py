"""Batch front door: run evolutions, verification suites, and model demos.

Usage:

    dysonprop evolve CONFIG.json [--tol X] [--t-end T] [--out DIR]
    dysonprop heisenberg CONFIG.json [...]
    dysonprop verify [CONFIG.json] [...]
    dysonprop qed-demo [CONFIG.json] [...]
    dysonprop convergence [CONFIG.json] [...]

The config is a single JSON object.  Recognised fields by command, as in
the ``_FIELDS`` table (unknown fields are rejected so typos fail loudly, and
a flag for a field the command does not take is rejected the same way):

    all:          command, out_dir
    evolve:       tol, model*, t_end, steps, max_order, initial_state
    heisenberg:   tol, seed, model*, observable*, t_end, steps, max_order, pairs
    verify:       tol, seed, count, tuples, series_tol
    qed-demo:     tol, seed, model, t_end, steps, pairs, series_tol
    convergence:  model, t_end, n_max, alphas, initial_state

Starred fields are required.  ``model`` is one of: the string
"qed-default"; a path to a JSON file holding a model document; an object
{"qed": {...}} with a photon/electron lattice config, whose fields are
checked like top-level fields (an unknown key or a bad value exits 2); or
an object {"h_free": {...}, "h_int": {...}} with two dense operators in the
{"dim", "grades", "matrix"} wire format.  ``initial_state`` is either
{"basis_index": n} or an explicit vector [[re, im], ...].

Every command writes ``<stem>.json`` and the JUnit report ``<stem>.xml``
(the stem is the command name with "-" replaced by "_") plus its CSV
tables, which are trajectory.csv and orders.csv for evolve, and
heisenberg.csv, qed_demo.csv and convergence.csv.  The pipelines only
compute; ``run`` writes every file, and a run that exits 2, 3 or 4 writes
none.

Exit status: 0 all checks passed and no truncation, 1 a check failed,
2 config/schema problem, 3 violated model assumption, 4 certified tail
above tolerance.  Every artifact embeds the digest of the fully resolved
config and the library version, and the JSON artifacts carry the resolved
config itself under "config" (with file-based models inlined); identical
config and seed give byte-identical JSON.  ``out_dir`` is deliberately
excluded from the resolved config, so redirecting output does not change
the digest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dyson import default_grid, evolve_block
from .errors import AssumptionViolation, TruncationError
from .evolution import (
    heisenberg_pairing_track,
    heisenberg_residuals,
    heisenberg_track,
    schrodinger_trajectory,
    weak_residual,
)
from .graded import (
    LinOp,
    random_vector,
    support_level,
    vectors_supported_below,
)
from .oracles import Report, oracle_propagator
from .qed import (
    QedConfig,
    build_model,
    default_toy_config,
    eta_unitarity_check,
    fock_basis,
    structure_reports,
)
from .reporting import (
    config_digest,
    convergence_rows,
    reports_document,
    series_order_rows,
    summary_lines,
    trajectory_rows,
    write_csv,
    write_json,
    write_junit,
)
from .suite import TAIL_SLACK, appendix_convergence, fleet, fleet_verification

DENSE_TRACK_LIMIT = 128
RESIDUAL_RATIO_SLACK = 1.2  # |ratio - 4| allowed for the h -> h/2 order check


class ConfigError(Exception):
    """Config document rejected; the message carries field or line info."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; ``doc`` is what the digest covers.

    ``cfg[field]`` reads a resolved field from ``doc``, so every value a
    pipeline reads is digested.
    """

    command: str
    model_kind: str | None      # "pair" | "qed" | None
    model_payload: object       # (h_free, h_int) or QedConfig or None
    out_dir: Path
    doc: dict
    digest: str

    def __getitem__(self, field: str):
        return self.doc[field]


# Each command's fields and their defaults, listed as in the module
# docstring; None marks a required field.  Every command also takes
# ``command`` and ``out_dir``, which stay out of this table.
_FIELDS = {
    "evolve": {"tol": 1e-10, "model": None, "t_end": 1.0, "steps": 200,
               "max_order": 64, "initial_state": {"basis_index": 0}},
    "heisenberg": {"tol": 1e-10, "seed": 2026, "model": None,
                   "observable": None, "t_end": 1.0, "steps": 200,
                   "max_order": 64, "pairs": 20},
    "verify": {"tol": 1e-7, "seed": 2026, "count": 20, "tuples": 10,
               "series_tol": 1e-10},
    "qed-demo": {"tol": 1e-6, "seed": 2026, "model": "qed-default",
                 "t_end": 1.0, "steps": 64, "pairs": 50, "series_tol": 1e-9},
    "convergence": {"model": {"qed": dataclasses.replace(default_toy_config(),
                                                         coupling=4.0).to_json()},
                    "t_end": 1.0, "n_max": 12, "alphas": [0.0, 1.0, 2.0],
                    "initial_state": {"basis_index": 0}},
}


def _load_config_file(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid JSON at line {err.lineno} column {err.colno}: "
            f"{err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    return doc


def _is_number(value) -> bool:
    """A JSON number that is finite as a float: bools, NaN, the infinities
    and integers beyond the float range are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _float(field: str, value) -> float:
    if not _is_number(value):
        raise ConfigError(f"field '{field}': expected a finite number, got {value!r}")
    return float(value)


def _positive(field: str, value) -> float:
    value = _float(field, value)
    if value <= 0.0:
        raise ConfigError(f"field '{field}': must be positive, got {value!r}")
    return value


def _nonzero(field: str, value) -> float:
    value = _float(field, value)
    if value == 0.0:
        raise ConfigError(f"field '{field}': must be non-zero")
    return value


def _integer(minimum: int):
    def parse(field: str, value) -> int:
        _float(field, value)
        if int(value) != value:
            raise ConfigError(f"field '{field}': expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"field '{field}': must be >= {minimum}, got {value!r}")
        return int(value)
    return parse


def _alphas(field: str, value) -> list[float]:
    if (not isinstance(value, list) or not value
            or any(not _is_number(a) or a < 0 for a in value)):
        raise ConfigError(
            f"field '{field}': expected a non-empty list of finite non-negative "
            "numbers"
        )
    return [float(a) for a in value]


def _resolve_model(doc, base_dir: Path, depth: int = 0):
    """Return (kind, payload, inline_doc) for a model document.

    The inline form is what enters the digest, so a model loaded from a
    separate file is digested by content, not by path.
    """
    if isinstance(doc, str):
        if doc == "qed-default":
            cfg = default_toy_config()
            return "qed", cfg, {"qed": cfg.to_json()}
        if depth > 0:
            raise ConfigError("field 'model': nested file indirection is not allowed")
        path = base_dir / doc
        if not path.exists():
            raise ConfigError(f"field 'model': referenced path {doc} does not exist")
        return _resolve_model(_load_config_file(path), path.parent, depth + 1)
    if isinstance(doc, dict) and "qed" in doc:
        extra = sorted(set(doc) - {"qed"})
        if extra:
            raise ConfigError(f"field 'model': unknown keys next to 'qed': {extra}")
        try:
            cfg = QedConfig.from_json(doc["qed"])
        except (ValueError, TypeError, KeyError) as err:
            raise ConfigError(f"field 'model.qed': {err}") from err
        return "qed", cfg, {"qed": cfg.to_json()}
    if isinstance(doc, dict) and "h_free" in doc and "h_int" in doc:
        extra = sorted(set(doc) - {"h_free", "h_int"})
        if extra:
            raise ConfigError(f"field 'model': unknown keys: {extra}")
        try:
            h_free = LinOp.from_json(doc["h_free"])
        except (ValueError, TypeError, KeyError) as err:
            raise ConfigError(f"field 'model.h_free': {err}") from err
        try:
            h_int = LinOp.from_json(doc["h_int"])
        except (ValueError, TypeError, KeyError) as err:
            raise ConfigError(f"field 'model.h_int': {err}") from err
        try:
            h_free._same_space(h_int)
        except ValueError as err:
            raise ConfigError(f"field 'model': {err}") from err
        return "pair", (h_free, h_int), {"h_free": h_free.to_json(),
                                         "h_int": h_int.to_json()}
    raise ConfigError(
        "field 'model': expected 'qed-default', a file path, {'qed': ...}, "
        "or {'h_free': ..., 'h_int': ...}"
    )


def _initial_state(field: str, doc):
    if isinstance(doc, dict):
        extra = sorted(set(doc) - {"basis_index"})
        if extra:
            raise ConfigError(f"field 'initial_state': unknown keys: {extra}")
        idx = doc.get("basis_index")
        if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
            raise ConfigError(
                "field 'initial_state.basis_index': expected a non-negative integer"
            )
        return {"basis_index": idx}
    if isinstance(doc, list):
        out = []
        for k, pair in enumerate(doc):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(_is_number(v) for v in pair)):
                raise ConfigError(
                    f"field 'initial_state[{k}]': expected [re, im] of finite numbers"
                )
            out.append([float(pair[0]), float(pair[1])])
        if not out:
            raise ConfigError("field 'initial_state': empty vector")
        return out
    raise ConfigError(
        "field 'initial_state': expected {'basis_index': n} or [[re, im], ...]"
    )


def _observable(field: str, doc) -> dict:
    try:
        return LinOp.from_json(doc).to_json()
    except (ValueError, TypeError, KeyError) as err:
        raise ConfigError(f"field '{field}': {err}") from err


_PARSERS = {
    "tol": _positive, "series_tol": _positive, "t_end": _nonzero,
    "seed": _integer(0), "steps": _integer(4), "max_order": _integer(1),
    "pairs": _integer(1), "tuples": _integer(1), "count": _integer(1),
    "n_max": _integer(2), "alphas": _alphas, "initial_state": _initial_state,
    "observable": _observable,
}


def assemble(command: str, doc: dict, base_dir: Path, overrides: dict) -> RunConfig:
    """Validate one config document and freeze the effective run description.

    Flag overrides join the document first, so a flag for a field the
    command does not take is rejected like the same field in the file.
    """
    if command not in _FIELDS:
        raise ConfigError(f"unknown command {command!r}")
    doc = dict(doc)
    declared = doc.pop("command", command)
    if declared != command:
        raise ConfigError(
            f"field 'command': config says {declared!r} but the subcommand "
            f"is {command!r}"
        )
    doc.update((key, value) for key, value in overrides.items() if value is not None)
    # out_dir identifies where files land, not what is computed, so it stays
    # out of the digested document: redirecting output keeps the digest.
    out_dir = doc.pop("out_dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("field 'out_dir': expected a string path")
    fields = _FIELDS[command]
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(
            f"unknown field(s) for {command}: {', '.join(unknown)}"
        )

    effective = {"command": command}
    model_kind = model_payload = None
    for field, default in fields.items():
        if field not in doc and default is None:
            raise ConfigError(f"field '{field}': required for {command}")
        value = doc.get(field, default)
        if field == "model":
            model_kind, model_payload, value = _resolve_model(value, base_dir)
        else:
            value = _PARSERS[field](field, value)
        effective[field] = value

    if command == "heisenberg" and effective["steps"] % 2 != 0:
        raise ConfigError(
            "field 'steps': the step-halving residual check needs an even count"
        )
    if command == "qed-demo" and model_kind != "qed":
        raise ConfigError("field 'model': qed-demo needs a photon/electron model")
    return RunConfig(
        command=command,
        model_kind=model_kind,
        model_payload=model_payload,
        out_dir=Path(out_dir),
        doc=effective,
        digest=config_digest(effective),
    )


def _model_operators(cfg: RunConfig):
    if cfg.model_kind == "pair":
        return cfg.model_payload
    model = build_model(cfg.model_payload)
    return model.h_free, model.h_int


def _initial_vector(cfg: RunConfig, dim: int) -> np.ndarray:
    state = cfg["initial_state"]
    if isinstance(state, dict):
        idx = state["basis_index"]
        if idx >= dim:
            raise ConfigError(
                f"field 'initial_state.basis_index': {idx} out of range for "
                f"dimension {dim}"
            )
        vec = np.zeros(dim, dtype=complex)
        vec[idx] = 1.0
        return vec
    if len(state) != dim:
        raise ConfigError(
            f"field 'initial_state': length {len(state)} does not match "
            f"dimension {dim}"
        )
    return np.array([complex(re, im) for re, im in state])


def _difference_floor(h_norm: float, scale: float) -> float:
    return 1e-12 * (1.0 + h_norm * scale)


def _ratio_report(name: str, fine: float, coarse: float, floor: float,
                  context: dict) -> Report:
    """Grade the h -> h/2 central-difference decay against the exact 4."""
    ctx = dict(context)
    ctx.update(fine_residual=fine, coarse_residual=coarse, floor=floor)
    if fine <= floor:
        ctx["note"] = "residuals at the rounding floor; order check vacuous"
        return Report(name, 0.0, RESIDUAL_RATIO_SLACK, ctx)
    ratio = coarse / fine
    ctx["ratio"] = ratio
    return Report(name, abs(ratio - 4.0), RESIDUAL_RATIO_SLACK, ctx)


# -- command pipelines --------------------------------------------------------

# Each pipeline returns its reports, its extra top-level JSON fields and its
# CSV tables (file name -> (header, rows)); ``run`` writes them all.
_Outputs = tuple[list[Report], dict, dict]


def _run_evolve(cfg: RunConfig) -> _Outputs:
    h_free, h_int = _model_operators(cfg)
    xi = _initial_vector(cfg, h_free.space.dim)
    t_end, steps = cfg["t_end"], cfg["steps"]
    traj = schrodinger_trajectory(h_free, h_int, xi, t_end, steps, cfg["tol"],
                                  max_order=cfg["max_order"])
    series = traj.series

    dt = abs(t_end) / steps
    h_norm = (h_free + h_int).norm2()
    defect = float(np.nanmax(traj.residuals))
    defect_tol = max(1e-9, 50.0 * dt * dt * (h_norm ** 3) / 6.0
                     * float(np.linalg.norm(xi)))
    reports = [Report(
        "schrodinger-defect-scale", defect, defect_tol,
        {"dt": dt, "h_norm": h_norm},
    )]

    sups = series.per_order_sup_norms.max(axis=1)
    final_u = series.boundary_sums[-1][:, 0]
    final_state = traj.states[-1][:, 0]
    fields = {
        "t_end": t_end,
        "steps": steps,
        "series": {
            "achieved_order": series.achieved_order,
            "tail_bound": series.tail_bound,
            "per_order_sup_norms": [float(x) for x in sups],
            "result": [[float(z.real), float(z.imag)] for z in final_u],
        },
        "final_state": [[float(z.real), float(z.imag)] for z in final_state],
    }
    tables = {
        "trajectory.csv": (["time", "norm", "residual"], trajectory_rows(traj)),
        "orders.csv": (["order", "sup_norm", "apriori_bound"],
                       series_order_rows(series)),
    }
    return reports, fields, tables


def _run_heisenberg(cfg: RunConfig) -> _Outputs:
    # The limit is checked on the basis alone, before any operator is built.
    dim = (cfg.model_payload[0].space.dim if cfg.model_kind == "pair"
           else fock_basis(cfg.model_payload).dim)
    if dim > DENSE_TRACK_LIMIT:
        raise ConfigError(
            f"field 'model': dimension {dim} exceeds the dense Heisenberg-track "
            f"limit {DENSE_TRACK_LIMIT}"
        )
    h_free, h_int = _model_operators(cfg)
    observable = LinOp.from_json(cfg["observable"])
    try:
        h_free._same_space(observable)
    except ValueError as err:
        raise ConfigError(f"field 'observable': {err}") from err

    track = heisenberg_track(h_free, h_int, observable, cfg["t_end"],
                             cfg["steps"], cfg["tol"], max_order=cfg["max_order"])
    h_total = h_free + h_int
    strong, weak = heisenberg_residuals(track, h_total, pairs=cfg["pairs"],
                                        seed=cfg["seed"])
    strong_coarse, _ = heisenberg_residuals(track, h_total, stride=2)

    b_norm = observable.norm2()
    floor = _difference_floor(h_total.norm2(), b_norm)
    init_defect = float(np.linalg.norm(track.states[0] - observable.matrix, 2))
    reports = [
        Report("heisenberg-initial-value", init_defect, floor, {}),
        _ratio_report(
            "heisenberg-residual-order", float(strong.max()),
            float(strong_coarse.max()), floor,
            {"dt": float(track.times[1] - track.times[0])},
        ),
    ]

    rows = []
    for k, t in enumerate(track.times):
        res = strong[k - 1] if 0 < k < len(track.times) - 1 else None
        rows.append((float(t), float(np.linalg.norm(track.states[k], 2)), res))
    fields = {
        "t_end": cfg["t_end"],
        "steps": cfg["steps"],
        "achieved_order": track.achieved_order,
        "tail_bound": track.tail_bound,
        "max_strong_residual": float(strong.max()),
        "max_weak_residual": float(weak.max()),
    }
    tables = {"heisenberg.csv": (["time", "observable_norm", "strong_residual"],
                                 rows)}
    return reports, fields, tables


def _run_verify(cfg: RunConfig) -> _Outputs:
    models = fleet(seed=cfg["seed"], count=cfg["count"])
    reports = fleet_verification(models, seed=cfg["seed"], tuples=cfg["tuples"],
                                 tol=cfg["tol"], series_tol=cfg["series_tol"])
    return reports, {}, {}


def _run_qed_demo(cfg: RunConfig) -> _Outputs:
    model = build_model(cfg.model_payload)
    seed, series_tol, t_end = cfg["seed"], cfg["series_tol"], cfg["t_end"]
    reports = structure_reports(model, seed=seed)
    reports.extend(eta_unitarity_check(
        model, pairs=cfg["pairs"], tol=cfg["tol"], series_tol=series_tol,
        seed=seed + 11,
    ))

    h_free, h_int = model.h_free, model.h_int
    cap = model.config.photon_cap
    rng = np.random.default_rng(seed + 5)
    level = max(0, cap - 2)
    etas = vectors_supported_below(rng, model.space, level, 8)
    xis = vectors_supported_below(rng, model.space, level, 8)
    observable = model.photon_field(1, (0.0, 0.0, 0.0))
    track = heisenberg_pairing_track(
        h_free, h_int, observable, etas, xis, t_end, cfg["steps"], series_tol,
    )
    fine = weak_residual(track)
    coarse = weak_residual(track, stride=2)
    floor = _difference_floor((h_free + h_int).norm2(), observable.norm2())
    reports.append(_ratio_report(
        "weak-residual-order", fine["max_residual"], coarse["max_residual"],
        floor, {"dt": fine["dt"], "observable": "photon field mu=1 at x=0"},
    ))

    t_mid = t_end / 2.0
    xi = random_vector(rng, model.space.dim)
    oracle_u = oracle_propagator(h_free, h_int, t_mid, 0.0)
    grid = default_grid(h_free, h_int, 0.0, t_mid,
                        support=support_level(model.space, xi),
                        tol=series_tol)
    series = evolve_block(h_free, h_int, xi, grid, series_tol)
    cross = float(np.linalg.norm(series.final()[:, 0] - oracle_u @ xi))
    reports.append(Report("oracle-cross-check", cross, 1e-7,
                          {"time": t_mid, "dim": model.space.dim}))

    fields = {"dim": model.space.dim, "constants": model.constants}
    rows = [(float(t), float(r)) for t, r
            in zip(fine["interior_times"], fine["per_time"])]
    return reports, fields, {"qed_demo.csv": (["time", "weak_residual"], rows)}


def _run_convergence(cfg: RunConfig) -> _Outputs:
    h_free, h_int = _model_operators(cfg)
    xi = _initial_vector(cfg, h_free.space.dim)
    alphas, n_max = cfg["alphas"], cfg["n_max"]
    table = appendix_convergence(h_free, h_int, xi, alphas=alphas, n_max=n_max,
                                 t_end=cfg["t_end"])

    ok, worst = table.dominated()
    onsets = [table.onset(a) for a in range(len(alphas))]
    scale = float(table.norms.max()) if table.norms.size else 0.0
    mono = 0.0
    for a in range(len(alphas) - 1):
        if alphas[a] <= alphas[a + 1]:
            mono = max(mono, float(
                (table.norms[:, a] - table.norms[:, a + 1]).max()
            ))
    reports = [
        Report("tail-domination", max(0.0, worst - 1.0), TAIL_SLACK,
               {"worst_ratio": worst}),
        Report("convergence-onset", float(max(onsets)), float(n_max - 3),
               {"onsets": onsets}),
        Report("alpha-monotonicity", mono, 1e-12 * max(scale, 1.0), {}),
    ]

    fields = {"t_end": cfg["t_end"], "table": table.to_json()}
    return reports, fields, {"convergence.csv": convergence_rows(table)}


_PIPELINES = {
    "evolve": _run_evolve,
    "heisenberg": _run_heisenberg,
    "verify": _run_verify,
    "qed-demo": _run_qed_demo,
    "convergence": _run_convergence,
}


def _write_outputs(cfg: RunConfig, reports: list[Report], fields: dict,
                   tables: dict) -> None:
    """Write ``<stem>.json``, the JUnit ``<stem>.xml`` and the CSV tables,
    then print one line per check and the summary."""
    stem = cfg.command.replace("-", "_")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    doc = {"command": cfg.command, "config": cfg.doc, **fields,
           **reports_document(reports)}
    write_json(cfg.out_dir / f"{stem}.json", doc, cfg.digest)
    write_junit(cfg.out_dir / f"{stem}.xml", cfg.command, reports, cfg.digest)
    for name, (header, rows) in tables.items():
        write_csv(cfg.out_dir / name, header, rows, cfg.digest)
    for line in summary_lines(reports):
        print(line)
    failed = sum(0 if r.passed else 1 for r in reports)
    print(f"{len(reports)} checks, {failed} failed")
    print(", ".join([f"wrote {cfg.out_dir / stem}.json", f"{stem}.xml", *tables]))


def run(cfg: RunConfig) -> int:
    """Execute one pipeline and write its outputs; returns the exit status.

    A pipeline that raises writes nothing.
    """
    try:
        reports, fields, tables = _PIPELINES[cfg.command](cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except AssumptionViolation as err:
        print(f"assumption violated ({err.code}): {err}", file=sys.stderr)
        return 3
    except TruncationError as err:
        print(
            f"truncation failure: {err} (last tail bound {err.tail_bound:.6e})",
            file=sys.stderr,
        )
        return 4
    _write_outputs(cfg, reports, fields, tables)
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dysonprop",
        description="certified time-ordered series propagators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fields in _FIELDS.items():
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None,
                       help="JSON config path (optional for suite commands)")
        # A flag for a field the command does not take is parsed but not
        # shown, so that assemble rejects it as an unknown field.
        for flag, field, kind in (("--tol", "tol", float),
                                  ("--t-end", "t_end", float),
                                  ("--seed", "seed", int)):
            p.add_argument(flag, type=kind, default=None, dest=field,
                           help=None if field in fields else argparse.SUPPRESS)
        p.add_argument("--out", type=str, default=None,
                       help="output directory (overrides out_dir)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            path = Path(args.config)
            doc = _load_config_file(path)
            base_dir = path.parent
        else:
            doc = {}
            base_dir = Path(".")
        overrides = {"tol": args.tol, "t_end": args.t_end, "seed": args.seed,
                     "out_dir": args.out}
        cfg = assemble(args.command, doc, base_dir, overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
