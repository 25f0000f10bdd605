"""Command-line entry point: configs, outputs, exit codes, determinism."""

import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from dysonprop import cli
from dysonprop.cli import main
from dysonprop.suite import fleet


def linop_doc(grades, matrix):
    m = np.asarray(matrix, dtype=complex)
    flat = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"dim": len(grades), "grades": list(grades), "matrix": flat}


def pair_model_doc(g=0.3, hermitian=False):
    h1 = np.zeros((3, 3))
    h1[1, 0] = g
    h1[2, 1] = g
    if hermitian:
        h1 = h1 + h1.T
    return {
        "h_free": linop_doc([0, 1, 2], np.diag([0.0, 1.0, 2.5])),
        "h_int": linop_doc([0, 1, 2], h1),
    }


def small_qed_doc(coupling=0.3):
    return {
        "qed": {
            "momentum_points": [[0.8, -0.3, 0.5]],
            "fermion_momenta": [[0.2, 0.1, -0.4]],
            "mass": 1.0,
            "coupling": coupling,
            "photon_cap": 2,
            "chi_sp": [1.0],
            "chi_ph": [0.2],
            "chi_el": [0.3],
        }
    }


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_all(out_dir, names):
    return {n: (out_dir / n).read_bytes() for n in names}


# ------------------------------------------------------------------ evolve

def test_evolve_writes_certified_artifacts(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "command": "evolve",
            "model": pair_model_doc(),
            "t_end": 1.0,
            "steps": 8,
            "tol": 1e-10,
            "initial_state": {"basis_index": 0},
            "out_dir": str(tmp_path / "out"),
        },
    )
    assert main(["evolve", cfg]) == 0
    out = tmp_path / "out"
    doc = json.loads((out / "evolve.json").read_text())
    assert doc["command"] == "evolve"
    assert doc["series"]["tail_bound"] <= 1e-10
    assert len(doc["final_state"]) == 3
    assert doc["all_passed"] is True
    assert len(doc["config_digest"]) == 64

    rows = (out / "trajectory.csv").read_bytes().split(b"\r\n")
    assert rows[0].startswith(b"time,norm,residual,config_digest,version")
    assert len(rows) == 1 + 9 + 1  # header, steps+1 rows, trailing empty
    orders = (out / "orders.csv").read_text().splitlines()
    assert orders[0].startswith("order,sup_norm,apriori_bound")


def test_evolve_free_model_preserves_norms(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": pair_model_doc(g=0.0),
            "t_end": 2.0,
            "steps": 4,
            "initial_state": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]],
            "out_dir": str(tmp_path),
        },
    )
    assert main(["evolve", cfg]) == 0
    for line in (tmp_path / "trajectory.csv").read_text().splitlines()[1:]:
        assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-12)


def test_rerun_is_byte_identical(tmp_path):
    # Every command: two runs of one config write the same bytes.
    for command, (doc, tables) in _TINY_RUNS.items():
        stem = command.replace("-", "_")
        names = [f"{stem}.json", f"{stem}.xml", *tables]
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / command / tag
            cfg = write_config(tmp_path, {**doc, "out_dir": str(out)},
                               name=f"{command}-{tag}.json")
            assert main([command, cfg]) == 0, command
            outs.append(read_all(out, names))
        assert outs[0] == outs[1], command


def test_override_changes_digest_and_document(tmp_path):
    base = {
        "model": pair_model_doc(),
        "t_end": 1.0,
        "steps": 4,
        "out_dir": str(tmp_path / "x"),
    }
    cfg = write_config(tmp_path, base)
    assert main(["evolve", cfg]) == 0
    plain = json.loads((tmp_path / "x" / "evolve.json").read_text())

    assert main(["evolve", cfg, "--t-end", "0.5", "--out",
                 str(tmp_path / "y")]) == 0
    shifted = json.loads((tmp_path / "y" / "evolve.json").read_text())
    assert shifted["t_end"] == 0.5
    assert shifted["config_digest"] != plain["config_digest"]


def test_model_may_live_in_its_own_file(tmp_path):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(pair_model_doc()))
    cfg = write_config(
        tmp_path,
        {"model": "model.json", "steps": 4, "out_dir": str(tmp_path)},
    )
    assert main(["evolve", cfg]) == 0
    # the inlined model, not the path, feeds the digest and the artifact
    doc = json.loads((tmp_path / "evolve.json").read_text())
    assert isinstance(doc["config"]["model"], dict)
    assert "h_free" in doc["config"]["model"]


# ------------------------------------------------------------- exit codes

def test_unknown_field_is_a_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"model": pair_model_doc(), "stepz": 4}
    )
    assert main(["evolve", cfg]) == 2
    assert "stepz" in capsys.readouterr().err


def test_json_syntax_error_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": \n[}')
    assert main(["evolve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_integer_literal_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"model": "qed-default", "t_end": 1' + "0" * 5000 + "}")
    assert main(["evolve", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["evolve", str(tmp_path / "nope.json")]) == 2
    assert main(["heisenberg"]) == 2


def test_nonhermitian_free_part_exits_three(tmp_path, capsys):
    doc = pair_model_doc()
    bad = np.diag([0.0, 1.0, 2.5]).astype(complex)
    bad[0, 1] = 0.4  # upper entry with no mirror
    doc["h_free"] = linop_doc([0, 1, 2], bad)
    obs = linop_doc([0, 1, 2], np.diag([1.0, 0.0, 0.0]))
    # the engine's own free-part check must stop every model command
    for command, extra in (("evolve", {"steps": 4}),
                           ("heisenberg", {"steps": 4, "observable": obs}),
                           ("convergence", {})):
        cfg = write_config(
            tmp_path, {"model": doc, "out_dir": str(tmp_path), **extra},
            name=f"{command}.json",
        )
        assert main([command, cfg]) == 3, command
        assert "free-part-not-hermitian" in capsys.readouterr().err, command


def test_untruncatable_series_exits_four(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": pair_model_doc(g=50.0),
            "t_end": 1.0,
            "steps": 4,
            "max_order": 4,
            "out_dir": str(tmp_path),
        },
    )
    assert main(["evolve", cfg]) == 4
    assert "truncation" in capsys.readouterr().err


def test_failing_reports_exit_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "command": "verify",
            "count": 2,
            "tuples": 2,
            "tol": 1e-30,
            "out_dir": str(tmp_path),
        },
    )
    assert main(["verify", cfg]) == 1
    root = ET.fromstring((tmp_path / "verify.xml").read_text())
    assert int(root.get("failures")) > 0
    assert "FAIL" in capsys.readouterr().out


def test_operators_on_different_spaces_are_config_errors(tmp_path, capsys):
    out = tmp_path / "out"
    pair = pair_model_doc()
    pair["h_int"]["grades"] = [0, 1, 3]
    obs = linop_doc([0, 1], np.eye(2))
    for command, doc, field in (
        ("evolve", {"model": pair, "steps": 4}, "model"),
        ("heisenberg", {"model": pair_model_doc(), "observable": obs, "steps": 4},
         "observable"),
    ):
        cfg = write_config(tmp_path, {**doc, "out_dir": str(out)})
        assert main([command, cfg]) == 2, command
        assert f"field '{field}'" in capsys.readouterr().err, command
        assert not out.exists(), command


def test_command_mismatch_rejected(tmp_path):
    cfg = write_config(
        tmp_path, {"command": "verify", "model": pair_model_doc()}
    )
    assert main(["evolve", cfg]) == 2


@pytest.mark.parametrize(
    "command, fields, flags",
    [
        ("evolve", {"t_end": math.nan}, []),
        ("evolve", {"tol": math.inf}, []),
        ("evolve", {"tol": math.nan}, []),
        ("evolve", {"t_end": 10**400}, []),
        ("evolve", {"tol": 10**400}, []),
        ("evolve", {"initial_state": [[1.0, 0.0], [-math.inf, 0.0], [0.0, 0.0]]},
         []),
        ("verify", {"series_tol": math.nan}, []),
        ("convergence", {"alphas": [0.0, math.nan]}, []),
        ("evolve", {}, ["--tol", "nan"]),
        ("evolve", {}, ["--t-end", "inf"]),
        ("verify", {}, ["--tol", "nan"]),
        ("verify", {"count": 1, "tuples": 1, "tol": 0}, []),
        ("verify", {"count": 1, "tuples": 1, "series_tol": 0}, []),
        ("verify", {"count": 1, "tuples": 1}, ["--t-end", "2"]),
    ],
    ids=["t_end", "tol-inf", "tol-nan", "t_end-huge-int", "tol-huge-int", "initial_state",
         "series_tol", "alphas", "flag-tol", "flag-t-end", "verify-flag-tol",
         "tol-zero", "series_tol-zero", "verify-flag-not-taken"],
)
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, command, fields,
                                              flags):
    base = {"model": pair_model_doc(), "steps": 4} if command == "evolve" else {}
    cfg = write_config(tmp_path, {**base, **fields, "out_dir": str(tmp_path)})
    assert main([command, cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert max(map(len, err.splitlines())) <= 200  # a huge number is not echoed whole


@pytest.mark.parametrize(
    "command, field, flags",
    [("convergence", "tol", ["--tol", "1e-3"]),
     ("convergence", "seed", ["--seed", "3"]),
     ("evolve", "seed", ["--seed", "3"])],
    ids=["convergence-tol", "convergence-seed", "evolve-seed"],
)
def test_fields_no_pipeline_reads_are_unknown(tmp_path, capsys, command, field,
                                              flags):
    # The convergence table has no tolerance and no random draw, and evolve
    # draws nothing, so these fields would only split the digest.
    assert field not in cli._FIELDS[command]
    base = {"model": pair_model_doc(), "steps": 4} if command == "evolve" else {}
    cfg = write_config(tmp_path, {**base, "out_dir": str(tmp_path)})
    assert main([command, cfg, *flags]) == 2
    assert f"unknown field(s) for {command}: {field}" in capsys.readouterr().err
    assert not any(tmp_path.glob(f"{command}.*"))


@pytest.mark.parametrize(
    "edit",
    [{"coupling": math.nan}, {"coupling": math.inf}, {"coupling": True},
     {"coupling": "0.1"}, {"photon_cap": 2.5}, {"momentum_weight": [1.0]},
     {"momentum_weights": [-1.0]}, {"position_weights": [-1.0]},
     {"fermion_weights": [1.0, 1.0]}, {"momentum_points": [[0.0, 0.0, 1.0]]},
     {"mass": 10**400}, {"photon_cap": 10**400}],
    ids=["coupling-nan", "coupling-inf", "coupling-bool", "coupling-string",
         "photon_cap-fraction", "unknown-key", "momentum_weights-negative",
         "position_weights-negative", "weights-length", "photon-on-axis",
         "mass-huge-int", "photon_cap-huge-int"],
)
def test_bad_qed_fields_are_config_errors(tmp_path, capsys, edit):
    doc = small_qed_doc()
    doc["qed"].update(edit)
    cfg = write_config(tmp_path, {"model": doc, "out_dir": str(tmp_path)})
    assert main(["evolve", cfg]) == 2
    assert "field 'model.qed'" in capsys.readouterr().err
    assert not any(tmp_path.glob("evolve.*"))


@pytest.mark.parametrize("field", ["mass", "photon_cap"])
def test_qed_demo_refuses_integers_beyond_the_float_range(tmp_path, capsys,
                                                          monkeypatch, field):
    def no_basis(*args, **kwargs):
        raise AssertionError("a basis was enumerated")

    monkeypatch.setattr(cli, "build_model", no_basis)
    monkeypatch.setattr(cli, "fock_basis", no_basis)
    doc = small_qed_doc()
    doc["qed"][field] = 10**400
    cfg = write_config(tmp_path, {"model": doc, "out_dir": str(tmp_path)})
    assert main(["qed-demo", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"field 'model.qed': {field}" in err
    assert "Traceback" not in err
    assert max(map(len, err.splitlines())) <= 200
    assert not any(tmp_path.glob("qed_demo.*"))


@pytest.mark.parametrize("command", ["evolve", "verify", "convergence"])
def test_help_lists_only_the_flags_the_command_takes(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    shown = capsys.readouterr().out
    for flag, field in (("--tol", "tol"), ("--t-end", "t_end"), ("--seed", "seed")):
        assert (flag in shown) == (field in cli._FIELDS[command]), flag


_OBSERVABLE = linop_doc([0, 1, 2], np.diag([1.0, 0.0, 0.0]))
_TINY_RUNS = {
    "evolve": ({"model": pair_model_doc(), "steps": 4},
               ["trajectory.csv", "orders.csv"]),
    "heisenberg": ({"model": pair_model_doc(), "observable": _OBSERVABLE,
                    "steps": 4}, ["heisenberg.csv"]),
    "verify": ({"count": 1, "tuples": 1}, []),
    "qed-demo": ({"model": small_qed_doc(), "t_end": 0.5, "steps": 8,
                  "pairs": 4}, ["qed_demo.csv"]),
    "convergence": ({"model": pair_model_doc(), "n_max": 6}, ["convergence.csv"]),
}


@pytest.mark.parametrize("command", list(_TINY_RUNS))
def test_every_command_writes_json_junit_and_its_tables(tmp_path, command):
    doc, tables = _TINY_RUNS[command]
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {**doc, "out_dir": str(out)})
    assert main([command, cfg]) == 0
    stem = command.replace("-", "_")
    assert {p.name for p in out.iterdir()} == {f"{stem}.json", f"{stem}.xml",
                                               *tables}
    digest = cli.assemble(command, doc, tmp_path, {}).digest
    result = json.loads((out / f"{stem}.json").read_text())
    assert result["config_digest"] == digest
    root = ET.fromstring((out / f"{stem}.xml").read_text())
    assert int(root.get("tests")) == len(result["reports"])
    assert root.find("properties/property[@name='config_digest']").get(
        "value") == digest
    for name in tables:
        rows = (out / name).read_text().splitlines()
        assert len(rows) > 1, name
        assert all(row.split(",")[-2] == digest for row in rows[1:]), name


# Digests of stock configs: a refactor of the config handling must leave
# every digested document, and so every artifact stamp, unchanged.
_README_MODEL = {
    "h_free": linop_doc([0, 1], np.diag([0.0, 1.0])),
    "h_int": linop_doc([0, 1], [[0.0, 0.0], [0.3, 0.0]]),
}
_GOLDEN_DIGESTS = [
    ("verify", {},
     "19b893590d0bd9664ed6efbf6ce45091b1ee6958183b0633575434dc43261501"),
    ("verify", {"count": 2, "tuples": 2, "seed": 11},
     "ef340e0d638cadd7a7bbd066d31484ffc901ab0d899601fe223e5d64bdbdac79"),
    ("qed-demo", {},
     "f64bd4a7985cf1a42b59f0cc6789b748b9b847227faf47fcf90454bfed7e15fa"),
    ("convergence", {},
     "b5e4dcfbe40877342f090cef177dd30b4e60fca562c8e9fffdee9161ecf45a0d"),
    ("evolve", {"command": "evolve", "model": _README_MODEL, "t_end": 1.0,
                "steps": 8, "tol": 1e-8, "initial_state": {"basis_index": 0},
                "out_dir": "out"},
     "7e55cb03c7127f5e42fe0c5c8c89788ca45469a38680d6190dd96973e8d21dd9"),
    ("heisenberg", {"model": _README_MODEL,
                    "observable": linop_doc([0, 1], np.diag([1.0, 0.0])),
                    "t_end": 0.5},
     "6f606597ebf649d62ea260c68bf539a0ae52d63e8449c206118bfefb3079308e"),
    ("convergence", {"command": "convergence",
                     "model": {"qed": {"momentum_points": [[1.0, 0.5, 0.25]],
                                       "fermion_momenta": [[0.0, 0.0, 0.0]],
                                       "mass": 1.0, "coupling": 0.5,
                                       "photon_cap": 3, "chi_sp": [1.0],
                                       "chi_ph": [0.15], "chi_el": [0.35]}},
                     "n_max": 6},
     "08d09bdee53287cc05c32eb36b10fe16906e671f731ffb3fef068c377b3eb1d8"),
]


@pytest.mark.parametrize(
    "command, doc, digest", _GOLDEN_DIGESTS,
    ids=["verify", "verify-small", "qed-demo", "convergence", "readme-evolve",
         "readme-heisenberg", "readme-convergence-qed"],
)
def test_stock_config_digests_are_pinned(tmp_path, command, doc, digest):
    assert cli.assemble(command, doc, tmp_path, {}).digest == digest


@pytest.mark.parametrize("source", ["docstring", "readme"])
def test_field_lists_match_the_field_table(source):
    text = (cli.__doc__ if source == "docstring" else
            (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"))
    listed = {name: [f.strip() for f in fields.split(",")]
              for name, fields in re.findall(r"^ *([a-z-]+): +(.+)$", text, re.M)}
    shared = listed.pop("all")
    assert shared[:2] == ["command", "out_dir"]
    assert set(listed) == set(cli._FIELDS)
    for command, table in cli._FIELDS.items():
        expected = [f + "*" if table[f] is None else f for f in table]
        assert shared[2:] + listed[command] == expected, command


# ------------------------------------------------------- suite commands

def test_verify_small_fleet(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"count": 2, "tuples": 2, "out_dir": str(tmp_path)}
    )
    assert main(["verify", cfg]) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_passed"] is True
    root = ET.fromstring((tmp_path / "verify.xml").read_text())
    assert root.get("failures") == "0"
    assert int(root.get("tests")) >= 18
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_heisenberg_pipeline(tmp_path):
    obs = np.zeros((3, 3))
    obs[0, 0] = 1.0
    cfg = write_config(
        tmp_path,
        {
            "model": pair_model_doc(),
            "observable": linop_doc([0, 1, 2], obs),
            "t_end": 0.5,
            "steps": 8,
            "out_dir": str(tmp_path),
        },
    )
    assert main(["heisenberg", cfg]) == 0
    doc = json.loads((tmp_path / "heisenberg.json").read_text())
    assert doc["all_passed"] is True
    names = [r["check_name"] for r in doc["reports"]]
    assert "heisenberg-initial-value" in names
    assert "heisenberg-residual-order" in names
    assert doc["achieved_order"] >= 1
    assert doc["tail_bound"] < doc["config"]["tol"]
    lines = (tmp_path / "heisenberg.csv").read_text().splitlines()
    assert lines[0].startswith("time,observable_norm,strong_residual")
    assert len(lines) == 1 + 9


def test_heisenberg_requires_even_steps(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": pair_model_doc(),
            "observable": linop_doc([0, 1, 2], np.eye(3)),
            "steps": 7,
            "out_dir": str(tmp_path),
        },
    )
    assert main(["heisenberg", cfg]) == 2


def test_heisenberg_refuses_a_large_model_before_building_it(
    tmp_path, monkeypatch, capsys
):
    def no_build(*args, **kwargs):
        raise AssertionError("the model was built")

    monkeypatch.setattr(cli, "build_model", no_build)
    cfg = write_config(
        tmp_path,
        {
            "model": "qed-default",
            "observable": linop_doc([0, 1], np.eye(2)),
            "out_dir": str(tmp_path),
        },
    )
    assert main(["heisenberg", cfg]) == 2
    err = capsys.readouterr().err
    assert "dimension 560" in err and f"limit {cli.DENSE_TRACK_LIMIT}" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "cfg.json"]


def _initial_value_report(tmp_path):
    doc = json.loads((tmp_path / "heisenberg.json").read_text())
    (report,) = [r for r in doc["reports"]
                 if r["check_name"] == "heisenberg-initial-value"]
    return report


def test_heisenberg_initial_value_is_graded_against_the_rounding_floor(
    tmp_path, monkeypatch
):
    # A sector-block free part: the t = 0 matrix has been rotated into the
    # free eigenbasis and back, so it carries a rounding residual.
    model = fleet()[9]
    rng = np.random.default_rng(3)
    obs = rng.normal(size=(model.space.dim,) * 2)
    obs = obs + obs.T
    grades = list(model.space.grades)
    doc = {
        "model": {"h_free": model.h_free.to_json(), "h_int": model.h_int.to_json()},
        "observable": linop_doc(grades, obs),
        "t_end": 0.5,
        "steps": 8,
        "out_dir": str(tmp_path),
    }
    cfg = write_config(tmp_path, doc)
    assert main(["heisenberg", cfg]) == 0
    report = _initial_value_report(tmp_path)
    assert 0.0 < report["residual"] <= report["tolerance"] < 1e-9

    # A diagonal free part is not rotated: the t = 0 matrix is exact.
    diag_cfg = write_config(
        tmp_path,
        {
            "model": pair_model_doc(),
            "observable": linop_doc([0, 1, 2], np.diag([1.0, 2.0, 3.0])),
            "t_end": 0.5,
            "steps": 8,
            "out_dir": str(tmp_path),
        },
        name="diag.json",
    )
    assert main(["heisenberg", diag_cfg]) == 0
    assert _initial_value_report(tmp_path)["residual"] == 0.0

    # A t = 0 matrix that is wrong beyond rounding still fails the check.
    real_track = cli.heisenberg_track

    def wrong_start(*args, **kwargs):
        track = real_track(*args, **kwargs)
        track.states[0] += 1e-6
        return track

    monkeypatch.setattr(cli, "heisenberg_track", wrong_start)
    assert main(["heisenberg", cfg]) == 1
    report = _initial_value_report(tmp_path)
    assert report["passed"] is False
    assert report["residual"] > report["tolerance"]


def test_qed_demo_small_model(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "model": small_qed_doc(),
            "t_end": 0.5,
            "steps": 8,
            "pairs": 4,
            "out_dir": str(tmp_path),
        },
    )
    assert main(["qed-demo", cfg]) == 0
    doc = json.loads((tmp_path / "qed_demo.json").read_text())
    assert doc["all_passed"] is True
    names = [r["check_name"] for r in doc["reports"]]
    for expected in (
        "gamma-anticommutators",
        "eta-pairing-drift",
        "weak-residual-order",
        "oracle-cross-check",
    ):
        assert expected in names
    assert (tmp_path / "qed_demo.xml").exists()
    lines = (tmp_path / "qed_demo.csv").read_text().splitlines()
    assert lines[0].startswith("time,weak_residual")


def test_convergence_pipeline(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "model": pair_model_doc(),
            "t_end": 1.0,
            "n_max": 6,
            "alphas": [0, 2],
            "out_dir": str(tmp_path),
        },
    )
    assert main(["convergence", cfg]) == 0
    doc = json.loads((tmp_path / "convergence.json").read_text())
    assert doc["table"]["onsets"] == [0, 0] or max(doc["table"]["onsets"]) <= 3
    assert doc["all_passed"] is True
    header = (tmp_path / "convergence.csv").read_text().splitlines()[0]
    assert header.startswith("order,norm_alpha_0,tail_alpha_0")
