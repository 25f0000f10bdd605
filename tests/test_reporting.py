"""Deterministic writers: canonical JSON, CSV with CRLF, JUnit documents."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dysonprop._version import VERSION
from dysonprop.dyson import TimeGrid, default_grid, evolve_block, evolve_vector
from dysonprop.graded import GradedSpace, LinOp
from dysonprop.oracles import Report
from dysonprop.reporting import (
    _csv_cell,
    _plain,
    canonical_json,
    config_digest,
    convergence_rows,
    junit_document,
    reports_document,
    series_order_rows,
    stamped,
    summary_lines,
    trajectory_rows,
    write_csv,
    write_json,
    write_junit,
)
from dysonprop.suite import appendix_convergence, random_graded_model


def test_plain_converts_numpy_and_nonfinite():
    doc = _plain(
        {
            "i": np.int64(3),
            "f": np.float64(1.5),
            "c": np.complex128(2 - 3j),
            "arr": np.array([1.0, 2.0]),
            "nan": float("nan"),
            "inf": np.inf,
            "b": np.bool_(True),
        }
    )
    assert doc == {
        "i": 3,
        "f": 1.5,
        "c": [2.0, -3.0],
        "arr": [1.0, 2.0],
        "nan": None,
        "inf": None,
        "b": True,
    }


def test_canonical_json_is_sorted_and_compact():
    doc = {"b": [1.5, float("nan")], "a": {"z": 1, "y": complex(2, -3)}}
    assert canonical_json(doc) == '{"a":{"y":[2.0,-3.0],"z":1},"b":[1.5,null]}'
    assert (
        config_digest(doc)
        == "ecf85b980e3140545f4795c797abee740d332b805be211ec56e0ecd05a947b07"
    )
    # float text is repr-exact, not shortened
    assert canonical_json({"x": 0.1}) == '{"x":0.1}'


def test_digest_ignores_key_order_only():
    a = {"x": 1, "y": 2}
    b = {"y": 2, "x": 1}
    assert config_digest(a) == config_digest(b)
    assert config_digest({"x": 1, "y": 3}) != config_digest(a)


def test_stamped_adds_metadata_without_mutation():
    doc = {"k": 1}
    out = stamped(doc, "d" * 64)
    assert out["config_digest"] == "d" * 64
    assert out["version"] == VERSION
    assert doc == {"k": 1}


def test_write_json_file_layout(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"z": 2, "a": 1}, "f" * 64)
    raw = path.read_bytes()
    assert raw.endswith(b"\n")
    assert raw.count(b"\n") == 1
    assert raw.startswith(b'{"a":1,')
    assert b'"config_digest":"' + b"f" * 64 + b'"' in raw


def test_csv_cells():
    assert _csv_cell(None) == ""
    assert _csv_cell(float("nan")) == ""
    assert _csv_cell(np.float64(0.25)) == "0.25"
    assert _csv_cell(1.0 / 3.0) == repr(1.0 / 3.0)
    assert _csv_cell(np.int32(7)) == "7"
    assert _csv_cell("x") == "x"


def test_write_csv_crlf_and_trailing_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [(1, None), (0.5, float("nan"))], "0" * 64)
    raw = path.read_bytes()
    lines = raw.split(b"\r\n")
    assert lines[-1] == b""
    assert lines[0].decode() == f"a,b,config_digest,version"
    assert lines[1].decode() == f"1,,{'0' * 64},{VERSION}"
    assert lines[2].decode() == f"0.5,,{'0' * 64},{VERSION}"
    assert b"\n" not in raw.replace(b"\r\n", b"")


def test_junit_document_parses_with_counts(tmp_path):
    reports = [
        Report("good", 1e-9, 1e-7, {"model": "m1"}),
        Report("bad", 2.0, 1e-7, {"model": "m2"}),
    ]
    path = tmp_path / "suite.xml"
    write_junit(path, "verify", reports, "a" * 64)
    root = ET.fromstring(path.read_text())
    assert root.tag == "testsuite"
    assert root.get("tests") == "2"
    assert root.get("failures") == "1"
    assert root.get("time") == "0"
    props = {p.get("name"): p.get("value") for p in root.find("properties")}
    assert props["config_digest"] == "a" * 64
    assert props["version"] == VERSION
    cases = root.findall("testcase")
    assert [c.get("classname") for c in cases] == ["m1", "m2"]
    failure = cases[1].find("failure")
    assert "exceeds tolerance" in failure.get("message")
    assert cases[0].find("failure") is None


def test_junit_escapes_attribute_text():
    reports = [Report("a<b>&\"c", 0.0, 1.0, {})]
    doc = junit_document("s", reports, "b" * 64)
    ET.fromstring(doc)  # must stay well-formed
    assert "a&lt;b&gt;&amp;&quot;c" in doc


def test_summary_and_reports_document():
    reports = [
        Report("one", 0.0, 1.0, {"model": "m"}),
        Report("two", 2.0, 1.0),
    ]
    lines = summary_lines(reports)
    assert lines[0].startswith("PASS  m:one")
    assert lines[1].startswith("FAIL  two")
    doc = reports_document(reports)
    assert doc["all_passed"] is False
    assert len(doc["reports"]) == 2


def test_series_order_rows_both_result_shapes():
    model = random_graded_model(seed=90, dim=5, grade_shift=1)
    xi = np.zeros(5, dtype=complex)
    xi[0] = 1.0
    grid = default_grid(model.h_free, model.h_int, 0.0, 1.0, support=0.0)
    res = evolve_vector(model.h_free, model.h_int, xi, grid, tol=1e-10)
    rows = series_order_rows(res)
    assert rows[0][0] == 0 and rows[0][1] == pytest.approx(1.0)
    for order, sup, bound in rows:
        assert sup <= bound * (1 + 1e-9)

    blk = evolve_block(
        model.h_free, model.h_int, np.eye(5, dtype=complex), grid, tol=1e-10
    )
    rows_b = series_order_rows(blk)
    assert len(rows_b) == blk.achieved_order + 1
    for order, sup, bound in rows_b:
        assert sup <= bound * (1 + 1e-9)

    # fractional grades: the printed bound must be the certified one
    space = GradedSpace((0.9, 0.9))
    h0 = LinOp(space, np.zeros((2, 2), dtype=complex))
    h1 = LinOp(space, 0.6 * np.eye(2, dtype=complex))
    e0 = np.array([1.0, 0.0], dtype=complex)
    grid = TimeGrid(0.0, 1.0, panels=4)
    for res in (evolve_vector(h0, h1, e0, grid, tol=1e-10),
                evolve_block(h0, h1, e0, grid, tol=1e-10)):
        rows = series_order_rows(res)
        assert rows[1][1] == pytest.approx(0.6)
        for order, sup, bound in rows:
            assert sup <= bound * (1 + 1e-9)


def test_trajectory_rows_leave_endpoint_residuals_empty():
    from dysonprop.evolution import schrodinger_trajectory

    model = random_graded_model(seed=91, dim=4, grade_shift=1)
    xi = np.zeros(4, dtype=complex)
    xi[0] = 1.0
    traj = schrodinger_trajectory(model.h_free, model.h_int, xi, 0.5, 4, 1e-10)
    rows = trajectory_rows(traj)
    assert len(rows) == 5
    assert rows[0][0] == 0.0 and rows[0][1] == pytest.approx(1.0)
    assert np.isnan(rows[0][2]) and np.isnan(rows[-1][2])
    assert np.isfinite(rows[2][2])


def test_convergence_rows_layout():
    model = random_graded_model(seed=92, dim=4, grade_shift=1)
    xi = np.zeros(4, dtype=complex)
    xi[0] = 1.0
    table = appendix_convergence(
        model.h_free, model.h_int, xi, alphas=(0.0, 2.0), n_max=3
    )
    header, rows = convergence_rows(table)
    assert header == [
        "order", "norm_alpha_0", "tail_alpha_0", "norm_alpha_2", "tail_alpha_2",
    ]
    assert [r[0] for r in rows] == [0, 1, 2]
    assert all(len(r) == 5 for r in rows)
