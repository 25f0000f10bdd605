"""Deterministic output writers: canonical JSON, RFC-4180 CSV, JUnit XML.

Identical inputs must produce byte-identical files, so JSON is emitted with
sorted keys and fixed separators, CSV uses CRLF row terminators, and the
JUnit documents carry no wall-clock data.  Every artifact embeds the digest
of the effective run configuration and the library version; CSV carries
them as two trailing columns on every row, which keeps the files plain
RFC-4180 with a uniform field count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from typing import Iterable, Sequence

import numpy as np

from ._version import VERSION
from .oracles import Report


def _plain(value):
    """Recursively convert numpy scalars/arrays and non-finite floats."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        out = float(value)
        return out if math.isfinite(out) else None
    if isinstance(value, (np.complexfloating, complex)):
        return [_plain(value.real), _plain(value.imag)]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def canonical_json(doc) -> str:
    return json.dumps(_plain(doc), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False)


def config_digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def stamped(doc: dict, digest: str) -> dict:
    out = dict(doc)
    out["config_digest"] = digest
    out["version"] = VERSION
    return out


def write_json(path, doc: dict, digest: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_json(stamped(doc, digest)))
        fh.write("\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return repr(v) if math.isfinite(v) else ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence], digest: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(list(header) + ["config_digest", "version"])
        for row in rows:
            writer.writerow([_csv_cell(v) for v in row] + [digest, VERSION])


def _xml_escape_attr(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def junit_document(suite_name: str, reports: Sequence[Report], digest: str) -> str:
    failures = sum(0 if r.passed else 1 for r in reports)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<testsuite name="{_xml_escape_attr(suite_name)}" '
        f'tests="{len(reports)}" failures="{failures}" errors="0" time="0">',
        "  <properties>",
        f'    <property name="config_digest" value="{digest}"/>',
        f'    <property name="version" value="{VERSION}"/>',
        "  </properties>",
    ]
    for report in reports:
        classname = _xml_escape_attr(report.context.get("model", suite_name))
        name = _xml_escape_attr(report.check_name)
        if report.passed:
            lines.append(
                f'  <testcase classname="{classname}" name="{name}" time="0"/>'
            )
        else:
            message = _xml_escape_attr(
                f"residual {report.residual:.6e} exceeds tolerance "
                f"{report.tolerance:.6e}"
            )
            lines.append(
                f'  <testcase classname="{classname}" name="{name}" time="0">'
            )
            lines.append(f'    <failure message="{message}"/>')
            lines.append("  </testcase>")
    lines.append("</testsuite>")
    return "\n".join(lines) + "\n"


def write_junit(path, suite_name: str, reports: Sequence[Report], digest: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(junit_document(suite_name, reports, digest))


def summary_lines(reports: Sequence[Report]) -> list[str]:
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        model = r.context.get("model")
        label = f"{model}:{r.check_name}" if model else r.check_name
        lines.append(
            f"{status}  {label}  residual={r.residual:.3e}  tol={r.tolerance:.3e}"
        )
    return lines


def reports_document(reports: Sequence[Report]) -> dict:
    return {
        "reports": [r.to_json() for r in reports],
        "all_passed": all(r.passed for r in reports),
    }


def series_order_rows(result) -> list[tuple]:
    """Per-order sup norms against their certified bounds.

    Columns: order, sup_norm, apriori_bound.  Both are the values stored on
    the result, each the worst over the result's columns.
    """
    sups = result.per_order_sup_norms.max(axis=1)
    bounds = result.per_order_bounds.max(axis=1)
    return [(order, float(sup), float(bound))
            for order, (sup, bound) in enumerate(zip(sups, bounds))]


def trajectory_rows(trajectory) -> list[tuple]:
    """Columns: time, norm, residual (empty at the endpoints)."""
    residuals = trajectory.residuals
    rows = []
    for k, t in enumerate(trajectory.times):
        norm = float(np.linalg.norm(trajectory.states[k][:, 0]))
        res = None if residuals is None else residuals[k]
        rows.append((float(t), norm, res))
    return rows


def convergence_rows(table) -> tuple[list[str], list[tuple]]:
    header = ["order"]
    for alpha in table.alphas:
        tag = f"{alpha:g}"
        header += [f"norm_alpha_{tag}", f"tail_alpha_{tag}"]
    rows = []
    for n in table.orders:
        row: list = [int(n)]
        for a in range(len(table.alphas)):
            row += [float(table.norms[n, a]), float(table.tails[n, a])]
        rows.append(tuple(row))
    return header, rows
