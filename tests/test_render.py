"""``cli.render_report`` against a reference writer kept here.

``reference_report`` is the payload route: one dict per cell, then
``json.dumps(payload, indent=2)``, a ``csv.writer`` row per dict, or a
markdown row per cell.  The report writer must produce the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from unittest import mock

import pytest

from seqarea import closedforms
from seqarea.cli import render_report
from seqarea.geometry import PolygonSpec
from seqarea.numerics import rational_str
from seqarea.sequences import RecurrenceSpec, SequenceFamily
from seqarea.verify import VerificationCell, VerificationReport, verify_family

# Every character a JSON or CSV writer must escape or quote, and non-ASCII.
AWKWARD_LABEL = 'q "x", back\\slash\nnew line, Ümlaut ∑ 😀'


def payload(report: VerificationReport) -> dict:
    return {
        "grid": report.grid,
        "cells": [
            {
                "family": c.spec.family.label,
                "n": c.spec.n,
                "k": c.spec.k,
                "m": c.spec.m,
                "oracle": rational_str(c.oracle_area),
                "closed": rational_str(c.closed_area),
                "match": c.match,
                "note": c.note,
            }
            for c in report.cells
        ],
        "pass_count": report.pass_count,
        "fail_count": report.fail_count,
    }


def reference_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload(report), indent=2) + "\n"
    if fmt == "csv":
        records = payload(report)["cells"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(records[0]))
        for r in records:
            writer.writerow(
                [str(v).lower() if isinstance(v, bool) else str(v) for v in r.values()]
            )
        return buf.getvalue()
    lines = [
        f"grid: {report.grid}",
        f"pass_count: {report.pass_count}",
        f"fail_count: {report.fail_count}",
        "",
        "| n | k | m | oracle | closed | match | note |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for c in report.cells:
        row = [
            str(c.spec.n), str(c.spec.k), str(c.spec.m),
            rational_str(c.oracle_area), rational_str(c.closed_area),
            "MATCH" if c.match else "MISMATCH", c.note,
        ]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def awkward(initial, coefficients=(1, 1)) -> SequenceFamily:
    """An order-2 custom family under the awkward label."""
    return SequenceFamily.custom(RecurrenceSpec(2, coefficients, initial, AWKWARD_LABEL))


def reports() -> list[VerificationReport]:
    grid = (range(0, 3), range(1, 4), range(3, 6))
    passing = verify_family(awkward((2, 5)), *grid)
    collinear = verify_family(awkward((1, 2), (1, 2)), *grid)
    real = closedforms.mgon_area

    def broken(family, k, m):
        # Right at m = 3, 0 (never collinear here) at k = 1, else off by 1/3.
        if m == 3:
            return real(family, k, m)
        return Fraction(0) if k == 1 else real(family, k, m) + Fraction(1, 3)

    with mock.patch.object(closedforms, "mgon_area", broken):
        failing = verify_family(awkward((2, 5)), *grid)
    # A report not made by verify_family: two families, equal areas held by
    # distinct Fractions, a negative area and a note needing quotes.
    fib = SequenceFamily.fibonacci()
    mixed = VerificationReport(
        grid='mixed "grid", by hand',
        cells=(
            VerificationCell(PolygonSpec(fib, 0, 1, 3), Fraction(1, 2), Fraction(2, 4), True),
            VerificationCell(
                PolygonSpec(awkward((0, 1)), 4, 2, 5), Fraction(-7, 3), Fraction(7, 3),
                False, 'odd, "note"',
            ),
            VerificationCell(PolygonSpec(fib, 1, 1, 3), Fraction(0), Fraction(0), True, ""),
        ),
        pass_count=2,
        fail_count=1,
        elapsed=0.0,
    )
    return [passing, collinear, failing, mixed]


REPORTS = reports()


def test_reports_cover_every_verdict():
    notes = {c.note for r in REPORTS for c in r.cells}
    assert {"", "collinear", "NOT COLLINEAR"} <= notes
    assert any(not c.match for r in REPORTS for c in r.cells)


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
@pytest.mark.parametrize("index", range(len(REPORTS)))
def test_matches_reference_writer(fmt, index):
    report = REPORTS[index]
    assert render_report(report, fmt) == reference_report(report, fmt)


@pytest.mark.parametrize("index", range(len(REPORTS)))
def test_json_round_trips(index):
    report = REPORTS[index]
    assert json.loads(render_report(report, "json")) == payload(report)


def test_empty_report_json():
    empty = VerificationReport("g", (), 0, 0, 0.0)
    assert render_report(empty, "json") == reference_report(empty, "json")
