"""Every ``cli.render_*`` JSON and CSV output against a reference writer kept here.

The reference is the payload route: one dict per record, then
``json.dumps(payload, indent=2)`` or a ``csv.writer`` row per record, with
None written as an empty field and booleans as ``true``/``false``.  The
report's markdown is laid out here too.  The renderers' token writers must
produce the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from unittest import mock

import pytest

from seqarea import closedforms
from seqarea.cli import (
    render_area,
    render_gen,
    render_polygonal_table,
    render_report,
    render_third_order_table,
)
from seqarea.geometry import PolygonSpec, build_vertices, shoelace_area
from seqarea.numerics import rational_str
from seqarea.sequences import RecurrenceSpec, SequenceFamily, family_terms
from seqarea.verify import (
    PolygonalTable,
    ThirdOrderTable,
    VerificationCell,
    VerificationReport,
    polygonal_table,
    third_order_table,
    verify_family,
)

# Every character a JSON or CSV writer must escape or quote, and non-ASCII.
AWKWARD_LABEL = 'q "x", back\\slash\nnew line, Ümlaut ∑ 😀'


def optional_str(x: Fraction | None) -> str | None:
    return None if x is None else rational_str(x)


def reference_json(payload: object) -> str:
    return json.dumps(payload, indent=2) + "\n"


def reference_csv(header: list[str], records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in records:
        writer.writerow(
            [
                "" if v is None else str(v).lower() if isinstance(v, bool) else str(v)
                for v in (r[key] for key in header)
            ]
        )
    return buf.getvalue()


def payload(report: VerificationReport) -> dict:
    return {
        "grid": report.grid,
        "cells": [
            {
                "family": report.family.label,
                "n": c.n,
                "k": c.k,
                "m": c.m,
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


REPORT_HEADER = ["family", "n", "k", "m", "oracle", "closed", "match", "note"]


def reference_report(report: VerificationReport, fmt: str) -> str:
    if fmt == "json":
        return reference_json(payload(report))
    if fmt == "csv":
        return reference_csv(REPORT_HEADER, payload(report)["cells"])
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
            str(c.n), str(c.k), str(c.m),
            rational_str(c.oracle_area), rational_str(c.closed_area),
            "MATCH" if c.match else "MISMATCH", c.note,
        ]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def awkward(initial, coefficients=(1, 1)) -> SequenceFamily:
    """An order-2 custom family under the awkward label."""
    spec = RecurrenceSpec(2, coefficients, initial, AWKWARD_LABEL)
    return SequenceFamily.custom(spec)


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
    # A report not made by verify_family: equal areas held by distinct
    # Fractions, a negative area and a note needing quotes.
    by_hand = VerificationReport(
        family=awkward((0, 1)),
        grid='by "hand", one family',
        cells=(
            VerificationCell(0, 1, 3, Fraction(1, 2), Fraction(2, 4), True),
            VerificationCell(
                4, 2, 5, Fraction(-7, 3), Fraction(7, 3), False, 'odd, "note"'
            ),
            VerificationCell(1, 1, 3, Fraction(0), Fraction(0), True, ""),
        ),
        pass_count=2,
        fail_count=1,
        elapsed=0.0,
    )
    return [passing, collinear, failing, by_hand]


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
    empty = VerificationReport(SequenceFamily.fibonacci(), "g", (), 0, 0, 0.0)
    assert render_report(empty, "json") == reference_report(empty, "json")


# -- gen, area and the two tables -------------------------------------------


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("count", [0, 1, 9])
def test_gen_matches_reference_writer(fmt, count):
    family = SequenceFamily.custom(RecurrenceSpec(2, (1, 1), (-3, 2)))
    values = family_terms(family, 0, count)
    if fmt == "json":
        want = reference_json([str(v) for v in values])
    else:
        records = [{"n": i, "value": v} for i, v in enumerate(values)]
        want = reference_csv(["n", "value"], records)
    assert render_gen(values, fmt) == want


def reference_area(spec, method, oracle, closed, fmt) -> str:
    where = {"family": spec.family.label, "n": spec.n, "k": spec.k, "m": spec.m}
    found = {
        "oracle": optional_str(oracle),
        "closed": optional_str(closed),
        "match": oracle == closed if method == "both" else None,
    }
    if fmt == "csv":
        return reference_csv(list(where) + list(found), [{**where, **found}])
    present = {key: v for key, v in found.items() if v is not None}
    return reference_json({**where, "method": method, **present})


AREA_SPEC = PolygonSpec(awkward((2, 5)), 3, 2, 4)
AREA_ORACLE = shoelace_area(build_vertices(AREA_SPEC))
AREA_CLOSED = closedforms.mgon_area(AREA_SPEC.family, 2, 4)
AREA_CASES = [
    ("oracle", AREA_ORACLE, None),
    ("closed", None, AREA_CLOSED),
    ("both", AREA_ORACLE, AREA_CLOSED),
    ("both", AREA_ORACLE, Fraction(-5, 2)),  # a mismatch
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", AREA_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
def test_area_matches_reference_writer(fmt, case):
    method, oracle, closed = case
    got = render_area(AREA_SPEC, method, oracle, closed, fmt)
    assert got == reference_area(AREA_SPEC, method, oracle, closed, fmt)


def reference_polygonal(table: PolygonalTable, fmt: str) -> str:
    header = ["m", "rank", "coefficient", "published", "match"]
    records = [{key: getattr(c, key) for key in header} for c in table.cells]
    if fmt == "csv":
        return reference_csv(header, records)
    return reference_json(
        {"m_values": list(table.m_values), "ranks": list(table.ranks), "cells": records}
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_polygonal_table_matches_reference_writer(fmt):
    # m = 8 and rank 8 are past the published table: published and match None.
    table = polygonal_table(range(6, 9), [4, 8])
    assert {c.match for c in table.cells} == {True, None}
    assert render_polygonal_table(table, fmt) == reference_polygonal(table, fmt)


def reference_third_order(table: ThirdOrderTable, fmt: str) -> str:
    header = ["column", "k", "computed", "published", "status"]
    records = [
        {
            "column": c.column,
            "k": c.k,
            "computed": rational_str(c.computed),
            "published": optional_str(c.published),
            "status": c.status,
        }
        for c in table.cells
    ]
    if fmt == "csv":
        return reference_csv(header, records)
    return reference_json(
        {
            "n": table.n,
            "k_max": table.k_max,
            "padovan_initial": list(table.padovan_initial),
            "cells": records,
        }
    )


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "n, k_max, initial",
    [(1, 7, None), (0, 3, (-3, 2, -1))],  # k = 7 and n = 0 have no published value
)
def test_third_order_table_matches_reference_writer(fmt, n, k_max, initial):
    table = third_order_table(n, k_max, initial)
    assert any(c.published is None for c in table.cells)
    assert render_third_order_table(table, fmt) == reference_third_order(table, fmt)
