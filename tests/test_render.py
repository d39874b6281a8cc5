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
from hypothesis import given, settings
from hypothesis import strategies as st

from seqarea import cli, closedforms, verify
from seqarea.cli import (
    render_area,
    render_gen,
    render_polygonal_table,
    render_report,
    render_third_order_table,
)
from seqarea.geometry import build_vertices, shoelace_signed
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
from support import GRIDS, closed_areas_with

# Every character a JSON or CSV writer must escape or quote, and non-ASCII.
AWKWARD_LABEL = 'q "x", back\\slash\nnew line, Ümlaut ∑ 😀'


def optional_str(x: Fraction | None) -> str | None:
    return None if x is None else rational_str(x)


def area_str(twice: int | None) -> str | None:
    """The area of signed twice-area ``twice``, as the outputs spell it."""
    return None if twice is None else rational_str(abs(Fraction(twice, 2)))


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
                "oracle": area_str(c.oracle_twice),
                "closed": area_str(c.closed_twice),
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
            area_str(c.oracle_twice), area_str(c.closed_twice),
            "MATCH" if c.match else "MISMATCH", c.note,
        ]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def awkward(initial, coefficients=(1, 1)) -> SequenceFamily:
    """An order-2 custom family under the awkward label."""
    spec = RecurrenceSpec(coefficients, initial, AWKWARD_LABEL)
    return SequenceFamily.custom(spec)


def reports() -> list[VerificationReport]:
    grid = (range(0, 3), range(1, 4), range(3, 6))
    passing = verify_family(awkward((2, 5)), *grid)
    collinear = verify_family(awkward((1, 2), (1, 2)), *grid)
    def broken(k, m, twice):
        # Right at m = 3, S = 0 (never collinear here) at k = 1, else S + 1.
        if m == 3:
            return twice
        return 0 if k == 1 else twice + 1

    with mock.patch.object(verify, "closed_areas", closed_areas_with(broken)):
        failing = verify_family(awkward((2, 5)), *grid)
    # A report not made by verify_family: one area with opposite signs (a
    # mismatch spelled alike), negative twice-areas and a note needing quotes.
    by_hand = VerificationReport(
        family=awkward((0, 1)),
        grid='by "hand", one family',
        cells=(
            VerificationCell(0, 1, 3, 1, -1, False),
            VerificationCell(4, 2, 5, -14, -14, True, 'odd, "note"'),
            VerificationCell(1, 1, 3, 0, 0, True, ""),
        ),
        pass_count=2,
        fail_count=1,
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


GRID_FAMILIES = st.one_of(
    st.sampled_from([
        SequenceFamily.fibonacci(), SequenceFamily.lucas(), SequenceFamily.pell(),
        SequenceFamily.pell_lucas(), SequenceFamily.jacobsthal(),
        SequenceFamily.jacobsthal_lucas(),
    ]),
    st.builds(SequenceFamily.generalized, st.integers(-6, 6), st.integers(-6, 6)),
    st.builds(SequenceFamily.polygonal, st.integers(3, 12)),
)


@settings(max_examples=60, deadline=None)
@given(
    family=GRID_FAMILIES,
    broken=st.sets(st.tuples(st.integers(1, 12), st.integers(3, 12)), max_size=6),
    zero=st.booleans(),
    **GRIDS,
)
def test_rows_render_as_the_cells(family, broken, zero, ns, ks, ms):
    # A closed form patched at the (k, m) in ``broken`` (to 0, or S + 1)
    # fails the rows that hold them, which are judged and spelled cell by
    # cell beside the shared rows of the rest.  The same cells as a plain
    # tuple render the same bytes.
    def patched(k, m, twice):
        if (k, m) in broken:
            return 0 if zero else twice + 1
        return twice

    with mock.patch.object(verify, "closed_areas", closed_areas_with(patched)):
        report = verify_family(family, ns, ks, ms)
    flat = report._replace(cells=tuple(report.cells))
    assert report.pass_count == sum(cell.match for cell in flat.cells)
    for fmt in ("json", "csv", "markdown"):
        want = reference_report(flat, fmt)
        assert render_report(report, fmt) == want
        assert render_report(flat, fmt) == want


class _NoCell:
    """Stands in for VerificationCell: building or reading one fails."""

    def __getattr__(self, name):
        raise AssertionError(f"VerificationCell.{name} read")

    def __call__(self, *args, **kwargs):
        raise AssertionError("VerificationCell built")


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
@pytest.mark.parametrize(
    "family", [["fibonacci"], ["jacobsthal"], ["polygonal", "--rank", "5"]],
    ids=lambda family: family[0],
)
def test_verify_command_builds_no_cell(capsys, fmt, family):
    argv = ["verify", *family, "--n", "0..20", "--k", "1..20", "--m", "3..10",
            "--format", fmt]
    want = cli.main(argv), capsys.readouterr().out
    with mock.patch.object(verify, "VerificationCell", _NoCell()):
        got = cli.main(argv), capsys.readouterr().out
    assert got == want and want[0] == 0


def test_failing_verify_command_builds_no_cell(capsys):
    # A failing grid judges its rows cell by cell, and still builds no cell.
    def broken(k, m, twice):
        return twice + (k == 2)

    argv = ["verify", "pell", "--n", "0..5", "--k", "1..3", "--m", "3..5"]
    with mock.patch.object(verify, "closed_areas", closed_areas_with(broken)):
        want = cli.main(argv), capsys.readouterr().out
        with mock.patch.object(verify, "VerificationCell", _NoCell()):
            got = cli.main(argv), capsys.readouterr().out
    assert got == want and want[0] == 1 and "MISMATCH" in want[1]


def test_empty_report_json():
    empty = VerificationReport(SequenceFamily.fibonacci(), "g", (), 0, 0)
    assert render_report(empty, "json") == reference_report(empty, "json")


# -- gen, area and the two tables -------------------------------------------


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("count", [0, 1, 9])
def test_gen_matches_reference_writer(fmt, count):
    family = SequenceFamily.custom(RecurrenceSpec((1, 1), (-3, 2)))
    values = family_terms(family, 0, count)
    if fmt == "json":
        want = reference_json([str(v) for v in values])
    else:
        records = [{"n": i, "value": v} for i, v in enumerate(values)]
        want = reference_csv(["n", "value"], records)
    assert render_gen(values, fmt) == want


def reference_area(family, n, k, m, method, oracle, closed, fmt) -> str:
    where = {"family": family.label, "n": n, "k": k, "m": m}
    found = {
        "oracle": area_str(oracle),
        "closed": area_str(closed),
        "match": oracle == closed if method == "both" else None,
    }
    if fmt == "csv":
        return reference_csv(list(where) + list(found), [{**where, **found}])
    present = {key: v for key, v in found.items() if v is not None}
    return reference_json({**where, "method": method, **present})


AREA_SPEC = awkward((2, 5)), 3, 2, 4  # family, n, k, m
AREA_ORACLE = int(2 * shoelace_signed(*build_vertices(*AREA_SPEC)))
AREA_CLOSED = closedforms.twice_signed_area(*AREA_SPEC)
AREA_CASES = [
    ("oracle", AREA_ORACLE, None),
    ("closed", None, AREA_CLOSED),
    ("both", AREA_ORACLE, AREA_CLOSED),
    ("both", AREA_ORACLE, -5),  # a mismatch
    ("both", AREA_ORACLE, -AREA_ORACLE),  # the same area, the other sign
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", AREA_CASES, ids=lambda c: f"{c[0]}-{c[2]}")
def test_area_matches_reference_writer(fmt, case):
    method, oracle, closed = case
    got = render_area(*AREA_SPEC, method, oracle, closed, fmt)
    assert got == reference_area(*AREA_SPEC, method, oracle, closed, fmt)


@pytest.mark.parametrize("fmt", ["markdown", "json", "csv"])
@pytest.mark.parametrize("closed, spellings", [(AREA_CLOSED, 1), (-AREA_ORACLE, 2)])
def test_area_spells_a_match_once(fmt, closed, spellings):
    # At large n one area has tens of thousands of digits: a MATCH spells
    # them once and writes the token twice.  CSV's token is ``_area``
    # itself, bound in ``_TOKENS``, so the spy goes there too.
    want = render_area(*AREA_SPEC, "both", AREA_ORACLE, closed, fmt)
    spy = mock.Mock(wraps=cli._area)
    text, _, null = cli._TOKENS["csv"]
    with mock.patch.object(cli, "_area", spy), mock.patch.dict(
        cli._TOKENS, {"csv": (text, spy, null)}
    ):
        got = render_area(*AREA_SPEC, "both", AREA_ORACLE, closed, fmt)
    assert spy.call_count == spellings
    assert got == want


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
            "computed": area_str(c.twice),
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


@given(twice=st.integers(-(10**60), 10**60))
def test_area_spells_half_the_absolute_twice_area(twice):
    assert cli._area(twice) == rational_str(Fraction(abs(twice), 2))


@pytest.mark.parametrize("text", [
    'say "MATCH"', "a\\b", "tab\tnew\nline\x00\x1f", "padovan(initial=é,€,😀)", "",
])
def test_json_string_token_is_json_dumps(text):
    assert cli._TOKENS["json"][0](text) == json.dumps(text)
