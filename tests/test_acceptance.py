"""Acceptance suite: every criterion checked exactly, one pass/fail line each.

All comparisons are exact rational equality (zero tolerance).  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from seqarea import cli
from seqarea.closedforms import (
    closed_triangle_area,
    general_mgon_area,
    general_triangle_area,
    mgon_area,
    polygonal_mgon_area,
    polygonal_triangle_area,
)
from seqarea.geometry import PolygonSpec, build_vertices, shoelace_area
from seqarea.sequences import (
    SequenceFamily,
    binet_eval,
    binet_params,
    preset,
    term,
)
from seqarea.verify import (
    STATUS_MATCH,
    STATUS_MISMATCH,
    STATUS_UNVERIFIED,
    third_order_table,
    verify_collinearity,
)
from support import field_axiom_violations, make_rng

from test_cli import EXPECTED_POLYGONAL_MARKDOWN

NAMED_BINET_FAMILIES = [
    SequenceFamily.fibonacci(),
    SequenceFamily.lucas(),
    SequenceFamily.pell(),
    SequenceFamily.pell_lucas(),
]

GENERALIZED_ST = [(s, t) for s in range(-3, 4) for t in range(-3, 4)]

# Representative parameter pairs for the two-parameter family on the larger
# m-gon grids (the named grids already cover it exhaustively on triangles).
GENERALIZED_SAMPLE = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 3), (-1, 2), (3, -2)]


def oracle(family, n, k, m) -> Fraction:
    return shoelace_area(build_vertices(PolygonSpec(family, n, k, m)))


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(
            f"ACCEPTANCE {num}: FAIL ({elapsed:.2f}s over {budget:.0f}s budget)"
            f" - {description}"
        )
        raise AssertionError(
            f"criterion {num} took {elapsed:.2f}s, budget {budget:.0f}s"
        )
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) - {description}")


def _triangle_families():
    yield from NAMED_BINET_FAMILIES
    for s, t in GENERALIZED_ST:
        yield SequenceFamily.generalized(s, t)


def test_criterion_1_triangle_theorems():
    with criterion(1, "triangle closed forms equal the shoelace oracle", 5.0):
        for family in _triangle_families():
            for n in range(0, 13):
                for k in range(1, 9):
                    closed = closed_triangle_area(family, k).area
                    assert closed == oracle(family, n, k, 3), (family.label, n, k)


def test_criterion_2_general_triangle_form_consistency():
    with criterion(
        2, "general factored form matches parity-split forms, radical cancels"
    ):
        for family in _triangle_families():
            params = binet_params(family)
            for n in range(0, 13):
                for k in range(1, 9):
                    value = general_triangle_area(params, n, k).to_rational()
                    assert abs(value) == closed_triangle_area(family, k).area, (
                        family.label, n, k,
                    )


def test_criterion_3_mgon_theorems():
    with criterion(3, "m-gon closed forms equal oracle and general form", 10.0):
        families = NAMED_BINET_FAMILIES + [
            SequenceFamily.generalized(s, t) for s, t in GENERALIZED_SAMPLE
        ]
        for family in families:
            params = binet_params(family)
            for k in range(1, 7):
                for m in range(3, 11):
                    closed = mgon_area(family, k, m)
                    assert closed == general_mgon_area(params, k, m), (
                        family.label, k, m,
                    )
                    for n in range(0, 9):
                        assert closed == oracle(family, n, k, m), (
                            family.label, n, k, m,
                        )


def test_criterion_4_jacobsthal_collinearity():
    with criterion(4, "jacobsthal-type vertex patterns always degenerate", 2.0):
        for family in (SequenceFamily.jacobsthal(), SequenceFamily.jacobsthal_lucas()):
            report = verify_collinearity(
                family, range(0, 11), range(1, 9), range(3, 11)
            )
            assert report.fail_count == 0, family.label
            assert report.pass_count == 11 * 8 * 8


def test_criterion_5_polygonal_results(tmp_path):
    with criterion(5, "figurate-number areas match oracle; reference table exact", 5.0):
        for rank in range(3, 11):
            family = SequenceFamily.polygonal(rank)
            for k in range(1, 9):
                assert polygonal_mgon_area(rank, k, 3) == polygonal_triangle_area(
                    rank, k
                )
                for m in range(3, 13):
                    closed = polygonal_mgon_area(rank, k, m)
                    for n in range(0, 11):
                        assert closed == oracle(family, n, k, m), (rank, n, k, m)
        out = tmp_path / "polygonal.md"
        assert cli.main(["table", "polygonal", "--out", str(out)]) == 0
        assert out.read_text() == EXPECTED_POLYGONAL_MARKDOWN


def test_criterion_6_third_order_table():
    with criterion(6, "third-order table values and flags", 1.0):
        table = third_order_table(1, 6)
        trib = table.column("tribonacci")
        assert [c.computed for c in trib] == [3, 64, 849, 23360, 509729, 10049160]
        assert all(c.status == STATUS_MATCH for c in trib)
        perrin = {c.k: c for c in table.column("perrin")}
        assert perrin[1].computed == Fraction(9, 2)
        assert perrin[2].computed == Fraction(47, 2)
        assert perrin[4].computed == Fraction(149)
        assert perrin[5].computed == Fraction(1629, 2)
        assert perrin[6].computed == Fraction(4820)
        for k in (1, 2, 4, 5, 6):
            assert perrin[k].status == STATUS_MATCH
        assert perrin[3].computed == Fraction(31, 2)
        assert perrin[3].published == Fraction(31, 9)
        assert perrin[3].status == STATUS_MISMATCH
        padovan = table.column("padovan")
        assert all(c.status == STATUS_UNVERIFIED for c in padovan)


def test_criterion_7_binet_recurrence_equivalence():
    with criterion(7, "closed Binet evaluation equals recurrence iteration"):
        families = NAMED_BINET_FAMILIES + [
            SequenceFamily.generalized(s, t) for s, t in GENERALIZED_ST
        ]
        for family in families:
            params = binet_params(family)
            spec = preset(family)
            for n in range(0, 41):
                assert binet_eval(params, n) == term(spec, n), (family.label, n)


def test_criterion_8_property_suites():
    with criterion(8, "randomized field axioms and geometry invariants"):
        for d in (2, 5):
            assert field_axiom_violations(make_rng(100 + d), d, 1000) == 0

        from seqarea.geometry import Point, Polygon, shoelace_signed

        rng = make_rng(200)
        for _ in range(300):
            pts = tuple(
                Point(rng.randint(-50, 50), rng.randint(-50, 50))
                for _ in range(rng.randint(3, 9))
            )
            poly = Polygon(pts)
            dx, dy = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            moved = Polygon(tuple(Point(x + dx, y + dy) for x, y in pts))
            assert shoelace_area(moved) == shoelace_area(poly)
            assert shoelace_signed(Polygon(pts[::-1])) == -shoelace_signed(poly)

        for s in range(-5, 6):
            for t in range(-5, 6):
                params = binet_params(SequenceFamily.generalized(s, t))
                product = (params.a * params.b).to_rational()
                assert product == Fraction(s * s + s * t - t * t, 5)
