import pickle
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest

from seqarea import sequences
from seqarea.closedforms import closed_triangle_area, polygonal_mgon_area
from seqarea.geometry import build_vertices, twice_shoelace
from seqarea.sequences import SequenceFamily, UnsupportedFamilyError, _small_table, terms
from seqarea.verify import (
    MAX_SEQUENCE_INDEX,
    PUBLISHED_POLYGONAL_COEFFS,
    STATUS_MATCH,
    STATUS_MISMATCH,
    STATUS_UNVERIFIED,
    polygonal_table,
    rank_name,
    third_order_table,
    verify_collinearity,
    verify_family,
)


class TestVerifyFamily:
    def test_fibonacci_grid_passes(self):
        report = verify_family(
            SequenceFamily.fibonacci(), range(1, 6), range(1, 5), range(3, 6)
        )
        assert report.fail_count == 0
        assert report.pass_count == len(report.cells) == 5 * 4 * 3

    def test_polygonal_grid_passes(self):
        report = verify_family(
            SequenceFamily.polygonal(4), range(1, 6), range(1, 5), range(3, 7)
        )
        assert report.fail_count == 0

    def test_generalized_grid_passes(self):
        report = verify_family(
            SequenceFamily.generalized(1, 2), range(0, 4), range(1, 4), [3]
        )
        assert report.fail_count == 0

    def test_cell_ordering_is_n_k_m(self):
        report = verify_family(
            SequenceFamily.fibonacci(), range(1, 3), range(1, 3), range(3, 5)
        )
        order = [(c.n, c.k, c.m) for c in report.cells]
        assert order == sorted(order)

    def test_determinism(self):
        args = (SequenceFamily.pell(), range(0, 3), range(1, 3), range(3, 5))
        assert verify_family(*args) == verify_family(*args)

    def test_oracle_area_independent_of_n(self):
        # Only the sign of the twice-area depends on n: (-1)**n for Lucas.
        report = verify_family(
            SequenceFamily.lucas(), range(0, 9), [2], [4]
        )
        twices = [c.oracle_twice for c in report.cells]
        assert twices == [c.closed_twice for c in report.cells]
        assert twices == [(-1) ** n * twices[0] for n in range(0, 9)]

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamilyError):
            verify_family(SequenceFamily.tribonacci(), [1], [1], [3])
        report = verify_family(SequenceFamily.jacobsthal(), [1], [1], [3])
        assert report.fail_count == 0 and report.pass_count == 1

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            verify_family(SequenceFamily.fibonacci(), [], [1], [3])

    def test_guardrail(self):
        with pytest.raises(ValueError):
            verify_family(
                SequenceFamily.fibonacci(), [0], [30], range(3, 11)
            )
        assert 0 + (2 * 10 - 1) * 30 > MAX_SEQUENCE_INDEX

    def test_guardrail_checked_before_ranges_are_listed(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="guardrail"):
                verify_family(SequenceFamily.fibonacci(), range(0, 2_000_001), [1], [3])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_zero_closed_area_cells_are_collinear(self):
        report = verify_family(
            SequenceFamily.jacobsthal_lucas(), range(0, 9), range(1, 7), range(3, 9)
        )
        assert report.fail_count == 0
        assert report.pass_count == len(report.cells) == 9 * 6 * 6
        assert all(c.closed_twice == 0 and c.note == "collinear" for c in report.cells)

    @pytest.mark.parametrize(
        "family", [SequenceFamily.pell(), SequenceFamily.jacobsthal()],
        ids=["shared-rows", "rows-judged-by-cell"],
    )
    def test_cells_view_is_the_tuple_of_its_cells(self, family):
        # Unsorted and duplicated axes; the view builds each cell it is asked for.
        report = verify_family(family, [0, 3, 0], range(1, 4), [3, 5, 4, 3])
        view, cells = report.cells, tuple(report.cells)
        assert len(view) == len(cells) == 3 * 3 * 4
        assert [view[i] for i in range(-len(cells), len(cells))] == [*cells, *cells]
        for index in (len(cells), -len(cells) - 1):
            with pytest.raises(IndexError):
                view[index]
        assert view[2:7] == cells[2:7] and view[::-5] == cells[::-5]
        assert view == cells and cells == view and not view != cells
        assert view != list(cells) and view != cells[1:]
        assert hash(view) == hash(cells) and repr(view) == repr(cells)
        assert report == report._replace(cells=cells)
        assert view.index(cells[5]) == 5 and cells[5] in view
        assert pickle.loads(pickle.dumps(report)) == report

    def test_report_counts_are_consistent(self):
        report = verify_family(
            SequenceFamily.pell_lucas(), range(0, 3), range(1, 4), range(3, 6)
        )
        both = sum(1 for c in report.cells if c.closed_twice is not None)
        assert report.pass_count + report.fail_count == both

    @pytest.mark.parametrize(
        "family",
        [
            SequenceFamily.fibonacci(),
            SequenceFamily.pell_lucas(),
            SequenceFamily.generalized(-2, 3),
            SequenceFamily.polygonal(9),
        ],
        ids=lambda f: f.label,
    )
    def test_near_maximal_grid_has_zero_failures(self, family):
        report = verify_family(family, range(0, 13), range(1, 9), range(3, 11))
        assert report.fail_count == 0
        assert report.pass_count == 13 * 8 * 8


def test_closed_form_shares_the_term_tables():
    # The closed form's U of (1, 1) is the fibonacci recurrence: one table.
    _small_table.cache_clear()
    for family in (SequenceFamily.fibonacci(), SequenceFamily.lucas()):
        assert verify_family(family, range(0, 3), range(1, 3), range(3, 5)).fail_count == 0
    assert _small_table.cache_info().currsize == 2


class TestVerifyCollinearity:
    @pytest.mark.parametrize(
        "family",
        [SequenceFamily.jacobsthal(), SequenceFamily.jacobsthal_lucas()],
        ids=lambda f: f.label,
    )
    def test_all_grids_degenerate(self, family):
        report = verify_collinearity(family, range(0, 9), range(1, 7), range(3, 9))
        assert report.fail_count == 0
        assert all(c.oracle_twice == 0 for c in report.cells)
        assert all(c.note == "collinear" for c in report.cells)
        # Every row matches in one step, and the whole grid shares one body.
        assert len(report.cells.bodies) == 1

    def test_wrong_family_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            verify_collinearity(SequenceFamily.fibonacci(), [1], [1], [3])


class TestPolygonalTable:
    def test_triangle_row(self):
        table = polygonal_table(range(3, 8), range(3, 8))
        coefficients = {(c.m, c.rank): c.coefficient for c in table.cells}
        assert [coefficients[3, r] for r in table.ranks] == [4, 16, 36, 64, 100]

    def test_reference_cells_all_match(self):
        table = polygonal_table(range(3, 8), range(3, 8))
        assert len(table.cells) == 25
        assert table.mismatches == ()
        assert all(c.match for c in table.cells)

    def test_known_entries(self):
        table = polygonal_table(range(3, 8), range(3, 8))
        coefficients = {(c.m, c.rank): c.coefficient for c in table.cells}
        assert coefficients[6, 5] == 720
        assert coefficients[7, 3] == 140

    def test_matches_embedded_reference(self):
        table = polygonal_table(range(3, 8), range(3, 8))
        for cell in table.cells:
            assert cell.published == PUBLISHED_POLYGONAL_COEFFS[(cell.m, cell.rank)]

    def test_cells_outside_reference_have_no_flag(self):
        table = polygonal_table([8, 9], [11, 12])
        for cell in table.cells:
            assert cell.published is None and cell.match is None

    def test_coefficient_is_the_area_at_k_1(self):
        table = polygonal_table([9, 4, 12], [3, 40, 7])
        for cell in table.cells:
            assert polygonal_mgon_area(cell.rank, 1, cell.m) == cell.coefficient

    @pytest.mark.parametrize(
        "m_values, ranks, error, message",
        [
            ([5, 2, 4], [3], ValueError, "vertex count m must be >= 3, got 2"),
            ([3], [4, 9, 2], ValueError, "polygonal rank must be >= 3, got 2"),
            ([3, 2, 1], [4], ValueError, "vertex count m must be >= 3, got 1"),
            ([2], [5, 2], ValueError, "polygonal rank must be >= 3, got 2"),
            ([3], [4, 5.5], TypeError, None),
            ([3, 4.0], [4], TypeError, None),
        ],
    )
    def test_domain_checked_once_over_every_value(self, m_values, ranks, error, message):
        # The domain is checked from the smallest values, so a bad value
        # anywhere in a list is still refused, and a non-integer raises.
        # The error names the smallest bad value, and rank is checked
        # before m.
        with pytest.raises(error, match=message):
            polygonal_table(m_values, ranks)

    def test_rank_names(self):
        assert rank_name(3) == "Triangular"
        assert rank_name(7) == "Heptagonal"
        assert rank_name(23) == "23-gonal"


class TestThirdOrderTable:
    def test_tribonacci_column_matches_reference(self):
        table = third_order_table(1, 6)
        cells = [c for c in table.cells if c.column == "tribonacci"]
        twices = [-6, -128, -1698, -46720, -1019458, -20098320]  # clockwise
        assert [c.twice for c in cells] == twices
        assert all(c.status == STATUS_MATCH for c in cells)

    def test_perrin_column_flags_one_reference_typo(self):
        table = third_order_table(1, 6)
        by_k = {c.k: c for c in table.cells if c.column == "perrin"}
        assert [by_k[k].twice for k in range(1, 7)] == [9, 47, 31, 298, 1629, 9640]
        assert by_k[3].published == Fraction(31, 9)
        assert by_k[3].status == STATUS_MISMATCH
        assert all(c.status == STATUS_MATCH for k, c in by_k.items() if k != 3)

    def test_padovan_column_always_flagged(self):
        table = third_order_table(1, 6)
        padovan = [c for c in table.cells if c.column == "padovan"]
        assert len(padovan) == 6
        assert all(c.status == STATUS_UNVERIFIED for c in padovan)

    def test_padovan_initial_is_configurable(self):
        default = third_order_table(1, 3)
        alt = third_order_table(1, 3, padovan_initial=(1, 0, 0))
        default_cells = {(c.column, c.k): c for c in default.cells}
        alt_cells = {(c.column, c.k): c for c in alt.cells}
        assert default_cells["padovan", 2].twice != alt_cells["padovan", 2].twice
        assert alt_cells["tribonacci", 2].twice == -128

    def test_no_reference_values_off_published_grid(self):
        table = third_order_table(2, 7)
        assert all(c.published is None for c in table.cells)
        assert all(
            c.status == "" for c in table.cells if c.column != "padovan"
        )
        longer = third_order_table(1, 7)
        assert {(c.column, c.k): c for c in longer.cells}["tribonacci", 7].published is None

    def test_cells_are_the_area_oracle_on_few_terms(self):
        # At n = 3000 the triangles with k < 600 pass their span 5k and
        # jump, the rest are direct; each fetch is one triangle's six terms.
        fetched = []

        def counted(*args):
            fetched.append(len(out := terms(*args)))
            return out

        with mock.patch.object(sequences, "terms", counted):
            table = third_order_table(3000, 700)
        assert fetched and max(fetched) <= 6
        families = {
            "tribonacci": SequenceFamily.tribonacci(),
            "perrin": SequenceFamily.perrin(),
            "padovan": SequenceFamily.padovan(),
        }
        assert [(c.column, c.k) for c in table.cells] == [
            (column, k) for k in range(1, 701) for column in families
        ]
        for cell in table.cells:
            poly = build_vertices(families[cell.column], 3000, cell.k, 3)
            assert cell.twice == twice_shoelace(*poly)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            third_order_table(-1, 3)
        with pytest.raises(ValueError):
            third_order_table(1, 0)


def _records():
    """One record of each result type, with a field to try to assign."""
    report = verify_family(SequenceFamily.fibonacci(), [1], [1], [3])
    polygonal = polygonal_table([3], [3])
    third = third_order_table(1, 1)
    fields = [
        (report.cells[0], "match"),
        (report, "cells"),
        (polygonal.cells[0], "coefficient"),
        (polygonal, "cells"),
        (third.cells[0], "status"),
        (third, "k_max"),
        (closed_triangle_area(SequenceFamily.fibonacci(), 1), "area"),
    ]
    return [pytest.param(r, f, id=type(r).__name__) for r, f in fields]


@pytest.mark.parametrize("record, field", _records())
def test_records_are_immutable(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


# Each record's fields in order; every field is required but a cell's note.
RECORD_FIELDS = {
    "VerificationCell": ("n", "k", "m", "oracle_twice", "closed_twice", "match", "note"),
    "VerificationReport": ("family", "grid", "cells", "pass_count", "fail_count"),
    "PolygonalTableCell": ("m", "rank", "coefficient", "published", "match"),
    "PolygonalTable": ("m_values", "ranks", "cells"),
    "ThirdOrderCell": ("column", "k", "twice", "published", "status"),
    "ThirdOrderTable": ("n", "k_max", "padovan_initial", "cells"),
    "ClosedFormResult": ("area",),
}


@pytest.mark.parametrize("record, field", _records())
def test_records_are_plain_tuples(record, field):
    cls = type(record)
    assert cls._fields == RECORD_FIELDS[cls.__name__]
    assert cls._field_defaults == ({"note": ""} if cls.__name__ == "VerificationCell" else {})
    assert cls.__doc__ and not hasattr(record, "__dict__")
    copy = cls._make(record)
    assert type(copy) is cls and copy == record and copy is not record
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, record))
    assert repr(record) == f"{cls.__name__}({shown})"
