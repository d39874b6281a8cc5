import tracemalloc
from fractions import Fraction

import pytest

from seqarea.sequences import SequenceFamily, UnsupportedFamilyError, _small_table
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
        first = verify_family(*args)
        second = verify_family(*args)
        assert first.cells == second.cells
        assert first.grid == second.grid

    def test_oracle_area_independent_of_n(self):
        report = verify_family(
            SequenceFamily.lucas(), range(0, 9), [2], [4]
        )
        areas = {c.oracle_area for c in report.cells}
        assert len(areas) == 1

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
        assert all(c.closed_area == 0 and c.note == "collinear" for c in report.cells)

    def test_report_counts_are_consistent(self):
        report = verify_family(
            SequenceFamily.pell_lucas(), range(0, 3), range(1, 4), range(3, 6)
        )
        both = sum(1 for c in report.cells if c.closed_area is not None)
        assert report.pass_count + report.fail_count == both
        assert report.elapsed >= 0.0

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
        assert all(c.oracle_area == 0 for c in report.cells)
        assert all(c.note == "collinear" for c in report.cells)

    def test_wrong_family_rejected(self):
        with pytest.raises(UnsupportedFamilyError):
            verify_collinearity(SequenceFamily.fibonacci(), [1], [1], [3])


class TestPolygonalTable:
    def test_triangle_row(self):
        table = polygonal_table(range(3, 8), range(3, 8))
        assert [table.cell(3, r).coefficient for r in table.ranks] == [
            4, 16, 36, 64, 100,
        ]

    def test_reference_cells_all_match(self):
        table = polygonal_table(range(3, 8), range(3, 8))
        assert len(table.cells) == 25
        assert table.mismatches == ()
        assert all(c.match for c in table.cells)

    def test_known_entries(self):
        table = polygonal_table(range(3, 8), range(3, 8))
        assert table.cell(6, 5).coefficient == 720
        assert table.cell(7, 3).coefficient == 140

    def test_matches_embedded_reference(self):
        table = polygonal_table(range(3, 8), range(3, 8))
        for cell in table.cells:
            assert cell.published == PUBLISHED_POLYGONAL_COEFFS[(cell.m, cell.rank)]

    def test_cells_outside_reference_have_no_flag(self):
        table = polygonal_table([8, 9], [11, 12])
        for cell in table.cells:
            assert cell.published is None and cell.match is None

    def test_rank_names(self):
        assert rank_name(3) == "Triangular"
        assert rank_name(7) == "Heptagonal"
        assert rank_name(23) == "23-gonal"


class TestThirdOrderTable:
    def test_tribonacci_column_matches_reference(self):
        table = third_order_table(1, 6)
        cells = table.column("tribonacci")
        assert [c.computed for c in cells] == [3, 64, 849, 23360, 509729, 10049160]
        assert all(c.status == STATUS_MATCH for c in cells)

    def test_perrin_column_flags_one_reference_typo(self):
        table = third_order_table(1, 6)
        by_k = {c.k: c for c in table.column("perrin")}
        assert by_k[1].computed == Fraction(9, 2)
        assert by_k[2].computed == Fraction(47, 2)
        assert by_k[4].computed == 149
        assert by_k[5].computed == Fraction(1629, 2)
        assert by_k[6].computed == 4820
        assert by_k[3].computed == Fraction(31, 2)
        assert by_k[3].published == Fraction(31, 9)
        assert by_k[3].status == STATUS_MISMATCH
        assert all(c.status == STATUS_MATCH for c in table.column("perrin") if c.k != 3)

    def test_padovan_column_always_flagged(self):
        table = third_order_table(1, 6)
        assert all(c.status == STATUS_UNVERIFIED for c in table.column("padovan"))

    def test_padovan_initial_is_configurable(self):
        default = third_order_table(1, 3)
        alt = third_order_table(1, 3, padovan_initial=(1, 0, 0))
        assert default.cell("padovan", 2).computed != alt.cell("padovan", 2).computed
        assert alt.cell("tribonacci", 2).computed == 64

    def test_no_reference_values_off_published_grid(self):
        table = third_order_table(2, 7)
        assert all(c.published is None for c in table.cells)
        assert all(
            c.status == "" for c in table.cells if c.column != "padovan"
        )
        longer = third_order_table(1, 7)
        assert longer.cell("tribonacci", 7).published is None

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            third_order_table(-1, 3)
        with pytest.raises(ValueError):
            third_order_table(1, 0)
