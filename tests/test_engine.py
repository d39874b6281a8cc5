"""The term engine against forward iteration, plus its memory and thread bounds.

``forward`` below is the oracle: plain iteration from the initial terms,
independent of the engine's table, companion-matrix jump and windows.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqarea.geometry import PolygonSpec, build_vertices, shoelace_area
from seqarea.sequences import (
    MAX_SEQUENCE_INDEX,
    RecurrenceSpec,
    SequenceFamily,
    _small_table,
    binet_eval,
    binet_params,
    family_terms,
    polygonal_number,
    preset,
    term,
    terms,
)

PRESET_FAMILIES = [
    SequenceFamily.fibonacci(),
    SequenceFamily.lucas(),
    SequenceFamily.generalized(2, 3),
    SequenceFamily.pell(),
    SequenceFamily.pell_lucas(),
    SequenceFamily.jacobsthal(),
    SequenceFamily.jacobsthal_lucas(),
    SequenceFamily.tribonacci(),
    SequenceFamily.perrin(),
    SequenceFamily.padovan(),
    SequenceFamily.padovan((1, 0, 0)),
]
STARTS = (0, 1, 2, 399, 400, 401, 20000)
COUNT = 6


def forward(spec: RecurrenceSpec, stop: int) -> list[int]:
    """f(0) .. f(stop-1) by forward iteration, written out independently."""
    out = list(spec.initial_terms)
    while len(out) < stop:
        out.append(
            sum(spec.coefficients[i] * out[len(out) - 1 - i] for i in range(spec.order))
        )
    return out[:stop]


@st.composite
def custom_specs(draw):
    order = draw(st.integers(1, 4))
    coefficients = draw(st.lists(st.integers(-3, 3), min_size=order, max_size=order))
    initial = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))
    return RecurrenceSpec(order, tuple(coefficients), tuple(initial), "hypothesis")


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        spec=custom_specs(),
        start=st.one_of(st.integers(0, 4), st.integers(0, 5000)),
        count=st.integers(1, 40),
    )
    def test_custom_specs_match_forward_iteration(self, spec, start, count):
        want = forward(spec, start + count)[start:]
        assert terms(spec, start, count) == want
        assert term(spec, start) == want[0]

    @settings(max_examples=40, deadline=None)
    @given(spec=custom_specs(), start=st.integers(0, 3))
    def test_starts_below_the_order(self, spec, start):
        assert terms(spec, start, 1) == forward(spec, start + 1)[start:]
        assert terms(spec, start, 0) == []

    @pytest.mark.parametrize("family", PRESET_FAMILIES, ids=lambda f: f.label)
    def test_presets_at_table_edges_and_deep(self, family):
        spec = preset(family)
        reference = forward(spec, max(STARTS) + COUNT)
        for start in STARTS:
            assert terms(spec, start, COUNT) == reference[start : start + COUNT]
            assert terms(spec, start, 1) == [reference[start]]
            assert term(spec, start) == reference[start]
            assert family_terms(family, start, COUNT) == reference[start : start + COUNT]

    def test_polygonal_family_terms(self):
        assert family_terms(SequenceFamily.polygonal(7), 398, 5) == [
            polygonal_number(7, n) for n in range(398, 403)
        ]

    def test_negative_arguments_rejected(self):
        spec = preset(SequenceFamily.fibonacci())
        with pytest.raises(ValueError):
            terms(spec, -1, 3)
        with pytest.raises(ValueError):
            terms(spec, 0, -1)

    @pytest.mark.parametrize(
        "family", [SequenceFamily.fibonacci(), SequenceFamily.polygonal(3)],
        ids=lambda f: f.label,
    )
    @pytest.mark.parametrize(
        "start, count, message",
        [(-1, 2, "term index must be >= 0, got -1"),
         (0, -1, "term count must be >= 0, got -1")],
    )
    def test_family_window_checked_alike(self, family, start, count, message):
        with pytest.raises(ValueError) as excinfo:
            family_terms(family, start, count)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "family",
        [
            SequenceFamily.fibonacci(),
            SequenceFamily.lucas(),
            SequenceFamily.generalized(-1, 4),
            SequenceFamily.pell(),
            SequenceFamily.pell_lucas(),
        ],
        ids=lambda f: f.label,
    )
    def test_binet_agrees_on_the_jump_path(self, family):
        # Above MAX_SEQUENCE_INDEX, term() jumps instead of reading the table.
        params = binet_params(family)
        for n in (MAX_SEQUENCE_INDEX + 1, 777, 1500):
            assert binet_eval(params, n) == term(preset(family), n)


class TestBounds:
    def test_deep_polygon_memory_is_bounded_and_released(self):
        spec = PolygonSpec(SequenceFamily.fibonacci(), 60000, 20, 10)
        expected = shoelace_area(build_vertices(spec))
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert shoelace_area(build_vertices(spec)) == expected
            peak = tracemalloc.get_traced_memory()[1] - baseline
            after_first = tracemalloc.get_traced_memory()[0]
            assert shoelace_area(build_vertices(spec)) == expected
            after_second = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # Nothing is kept between calls: no store grows with the index.
        assert after_first - baseline < 64 * 2**10
        assert after_second - after_first < 16 * 2**10

    def test_concurrent_calls_agree(self):
        specs = [preset(f) for f in PRESET_FAMILIES]
        jobs = [(spec, n) for spec in specs for n in (0, 7, 150, 400, 401, 3000)]
        expected = [(term(spec, n), terms(spec, n, 5)) for spec, n in jobs]
        results: dict[int, list] = {}

        def work(slot: int) -> None:
            results[slot] = [(term(spec, n), terms(spec, n, 5)) for spec, n in jobs]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _small_table.cache_clear()
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert [results[i] for i in range(4)] == [expected] * 4
