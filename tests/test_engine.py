"""The term engine against forward iteration, plus its memory and thread bounds.

``forward`` below is the oracle: plain iteration from the initial terms,
independent of the engine's table, polynomial jump, strides and windows.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqarea import geometry, sequences
from seqarea.closedforms import closed_area_for
from seqarea.geometry import build_vertices, shoelace_area, twice_shoelace
from seqarea.sequences import (
    MAX_SEQUENCE_INDEX,
    RecurrenceSpec,
    SequenceFamily,
    _extend,
    _x_power,
    _small_table,
    binet_eval,
    binet_params,
    family_terms,
    polygonal_number,
    preset,
    reach,
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
# 396 .. 401 runs past the table from a head it holds, at every order.
STARTS = (0, 1, 2, 396, 399, 400, 401, 20000)
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
    order = draw(st.integers(1, 5))
    leading = draw(st.lists(st.integers(-3, 3), min_size=order - 1, max_size=order - 1))
    last = draw(st.one_of(st.just(0), st.integers(-3, 3)))  # c_d = 0 often
    initial = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))
    return RecurrenceSpec((*leading, last), tuple(initial), "hypothesis")


# Orders 1 to 5, two of them with c_d = 0, for the head of a window past
# the table: the first min(count, order) terms are strided, the rest iterated.
HEAD_SPECS = (
    RecurrenceSpec((0,), (3,)),
    RecurrenceSpec((-2,), (1,)),
    RecurrenceSpec((1, 1), (0, 1)),
    RecurrenceSpec((1, -2, 0), (1, 2, -3)),
    RecurrenceSpec((1, 0, -1, 2), (1, -1, 2, 0)),
    RecurrenceSpec((0, 1, 0, 1, -1), (2, 0, -1, 3, 1)),
)


def head_examples(test):
    """Pin every spec of HEAD_SPECS at starts 401 and 5,000 and counts 0, 1,
    order - 1, order and order + 1."""
    for spec in HEAD_SPECS:
        for start in (401, 5000):
            for count in sorted({0, 1, spec.order - 1, spec.order, spec.order + 1}):
                test = example(spec=spec, start=start, count=count)(test)
    return test


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        spec=custom_specs(),
        start=st.one_of(st.integers(0, 4), st.integers(0, 5000)),
        count=st.integers(1, 40),
    )
    @head_examples
    def test_custom_specs_match_forward_iteration(self, spec, start, count):
        want = forward(spec, start + max(count, 1))[start:]
        assert terms(spec, start, count) == want[:count]
        assert term(spec, start) == want[0]

    @settings(max_examples=150, deadline=None)
    @given(
        spec=custom_specs(),
        start=st.one_of(st.integers(0, 5), st.integers(0, 1500)),
        count=st.integers(0, 12),
        step=st.integers(1, 60),
    )
    def test_strided_windows_match_forward_iteration(self, spec, start, count, step):
        # Starts up to 1,500 with strides up to 60: windows inside the
        # 400-index table, across its edge and wholly past it.
        want = forward(spec, start + max(count - 1, 0) * step + 1)[start::step][:count]
        assert terms(spec, start, count, step) == want
        assert family_terms(SequenceFamily.custom(spec), start, count, step) == want

    @settings(max_examples=80, deadline=None)
    @given(spec=custom_specs(), offset=st.integers(0, 30), count=st.integers(0, 60))
    @example(spec=HEAD_SPECS[5], offset=0, count=1)
    def test_extend_matches_forward_iteration(self, spec, offset, count):
        # Forward iteration from any ``order`` consecutive terms; a window
        # that already holds ``count`` terms, shorter than the order too,
        # comes back as it is.
        reference = forward(spec, offset + spec.order + count)
        window = reference[offset : offset + spec.order]
        assert _extend(spec, window, count) is window
        assert window == reference[offset : offset + max(count, spec.order)]
        for size in range(1, spec.order + 1):
            short = reference[offset : offset + size]
            assert _extend(spec, list(short), min(count, size)) == short

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

    @settings(max_examples=60, deadline=None)
    @given(
        rank=st.integers(3, 12),
        start=st.integers(0, 5000),
        count=st.integers(0, 12),
        step=st.integers(1, 3000),
    )
    def test_polygonal_strides_its_closed_form(self, rank, start, count, step):
        assert family_terms(SequenceFamily.polygonal(rank), start, count, step) == [
            polygonal_number(rank, start + i * step) for i in range(count)
        ]

    @pytest.mark.parametrize(
        "family", [SequenceFamily.pell(), SequenceFamily.polygonal(5)],
        ids=lambda f: f.label,
    )
    @pytest.mark.parametrize("step", [0, -3])
    def test_step_below_one_refused(self, family, step):
        with pytest.raises(ValueError) as excinfo:
            family_terms(family, 500, 3, step)
        assert str(excinfo.value) == f"term step must be >= 1, got {step}"

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
        "family", [SequenceFamily.fibonacci(), SequenceFamily.polygonal(3)],
        ids=lambda f: f.label,
    )
    @pytest.mark.parametrize("value", [2.5, 2.0, Fraction(5)], ids=repr)
    @pytest.mark.parametrize(
        # The value goes where None is: three windows end inside the
        # small-index table, three past it.
        "window",
        [(None, 3, 1), (5, None, 1), (5, 3, None),
         (None, 3, 300), (500, None, 1), (500, 3, None)],
        ids=["start-in", "count-in", "step-in", "start-past", "count-past", "step-past"],
    )
    def test_non_integer_window_raises_type_error(self, family, value, window):
        start, count, step = (value if v is None else v for v in window)
        with pytest.raises(TypeError):
            family_terms(family, start, count, step)

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


class TestAreaRecurrence:
    """Known answers for the area's own recurrence: the recurrence that
    ``twice_polygon_area`` jumps along, read from the family's coefficients,
    and the samples it starts from."""

    @staticmethod
    def jump(family, n, k, m):
        """Twice the area at (n, k, m) and the recurrence it jumped along."""
        with mock.patch.object(geometry, "_x_power", wraps=_x_power) as jump:
            twice = geometry.twice_polygon_area(family, n, k, m)
        [call] = jump.call_args_list
        return twice, call.args[0]

    @pytest.mark.parametrize(
        "family, recurrence",
        [
            pytest.param(family, recurrence, id=family.label)
            for family, recurrence in [
                (SequenceFamily.fibonacci(), (-1,)),
                (SequenceFamily.lucas(), (-1,)),
                (SequenceFamily.pell(), (-1,)),
                (SequenceFamily.jacobsthal(), (-2,)),
                (SequenceFamily.tribonacci(), (-1, -1, 1)),
                (SequenceFamily.perrin(), (-1, 0, 1)),
                (SequenceFamily.padovan(), (-1, 0, 1)),
                (SequenceFamily.polygonal(7), (3, -3, 1)),
            ]
        ],
    )
    def test_cli_family_recurrence(self, family, recurrence):
        n, k, m = 3000, 2, 4
        twice, area = self.jump(family, n, k, m)
        samples = [twice_shoelace(*build_vertices(family, i, k, m)) for i in range(3)]
        assert area.coefficients == recurrence
        assert list(area.initial_terms) == samples[: len(recurrence)]
        assert twice == twice_shoelace(*build_vertices(family, n, k, m))

    def test_jacobsthal_area_is_zero(self):
        twice, area = self.jump(SequenceFamily.jacobsthal(), 3000, 2, 4)
        assert area.initial_terms == (0,) and twice == 0

    def test_polygonal_area_is_constant(self):
        family = SequenceFamily.polygonal(7)
        twice, area = self.jump(family, 3000, 2, 4)
        assert len({*area.initial_terms, twice}) == 1

    def test_singular_companion(self):
        # x^3 - x^2 - x = x(x^2 - x - 1): S's recurrence (-1, 0, 0) has the
        # root 0 twice, which allows a transient: S(n) = -S(n-1) holds only
        # from n = 2 on.
        family = SequenceFamily.custom(RecurrenceSpec((1, 1, 0), (1, 2, 0)))
        areas = [geometry.twice_polygon_area(family, n, 1, 3) for n in range(6)]
        assert areas == [-2, -4, 4, -4, 4, -4]
        twice, area = self.jump(family, 3000, 1, 3)
        assert area.coefficients == (-1, 0, 0)
        assert twice == twice_shoelace(*build_vertices(family, 3000, 1, 3))


class TestBounds:
    def test_deep_polygon_memory_is_bounded_and_released(self):
        spec = SequenceFamily.fibonacci(), 60000, 20, 10
        expected = shoelace_area(*build_vertices(*spec))
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert shoelace_area(*build_vertices(*spec)) == expected
            peak = tracemalloc.get_traced_memory()[1] - baseline
            after_first = tracemalloc.get_traced_memory()[0]
            assert shoelace_area(*build_vertices(*spec)) == expected
            after_second = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # Nothing is kept between calls: no store grows with the index.
        assert after_first - baseline < 64 * 2**10
        assert after_second - after_first < 16 * 2**10

    def test_large_stride_area_in_a_fresh_process(self):
        # n = 0, k = 20000, m = 3 reaches index 100,000, the term budget: the
        # six vertex terms alone are fetched, not the 100,001-term window.
        # A process's ru_maxrss also counts the image it was forked from, so
        # a small launcher starts `python -m seqarea` and reports the peak of
        # that one child, not of this test run.
        launcher = (
            "import resource, subprocess, sys\n"
            "argv = [sys.executable, '-m', 'seqarea', *sys.argv[1:]]\n"
            "result = subprocess.run(argv, capture_output=True, text=True)\n"
            "sys.stdout.write(result.stdout)\n"
            "sys.stderr.write(result.stderr)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(result.returncode)\n"
        )
        argv = ["area", "pell", "--n", "0", "--k", "20000", "--m", "3", "--method", "both"]
        result = subprocess.run(
            [sys.executable, "-c", launcher, *argv], capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.endswith("\nMATCH\n")
        # ru_maxrss is in bytes on macOS and in kilobytes elsewhere.
        unit = 1 if sys.platform == "darwin" else 1024
        assert int(result.stderr.split()[-1]) * unit < 64 * 2**20

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
            threads = [
                threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert [results[i] for i in range(4)] == [expected] * 4


class TestTableGrowth:
    """A read of f(j), j <= MAX_SEQUENCE_INDEX, grows the table to f(j), no further."""

    def test_grows_to_the_last_index_read(self):
        spec = preset(SequenceFamily.pell())
        _small_table.cache_clear()
        assert terms(spec, 0, 10) == forward(spec, 10)
        table = _small_table(spec)
        assert len(table) == 10
        assert terms(spec, 5, 3, 7) == forward(spec, 20)[5::7]
        assert len(table) == 20
        # A shorter read is sliced from the table and leaves it as it was.
        assert terms(spec, 2, 4) == forward(spec, 6)[2:]
        assert terms(spec, 0, 0, 2) == []
        assert _small_table(spec) is table
        assert table == forward(spec, 20)

    def test_a_window_belongs_to_the_caller(self):
        spec = preset(SequenceFamily.tribonacci())
        _small_table.cache_clear()
        window = terms(spec, 0, 30)
        window[3] = -1
        window.append(0)
        assert terms(spec, 0, 30) == forward(spec, 30)
        assert _small_table(spec) == forward(spec, 30)

    @pytest.mark.parametrize(
        "family, start, count, held",
        [
            # A window that ends past the table is strided to its first
            # terms and iterated forward, the table neither read nor made,
            # wherever it starts: inside the table too.
            (SequenceFamily.pell(), 399, 5, 0),
            (SequenceFamily.tribonacci(), 399, 5, 0),
            (SequenceFamily.tribonacci(), 0, 1000, 0),
        ],
    )
    def test_never_stores_past_the_guardrail(self, family, start, count, held):
        spec = preset(family)
        _small_table.cache_clear()
        assert terms(spec, start, count) == forward(spec, start + count)[start:]
        assert _small_table.cache_info().currsize == held

    def test_area_oracle_builds_only_its_window(self):
        pell = SequenceFamily.pell()
        _small_table.cache_clear()
        geometry.twice_polygon_area(pell, 30000, 5, 4)
        assert len(_small_table(preset(pell))) == reach(0, 5, 4) + 1 == 36

    def test_closed_form_reads_u_to_its_span(self):
        # Pell-Lucas's U is the pell recurrence, read up to U((2m-2)k).
        _small_table.cache_clear()
        closed_area_for(SequenceFamily.pell_lucas(), 5, 4)
        pell = preset(SequenceFamily.pell())
        assert len(_small_table(pell)) == (2 * 4 - 2) * 5 + 1 == 31

    def test_a_slower_growth_never_shrinks_the_prefix(self):
        # A read of f(0) .. f(9) waits for the growth lock; while it waits,
        # the table grows to f(29).  The waiting read must leave it there.
        spec = preset(SequenceFamily.pell())
        _small_table.cache_clear()
        table = _small_table(spec)
        result: list[list[int]] = []
        reader = threading.Thread(
            target=lambda: result.append(terms(spec, 0, 10)), daemon=True
        )
        with sequences._growing:
            reader.start()
            reader.join(timeout=0.05)
            assert reader.is_alive()  # a growth needs the lock
            sequences._extend(spec, table, 30)
        reader.join(timeout=60)
        assert not reader.is_alive()
        assert result == [forward(spec, 10)]
        assert _small_table(spec) is table
        assert table == forward(spec, 30)

    def test_racing_growth_agrees(self):
        spec = preset(SequenceFamily.tribonacci())
        expected = forward(spec, MAX_SEQUENCE_INDEX + 1)
        results: dict[int, list] = {}

        def ends(slot: int) -> range:
            # Rising window ends, offset per thread so stores interleave.
            return range(slot, MAX_SEQUENCE_INDEX + 1, 5)

        def work(slot: int) -> None:
            # Each window reads f(end // 3) .. f(end).
            results[slot] = [
                terms(spec, end // 3, end - end // 3 + 1) for end in ends(slot)
            ]

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _small_table.cache_clear()
            threads = [
                threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        for i in range(4):
            assert results[i] == [expected[end // 3 : end + 1] for end in ends(i)]
        assert _small_table(spec) == expected
