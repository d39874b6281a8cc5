"""The integer shoelace kernel on vertex columns against the Polygon route.

``cyclic_sum`` below is the reference: the cross-product loop written out
over (x, y) pairs, independent of the kernel's difference form.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from seqarea import closedforms
from seqarea.geometry import (
    PolygonSpec,
    build_vertices,
    collinear,
    shoelace_signed,
    twice_shoelace,
    vertex_columns,
)
from seqarea.sequences import (
    MAX_SEQUENCE_INDEX,
    RecurrenceSpec,
    SequenceFamily,
    family_terms,
    reach,
)
from seqarea.verify import verify_family

NAMED = [
    SequenceFamily.fibonacci(),
    SequenceFamily.lucas(),
    SequenceFamily.pell(),
    SequenceFamily.pell_lucas(),
    SequenceFamily.jacobsthal(),
    SequenceFamily.jacobsthal_lucas(),
    SequenceFamily.tribonacci(),
    SequenceFamily.perrin(),
    SequenceFamily.padovan(),
]


def cyclic_sum(points) -> int:
    total = 0
    for i, (x, y) in enumerate(points):
        x_next, y_next = points[(i + 1) % len(points)]
        total += x * y_next - x_next * y
    return total


@st.composite
def custom_families(draw):
    order = draw(st.integers(2, 5))
    leading = draw(st.lists(st.integers(-3, 3), min_size=order - 1, max_size=order - 1))
    last = draw(st.one_of(st.just(0), st.integers(-3, 3)))  # c_d = 0 often
    initial = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))
    return SequenceFamily.custom(
        RecurrenceSpec(order, (*leading, last), tuple(initial), "hypothesis")
    )


FAMILIES = st.one_of(
    st.sampled_from(NAMED),
    st.builds(SequenceFamily.generalized, st.integers(-6, 6), st.integers(-6, 6)),
    st.builds(
        SequenceFamily.padovan,
        st.tuples(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)),
    ),
    st.builds(SequenceFamily.polygonal, st.integers(3, 12)),
    custom_families(),
)


@st.composite
def cells(draw):
    """(n, k, m) whose polygon reaches no further than the grid guardrail."""
    m = draw(st.integers(3, 12))
    k = draw(st.integers(1, MAX_SEQUENCE_INDEX // (2 * m - 1)))
    n = draw(st.integers(0, MAX_SEQUENCE_INDEX - (2 * m - 1) * k))
    return n, k, m


@settings(max_examples=300, deadline=None)
@given(family=FAMILIES, cell=cells(), first=st.integers(0, 20))
def test_kernel_matches_polygon_route(family, cell, first):
    n, k, m = cell
    first = min(first, n)
    seq = family_terms(family, first, reach(n, k, m) - first + 1)
    xs, ys = vertex_columns(seq, n - first, k, m)
    twice = twice_shoelace(xs, ys)
    poly = build_vertices(PolygonSpec(family, n, k, m))
    assert list(zip(xs, ys)) == list(poly.vertices)
    assert twice == 2 * shoelace_signed(poly) == cyclic_sum(poly.vertices)


@settings(max_examples=300, deadline=None)
@given(
    xs=st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=12),
    data=st.data(),
)
def test_kernel_on_any_columns(xs, data):
    ys = data.draw(
        st.lists(st.integers(-(10**40), 10**40), min_size=len(xs), max_size=len(xs))
    )
    assert twice_shoelace(xs, ys) == cyclic_sum(list(zip(xs, ys)))
    assert twice_shoelace(xs[::-1], ys[::-1]) == -twice_shoelace(xs, ys)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 12),
    bits=st.integers(20_000, 40_000),
    seed=st.integers(0, 2**32),
)
def test_kernel_on_wide_columns(m, bits, seed):
    # Columns as wide as the terms `area` reaches near the index budget.
    rng = random.Random(seed)

    def value() -> int:
        v = rng.getrandbits(bits) | 1 << (bits - 1)
        return -v if rng.random() < 0.5 else v

    xs = [value() for _ in range(m)]
    ys = [value() for _ in range(m)]
    want = cyclic_sum(list(zip(xs, ys)))
    assert twice_shoelace(xs, ys) == want
    assert twice_shoelace(tuple(xs), tuple(ys)) == want  # shoelace_signed's columns


def _zero(family, k, m):
    return Fraction(0)


# The Jacobsthal pair reaches the collinearity check with its own closed
# form; a closed form patched to 0 sends every cell of any family there.
ZERO_CLOSED = st.one_of(
    st.tuples(
        st.sampled_from([SequenceFamily.jacobsthal(), SequenceFamily.jacobsthal_lucas()]),
        st.just(False),
    ),
    st.tuples(FAMILIES, st.just(True)),
)


@settings(max_examples=80, deadline=None)
@given(case=ZERO_CLOSED, n=st.integers(0, 40), k=st.integers(1, 12))
def test_zero_area_cells_judged_by_collinear(case, n, k):
    family, patched = case
    with mock.patch.object(closedforms, "mgon_area", _zero) if patched else nullcontext():
        report = verify_family(family, [n], [k], range(3, 7))
    for cell in report.cells:
        poly = build_vertices(PolygonSpec(family, cell.n, cell.k, cell.m))
        is_line = collinear(poly.vertices)
        assert cell.closed_area == 0
        assert cell.note == ("collinear" if is_line else "NOT COLLINEAR")
        assert cell.match == (is_line and shoelace_signed(poly) == 0)
        assert cell.oracle_area == abs(shoelace_signed(poly))
