"""The integer shoelace kernel on grid-slice columns against the columns of
``build_vertices``, the grid's plane kernel against it cell by cell, and the
two routes of the area kernel against the shoelace of the vertex terms.

``cyclic_sum`` below is the reference: the cross-product loop written out
over (x, y) pairs, independent of the kernel's difference form.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from itertools import product
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqarea import closedforms, verify
from seqarea.geometry import (
    build_vertices,
    collinear,
    shoelace_signed,
    twice_polygon_area,
    twice_shoelace,
    twice_shoelace_plane,
    vertex_columns,
)
from seqarea.sequences import (
    MAX_SEQUENCE_INDEX,
    RecurrenceSpec,
    SequenceFamily,
    UnsupportedFamilyError,
    family_terms,
    preset,
    reach,
)
from seqarea.verify import verify_family
from support import GRIDS, area_route, routed_area

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
    order = draw(st.integers(1, 5))
    leading = draw(st.lists(st.integers(-3, 3), min_size=order - 1, max_size=order - 1))
    last = draw(st.one_of(st.just(0), st.integers(-3, 3)))  # c_d = 0 often
    initial = draw(
        st.one_of(
            st.just([0] * order),
            st.lists(st.integers(-5, 5), min_size=order, max_size=order),
        )
    )
    return SequenceFamily.custom(
        RecurrenceSpec((*leading, last), tuple(initial), "hypothesis")
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
def test_kernel_matches_build_vertices_route(family, cell, first):
    n, k, m = cell
    first = min(first, n)
    seq = family_terms(family, first, reach(n, k, m) - first + 1)
    xs, ys = vertex_columns(seq, n - first, k, m)
    twice = twice_shoelace(xs, ys)
    assert (xs, ys) == build_vertices(family, n, k, m)
    assert twice == 2 * shoelace_signed(xs, ys) == cyclic_sum(list(zip(xs, ys)))


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
    assert twice_shoelace(tuple(xs), tuple(ys)) == want  # any sequence type


@st.composite
def area_requests(draw):
    """(family, n, k, m) on either side of the one route rule of
    ``twice_polygon_area``, or exactly on it: the jump along the area's own
    recurrence where d <= 3 and n > reach(0, k, m), the direct shoelace
    elsewhere.  n falls on the span (2m-1)k, one past it, or anywhere up to
    3,000; spans run up to about 1,500, well past the small-index table."""
    family = draw(FAMILIES)
    m = draw(st.one_of(st.integers(3, 12), st.integers(13, 750)))
    k = draw(st.integers(1, max(1, 1500 // (2 * m - 1))))
    span = reach(0, k, m)
    n = draw(st.one_of(st.sampled_from([span, span + 1]), st.integers(0, 3000)))
    return family, n, k, m


@settings(max_examples=300, deadline=None)
@given(request=area_requests())
def test_polygon_area_kernel_matches_shoelace(request):
    family, n, k, m = request
    want = 2 * shoelace_signed(*build_vertices(family, n, k, m))
    twice, route = routed_area(family, n, k, m)
    assert twice == want  # signed
    assert route == area_route(preset(family).order, n, k, m)


@st.composite
def repeated_roots(draw):
    """A custom recurrence with characteristic polynomial (x - r)^d."""
    r, d = draw(st.integers(-2, 2)), draw(st.integers(1, 3))
    coefficients = [(-1) ** (i + 1) * comb(d, i) * r**i for i in range(1, d + 1)]
    initial = draw(st.lists(st.integers(-5, 5), min_size=d, max_size=d))
    return SequenceFamily.custom(RecurrenceSpec(tuple(coefficients), tuple(initial)))


@settings(max_examples=300, deadline=None)
@given(
    family=st.one_of(FAMILIES, repeated_roots()),
    m=st.integers(3, 12),
    k=st.integers(1, 120),
    offset=st.one_of(st.integers(-3, 3), st.integers(-3000, 3000)),
)
# c2 = 0 at order 2 makes S(n) = 0 from n = 1 on; c3 = 0 at order 3 leaves
# S's recurrence (-c2, 0, 0), a singular companion on both sides.
@example(family=SequenceFamily.custom(RecurrenceSpec((3, 0), (1, 2))), m=4, k=7, offset=1951)
@example(family=SequenceFamily.custom(RecurrenceSpec((1, 1, 0), (1, 2, 0))), m=3, k=1, offset=2995)
@example(family=SequenceFamily.custom(RecurrenceSpec((2, 0, 0), (1, -1, 3))), m=5, k=3, offset=1)
def test_area_recurrence_matches_direct_shoelace(family, m, k, offset):
    # Starts on both sides of the span (2m-1)k, where the route changes,
    # with spans on both sides of the small-index table.
    n = max(0, reach(0, k, m) + offset)
    want = twice_shoelace(*build_vertices(family, n, k, m))
    assert twice_polygon_area(family, n, k, m) == want


@pytest.mark.parametrize(
    "n, k, m, route",
    [
        (99_000, 20, 10, "jump"),
        (99_000, 1, 199, "jump"),
        (99_000, 1, 200, "jump"),
        (0, 20_000, 3, "direct"),
        (60_000, 8_000, 3, "jump"),
        (40_000, 8_000, 3, "direct"),
    ],
    ids=[
        "jump-route", "jump-route-span-397", "jump-route-span-399", "direct-route",
        "jump-route-past-table", "direct-route-on-rule",
    ],
)
def test_polygonal_area_kernel_matches_figurate_form(n, k, m, route):
    # Polygonal numbers are the order-3 recurrence (3, -3, 1): near the
    # term-index budget they take the same two routes as any other family,
    # the jump wherever n passes the span (2m-1)k.
    family = SequenceFamily.polygonal(7)
    twice, taken = routed_area(family, n, k, m)
    assert abs(twice) == 2 * closedforms.polygonal_mgon_area(7, k, m)
    assert taken == route


@pytest.mark.parametrize(
    "coefficient, initial, n, k, m",
    [
        (3, 1, 5, 2, 4),  # inside the table
        (-2, 5, 0, 1, 200),  # on the span rule
        (3, 1, 99_000, 100, 3),  # past the table
        (3, 1, 0, 20_000, 3),  # stride past the table
        (0, 7, 0, 1, 3),  # f = 7, 0, 0, ..
    ],
)
def test_order_one_area_is_zero_from_no_term(coefficient, initial, n, k, m):
    # Every vertex (x, c**k * x) lies on one line through the origin.
    family = SequenceFamily.custom(RecurrenceSpec((coefficient,), (initial,)))
    twice, route = routed_area(family, n, k, m)
    assert twice == twice_shoelace(*build_vertices(family, n, k, m)) == 0
    assert route == "zero"


def zero_closed_forms():
    """Patch verify's closed forms to S = 0 and q = 1 at every (k, m), for
    any family, one with no closed form too."""
    return mock.patch.multiple(
        verify,
        _closed_form=lambda family: None,
        closed_areas=lambda family, ks, ms: (dict.fromkeys(product(ks, ms), 0), 1),
    )


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
    with zero_closed_forms() if patched else nullcontext():
        report = verify_family(family, [n], [k], range(3, 7))
    for cell in report.cells:
        poly = build_vertices(family, cell.n, cell.k, cell.m)
        is_line = collinear(*poly)
        assert cell.closed_twice == 0
        assert cell.note == ("collinear" if is_line else "NOT COLLINEAR")
        assert cell.match == (is_line and shoelace_signed(*poly) == 0)
        assert cell.oracle_twice == 2 * shoelace_signed(*poly)


def grid_slice(family, ns, ks, ms):
    return family_terms(family, 0, reach(max(ns), max(ks), max(ms)) + 1)


@settings(max_examples=300, deadline=None)
@given(family=FAMILIES, **GRIDS)
def test_plane_matches_cell_kernels(family, ns, ks, ms):
    seq = grid_slice(family, ns, ks, ms)
    plane = twice_shoelace_plane(seq, ns, ks, ms)
    assert set(plane) == set(ms)
    for cell, (n, k) in enumerate(product(ns, ks)):
        for m in ms:
            xs, ys = vertex_columns(seq, n, k, m)
            twices, lines = plane[m]
            assert twices[cell] == twice_shoelace(xs, ys)  # signed
            # The flag proves collinearity, and holds wherever P_1 != P_0 does.
            apart = (xs[0], ys[0]) != (xs[1], ys[1])
            assert lines[cell] is (apart and collinear(xs, ys))


@settings(max_examples=150, deadline=None)
@given(family=FAMILIES, **GRIDS)
def test_report_matches_per_cell_route(family, ns, ks, ms):
    # A family with no closed form gets 0 for every (k, m), so each of its
    # cells goes through the collinearity check.  Every order-2 family has
    # one, read per n where |Q| != 1 and per (k, m) from the one-cell dispatch.
    try:
        closedforms.closed_area_for(family, 1, 3)
        patch, closed_area = nullcontext(), closedforms.closed_area_for
    except UnsupportedFamilyError:
        patch, closed_area = zero_closed_forms(), lambda family, k, m: (0, 1)
    with patch:
        report = verify_family(family, ns, ks, ms)
    seq = grid_slice(family, ns, ks, ms)
    want = []
    for n, k, m in product(ns, ks, ms):
        xs, ys = vertex_columns(seq, n, k, m)
        oracle = twice_shoelace(xs, ys)
        twice, q = closed_area(family, k, m)
        closed = twice * q**n
        match, note = oracle == closed, ""
        if closed == 0:
            is_line = collinear(xs, ys)
            match, note = match and is_line, "collinear" if is_line else "NOT COLLINEAR"
        want.append(verify.VerificationCell(n, k, m, oracle, closed, match, note))
    assert list(report.cells) == want


ALL_ZERO = SequenceFamily.custom(RecurrenceSpec((1, 0), (0, 0), "zero"))


@pytest.mark.parametrize(
    "family, fallbacks",
    [(SequenceFamily.jacobsthal(), 0), (SequenceFamily.jacobsthal_lucas(), 0), (ALL_ZERO, 3360)],
    ids=["jacobsthal", "jacobsthal-lucas", "all-zero"],
)
def test_collinear_decides_only_unflagged_cells(family, fallbacks):
    # On the guardrail grid the flags prove every Jacobsthal cell collinear;
    # an all-zero family has P_1 = P_0 everywhere and falls back every time.
    with zero_closed_forms() if family is ALL_ZERO else nullcontext():
        with mock.patch.object(verify, "collinear", wraps=collinear) as fallback:
            report = verify_family(family, range(21), range(1, 21), range(3, 11))
    assert (len(report.cells), report.fail_count) == (3360, 0)
    assert {cell.note for cell in report.cells} == {"collinear"}
    assert fallback.call_count == fallbacks
