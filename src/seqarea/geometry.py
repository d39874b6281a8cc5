"""Exact planar geometry over arbitrary-precision integer coordinates.

A polygon is two integer columns: vertex i is (xs[i], ys[i]).  Signed areas
come out as Fractions with denominator 1 or 2; nothing is ever rounded.
Vertex order is meaningful throughout: the surveyor's formula is
orientation-sensitive and no function reorders its input.

The area of one (k, m) pattern at start n is itself a linear recurrence in
n, of order d(d-1)/2 for a family of order d, whose coefficients follow
from the family's own, so :func:`twice_polygon_area` answers a start past
the polygon's own span from d(d-1)/2 shoelaces at starts near 0: for
d <= 3 it jumps along that recurrence, on numbers the size of the area
rather than of the terms; any other polygon's area is the shoelace of its
own vertex terms.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import product

from .sequences import (
    RecurrenceSpec,
    SequenceFamily,
    _x_power,
    check_domain,
    family_terms,
    preset,
    reach,
)


def build_vertices(
    family: SequenceFamily, n: int, k: int, m: int
) -> tuple[list[int], list[int]]:
    """The x and y columns of the m-gon whose vertex i is
    (f(n + 2ik), f(n + (2i+1)k)) for i = 0 .. m-1.

    Only the 2m vertex terms f(n), f(n+k), .. f(n + (2m-1)k) are fetched, as
    one strided window, never the terms between them.

    >>> xs, ys = build_vertices(SequenceFamily.fibonacci(), 1, 2, 3)
    >>> xs, ys
    ([1, 5, 34], [2, 13, 89])
    >>> shoelace_area(xs, ys)
    Fraction(15, 2)
    """
    check_domain(n, k, m)
    return vertex_columns(family_terms(family, n, 2 * m, step=k), 0, 1, m)


def vertex_columns(
    seq: Sequence[int], base: int, k: int, m: int
) -> tuple[Sequence[int], Sequence[int]]:
    """The x and y columns of the m-gon of stride k whose first vertex is
    (seq[base], seq[base + k]): two strided slices of ``seq``, which must
    reach index base + (2m-1)k."""
    step = 2 * k
    return seq[base : base + m * step : step], seq[base + k : base + k + m * step : step]


def twice_shoelace(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Twice the signed surveyor's-formula area of the polygon whose vertex i
    is (xs[i], ys[i]): the cyclic sum of x(i)*y(i+1) - x(i+1)*y(i).

    Computed in difference form, the sum of x(i)*(y(i+1) - y(i-1)) with
    indices mod m: the same integer from m big products instead of 2m.
    Integers in, an integer out; positive for counterclockwise orientation.
    """
    return sum(
        map(operator.mul, xs, map(operator.sub, ys[1:] + ys[:1], ys[-1:] + ys[:-1]))
    )


def twice_shoelace_plane(
    seq: Sequence[int], ns: Iterable[int], ks: Iterable[int], ms: Iterable[int]
) -> dict[int, tuple[list[int], list[bool]]]:
    """For each m in ``ms``: :func:`twice_shoelace` of the m-gon
    ``vertex_columns(seq, n, k, m)`` at every cell (n, k) of
    ``product(ns, ks)``, in that order, and a flag per cell that is True
    only if P_1 != P_0 and every vertex lies on the line through them.  A
    False flag proves nothing; :func:`collinear` decides such a cell.

    Each step reads one column, the next vertex coordinate of every cell,
    and works on whole columns.  The difference-form terms
    x_j*(y_(j+1) - y_(j-1)) for 1 <= j <= m-2 do not depend on m, so one
    running sum of them serves every m, which adds its two wrap-around terms
    x_0*(y_1 - y_(m-1)) + x_(m-1)*(y_0 - y_(m-2)).  The flags are a running
    AND of (P_j - P_0) x (P_1 - P_0) == 0, taken while any cell holds it.
    Every m must be at least 3, and ``seq`` must reach every cell's index
    n + (2m-1)k.

    >>> seq = family_terms(SequenceFamily.jacobsthal(), 0, 16)
    >>> twice_shoelace_plane(seq, [1], [1, 2], [3, 4])
    {3: ([0, 0], [True, True]), 4: ([0, 0], [True, True])}
    """
    mul, sub, add = operator.mul, operator.sub, operator.add
    cells = list(product(ns, ks))

    def column(t: int) -> list[int]:
        # f(n + t*k) of every cell: x_i is column 2i, y_i column 2i+1.
        return [seq[n + t * k] for n, k in cells]

    x0, y0, x1, y1 = map(column, range(4))
    dx1, dy1 = list(map(sub, x1, x0)), list(map(sub, y1, y0))
    lines = [dx != 0 or dy != 0 for dx, dy in zip(dx1, dy1)]
    total: list[int] = [0] * len(cells)  # the interior terms j = 1 .. i-1
    # x_(i-1), y_(i-1) and y_(i-2) at vertex i.
    x_back, y_back, y_back2 = x1, y1, y0
    wanted = set(ms)
    plane: dict[int, tuple[list[int], list[bool]]] = {}
    for i in range(2, max(wanted)):
        x, y = column(2 * i), column(2 * i + 1)
        total = list(map(add, total, map(mul, x_back, map(sub, y, y_back2))))
        if any(lines):
            crosses = map(
                operator.eq,
                map(mul, map(sub, x, x0), dy1),
                map(mul, map(sub, y, y0), dx1),
            )
            lines = list(map(operator.and_, lines, crosses))
        if i + 1 in wanted:
            wrap = map(
                add,
                map(mul, x0, map(sub, y1, y)),
                map(mul, x, map(sub, y0, y_back)),
            )
            plane[i + 1] = (list(map(add, total, wrap)), lines)
        x_back, y_back, y_back2 = x, y, y_back
    return plane


def twice_polygon_area(family: SequenceFamily, n: int, k: int, m: int) -> int:
    """Twice the signed area of the m-gon of :func:`build_vertices` (n, k, m),
    from the surveyor's sum over the family's own terms, by one of two
    routes.

    For fixed (k, m) this is a sequence S(n) that the characteristic
    polynomial of L annihilates, for L the d(d-1)/2-square matrix of the
    2x2 minors of the companion matrix (d the family's order): each edge's
    cross product is a 2x2 minor, so by Cauchy-Binet S(n) = g . L**n h.
    The roots of that polynomial are the products of two roots of the
    family's, so Vieta gives it from the family's coefficients: at d = 2,
    S(n) = -c2*S(n-1); at d = 3, S(n) = -c2*S(n-1) - c1*c3*S(n-2) +
    c3**2*S(n-3).  At d = 1 the order is 0, so S is 0 and no term is
    fetched: every vertex (x, c**k * x) lies on one line through the
    origin.  Where d <= 3 and n > (2m-1)k, the span of the polygon at
    start 0, the shoelaces of the polygons at starts 0 .. d(d-1)/2 - 1,
    each from its own :func:`build_vertices`, are S's first values, and one
    jump x**n modulo S's polynomial weights them: every number past the
    samples is the size of the area, not of the terms.  Elsewhere (d > 3,
    or a start no further out than the span, where the samples' terms are
    about as large as the polygon's own) the route is the shoelace of the
    2m vertex terms at n.

    >>> pell = SequenceFamily.pell()
    >>> [twice_polygon_area(pell, n, 1, 3) for n in range(4, 8)]
    [8, -8, 8, -8]
    >>> direct = twice_shoelace(*build_vertices(pell, 30001, 7, 5))
    >>> twice_polygon_area(pell, 30001, 7, 5) == direct
    True
    """
    check_domain(n, k, m)
    spec = preset(family)
    if spec.order == 1:
        return 0
    if spec.order > 3 or n <= reach(0, k, m):
        return twice_shoelace(*build_vertices(family, n, k, m))
    if spec.order == 2:
        recurrence: tuple[int, ...] = (-spec.coefficients[1],)
    else:
        c1, c2, c3 = spec.coefficients
        recurrence = (-c2, -c1 * c3, c3 * c3)
    samples = [
        twice_shoelace(*build_vertices(family, i, k, m)) for i in range(len(recurrence))
    ]
    area = RecurrenceSpec(recurrence, samples)
    return sum(map(operator.mul, _x_power(area, n), samples))


def _columns(
    xs: Iterable[int], ys: Iterable[int], least: int
) -> tuple[list[int], list[int]]:
    """Both columns as int lists of one length, at least ``least`` long."""
    # operator.index rejects floats and fractions: coordinates are exact.
    xs, ys = list(map(operator.index, xs)), list(map(operator.index, ys))
    if len(xs) != len(ys):
        raise ValueError(f"vertex columns differ in length: {len(xs)} and {len(ys)}")
    if len(xs) < least:
        raise ValueError(f"needs at least {least} vertices, got {len(xs)}")
    return xs, ys


def shoelace_signed(xs: Iterable[int], ys: Iterable[int]) -> Fraction:
    """Signed surveyor's-formula area of the polygon with vertex columns xs
    and ys, positive counterclockwise; it needs at least 3 vertices."""
    return Fraction(twice_shoelace(*_columns(xs, ys, 3)), 2)


def shoelace_area(xs: Iterable[int], ys: Iterable[int]) -> Fraction:
    """Absolute surveyor's-formula area."""
    return abs(shoelace_signed(xs, ys))


def collinear(xs: Iterable[int], ys: Iterable[int]) -> bool:
    """True if the points (xs[i], ys[i]) all lie on one line, by exact cross
    products.  Needs at least 2 points; coincident points are collinear."""
    xs, ys = _columns(xs, ys, 2)
    # Offsets from the first point; the first nonzero one is the line's
    # direction (with none, every cross term below is 0).
    dxs, dys = [x - xs[0] for x in xs], [y - ys[0] for y in ys]
    j = next((i for i in range(len(dxs)) if dxs[i] or dys[i]), 0)
    return all(dxs[i] * dys[j] == dys[i] * dxs[j] for i in range(len(dxs)))
