"""Exact planar geometry over arbitrary-precision integer coordinates.

A polygon is two integer columns: vertex i is (xs[i], ys[i]).  Signed areas
come out as Fractions with denominator 1 or 2; nothing is ever rounded.
Vertex order is meaningful throughout: the surveyor's formula is
orientation-sensitive and no function reorders its input.

The area of one (k, m) pattern at start n is itself a linear recurrence in
n, of order at most d(d-1)/2 for a family of order d, so
:func:`twice_polygon_area` answers a large n from a few small-index
shoelaces: for d <= 3 it derives that recurrence from them and jumps along
it, on numbers the size of the area rather than of the terms.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import product

from .sequences import (
    MAX_SEQUENCE_INDEX,
    RecurrenceSpec,
    SequenceFamily,
    _berlekamp_massey,
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
    from the surveyor's sum over the family's own terms, by one of three
    routes.

    For fixed (k, m) this is a sequence S(n) of order at most d(d-1)/2, for
    d the family's order: each edge's cross product is a 2x2 minor, so by
    Cauchy-Binet S(n) = g . L**n h with L the d(d-1)/2-square matrix of the
    2x2 minors of the companion matrix.  Where d <= 3 and the polygons at
    starts 0 .. d(d-1)-1 lie in the small-index table, their shoelaces are
    S's first d(d-1) values: a start below d(d-1) is read off them, and
    otherwise :func:`_berlekamp_massey` derives S's minimal recurrence from
    them and one jump x**n modulo it weights them.  Every number is the size
    of the area, not of the terms.

    Elsewhere, with x**n = a_0 + a_1*x + .. + a_(d-1)*x**(d-1) modulo the
    family's characteristic polynomial, every vertex term is
    f(n + j*k) = sum(a_i * f(i + j*k)), and the shoelace is bilinear in its
    x and y columns, so ``2S(n) = sum(a_i * M[i][l] * a_l)`` with M[i][l]
    the shoelace of the x column of the polygon at start i and the y column
    of the one at start l.  This bilinear route, d big products, is taken
    where the polygons at starts 0 .. d-1 lie in the table: orders of 4 and
    more, and order 3 at 395 < (2m-1)k <= 398.  Past it, a is e_0 at start
    n: M[0][0] alone, the shoelace of the 2m vertex terms fetched by one
    strided window.

    >>> pell = SequenceFamily.pell()
    >>> [twice_polygon_area(pell, n, 1, 3) for n in range(4)]
    [8, -8, 8, -8]
    >>> direct = twice_shoelace(*build_vertices(pell, 30001, 7, 5))
    >>> twice_polygon_area(pell, 30001, 7, 5) == direct
    True
    """
    check_domain(n, k, m)
    spec = preset(family)
    d = spec.order
    count = d * (d - 1)  # twice the order bound of S
    last = reach(count - 1, k, m)  # the last index the samples read
    if d <= 3 and last <= MAX_SEQUENCE_INDEX:
        seq = family_terms(family, 0, last + 1)
        samples = [twice_shoelace(*vertex_columns(seq, i, k, m)) for i in range(count)]
        if n < count:
            return samples[n]
        recurrence = _berlekamp_massey(samples)
        if not recurrence:
            return 0
        area = RecurrenceSpec(recurrence, samples[: len(recurrence)])
        return sum(map(operator.mul, _x_power(area, n), samples))
    weights, start = [1], n
    if reach(d - 1, k, m) <= MAX_SEQUENCE_INDEX:
        weights, start = _x_power(spec, n), 0
    columns = [build_vertices(family, start + i, k, m) for i in range(len(weights))]
    return sum(
        a * sum(b * twice_shoelace(xs, ys) for b, (_, ys) in zip(weights, columns))
        for a, (xs, _) in zip(weights, columns)
    )


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
