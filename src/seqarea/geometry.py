"""Exact planar geometry over arbitrary-precision integer coordinates.

A polygon is two integer columns: vertex i is (xs[i], ys[i]).  Signed areas
come out as Fractions with denominator 1 or 2; nothing is ever rounded.
Vertex order is meaningful throughout: the surveyor's formula is
orientation-sensitive and no function reorders its input.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .sequences import (
    MAX_SEQUENCE_INDEX,
    FamilyKind,
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


def twice_polygon_area(family: SequenceFamily, n: int, k: int, m: int) -> int:
    """Twice the signed area of the m-gon of :func:`build_vertices` (n, k, m):
    the surveyor's sum over the family's own terms, from d big products.

    With x**n = a_0 + a_1*x + .. + a_(d-1)*x**(d-1) modulo the characteristic
    polynomial, every vertex term is f(n + j*k) = sum(a_i * f(i + j*k)), and
    the shoelace is bilinear in its x and y columns, so
    ``2S(n) = sum(a_i * M[i][l] * a_l)`` with M[i][l] the shoelace of the x
    column of the polygon at start i and the y column of the one at start l.
    M is small-index work; only the d products a_i * (M[i] . a) are big.

    This route is taken where the polygons at starts 0 .. d-1 lie in the
    small-index table.  Past it, and for figurate families, a is e_0 at
    start n: M[0][0] alone, the shoelace of the 2m vertex terms fetched by
    one strided window.
    """
    check_domain(n, k, m)
    weights, start = [1], n
    if family.kind is not FamilyKind.POLYGONAL:
        spec = preset(family)
        if reach(spec.order - 1, k, m) <= MAX_SEQUENCE_INDEX:
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
