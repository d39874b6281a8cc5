"""Exact planar geometry over arbitrary-precision integer coordinates.

Signed areas come out as Fractions with denominator 1 or 2; nothing is ever
rounded.  Vertex order is meaningful throughout: the surveyor's formula is
orientation-sensitive and no function reorders its input.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

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


class Point(NamedTuple):
    x: int
    y: int


@dataclass(frozen=True)
class Polygon:
    """An ordered vertex list, at least a triangle."""

    vertices: tuple[Point, ...]

    def __post_init__(self) -> None:
        # operator.index rejects floats and fractions: coordinates are exact.
        object.__setattr__(
            self,
            "vertices",
            tuple(
                Point(operator.index(p[0]), operator.index(p[1]))
                for p in self.vertices
            ),
        )
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")


@dataclass(frozen=True)
class PolygonSpec:
    """Recipe for an m-gon on sequence terms: vertex i is
    (seq(n + 2*i*k), seq(n + (2*i+1)*k)) for i = 0 .. m-1."""

    family: SequenceFamily
    n: int
    k: int
    m: int

    def __post_init__(self) -> None:
        check_domain(self.n, self.k, self.m)

    @property
    def max_index(self) -> int:
        """Largest sequence index the vertex pattern touches."""
        return reach(self.n, self.k, self.m)


def build_vertices(spec: PolygonSpec) -> Polygon:
    """Materialize the vertex pattern of a PolygonSpec as a Polygon.

    Only the 2m vertex terms f(n), f(n+k), .. f(max_index) are fetched, as
    one strided window, never the terms between them.
    """
    vertex_terms = family_terms(spec.family, spec.n, 2 * spec.m, step=spec.k)
    return Polygon(tuple(zip(*vertex_columns(vertex_terms, 0, 1, spec.m))))


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
    """Twice the signed area of the m-gon of :class:`PolygonSpec` (n, k, m):
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
    columns = [
        vertex_columns(family_terms(family, start + i, 2 * m, step=k), 0, 1, m)
        for i in range(len(weights))
    ]
    return sum(
        a * sum(b * twice_shoelace(xs, ys) for b, (_, ys) in zip(weights, columns))
        for a, (xs, _) in zip(weights, columns)
    )


def shoelace_signed(poly: Polygon) -> Fraction:
    """Signed surveyor's-formula area: half the cyclic sum of cross terms.

    Positive for counterclockwise orientation.
    """
    xs, ys = zip(*poly.vertices)
    return Fraction(twice_shoelace(xs, ys), 2)


def shoelace_area(poly: Polygon) -> Fraction:
    """Absolute surveyor's-formula area."""
    return abs(shoelace_signed(poly))


def collinear(points: Sequence[Point]) -> bool:
    """True if all points lie on one line (exact cross-product test).

    Needs at least 2 points; a fully coincident set counts as collinear.
    """
    if len(points) < 2:
        raise ValueError("collinearity needs at least 2 points")
    first = points[0]
    anchor = next((p for p in points if p != first), None)
    if anchor is None:
        return True
    ux, uy = anchor.x - first.x, anchor.y - first.y
    return all(
        ux * (p.y - first.y) - uy * (p.x - first.x) == 0 for p in points
    )
