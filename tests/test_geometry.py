from fractions import Fraction
from itertools import combinations

import pytest

from seqarea.geometry import (
    Point,
    Polygon,
    PolygonSpec,
    build_vertices,
    collinear,
    shoelace_area,
    shoelace_signed,
)
from seqarea.sequences import SequenceFamily
from support import make_rng

UNIT_TRIANGLE = Polygon((Point(0, 0), Point(1, 0), Point(0, 1)))


def det_area(p1: Point, p2: Point, p3: Point) -> Fraction:
    """Triangle area as half the absolute edge-difference determinant."""
    det = (p2.x - p1.x) * (p3.y - p1.y) - (p2.y - p1.y) * (p3.x - p1.x)
    return Fraction(abs(det), 2)


def triangle_area(a: Point, b: Point, c: Point) -> Fraction:
    return shoelace_area(Polygon((a, b, c)))


class TestBuildVertices:
    def test_fibonacci_triangle(self):
        spec = PolygonSpec(SequenceFamily.fibonacci(), 1, 1, 3)
        assert build_vertices(spec).vertices == (Point(1, 1), Point(2, 3), Point(5, 8))

    def test_fibonacci_quadrilateral(self):
        spec = PolygonSpec(SequenceFamily.fibonacci(), 1, 1, 4)
        assert build_vertices(spec).vertices == (
            Point(1, 1), Point(2, 3), Point(5, 8), Point(13, 21),
        )

    def test_triangular_numbers(self):
        spec = PolygonSpec(SequenceFamily.polygonal(3), 1, 1, 3)
        assert build_vertices(spec).vertices == (
            Point(1, 3), Point(6, 10), Point(15, 21),
        )

    def test_stride(self):
        spec = PolygonSpec(SequenceFamily.fibonacci(), 1, 2, 3)
        assert build_vertices(spec).vertices == (
            Point(1, 2), Point(5, 13), Point(34, 89),
        )

    def test_max_index(self):
        assert PolygonSpec(SequenceFamily.fibonacci(), 2, 3, 4).max_index == 2 + 7 * 3


class TestShoelace:
    def test_unit_triangle_counterclockwise(self):
        assert shoelace_signed(UNIT_TRIANGLE) == Fraction(1, 2)

    def test_orientation_flip(self):
        assert shoelace_signed(Polygon(UNIT_TRIANGLE.vertices[::-1])) == Fraction(-1, 2)

    def test_fibonacci_quadrilateral(self):
        poly = build_vertices(PolygonSpec(SequenceFamily.fibonacci(), 1, 1, 4))
        assert shoelace_signed(poly) == Fraction(-5, 2)
        assert shoelace_area(poly) == Fraction(5, 2)

    def test_collinear_points_have_zero_area(self):
        assert shoelace_area(Polygon((Point(0, 0), Point(1, 1), Point(2, 2)))) == 0

    def test_fibonacci_stride_two_triangle(self):
        poly = build_vertices(PolygonSpec(SequenceFamily.fibonacci(), 1, 2, 3))
        assert shoelace_area(poly) == Fraction(15, 2)

    def test_jacobsthal_triangle_degenerates(self):
        poly = build_vertices(PolygonSpec(SequenceFamily.jacobsthal(), 1, 1, 3))
        assert shoelace_area(poly) == 0

    def test_denominator_is_one_or_two(self):
        rng = make_rng(2)
        for _ in range(100):
            pts = tuple(
                Point(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(5)
            )
            assert shoelace_signed(Polygon(pts)).denominator in (1, 2)

    def test_translation_invariance(self):
        rng = make_rng(3)
        for _ in range(100):
            pts = tuple(
                Point(rng.randint(-30, 30), rng.randint(-30, 30))
                for _ in range(rng.randint(3, 8))
            )
            dx, dy = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
            moved = Polygon(tuple(Point(p.x + dx, p.y + dy) for p in pts))
            assert shoelace_area(moved) == shoelace_area(Polygon(pts))

    def test_reversal_negates_signed_area(self):
        rng = make_rng(4)
        for _ in range(100):
            pts = tuple(
                Point(rng.randint(-30, 30), rng.randint(-30, 30))
                for _ in range(rng.randint(3, 8))
            )
            assert shoelace_signed(Polygon(pts[::-1])) == -shoelace_signed(Polygon(pts))


class TestTriangleAreaDet:
    """A triangle's shoelace area is half its edge-difference determinant."""

    def test_unit_triangle(self):
        corners = Point(0, 0), Point(1, 0), Point(0, 1)
        assert triangle_area(*corners) == det_area(*corners) == Fraction(1, 2)

    def test_consecutive_fibonacci(self):
        corners = Point(1, 1), Point(2, 3), Point(5, 8)
        assert triangle_area(*corners) == det_area(*corners) == Fraction(1, 2)

    def test_coincident_points(self):
        p = Point(7, -2)
        assert triangle_area(p, p, p) == det_area(p, p, p) == 0

    def test_agrees_with_shoelace(self):
        rng = make_rng(5)
        for _ in range(200):
            a, b, c = (
                Point(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(3)
            )
            assert det_area(a, b, c) == triangle_area(a, b, c)


class TestCollinear:
    def test_jacobsthal_points(self):
        pts = [Point(1, 1), Point(3, 5), Point(11, 21), Point(43, 85)]
        assert collinear(pts)

    def test_jacobsthal_lucas_points(self):
        assert collinear([Point(2, 1), Point(5, 7), Point(17, 31)])

    def test_unit_triangle_is_not(self):
        assert not collinear([Point(0, 0), Point(1, 0), Point(0, 1)])

    def test_coincident_points(self):
        assert collinear([Point(3, 3)] * 4)

    def test_two_points(self):
        assert collinear([Point(0, 0), Point(5, 9)])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            collinear([Point(0, 0)])

    def test_equivalent_to_zero_subtriangles(self):
        rng = make_rng(6)
        for _ in range(150):
            count = rng.randint(3, 8)
            if rng.random() < 0.5:
                # points on the line y = 3x - 2, possibly repeated
                xs = [rng.randint(-20, 20) for _ in range(count)]
                pts = [Point(x, 3 * x - 2) for x in xs]
            else:
                pts = [
                    Point(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(count)
                ]
            brute = all(
                det_area(a, b, c) == 0
                for a, b, c in combinations(pts, 3)
            )
            assert collinear(pts) == brute


class TestValidation:
    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon((Point(0, 0), Point(1, 1)))

    def test_polygon_rejects_inexact_coordinates(self):
        with pytest.raises(TypeError):
            Polygon(((0, 0), (1.5, 0), (0, 1)))
        with pytest.raises(TypeError):
            Polygon(((0, 0), (Fraction(3, 2), 0), (0, 1)))

    def test_polygon_spec_invariants(self):
        fib = SequenceFamily.fibonacci()
        with pytest.raises(ValueError):
            PolygonSpec(fib, -1, 1, 3)
        with pytest.raises(ValueError):
            PolygonSpec(fib, 0, 0, 3)
        with pytest.raises(ValueError):
            PolygonSpec(fib, 0, 1, 2)
