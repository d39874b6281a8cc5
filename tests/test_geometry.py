from fractions import Fraction
from itertools import combinations

import pytest

from seqarea.geometry import build_vertices, collinear, shoelace_area, shoelace_signed
from seqarea.sequences import SequenceFamily, family_term, reach
from support import make_rng

UNIT_TRIANGLE = [0, 1, 0], [0, 0, 1]


def det_area(p1, p2, p3) -> Fraction:
    """Triangle area as half the absolute edge-difference determinant."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    det = (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)
    return Fraction(abs(det), 2)


def triangle_area(a, b, c) -> Fraction:
    xs, ys = zip(a, b, c)
    return shoelace_area(xs, ys)


def random_columns(rng, count: int, span: int) -> tuple[list[int], list[int]]:
    xs = [rng.randint(-span, span) for _ in range(count)]
    return xs, [rng.randint(-span, span) for _ in range(count)]


class TestBuildVertices:
    def test_fibonacci_triangle(self):
        assert build_vertices(SequenceFamily.fibonacci(), 1, 1, 3) == (
            [1, 2, 5], [1, 3, 8],
        )

    def test_fibonacci_quadrilateral(self):
        assert build_vertices(SequenceFamily.fibonacci(), 1, 1, 4) == (
            [1, 2, 5, 13], [1, 3, 8, 21],
        )

    def test_triangular_numbers(self):
        assert build_vertices(SequenceFamily.polygonal(3), 1, 1, 3) == (
            [1, 6, 15], [3, 10, 21],
        )

    def test_stride(self):
        assert build_vertices(SequenceFamily.fibonacci(), 1, 2, 3) == (
            [1, 5, 34], [2, 13, 89],
        )

    def test_max_index(self):
        fib = SequenceFamily.fibonacci()
        _, ys = build_vertices(fib, 2, 3, 4)
        assert reach(2, 3, 4) == 2 + 7 * 3
        assert ys[-1] == family_term(fib, reach(2, 3, 4))


class TestShoelace:
    def test_unit_triangle_counterclockwise(self):
        assert shoelace_signed(*UNIT_TRIANGLE) == Fraction(1, 2)

    def test_orientation_flip(self):
        xs, ys = UNIT_TRIANGLE
        assert shoelace_signed(xs[::-1], ys[::-1]) == Fraction(-1, 2)

    def test_fibonacci_quadrilateral(self):
        poly = build_vertices(SequenceFamily.fibonacci(), 1, 1, 4)
        assert shoelace_signed(*poly) == Fraction(-5, 2)
        assert shoelace_area(*poly) == Fraction(5, 2)

    def test_collinear_points_have_zero_area(self):
        assert shoelace_area([0, 1, 2], [0, 1, 2]) == 0

    def test_fibonacci_stride_two_triangle(self):
        poly = build_vertices(SequenceFamily.fibonacci(), 1, 2, 3)
        assert shoelace_area(*poly) == Fraction(15, 2)

    def test_jacobsthal_triangle_degenerates(self):
        poly = build_vertices(SequenceFamily.jacobsthal(), 1, 1, 3)
        assert shoelace_area(*poly) == 0

    def test_any_integer_columns(self):
        # Tuples, ranges and iterators are read like lists.
        assert shoelace_signed((0, 1, 0), range(-1, 2)) == 1  # (0, -1), (1, 0), (0, 1)
        assert shoelace_signed(iter([0, 1, 0]), iter([0, 0, 1])) == Fraction(1, 2)

    def test_denominator_is_one_or_two(self):
        rng = make_rng(2)
        for _ in range(100):
            xs, ys = random_columns(rng, 5, 50)
            assert shoelace_signed(xs, ys).denominator in (1, 2)

    def test_translation_invariance(self):
        rng = make_rng(3)
        for _ in range(100):
            xs, ys = random_columns(rng, rng.randint(3, 8), 30)
            dx, dy = rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9)
            moved = [x + dx for x in xs], [y + dy for y in ys]
            assert shoelace_area(*moved) == shoelace_area(xs, ys)

    def test_reversal_negates_signed_area(self):
        rng = make_rng(4)
        for _ in range(100):
            xs, ys = random_columns(rng, rng.randint(3, 8), 30)
            assert shoelace_signed(xs[::-1], ys[::-1]) == -shoelace_signed(xs, ys)


class TestTriangleAreaDet:
    """A triangle's shoelace area is half its edge-difference determinant."""

    def test_unit_triangle(self):
        corners = (0, 0), (1, 0), (0, 1)
        assert triangle_area(*corners) == det_area(*corners) == Fraction(1, 2)

    def test_consecutive_fibonacci(self):
        corners = (1, 1), (2, 3), (5, 8)
        assert triangle_area(*corners) == det_area(*corners) == Fraction(1, 2)

    def test_coincident_points(self):
        p = (7, -2)
        assert triangle_area(p, p, p) == det_area(p, p, p) == 0

    def test_agrees_with_shoelace(self):
        rng = make_rng(5)
        for _ in range(200):
            a, b, c = zip(*random_columns(rng, 3, 40))
            assert det_area(a, b, c) == triangle_area(a, b, c)


class TestCollinear:
    def test_jacobsthal_points(self):
        assert collinear([1, 3, 11, 43], [1, 5, 21, 85])

    def test_jacobsthal_lucas_points(self):
        assert collinear([2, 5, 17], [1, 7, 31])

    def test_unit_triangle_is_not(self):
        assert not collinear(*UNIT_TRIANGLE)

    def test_coincident_points(self):
        assert collinear([3] * 4, [3] * 4)

    def test_coincident_then_apart(self):
        # The line's direction comes from the first point off the first.
        assert collinear([4, 4, 5, 7], [1, 1, 3, 7])
        assert not collinear([4, 4, 5, 4], [1, 1, 3, 2])

    def test_two_points(self):
        assert collinear([0, 5], [0, 9])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            collinear([0], [0])

    def test_equivalent_to_zero_subtriangles(self):
        rng = make_rng(6)
        for _ in range(150):
            count = rng.randint(3, 8)
            if rng.random() < 0.5:
                # points on the line y = 3x - 2, possibly repeated
                xs = [rng.randint(-20, 20) for _ in range(count)]
                ys = [3 * x - 2 for x in xs]
            else:
                xs, ys = random_columns(rng, count, 6)
            brute = all(
                det_area(a, b, c) == 0
                for a, b, c in combinations(zip(xs, ys), 3)
            )
            assert collinear(xs, ys) == brute


class TestValidation:
    def test_shoelace_needs_three_vertices(self):
        for area in (shoelace_signed, shoelace_area):
            with pytest.raises(ValueError):
                area([0, 1], [0, 1])

    def test_columns_of_unequal_length(self):
        for check in (shoelace_signed, shoelace_area, collinear):
            with pytest.raises(ValueError):
                check([0, 1, 0], [0, 0, 1, 1])
            with pytest.raises(ValueError):
                check([0, 1, 0, 1], [0, 0, 1])

    def test_shoelace_rejects_inexact_coordinates(self):
        for check in (shoelace_signed, shoelace_area, collinear):
            with pytest.raises(TypeError):
                check([0, 1.5, 0], [0, 0, 1])
            with pytest.raises(TypeError):
                check([0, 1, 0], [0, Fraction(3, 2), 1])
            with pytest.raises(TypeError):
                check([0, 1, 0], [0, 0, Fraction(1)])

    def test_build_vertices_domain(self):
        fib = SequenceFamily.fibonacci()
        with pytest.raises(ValueError, match="n must be >= 0"):
            build_vertices(fib, -1, 1, 3)
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_vertices(fib, 0, 0, 3)
        with pytest.raises(ValueError, match="m must be >= 3"):
            build_vertices(fib, 0, 1, 2)
        with pytest.raises(TypeError):
            build_vertices(fib, 0, 1.0, 3)
