from fractions import Fraction

import pytest

from seqarea.numerics import (
    IrrationalResidueError,
    QuadElem,
    RadicandMismatchError,
    rational_str,
)
from support import assert_canonical, field_axiom_violations, make_rng, nonzero_quadelem

PHI = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
SQRT5 = QuadElem(0, 1, 5)
SILVER = QuadElem(Fraction(1), Fraction(1), 2)  # 1 + sqrt(2)


class TestAdd:
    def test_componentwise(self):
        assert QuadElem(1, 0, 5) + QuadElem(0, 1, 5) == QuadElem(1, 1, 5)

    def test_conjugate_sum_is_rational(self):
        assert PHI + PHI.conjugate() == QuadElem(1, 0, 5)

    def test_doubling_golden_ratio(self):
        assert PHI + PHI == QuadElem(1, 1, 5)

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatchError):
            QuadElem(1, 1, 5) + QuadElem(1, 1, 2)


class TestMul:
    def test_sqrt5_squared(self):
        assert SQRT5 * SQRT5 == QuadElem(5, 0, 5)

    def test_golden_ratio_identity(self):
        # phi^2 = phi + 1
        assert PHI * PHI == QuadElem(Fraction(3, 2), Fraction(1, 2), 5)
        assert PHI * PHI == PHI + 1

    def test_conjugate_product_of_silver_ratio(self):
        assert SILVER * QuadElem(-1, 1, 2) == QuadElem(1, 0, 2)

    def test_scalar_coercion(self):
        assert 2 * PHI == QuadElem(1, 1, 5)
        assert PHI * Fraction(1, 2) == QuadElem(Fraction(1, 4), Fraction(1, 4), 5)

    def test_radicand_mismatch(self):
        with pytest.raises(RadicandMismatchError):
            PHI * SILVER


class TestInv:
    def test_golden_ratio(self):
        assert PHI.inv() == QuadElem(Fraction(-1, 2), Fraction(1, 2), 5)
        assert PHI.inv() == PHI - 1

    def test_identity(self):
        one = QuadElem(1, 0, 5)
        assert one.inv() == one

    def test_silver_ratio(self):
        assert SILVER.inv() == QuadElem(-1, 1, 2)

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            QuadElem(0, 0, 5).inv()


class TestPow:
    def test_zero_exponent(self):
        assert PHI**0 == QuadElem(1, 0, 5)

    def test_square_matches_mul(self):
        assert PHI**2 == PHI * PHI

    def test_silver_ratio_cube(self):
        assert SILVER**3 == QuadElem(7, 5, 2)

    def test_negative_exponent(self):
        assert PHI**-3 == PHI.inv() ** 3

    def test_zero_to_negative_raises(self):
        with pytest.raises(ZeroDivisionError):
            QuadElem(0, 0, 5) ** -1

    def test_exponent_addition_law(self):
        rng = make_rng(1)
        for d in (2, 5):
            for _ in range(200):
                x = nonzero_quadelem(rng, d)
                a = rng.randint(-20, 20)
                b = rng.randint(-20, 20)
                assert x ** (a + b) == (x**a) * (x**b)


class TestToRational:
    def test_plain_rational(self):
        assert QuadElem(5, 0, 5).to_rational() == 5

    def test_binet_style_cancellation(self):
        # a*r + b/r with a = b = 1/sqrt(5) and r the golden ratio is exactly 1
        a = QuadElem(0, Fraction(1, 5), 5)
        value = a * PHI + a * PHI.inv()
        assert value.to_rational() == 1

    def test_radical_residue_raises(self):
        with pytest.raises(IrrationalResidueError):
            SQRT5.to_rational()


class TestConstruction:
    def test_non_squarefree_radicand_rejected(self):
        for d in (0, 1, 4, 8, 9, 12, -5):
            with pytest.raises(ValueError):
                QuadElem(1, 1, d)

    def test_is_squarefree(self):
        # A radicand is accepted iff it is squarefree and at least 2.
        def accepted(d):
            try:
                QuadElem(1, 1, d)
            except ValueError:
                return False
            return True

        assert [d for d in range(1, 16) if accepted(d)] == [
            2, 3, 5, 6, 7, 10, 11, 13, 14, 15,
        ]

    def test_components_coerced_to_fraction(self):
        x = QuadElem(2, 3, 5)
        assert isinstance(x.p, Fraction) and isinstance(x.q, Fraction)

    @pytest.mark.parametrize("part", [0.1, "1/3", 1.0])
    def test_parts_must_be_exact(self, part):
        with pytest.raises(TypeError):
            QuadElem(part, 0, 5)
        with pytest.raises(TypeError):
            QuadElem(0, part, 5)

    def test_equality_is_componentwise(self):
        assert QuadElem(1, 2, 5) != QuadElem(1, 2, 2)
        assert QuadElem(Fraction(2, 4), Fraction(1, 2), 5) == PHI


@pytest.mark.parametrize("d", [2, 5])
def test_field_axioms_randomized(d):
    rng = make_rng(d)
    assert field_axiom_violations(rng, d, 1000) == 0


def test_results_stay_canonical():
    rng = make_rng(7)
    for d in (2, 5):
        for _ in range(300):
            x = nonzero_quadelem(rng, d)
            y = nonzero_quadelem(rng, d)
            for value in (x + y, x - y, x * y, x / y, x**3, x**-2):
                assert_canonical(value)


def test_rational_str():
    assert rational_str(Fraction(15, 2)) == "15/2"
    assert rational_str(Fraction(-4)) == "-4"
    assert rational_str(Fraction(0)) == "0"
