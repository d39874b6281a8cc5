from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqarea import closedforms, sequences
from seqarea.closedforms import (
    closed_area_for,
    closed_areas,
    closed_triangle_area,
    general_mgon_area,
    general_triangle_area,
    mgon_area,
    polygonal_mgon_area,
    polygonal_triangle_area,
    twice_signed_area,
)
from seqarea.geometry import (
    build_vertices,
    shoelace_area,
    shoelace_signed,
)
from seqarea.sequences import (
    RecurrenceSpec,
    SequenceFamily,
    UnsupportedFamilyError,
    binet_eval,
    binet_params,
    preset,
    reach,
    term,
)
from seqarea.verify import verify_family
from support import grid_values, routed_area

FAMILIES = [
    SequenceFamily.fibonacci(),
    SequenceFamily.lucas(),
    SequenceFamily.pell(),
    SequenceFamily.pell_lucas(),
    SequenceFamily.generalized(1, 2),
    SequenceFamily.generalized(2, 3),
    SequenceFamily.generalized(-2, 3),
]


def oracle_area(family: SequenceFamily, n: int, k: int, m: int) -> Fraction:
    return shoelace_area(*build_vertices(family, n, k, m))


class TestClosedTriangleArea:
    def test_fibonacci_odd_stride(self):
        result = closed_triangle_area(SequenceFamily.fibonacci(), 1)
        assert result.area == Fraction(1, 2)

    def test_fibonacci_even_stride(self):
        result = closed_triangle_area(SequenceFamily.fibonacci(), 2)
        assert result.area == Fraction(15, 2)

    def test_pell_odd_stride(self):
        assert closed_triangle_area(SequenceFamily.pell(), 1).area == 4

    def test_lucas_values(self):
        assert closed_triangle_area(SequenceFamily.lucas(), 1).area == Fraction(5, 2)
        assert closed_triangle_area(SequenceFamily.lucas(), 2).area == Fraction(75, 2)

    def test_pell_lucas_values(self):
        # frozen from the shoelace oracle on actual vertex coordinates
        assert closed_triangle_area(SequenceFamily.pell_lucas(), 1).area == 32
        assert closed_triangle_area(SequenceFamily.pell_lucas(), 2).area == 3072

    def test_generalized_prefactor_is_absolute(self):
        # s=1, t=2 gives s^2 + s*t - t^2 = -1; the area must still be positive
        result = closed_triangle_area(SequenceFamily.generalized(1, 2), 1)
        assert result.area == Fraction(1, 2)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            closed_triangle_area(SequenceFamily.fibonacci(), 0)
        assert closed_triangle_area(SequenceFamily.jacobsthal(), 1).area == 0
        with pytest.raises(UnsupportedFamilyError):
            closed_triangle_area(SequenceFamily.tribonacci(), 1)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
    def test_matches_oracle(self, family):
        for n in range(0, 6):
            for k in range(1, 7):
                assert closed_triangle_area(family, k).area == oracle_area(
                    family, n, k, 3
                )


def custom(p: int, q: int, w0: int, w1: int) -> SequenceFamily:
    """W(n) = p*W(n-1) - q*W(n-2) from W0, W1."""
    return SequenceFamily.custom(RecurrenceSpec((p, -q), (w0, w1), "W"))


class TestTwiceSignedArea:
    """The one integer form against the oracle, sign included."""

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.integers(-6, 6),
        q=st.integers(-6, 6),
        w0=st.integers(-9, 9),
        w1=st.integers(-9, 9),
        n=st.integers(0, 12),
        k=st.integers(1, 6),
        m=st.integers(3, 8),
    )
    def test_matches_signed_shoelace(self, p, q, w0, w1, n, k, m):
        family = custom(p, q, w0, w1)
        poly = build_vertices(family, n, k, m)
        assert twice_signed_area(family, n, k, m) == 2 * shoelace_signed(*poly)

    def test_jacobsthal_bracket_vanishes(self):
        for family in (SequenceFamily.jacobsthal(), SequenceFamily.jacobsthal_lucas()):
            for k in range(1, 13):
                for m in range(3, 10):
                    assert twice_signed_area(family, 5, k, m) == 0
                    assert mgon_area(family, k, m) == 0

    def test_area_growing_in_n_has_no_closed_form(self):
        # (5, 6): W(n) = 3^n - 2^n; the doubled area is a multiple of 6^n.
        family = custom(5, 6, 0, 1)
        assert twice_signed_area(family, 0, 1, 3) != 0
        assert twice_signed_area(family, 1, 1, 3) == 6 * twice_signed_area(family, 0, 1, 3)
        with pytest.raises(UnsupportedFamilyError):
            mgon_area(family, 1, 3)

    def test_unit_q_custom_spec(self):
        family = custom(3, -1, 0, 1)  # the (3, 1) recurrence of the field tests
        for k in range(1, 6):
            for m in range(3, 7):
                assert mgon_area(family, k, m) == oracle_area(family, 4, k, m)

    def test_domain_errors(self):
        fib = SequenceFamily.fibonacci()
        with pytest.raises(ValueError):
            twice_signed_area(fib, -1, 1, 3)
        # Polygonal answers: clockwise, twice 4 * (5-2)^2 at k = 1, m = 3.
        assert twice_signed_area(SequenceFamily.polygonal(5), 0, 1, 3) == -72
        for family in (SequenceFamily.tribonacci(),
                       SequenceFamily.custom(RecurrenceSpec((2,), (1,)))):
            with pytest.raises(UnsupportedFamilyError, match="no closed form"):
                twice_signed_area(family, 0, 1, 3)


class TestClosedAreaFor:
    def test_fibonacci_and_polygonal(self):
        assert closed_area_for(SequenceFamily.fibonacci(), 2, 3) == (15, -1)
        assert closed_area_for(SequenceFamily.polygonal(7), 2, 4) == (-2 * 400 * 16, 1)
        assert closed_area_for(SequenceFamily.jacobsthal(), 3, 5) == (0, -2)

    def test_domain_checked_before_the_family(self):
        for family in (SequenceFamily.fibonacci(), SequenceFamily.polygonal(3),
                       SequenceFamily.perrin()):
            with pytest.raises(ValueError, match="stride k"):
                closed_area_for(family, 0, 3)
            with pytest.raises(ValueError, match="vertex count m"):
                closed_area_for(family, 1, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        rank=st.integers(3, 12),
        k=st.one_of(st.integers(1, 20), st.integers(81, 400)),
        m=st.integers(3, 10),
        data=st.data(),
    )
    def test_polygonal_sign_matches_oracle(self, rank, k, m, data):
        # Both oracle routes: the jump along the area's own recurrence
        # wherever n passes (2m-1)k, the span of the polygon at start 0, and
        # the vertex terms themselves elsewhere, with n on the span, one past
        # it or anywhere up to 5,000, and spans on both sides of the table.
        span = reach(0, k, m)
        n = data.draw(st.one_of(st.sampled_from([span, span + 1]), st.integers(0, 5000)))
        family = SequenceFamily.polygonal(rank)
        oracle, taken = routed_area(family, n, k, m)
        assert taken == ("jump" if n > span else "direct")
        assert twice_signed_area(family, n, k, m) == oracle < 0


# Every CLI family with a closed form, and order-2 custom families with
# Q in {0, +-1, +-2, 3} (c1 = 0 among them).
GRID_FAMILIES = st.one_of(
    st.sampled_from([
        SequenceFamily.fibonacci(), SequenceFamily.lucas(), SequenceFamily.pell(),
        SequenceFamily.pell_lucas(), SequenceFamily.jacobsthal(),
        SequenceFamily.jacobsthal_lucas(),
    ]),
    st.builds(SequenceFamily.generalized, st.integers(-6, 6), st.integers(-6, 6)),
    st.builds(SequenceFamily.polygonal, st.integers(3, 12)),
    st.builds(
        custom,
        st.one_of(st.just(0), st.integers(-4, 4)),
        st.sampled_from([0, 1, -1, 2, -2, 3]),
        st.integers(-5, 5),
        st.integers(-5, 5),
    ),
)


class TestClosedAreas:
    """The grid dispatch against the one-cell dispatch."""

    # (2m - 2)k reaches 20 * 20 = 400, the guardrail, at the largest k and m.
    @settings(max_examples=300, deadline=None)
    @given(family=GRID_FAMILIES, ks=grid_values(1, 20), ms=grid_values(3, 11))
    def test_equals_closed_area_for(self, family, ks, ms):
        forms, q = closed_areas(family, ks, ms)
        assert set(forms) == {(k, m) for k in ks for m in ms}
        for (k, m), twice in forms.items():
            assert closed_area_for(family, k, m) == (twice, q)

    def test_verify_reads_u_through_one_terms_call(self, monkeypatch):
        # Lucas numbers: their U, the Fibonacci numbers, is another recurrence.
        u, real = RecurrenceSpec((1, 1), (0, 1)), sequences.terms
        reads = []

        def counting(spec, *args):
            if spec == u:
                reads.append(args)
            return real(spec, *args)

        def no_term(spec, n):
            raise AssertionError(f"term({n}) read one cell's U")

        monkeypatch.setattr(sequences, "terms", counting)
        monkeypatch.setattr(closedforms, "terms", counting, raising=False)
        monkeypatch.setattr(closedforms, "term", no_term)
        report = verify_family(SequenceFamily.lucas(), range(21), range(1, 21), range(3, 11))
        assert (len(report.cells), report.fail_count) == (3360, 0)
        assert reads == [(0, 361)]

    def test_refusals_in_order(self):
        fib = SequenceFamily.fibonacci()
        refusals = [
            (SequenceFamily.tribonacci(), [0], [2], "no closed form for tribonacci"),
            (fib, [], [3], "k range must be nonempty"),
            (fib, [0], [2], "stride k must be >= 1, got 0"),
            (fib, [1], [2], "vertex count m must be >= 3, got 2"),
            (fib, range(1, 21), [12], "U up to index 440, beyond the 400 guardrail"),
            (SequenceFamily.polygonal(5), [101], [3], "U up to index 404"),
        ]
        for family, ks, ms, line in refusals:
            with pytest.raises(ValueError, match=line):
                closed_areas(family, ks, ms)


class TestPaperForms:
    """The paper's per-family forms, kept as data, against the integer form."""

    FIB, LUC = preset(SequenceFamily.fibonacci()), preset(SequenceFamily.lucas())
    PELL, PELL_LUCAS = preset(SequenceFamily.pell()), preset(SequenceFamily.pell_lucas())
    # family -> (base S, companion C, even-k triangle, odd-k triangle, scale)
    FORMS = [
        (SequenceFamily.fibonacci(), FIB, LUC,
         lambda s, c: Fraction(5 * s**4 * c, 2), lambda s, c: Fraction(s**2 * c**3, 2), 1),
        (SequenceFamily.lucas(), FIB, LUC,
         lambda s, c: Fraction(5 * s**4 * c, 2), lambda s, c: Fraction(s**2 * c**3, 2), 5),
        (SequenceFamily.generalized(2, 5), FIB, LUC,
         lambda s, c: Fraction(5 * s**4 * c, 2), lambda s, c: Fraction(s**2 * c**3, 2),
         abs(2 * 2 + 2 * 5 - 5 * 5)),
        (SequenceFamily.pell(), PELL, PELL_LUCAS,
         lambda s, c: Fraction(4 * s**4 * c), lambda s, c: Fraction(s**2 * c**3, 2), 1),
        (SequenceFamily.pell_lucas(), PELL, PELL_LUCAS,
         lambda s, c: Fraction(4 * s**4 * c), lambda s, c: Fraction(s**2 * c**3, 2), 8),
    ]

    @pytest.mark.parametrize("family, base, companion, even, odd, scale", FORMS,
                             ids=lambda x: getattr(x, "label", None))
    def test_triangle_and_mgon_forms(self, family, base, companion, even, odd, scale):
        for k in range(1, 13):
            s, c = term(base, k), term(companion, k)
            triangle = even(s, c) if k % 2 == 0 else odd(s, c)
            assert closed_triangle_area(family, k).area == scale * triangle, k
            for m in range(3, 9):
                core = abs((m - 1) * s * term(base, 2 * k) - s * term(base, (2 * m - 2) * k))
                assert mgon_area(family, k, m) == Fraction(scale * core, 2), (k, m)


class TestGeneralTriangleArea:
    def test_fibonacci_magnitude(self):
        params = binet_params(SequenceFamily.fibonacci())
        value = general_triangle_area(params, 1, 1)
        assert abs(value.to_rational()) == Fraction(1, 2)

    def test_sign_alternates_with_start_index(self):
        params = binet_params(SequenceFamily.fibonacci())
        odd = general_triangle_area(params, 1, 1).to_rational()
        even = general_triangle_area(params, 2, 1).to_rational()
        assert odd == -even

    def test_pell_lucas_even_stride(self):
        params = binet_params(SequenceFamily.pell_lucas())
        value = abs(general_triangle_area(params, 0, 2).to_rational())
        assert value == 3072
        assert value == oracle_area(SequenceFamily.pell_lucas(), 0, 2, 3)

    @pytest.mark.parametrize("n", [2.5, 2.0, Fraction(3, 2)], ids=repr)
    def test_non_integer_start_raises_type_error(self, n):
        params = binet_params(SequenceFamily.fibonacci())
        with pytest.raises(TypeError):
            general_triangle_area(params, n, 2)
        with pytest.raises(TypeError):
            twice_signed_area(SequenceFamily.fibonacci(), n, 2, 3)

    def test_negative_start_is_defined(self):
        # Twice the signed area at n is (-1)^n times the one at 0, as Q = -1.
        params = binet_params(SequenceFamily.fibonacci())
        at_zero = general_triangle_area(params, 0, 2).to_rational()
        for n in range(-5, 0):
            assert general_triangle_area(params, n, 2).to_rational() == (-1) ** n * at_zero

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
    def test_matches_parity_split_form(self, family):
        params = binet_params(family)
        for n in range(0, 11):
            for k in range(1, 9):
                lemma = abs(general_triangle_area(params, n, k).to_rational())
                assert lemma == closed_triangle_area(family, k).area


class TestGeneralKernel:
    """The one signed Q(sqrt d) kernel against the oracle and the paper."""

    @settings(max_examples=300, deadline=None)
    @given(
        c1=st.sampled_from([c for c in range(-6, 7) if c != 0]),
        w0=st.integers(-9, 9),
        w1=st.integers(-9, 9),
        n=st.integers(0, 8),
        k=st.integers(1, 8),
        m=st.integers(3, 8),
    )
    def test_matches_signed_shoelace(self, c1, w0, w1, n, k, m):
        family = custom(c1, -1, w0, w1)  # W(n) = c1*W(n-1) + W(n-2)
        params = binet_params(family)
        triangle = build_vertices(family, n, k, 3)
        signed = general_triangle_area(params, n, k).to_rational()
        assert signed == shoelace_signed(*triangle)
        assert general_mgon_area(params, k, m) == oracle_area(family, n, k, m)

    @staticmethod
    def paper_triangle(params, n, k):
        """The paper's factored triangle, written with r^-k."""
        rk = params.r**k
        rk_inv = rk.inv()
        return (
            params.a * params.b * Fraction((-1) ** n, 2)
            * (rk - rk_inv) ** 3 * (rk + rk_inv) * (rk + (-1) ** (k + 1) * rk_inv)
        )

    @pytest.mark.parametrize(
        "family",
        [SequenceFamily.fibonacci(), SequenceFamily.lucas(), SequenceFamily.generalized(2, 5),
         SequenceFamily.pell(), SequenceFamily.pell_lucas(), custom(3, -1, 0, 1)],
        ids=lambda f: f.label,
    )
    def test_matches_paper_triangle(self, family):
        params = binet_params(family)
        for n in range(6):
            for k in range(1, 13):
                expected = self.paper_triangle(params, n, k)
                assert general_triangle_area(params, n, k) == expected, (n, k)


class TestMgonArea:
    def test_fibonacci_examples(self):
        fib = SequenceFamily.fibonacci()
        assert mgon_area(fib, 1, 4) == Fraction(5, 2)
        assert mgon_area(fib, 1, 3) == Fraction(1, 2)

    def test_pell_triangle(self):
        assert mgon_area(SequenceFamily.pell(), 1, 3) == 4

    def test_lucas_is_five_times_fibonacci(self):
        fib, luc = SequenceFamily.fibonacci(), SequenceFamily.lucas()
        for k in range(1, 5):
            for m in range(3, 7):
                assert mgon_area(luc, k, m) == 5 * mgon_area(fib, k, m)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
    def test_triangle_case_reduces(self, family):
        for k in range(1, 11):
            assert mgon_area(family, k, 3) == closed_triangle_area(family, k).area

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
    def test_agrees_with_general_form(self, family):
        params = binet_params(family)
        for k in range(1, 7):
            for m in range(3, 9):
                assert general_mgon_area(params, k, m) == mgon_area(family, k, m)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
    def test_matches_oracle(self, family):
        for n in range(0, 4):
            for k in range(1, 5):
                for m in range(3, 8):
                    assert mgon_area(family, k, m) == oracle_area(family, n, k, m)

    def test_domain_errors(self):
        fib = SequenceFamily.fibonacci()
        with pytest.raises(ValueError):
            mgon_area(fib, 0, 4)
        with pytest.raises(ValueError):
            mgon_area(fib, 1, 2)
        with pytest.raises(UnsupportedFamilyError):
            mgon_area(SequenceFamily.perrin(), 1, 4)


class TestGeneralMgonArea:
    def test_fibonacci_examples(self):
        params = binet_params(SequenceFamily.fibonacci())
        assert general_mgon_area(params, 1, 3) == Fraction(1, 2)
        assert general_mgon_area(params, 1, 4) == Fraction(5, 2)

    def test_lucas_quadrilateral(self):
        params = binet_params(SequenceFamily.lucas())
        assert general_mgon_area(params, 1, 4) == Fraction(25, 2)


class TestGeneralFormsAtScale:
    """The Q(sqrt d) route against the family forms and the engine, far past
    the benchmark's sizes (k <= 22, m <= 10, n <= 400)."""

    K_VALUES = (1, 2, 3, 17, 64, 99, 100, 199, 200)
    M_VALUES = (3, 4, 7, 16, 29, 30)
    N_VALUES = (0, 1, 2, 399, 400, 401, 999, 1000, 1999, 2000)
    CUSTOM = SequenceFamily.custom(RecurrenceSpec((3, 1), (0, 1), "3,1"))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
    def test_mgon_and_triangle_match_family_forms(self, family):
        params = binet_params(family)
        for k in self.K_VALUES:
            for m in self.M_VALUES:
                assert general_mgon_area(params, k, m) == mgon_area(family, k, m), (k, m)
            closed = closed_triangle_area(family, k).area
            for n in (0, 1, 2000):
                assert abs(general_triangle_area(params, n, k).to_rational()) == closed

    @pytest.mark.parametrize("family", FAMILIES + [CUSTOM], ids=lambda f: f.label)
    def test_binet_matches_engine(self, family):
        params = binet_params(family)
        spec = preset(family)
        for n in self.N_VALUES:
            assert binet_eval(params, n) == term(spec, n), n

    def test_custom_spec_matches_oracle(self):
        params = binet_params(self.CUSTOM)
        for k, m in ((1, 3), (2, 4), (5, 7), (12, 10), (40, 16), (60, 30)):
            area = general_mgon_area(params, k, m)
            for n in (0, 7):
                assert area == oracle_area(self.CUSTOM, n, k, m), (k, m, n)
            triangle = abs(general_triangle_area(params, 3, k).to_rational())
            assert triangle == oracle_area(self.CUSTOM, 3, k, 3)


class TestPolygonalAreas:
    def test_mgon_area_answers_polygonal(self):
        for rank in range(3, 9):
            family = SequenceFamily.polygonal(rank)
            assert closed_triangle_area(family, 1).area == 4 * (rank - 2) ** 2
            for k in range(1, 4):
                for m in range(3, 7):
                    assert mgon_area(family, k, m) == polygonal_mgon_area(rank, k, m)
        with pytest.raises(ValueError):
            mgon_area(SequenceFamily.polygonal(5), 0, 3)

    def test_triangle_values(self):
        assert polygonal_triangle_area(3, 1) == 4
        assert polygonal_triangle_area(4, 2) == 256
        assert polygonal_triangle_area(7, 1) == 100

    def test_mgon_values(self):
        assert polygonal_mgon_area(3, 1, 5) == 40
        assert polygonal_mgon_area(5, 1, 6) == 720
        assert polygonal_mgon_area(7, 1, 7) == 3500

    def test_triangle_case_reduces(self):
        for rank in range(3, 11):
            for k in range(1, 6):
                assert polygonal_mgon_area(rank, k, 3) == polygonal_triangle_area(
                    rank, k
                )

    def test_tetrahedral_growth_in_m(self):
        ratios = [
            polygonal_mgon_area(5, 2, m) / polygonal_triangle_area(5, 2)
            for m in range(3, 8)
        ]
        assert ratios == [1, 4, 10, 20, 35]

    def test_independent_of_start_index(self):
        rank = 6
        for n in range(0, 8):
            area = oracle_area(SequenceFamily.polygonal(rank), n, 2, 4)
            assert area == polygonal_mgon_area(rank, 2, 4)

    def test_matches_oracle(self):
        for rank in range(3, 9):
            family = SequenceFamily.polygonal(rank)
            for n in range(0, 4):
                for k in range(1, 4):
                    for m in range(3, 8):
                        assert polygonal_mgon_area(rank, k, m) == oracle_area(
                            family, n, k, m
                        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            polygonal_triangle_area(2, 1)
        with pytest.raises(ValueError):
            polygonal_triangle_area(3, 0)
        with pytest.raises(ValueError):
            polygonal_mgon_area(3, 1, 2)
