"""QuadElem against a reference written here as a plain pair of Fractions.

``Ref`` below is the oracle: p + q*sqrt(d) with both parts kept as reduced
Fractions and every operation written out from the textbook formulas, with
nothing shared with the integer representation of :class:`QuadElem`.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqarea.closedforms import general_mgon_area, general_triangle_area
from seqarea.numerics import IrrationalResidueError, QuadElem
from seqarea.sequences import BinetParams, SequenceFamily, binet_eval, binet_params

RADICANDS = (2, 3, 5, 6, 7, 13)


class Ref:
    """p + q*sqrt(d) as two Fractions."""

    def __init__(self, p: Fraction, q: Fraction, d: int) -> None:
        self.p, self.q, self.d = Fraction(p), Fraction(q), d

    def __add__(self, o: Ref) -> Ref:
        return Ref(self.p + o.p, self.q + o.q, self.d)

    def __sub__(self, o: Ref) -> Ref:
        return Ref(self.p - o.p, self.q - o.q, self.d)

    def __mul__(self, o: Ref) -> Ref:
        return Ref(self.p * o.p + self.d * self.q * o.q, self.p * o.q + self.q * o.p, self.d)

    def norm(self) -> Fraction:
        return self.p * self.p - self.d * self.q * self.q

    def inv(self) -> Ref:
        n = self.norm()
        return Ref(self.p / n, -self.q / n, self.d)

    def __truediv__(self, o: Ref) -> Ref:
        return self * o.inv()

    def __pow__(self, e: int) -> Ref:
        base = self.inv() if e < 0 else self
        out = Ref(Fraction(1), Fraction(0), self.d)
        for _ in range(abs(e)):
            out = out * base
        return out

    def conjugate(self) -> Ref:
        return Ref(self.p, -self.q, self.d)

    def elem(self) -> QuadElem:
        return QuadElem(self.p, self.q, self.d)


def same(x: QuadElem, want: Ref) -> None:
    """x has the reference's value, and its canonical form: it equals, and
    hashes like, the element built from the reference's parts."""
    assert (x.p, x.q, x.d) == (want.p, want.q, want.d)
    built = want.elem()
    assert x == built
    assert hash(x) == hash(built)


rationals = st.builds(
    Fraction,
    st.integers(-1000, 1000) | st.integers(-(10**30), 10**30),
    st.sampled_from((1, 2, 3, 4, 6, 12)) | st.integers(1, 10**4),
)


@st.composite
def pairs(draw, nonzero_rhs: bool = False):
    d = draw(st.sampled_from(RADICANDS))
    x = Ref(draw(rationals), draw(rationals), d)
    y = Ref(draw(rationals), draw(rationals), d)
    if nonzero_rhs and not (y.p or y.q):
        y = Ref(Fraction(1), Fraction(0), d)
    return x, y


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(pairs())
    def test_ring_operations(self, pair):
        x, y = pair
        same(x.elem() + y.elem(), x + y)
        same(x.elem() - y.elem(), x - y)
        same(x.elem() * y.elem(), x * y)
        same(-x.elem(), Ref(Fraction(0), Fraction(0), x.d) - x)
        same(x.elem().conjugate(), x.conjugate())

    @settings(max_examples=150, deadline=None)
    @given(pairs(nonzero_rhs=True))
    def test_division_inverse_and_norm(self, pair):
        x, y = pair
        same(x.elem() / y.elem(), x / y)
        same(y.elem().inv(), y.inv())
        assert y.elem().norm() == y.norm()
        assert x.elem().norm() == x.norm()

    @settings(max_examples=120, deadline=None)
    @given(pairs(nonzero_rhs=True), st.integers(-12, 12))
    def test_powers_with_negative_exponents(self, pair, e):
        _, y = pair
        same(y.elem() ** e, y**e)

    @settings(max_examples=120, deadline=None)
    @given(pairs(), rationals, st.integers(-50, 50))
    def test_mixed_with_rationals(self, pair, r, i):
        x, _ = pair
        rr, ri = Ref(r, Fraction(0), x.d), Ref(Fraction(i), Fraction(0), x.d)
        same(x.elem() + r, x + rr)
        same(r + x.elem(), x + rr)
        same(x.elem() - i, x - ri)
        same(i - x.elem(), ri - x)
        same(x.elem() * r, x * rr)
        same(i * x.elem(), x * ri)
        if r:
            same(x.elem() / r, x / rr)
        if x.p or x.q:
            same(i / x.elem(), ri / x)

    @settings(max_examples=120, deadline=None)
    @given(pairs())
    def test_equality_hash_bool_and_to_rational(self, pair):
        x, y = pair
        assert (x.elem() == y.elem()) == ((x.p, x.q) == (y.p, y.q))
        round_trip = (x.elem() * 3 + 1) / 3 - Fraction(1, 3)
        assert round_trip == x.elem() and hash(round_trip) == hash(x.elem())
        assert bool(x.elem()) == bool(x.p or x.q)
        if x.q:
            with pytest.raises(IrrationalResidueError):
                x.elem().to_rational()
        else:
            assert x.elem().to_rational() == x.p


class TestBehaviour:
    def test_elements_are_immutable(self):
        x = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
        for name, value in (("p", 1), ("q", 1), ("d", 2), ("extra", 0)):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
        assert x == QuadElem(Fraction(1, 2), Fraction(1, 2), 5)

    def test_non_squarefree_radicand_rejected_on_every_construction(self):
        QuadElem(1, 1, 5)
        for d in (4, 8, 12, 0, 1, -5):
            for _ in range(3):
                with pytest.raises(ValueError):
                    QuadElem(1, 1, d)
                with pytest.raises(ValueError):
                    QuadElem(0, 1, d)

    def test_non_integer_radicand_rejected(self):
        with pytest.raises(ValueError):
            QuadElem(1, 1, 5.0)

    def test_pickle_and_copy_round_trip(self):
        x = QuadElem(Fraction(-3, 4), Fraction(5, 6), 13)
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.deepcopy(x) == x

    def test_repr_shows_reduced_parts(self):
        x = QuadElem(Fraction(2, 4), 1, 5)
        assert repr(x) == "QuadElem(p=Fraction(1, 2), q=Fraction(1, 1), d=5)"
        assert str(x) == "1/2 + 1*sqrt(5)"


class TestIrrationalResidue:
    """Multiplying ``params.a`` by sqrt(d) breaks the cancellation of the
    radical part, which must surface as an error, not a wrong rational."""

    @pytest.mark.parametrize(
        "family", [SequenceFamily.fibonacci(), SequenceFamily.pell()], ids=lambda f: f.label
    )
    def test_skewed_params_raise(self, family):
        params = binet_params(family)
        root = QuadElem(0, 1, params.r.d)
        skewed = BinetParams(params.a * root, params.b, params.r)
        with pytest.raises(IrrationalResidueError):
            general_mgon_area(skewed, 3, 4)
        with pytest.raises(IrrationalResidueError):
            general_triangle_area(skewed, 2, 3).to_rational()
        with pytest.raises(IrrationalResidueError):
            binet_eval(skewed, 10)
