"""Closed-form area expressions for polygons on sequence-term vertices.

Two independent layers are provided on purpose.  The integer forms
(:func:`twice_signed_area` for every second-order recurrence, which
:func:`mgon_area` and :func:`closed_triangle_area` read, and
:func:`polygonal_triangle_area`, :func:`polygonal_mgon_area`) use only
integer sequence terms; :func:`closed_area_for` picks the m-gon one for a
family.  The general formulas
(:func:`general_triangle_area`, :func:`general_mgon_area`) evaluate the
underlying factored expressions in exact quadratic-field arithmetic and must
agree with both the integer forms and the shoelace oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .numerics import QuadElem
from .sequences import (
    BinetParams,
    FamilyKind,
    RecurrenceSpec,
    SequenceFamily,
    UnsupportedFamilyError,
    preset,
    term,
)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"stride k must be >= 1, got {k}")


def _check_m(m: int) -> None:
    if m < 3:
        raise ValueError(f"vertex count m must be >= 3, got {m}")


def _check_rank(rank: int) -> None:
    if rank < 3:
        raise ValueError(f"polygonal rank must be >= 3, got {rank}")


# The Lucas sequences U of the fixed families' recurrences are presets
# themselves (Fibonacci, Pell, Jacobsthal), so they share their term tables.
_LUCAS_U = {
    spec.coefficients: spec
    for spec in map(
        preset,
        (SequenceFamily.fibonacci(), SequenceFamily.pell(), SequenceFamily.jacobsthal()),
    )
}


@functools.lru_cache(maxsize=64)
def _horadam(family: SequenceFamily) -> tuple[RecurrenceSpec, int, int]:
    """(U, e, Q) of a family W(n) = P*W(n-1) - Q*W(n-2): the Lucas sequence
    U(0) = 0, U(1) = 1 of (P, Q), and Horadam's characteristic
    e = P*W0*W1 - W1^2 - Q*W0^2."""
    spec = None if family.kind is FamilyKind.POLYGONAL else preset(family)
    if spec is None or spec.order != 2:
        raise UnsupportedFamilyError(f"no closed form for {family.label}")
    (p, c2), (w0, w1) = spec.coefficients, spec.initial_terms
    u = _LUCAS_U.get(spec.coefficients) or RecurrenceSpec(2, (p, c2), (0, 1), "U")
    return u, p * w0 * w1 - w1 * w1 + c2 * w0 * w0, -c2


def _twice_area_at_zero(family: SequenceFamily, k: int, m: int) -> tuple[int, int]:
    """Twice the signed m-gon area at n = 0, and Q."""
    _check_k(k)
    _check_m(m)
    u, e, q = _horadam(family)
    q2k = q ** (2 * k)
    series = m - 1 if q2k == 1 else (q2k ** (m - 1) - 1) // (q2k - 1)
    bracket = term(u, 2 * k) * series - term(u, (2 * m - 2) * k)
    return e * term(u, k) * bracket, q


def twice_signed_area(family: SequenceFamily, n: int, k: int, m: int) -> int:
    """Twice the signed area of the m-gon on a second-order family's terms.

    With the vertices of :class:`~seqarea.geometry.PolygonSpec` (n, k, m)
    and U, e, Q as in Horadam (Fibonacci Quart. 3 (1965) 161-176), it is
    ``e * Q^n * U(k) * (U(2k) * sum(Q^(2ik), i = 0..m-2) - U((2m-2)k))``,
    sign included.  Third-order and polygonal families raise
    :class:`UnsupportedFamilyError`.
    """
    if n < 0:
        raise ValueError(f"start index n must be >= 0, got {n}")
    twice, q = _twice_area_at_zero(family, k, m)
    return twice * q**n


def mgon_area(family: SequenceFamily, k: int, m: int) -> Fraction:
    """m-gon area of a second-order family, if it does not depend on n.

    That holds for |Q| = 1 (the five Binet families: the sum is m-1 and
    Q^n is +-1) and wherever :func:`twice_signed_area` is 0 at every n
    (the Jacobsthal pair, whose bracket vanishes: collinear vertices).  Any
    other area grows like |Q|^n and raises :class:`UnsupportedFamilyError`.
    """
    twice, q = _twice_area_at_zero(family, k, m)
    if twice and abs(q) != 1:
        raise UnsupportedFamilyError(
            f"no closed form for {family.label}: its area depends on n"
        )
    return Fraction(abs(twice), 2)


@dataclass(frozen=True)
class ClosedFormResult:
    """A closed-form triangle area."""

    area: Fraction


def closed_triangle_area(family: SequenceFamily, k: int) -> ClosedFormResult:
    """Triangle area for stride k: :func:`mgon_area` at m = 3."""
    return ClosedFormResult(mgon_area(family, k, 3))


def general_triangle_area(params: BinetParams, n: int, k: int) -> QuadElem:
    """Signed triangle area from the factored general formula.

    Evaluates ``(a*b*(-1)^n / 2) * (r^k - r^-k)^3 * (r^k + r^-k)
    * (r^k + (-1)^(k+1) * r^-k)`` exactly.  For the named families the
    radical part cancels and the absolute value matches
    :func:`closed_triangle_area`.
    """
    _check_k(k)
    rk = params.r**k
    rk_inv = rk.inv()
    last = rk + rk_inv if k % 2 == 1 else rk - rk_inv
    body = (rk - rk_inv) ** 3 * (rk + rk_inv) * last
    sign = Fraction(1, 2) if n % 2 == 0 else Fraction(-1, 2)
    return params.a * params.b * body * sign


def general_mgon_area(params: BinetParams, k: int, m: int) -> Fraction:
    """m-gon area from the general factored formula, as an exact rational.

    For even k the repeated factor is (r^k - r^-k); for odd k it is
    (r^k + r^-k).  Either way the result is
    ``|a*b*[(m-1)*first*(r^2k - r^-2k) - first*(r^((2m-2)k) - r^-((2m-2)k))]|/2``
    and the radical part must cancel.
    """
    _check_k(k)
    _check_m(m)
    rk = params.r**k
    rk_inv = rk.inv()
    first = rk - rk_inv if k % 2 == 0 else rk + rk_inv
    r2k, r2k_inv = rk * rk, rk_inv * rk_inv
    middle = r2k - r2k_inv
    r_span = r2k ** (m - 1)  # r^((2m-2)k)
    last = r_span - r_span.inv()
    inner = (m - 1) * first * middle - first * last
    value = (params.a * params.b * inner).to_rational()
    return abs(value) / 2


def polygonal_triangle_area(rank: int, k: int) -> Fraction:
    """Triangle area on figurate-number vertices: 4*(rank-2)^2*k^4.

    Independent of the start index n.
    """
    _check_rank(rank)
    _check_k(k)
    return Fraction(4 * (rank - 2) ** 2 * k**4)


def polygonal_mgon_area(rank: int, k: int, m: int) -> Fraction:
    """m-gon area on figurate-number vertices.

    Equals the triangle area scaled by the tetrahedral number
    m*(m-1)*(m-2)/6, so it reduces to :func:`polygonal_triangle_area` at
    m = 3.
    """
    _check_rank(rank)
    _check_k(k)
    _check_m(m)
    tetra = m * (m - 1) * (m - 2)
    assert tetra % 6 == 0
    return Fraction(4 * (tetra // 6) * (rank - 2) ** 2 * k**4)


def closed_area_for(family: SequenceFamily, k: int, m: int) -> Fraction:
    """The closed-form m-gon area, or an error for families without one."""
    if family.kind is FamilyKind.POLYGONAL:
        assert family.rank is not None
        return polygonal_mgon_area(family.rank, k, m)
    return mgon_area(family, k, m)
