"""Closed-form area expressions for polygons on sequence-term vertices.

Two independent layers are provided on purpose.  The family-specific
formulas (:func:`closed_triangle_area`, :func:`mgon_area`,
:func:`polygonal_triangle_area`, :func:`polygonal_mgon_area`) use only
integer sequence terms; :func:`closed_area_for` picks the m-gon one for a
family.  The general formulas
(:func:`general_triangle_area`, :func:`general_mgon_area`) evaluate the
underlying factored expressions in exact quadratic-field arithmetic and must
agree with both the family formulas and the shoelace oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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


class _Base(NamedTuple):
    """Fibonacci (with Lucas) or Pell (with Pell-Lucas): the terms a Binet
    family's closed forms read, and the base triangle per parity of k."""

    seq: RecurrenceSpec
    companion: RecurrenceSpec
    even_factor: Fraction  # even k: even_factor * S(k)^4 * C(k)
    even_label: str
    odd_label: str  # odd k: S(k)^2 * C(k)^3 / 2


_FIBONACCI = _Base(
    preset(SequenceFamily.fibonacci()),
    preset(SequenceFamily.lucas()),
    Fraction(5, 2),
    "5*F(k)^4*L(k)/2",
    "F(k)^2*L(k)^3/2",
)
_PELL = _Base(
    preset(SequenceFamily.pell()),
    preset(SequenceFamily.pell_lucas()),
    Fraction(4),
    "4*P(k)^4*Q(k)",
    "P(k)^2*Q(k)^3/2",
)

# Kind -> (base, scale): every area on the family's vertices is the base
# sequence's area times the scale.  None marks the generalized Fibonacci
# scale |s^2+st-t^2|, which depends on the family's s and t.
_SCALES: dict[FamilyKind, tuple[_Base, int | None]] = {
    FamilyKind.FIBONACCI: (_FIBONACCI, 1),
    FamilyKind.LUCAS: (_FIBONACCI, 5),
    FamilyKind.GENERALIZED_FIBONACCI: (_FIBONACCI, None),
    FamilyKind.PELL: (_PELL, 1),
    FamilyKind.PELL_LUCAS: (_PELL, 8),
}


def _base_and_scale(family: SequenceFamily) -> tuple[_Base, int]:
    entry = _SCALES.get(family.kind)
    if entry is None:
        raise UnsupportedFamilyError(f"no closed form for {family.label}")
    base, scale = entry
    if scale is None:
        assert family.s is not None and family.t is not None
        s, t = family.s, family.t
        scale = abs(s * s + s * t - t * t)
    return base, scale


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"stride k must be >= 1, got {k}")


def _check_m(m: int) -> None:
    if m < 3:
        raise ValueError(f"vertex count m must be >= 3, got {m}")


def _check_rank(rank: int) -> None:
    if rank < 3:
        raise ValueError(f"polygonal rank must be >= 3, got {rank}")


@dataclass(frozen=True)
class ClosedFormResult:
    """A closed-form triangle area plus which parity branch produced it."""

    area: Fraction
    parity_branch: str
    formula_label: str


def closed_triangle_area(family: SequenceFamily, k: int) -> ClosedFormResult:
    """Triangle area for stride k from the family's closed formula.

    The value is independent of the start index n: the family's scale
    times the Fibonacci or Pell triangle.  Supported families: fibonacci,
    lucas, generalized, pell, pell-lucas.
    """
    _check_k(k)
    base, scale = _base_and_scale(family)
    parity = "even" if k % 2 == 0 else "odd"
    s, c = term(base.seq, k), term(base.companion, k)
    if parity == "even":
        area, label = base.even_factor * s**4 * c, base.even_label
    else:
        area, label = Fraction(s**2 * c**3, 2), base.odd_label
    tag = "" if scale == 1 else f"{scale}*"
    return ClosedFormResult(scale * area, parity, tag + label)


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


def mgon_area(family: SequenceFamily, k: int, m: int) -> Fraction:
    """m-gon area from the family's closed formula over sequence terms.

    All five supported families share the core
    ``|(m-1)*S(k)*S(2k) - S(k)*S((2m-2)k)|`` with S the Fibonacci or Pell
    sequence, halved and times the family's scale.
    """
    _check_k(k)
    _check_m(m)
    base, scale = _base_and_scale(family)
    s_k = term(base.seq, k)
    s_2k = term(base.seq, 2 * k)
    s_span = term(base.seq, (2 * m - 2) * k)
    core = abs((m - 1) * s_k * s_2k - s_k * s_span)
    return Fraction(scale * core, 2)


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
