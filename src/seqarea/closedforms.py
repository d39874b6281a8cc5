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

from .numerics import QuadElem
from .sequences import (
    BinetParams,
    FamilyKind,
    SequenceFamily,
    UnsupportedFamilyError,
    preset,
    term,
)

_FIB = preset(SequenceFamily.fibonacci())
_LUC = preset(SequenceFamily.lucas())
_PELL = preset(SequenceFamily.pell())
_PELL_LUC = preset(SequenceFamily.pell_lucas())


def _parity(k: int) -> str:
    return "even" if k % 2 == 0 else "odd"


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"stride k must be >= 1, got {k}")


def _check_m(m: int) -> None:
    if m < 3:
        raise ValueError(f"vertex count m must be >= 3, got {m}")


def _check_rank(rank: int) -> None:
    if rank < 3:
        raise ValueError(f"polygonal rank must be >= 3, got {rank}")


def _gen_prefactor(family: SequenceFamily) -> int:
    assert family.s is not None and family.t is not None
    s, t = family.s, family.t
    return abs(s * s + s * t - t * t)


@dataclass(frozen=True)
class ClosedFormResult:
    """A closed-form triangle area plus which parity branch produced it."""

    area: Fraction
    parity_branch: str
    formula_label: str


def closed_triangle_area(family: SequenceFamily, k: int) -> ClosedFormResult:
    """Triangle area for stride k from the family's closed formula.

    The value is independent of the start index n.  Supported families:
    fibonacci, lucas, generalized, pell, pell-lucas.
    """
    _check_k(k)
    kind = family.kind
    parity = _parity(k)
    if kind in (
        FamilyKind.FIBONACCI,
        FamilyKind.LUCAS,
        FamilyKind.GENERALIZED_FIBONACCI,
    ):
        f, lu = term(_FIB, k), term(_LUC, k)
        if kind is FamilyKind.FIBONACCI:
            scale, tag = 1, ""
        elif kind is FamilyKind.LUCAS:
            scale, tag = 5, "5*"
        else:
            scale = _gen_prefactor(family)
            tag = f"|s^2+st-t^2|({scale})*"
        if parity == "even":
            return ClosedFormResult(
                Fraction(5 * scale * f**4 * lu, 2), parity, f"{tag}5*F(k)^4*L(k)/2"
            )
        return ClosedFormResult(
            Fraction(scale * f**2 * lu**3, 2), parity, f"{tag}F(k)^2*L(k)^3/2"
        )
    if kind in (FamilyKind.PELL, FamilyKind.PELL_LUCAS):
        p, q = term(_PELL, k), term(_PELL_LUC, k)
        if kind is FamilyKind.PELL:
            if parity == "even":
                return ClosedFormResult(Fraction(4 * p**4 * q), parity, "4*P(k)^4*Q(k)")
            return ClosedFormResult(Fraction(p**2 * q**3, 2), parity, "P(k)^2*Q(k)^3/2")
        if parity == "even":
            return ClosedFormResult(Fraction(32 * p**4 * q), parity, "32*P(k)^4*Q(k)")
        return ClosedFormResult(Fraction(4 * p**2 * q**3), parity, "4*P(k)^2*Q(k)^3")
    raise UnsupportedFamilyError(f"no closed triangle formula for {family.label}")


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
    middle = params.r ** (2 * k) - params.r ** (-2 * k)
    span = (2 * m - 2) * k
    last = params.r**span - params.r ** (-span)
    inner = (m - 1) * first * middle - first * last
    value = (params.a * params.b * inner).to_rational()
    return abs(value) / 2


def mgon_area(family: SequenceFamily, k: int, m: int) -> Fraction:
    """m-gon area from the family's closed formula over sequence terms.

    All five supported families share the core
    ``|(m-1)*S(k)*S(2k) - S(k)*S((2m-2)k)|`` with S the Fibonacci or Pell
    sequence; only the rational prefactor differs.
    """
    _check_k(k)
    _check_m(m)
    kind = family.kind
    if kind in (
        FamilyKind.FIBONACCI,
        FamilyKind.LUCAS,
        FamilyKind.GENERALIZED_FIBONACCI,
    ):
        base_spec = _FIB
    elif kind in (FamilyKind.PELL, FamilyKind.PELL_LUCAS):
        base_spec = _PELL
    else:
        raise UnsupportedFamilyError(f"no closed m-gon formula for {family.label}")
    s_k = term(base_spec, k)
    s_2k = term(base_spec, 2 * k)
    s_span = term(base_spec, (2 * m - 2) * k)
    core = abs((m - 1) * s_k * s_2k - s_k * s_span)
    if kind is FamilyKind.FIBONACCI or kind is FamilyKind.PELL:
        return Fraction(core, 2)
    if kind is FamilyKind.LUCAS:
        return Fraction(5 * core, 2)
    if kind is FamilyKind.PELL_LUCAS:
        return Fraction(4 * core)
    return Fraction(_gen_prefactor(family) * core, 2)


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
    if family.is_binet:
        return mgon_area(family, k, m)
    raise UnsupportedFamilyError(f"no closed form for {family.label}")
