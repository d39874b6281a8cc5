"""Closed-form area expressions for polygons on sequence-term vertices.

Two independent layers are provided on purpose.  The integer forms use only
integer sequence terms: twice the signed m-gon area at start n is S * q^n,
from Horadam's form for a second-order family and from the figurate
coefficient for polygonal numbers, each written once.  They have one
dispatch in two shapes: :func:`closed_area_for` gives one (k, m) from the
three terms of U it needs, and :func:`closed_areas` every (k, m) of a grid
from one slice of U.  :func:`twice_signed_area`, :func:`mgon_area` (the
area where it does not depend on n), :func:`closed_triangle_area` and the
``polygonal_*`` forms are views of :func:`closed_area_for`, and
``verify_family`` reads :func:`closed_areas`.  The general formulas
(:func:`general_triangle_area`, :func:`general_mgon_area`) evaluate the
same area from the Binet parameters in exact quadratic-field arithmetic and
must agree with both the integer forms and the shoelace oracle.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .numerics import QuadElem
from .sequences import (
    MAX_SEQUENCE_INDEX,
    BinetParams,
    FamilyKind,
    RecurrenceSpec,
    SequenceFamily,
    UnsupportedFamilyError,
    _as_range,
    _ends,
    check_domain,
    preset,
    term,
    terms,
)


@functools.lru_cache(maxsize=64)
def _closed_form(family: SequenceFamily) -> tuple[RecurrenceSpec | None, int, int]:
    """(U, e, Q) of a family W(n) = P*W(n-1) - Q*W(n-2): the Lucas sequence
    U(0) = 0, U(1) = 1 of (P, Q), and Horadam's characteristic
    e = P*W0*W1 - W1^2 - Q*W0^2.  Polygonal numbers give (None, rank, 1);
    any other family raises UnsupportedFamilyError."""
    if family.kind is FamilyKind.POLYGONAL:
        assert family.rank is not None
        return None, family.rank, 1
    spec = preset(family)
    if spec.order != 2:
        raise UnsupportedFamilyError(f"no closed form for {family.label}")
    (p, c2), (w0, w1) = spec.coefficients, spec.initial_terms
    u = RecurrenceSpec((p, c2), (0, 1), "U")
    return u, p * w0 * w1 - w1 * w1 + c2 * w0 * w0, -c2


def _horadam_twice(e: int, q2k: int, m: int, uk: int, u2k: int, u_span: int) -> int:
    """Horadam's S from U(k), U(2k), U((2m-2)k) and q2k = Q^(2k)."""
    series = m - 1 if q2k == 1 else (q2k ** (m - 1) - 1) // (q2k - 1)
    return e * uk * (u2k * series - u_span)


def _polygonal_twice(coefficient: int, k: int) -> int:
    """S of a figurate m-gon of stride k, whose vertices run clockwise, from
    the polygonal coefficient of its m."""
    return -2 * coefficient * k**4


def closed_area_for(family: SequenceFamily, k: int, m: int) -> tuple[int, int]:
    """(S, q): twice the signed closed-form m-gon area of stride k at any
    start n is S * q**n.

    With U, e, Q as in Horadam (Fibonacci Quart. 3 (1965) 161-176), a
    second-order family has q = Q and
    ``S = e * U(k) * (U(2k) * sum(Q^(2ik), i = 0..m-2) - U((2m-2)k))``.
    Figurate vertices run clockwise: S = -2 * c * k^4 for the polygonal
    coefficient c, and q = 1.  Other families raise UnsupportedFamilyError.
    Only the three terms of U that S needs are read, whatever k.

    >>> closed_area_for(SequenceFamily.fibonacci(), 2, 3)
    (15, -1)
    """
    check_domain(k=k, m=m)
    u, e, q = _closed_form(family)
    if u is None:
        return _polygonal_twice(_polygonal_coefficient(e, m), k), 1
    u_span = term(u, (2 * m - 2) * k)
    return _horadam_twice(e, q ** (2 * k), m, term(u, k), term(u, 2 * k), u_span), q


def closed_areas(
    family: SequenceFamily, ks: Iterable[int], ms: Iterable[int]
) -> tuple[dict[tuple[int, int], int], int]:
    """({(k, m): S}, q): :func:`closed_area_for` at every (k, m) of a grid.

    U is read once, as one slice U(0) .. U((2m-2)k) of the small-index
    table for the largest k and m, Q^(2k) once per k and a polygonal
    coefficient once per m.  The family is checked first, then that k and
    m are nonempty and in their domain; a grid whose largest (2m-2)k
    passes the index guardrail is refused.

    >>> closed_areas(SequenceFamily.fibonacci(), range(1, 3), range(3, 5))
    ({(1, 3): 1, (1, 4): 5, (2, 3): 15, (2, 4): 135}, -1)
    """
    u, e, q = _closed_form(family)
    ks, ms = _as_range(ks, "k"), _as_range(ms, "m")
    (k_lo, k_hi), (m_lo, m_hi) = _ends(ks), _ends(ms)
    check_domain(k=k_lo, m=m_lo)
    span = (2 * m_hi - 2) * k_hi
    if span > MAX_SEQUENCE_INDEX:
        raise ValueError(
            f"closed forms read U up to index {span}, beyond the "
            f"{MAX_SEQUENCE_INDEX} guardrail"
        )
    if u is None:
        coefficients = [(m, _polygonal_coefficient(e, m)) for m in ms]
        forms = {(k, m): _polygonal_twice(c, k) for k in ks for m, c in coefficients}
        return forms, 1
    us = terms(u, 0, span + 1)
    forms = {}
    for k in ks:
        uk, u2k, q2k = us[k], us[2 * k], q ** (2 * k)
        for m in ms:
            forms[k, m] = _horadam_twice(e, q2k, m, uk, u2k, us[(2 * m - 2) * k])
    return forms, q


def twice_signed_area(family: SequenceFamily, n: int, k: int, m: int) -> int:
    """Twice the signed area of the m-gon of
    :func:`~seqarea.geometry.build_vertices` (n, k, m), sign included:
    S * q**n of :func:`closed_area_for`."""
    check_domain(n)
    twice, q = closed_area_for(family, k, m)
    return twice * q**n


def mgon_area(family: SequenceFamily, k: int, m: int) -> Fraction:
    """The closed-form m-gon area of a family, if it does not depend on n.

    It does not where q = +-1 (polygonal and the five Binet families) or
    :func:`closed_area_for` gives S = 0 (the Jacobsthal pair: collinear
    vertices).  Any other area grows like |q|^n and raises
    :class:`UnsupportedFamilyError`, as does a family with no closed form.
    """
    twice, q = closed_area_for(family, k, m)
    if twice and abs(q) != 1:
        raise UnsupportedFamilyError(
            f"no closed form for {family.label}: its area depends on n"
        )
    return Fraction(abs(twice), 2)


class ClosedFormResult(namedtuple("ClosedFormResult", "area")):
    """A closed-form triangle area."""

    __slots__ = ()


def closed_triangle_area(family: SequenceFamily, k: int) -> ClosedFormResult:
    """Triangle area for stride k: :func:`mgon_area` at m = 3."""
    return ClosedFormResult(mgon_area(family, k, 3))


def _general_twice_signed(params: BinetParams, n: int, k: int, m: int) -> QuadElem:
    """Twice the signed m-gon area from the Binet parameters, in Q(sqrt d).

    With beta the conjugate of r and D(j) = r^j - beta^j, it is
    ``-(-1)^n * a*b * D(k) * ((m-1)*D(2k) - D((2m-2)k))``: the form of
    :func:`twice_signed_area` with Q = -1, U(j) = D(j)/(r - beta) and
    e = -a*b*(r - beta)^2.  Each beta^j is the conjugate of r^j.  Any
    integer n is defined, a negative one too, as for
    :func:`~seqarea.sequences.binet_eval`; a non-integer raises ``TypeError``.
    """
    odd = operator.index(n) % 2
    check_domain(k=k, m=m)
    rk = params.r**k
    r2k = rk * rk
    r_span = r2k ** (m - 1)  # r^((2m-2)k)
    inner = (m - 1) * (r2k - r2k.conjugate()) - (r_span - r_span.conjugate())
    value = params.a * params.b * (rk - rk.conjugate()) * inner
    return value if odd else -value


def general_triangle_area(params: BinetParams, n: int, k: int) -> QuadElem:
    """Signed triangle area from the general form, exactly in Q(sqrt d).

    For the named families the radical part cancels and the absolute value
    matches :func:`closed_triangle_area`.

    >>> from seqarea.sequences import SequenceFamily, binet_params
    >>> fib = binet_params(SequenceFamily.fibonacci())
    >>> general_triangle_area(fib, 1, 2).to_rational()
    Fraction(-15, 2)
    """
    return _general_twice_signed(params, n, k, 3) * Fraction(1, 2)


def general_mgon_area(params: BinetParams, k: int, m: int) -> Fraction:
    """m-gon area from the general form; its radical part must cancel."""
    return abs(_general_twice_signed(params, 0, k, m).to_rational()) / 2


def polygonal_triangle_area(rank: int, k: int) -> Fraction:
    """Figurate-number triangle area: :func:`polygonal_mgon_area` at m = 3."""
    return polygonal_mgon_area(rank, k, 3)


def polygonal_mgon_area(rank: int, k: int, m: int) -> Fraction:
    """m-gon area on figurate-number vertices, independent of the start index n.

    The triangle area 4*(rank-2)^2*k^4 scaled by the tetrahedral number
    m*(m-1)*(m-2)/6.
    """
    return mgon_area(SequenceFamily.polygonal(rank), k, m)


def _polygonal_coefficient(rank: int, m: int) -> int:
    """The coefficient of k^4 in :func:`polygonal_mgon_area`, for a rank and
    m already checked."""
    tetra = m * (m - 1) * (m - 2)
    assert tetra % 6 == 0
    return 4 * (tetra // 6) * (rank - 2) ** 2
