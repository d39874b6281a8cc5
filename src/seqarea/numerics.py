"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Rational values are plain :class:`fractions.Fraction` (arbitrary-precision,
always reduced, positive denominator).  A :class:`QuadElem` is a number
``p + q*sqrt(d)`` with rational ``p``, ``q`` and a fixed squarefree radicand
``d >= 2``, held as plain integers ``(a + b*sqrt(d))/c`` over one common
denominator.  All operations are exact; no floating point is used anywhere.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm


class RadicandMismatchError(ValueError):
    """Raised when combining elements of different quadratic fields."""


class IrrationalResidueError(ArithmeticError):
    """Raised when a value expected to be rational has a sqrt(d) component.

    Surfacing this instead of silently dropping the radical part turns an
    upstream algebra bug into a loud failure.
    """


def _split_square(n: int) -> tuple[int, int]:
    """(s, d) with n = s^2 * d and d squarefree, for n >= 1, by trial division."""
    s, d, i = 1, n, 2
    while i * i <= d:
        while d % (i * i) == 0:
            d //= i * i
            s *= i
        i += 1
    return s, d


@functools.lru_cache(maxsize=64, typed=True)
def _radicand_ok(d: int) -> bool:
    """Whether d is a valid radicand, an int >= 2 that no square > 1 divides;
    checked once per field, not per element."""
    return isinstance(d, int) and d >= 2 and _split_square(d)[0] == 1


def rational_str(x: Fraction) -> str:
    """Render a rational as ``p/q``, or just ``p`` when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _make(a: int, b: int, c: int, d: int) -> QuadElem:
    """The element (a + b*sqrt(d))/c, already canonical; skips ``__init__``."""
    x = object.__new__(QuadElem)
    x._a = a
    x._b = b
    x._c = c
    x._d = d
    return x


def _reduced(a: int, b: int, c: int, d: int) -> QuadElem:
    """The element (a + b*sqrt(d))/c for c > 0, brought to canonical form."""
    g = gcd(c, a, b)  # c first: gcd stops early once it reaches 1
    if g != 1:
        a //= g
        b //= g
        c //= g
    return _make(a, b, c, d)


def _inv_parts(a: int, b: int, c: int, d: int) -> tuple[int, int, int]:
    """Canonical (a', b', c') of the inverse of (a + b*sqrt(d))/c.

    The inverse is c*(a - b*sqrt(d))/(a^2 - d*b^2); the norm is nonzero for
    a nonzero element because d is not a square.
    """
    if not a and not b:
        raise ZeroDivisionError(f"inverse of zero in Q(sqrt({d}))")
    n = a * a - d * b * b
    a, b = c * a, -c * b
    if n < 0:
        a, b, n = -a, -b, -n
    g = gcd(n, a, b)
    return a // g, b // g, n // g


class QuadElem:
    """An element ``p + q*sqrt(d)`` of the field Q(sqrt(d)).

    ``p`` and ``q`` must be ``int`` or ``Fraction`` (a float raises
    ``TypeError``) and ``d`` a squarefree integer >= 2, so the representation
    is unique and equality is componentwise.  Elements with different
    radicands never mix: combining them raises :class:`RadicandMismatchError`.

    Internally the element is ``(a + b*sqrt(d))/c`` in integers with
    ``c > 0`` and ``gcd(a, b, c) == 1``; ``p`` and ``q`` are read-only
    reduced :class:`~fractions.Fraction` views of it.  Elements are
    immutable.

    >>> phi = QuadElem(Fraction(1, 2), Fraction(1, 2), 5)
    >>> phi * phi == phi + 1
    True
    """

    __slots__ = ("_a", "_b", "_c", "_d")

    def __init__(self, p: int | Fraction, q: int | Fraction, d: int) -> None:
        if not _radicand_ok(d):
            raise ValueError(f"radicand must be squarefree and >= 2, got {d}")
        if type(p) is int and type(q) is int:
            a, b, c = p, q, 1
        elif isinstance(p, (int, Fraction)) and isinstance(q, (int, Fraction)):
            # Both parts are reduced, so gcd(a, b, c) is already 1.
            c = lcm(p.denominator, q.denominator)
            a = p.numerator * (c // p.denominator)
            b = q.numerator * (c // q.denominator)
        else:
            raise TypeError(f"parts must be int or Fraction, got {p!r} and {q!r}")
        self._a = a
        self._b = b
        self._c = c
        self._d = d

    @property
    def p(self) -> Fraction:
        """The rational part."""
        return Fraction(self._a, self._c)

    @property
    def q(self) -> Fraction:
        """The coefficient of sqrt(d)."""
        return Fraction(self._b, self._c)

    @property
    def d(self) -> int:
        """The radicand."""
        return self._d

    def _parts(self, other: object) -> tuple[int, int, int] | None:
        """(a, b, c) of ``other`` in this field, or None if it is no number."""
        if isinstance(other, QuadElem):
            if other._d != self._d:
                raise RadicandMismatchError(
                    f"cannot combine sqrt({self._d}) with sqrt({other._d})"
                )
            return other._a, other._b, other._c
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other: QuadElem | int | Fraction) -> QuadElem:
        rhs = self._parts(other)
        if rhs is None:
            return NotImplemented
        a, b, c = rhs
        if c == self._c:
            return _reduced(self._a + a, self._b + b, c, self._d)
        return _reduced(
            self._a * c + a * self._c, self._b * c + b * self._c, self._c * c, self._d
        )

    __radd__ = __add__

    def __neg__(self) -> QuadElem:
        return _make(-self._a, -self._b, self._c, self._d)

    def __sub__(self, other: QuadElem | int | Fraction) -> QuadElem:
        rhs = self._parts(other)
        if rhs is None:
            return NotImplemented
        a, b, c = rhs
        return self + _make(-a, -b, c, self._d)

    def __rsub__(self, other: QuadElem | int | Fraction) -> QuadElem:
        return (-self) + other

    def __mul__(self, other: QuadElem | int | Fraction) -> QuadElem:
        rhs = self._parts(other)
        if rhs is None:
            return NotImplemented
        a, b, c = rhs
        d = self._d
        return _reduced(
            self._a * a + d * self._b * b, self._a * b + self._b * a, self._c * c, d
        )

    __rmul__ = __mul__

    def __truediv__(self, other: QuadElem | int | Fraction) -> QuadElem:
        rhs = self._parts(other)
        if rhs is None:
            return NotImplemented
        return self * _make(*_inv_parts(*rhs, self._d), self._d)

    def __rtruediv__(self, other: QuadElem | int | Fraction) -> QuadElem:
        return self.inv() * other

    def __pow__(self, exponent: int) -> QuadElem:
        """Integer power; negative exponents power the inverse.

        The numerator (a + b*sqrt(d))^e is built by square-and-multiply from
        the top bit down on raw integers, the denominator is c^e, and the
        result is reduced once at the end.
        """
        if not isinstance(exponent, int):
            return NotImplemented
        a, b, c, d = self._a, self._b, self._c, self._d
        if exponent < 0:
            a, b, c = _inv_parts(a, b, c, d)
            exponent = -exponent
        if exponent == 0:
            return _make(1, 0, 1, d)
        x, y = a, b
        for bit in bin(exponent)[3:]:
            x, y = x * x + d * y * y, 2 * x * y
            if bit == "1":
                x, y = x * a + d * y * b, x * b + y * a
        return _reduced(x, y, c**exponent, d)

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadElem):
            return (self._a, self._b, self._c, self._d) == (
                other._a, other._b, other._c, other._d
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._c, self._d))

    def __reduce__(self) -> tuple[type, tuple[Fraction, Fraction, int]]:
        return QuadElem, (self.p, self.q, self._d)

    def conjugate(self) -> QuadElem:
        return _make(self._a, -self._b, self._c, self._d)

    def norm(self) -> Fraction:
        """Field norm p^2 - d*q^2; zero only for the zero element."""
        a, b, c = self._a, self._b, self._c
        return Fraction(a * a - self._d * b * b, c * c)

    def inv(self) -> QuadElem:
        """Multiplicative inverse, via the conjugate over the norm."""
        return _make(*_inv_parts(self._a, self._b, self._c, self._d), self._d)

    def to_rational(self) -> Fraction:
        """Extract the value as a Fraction; the sqrt(d) part must be zero."""
        if self._b:
            raise IrrationalResidueError(
                f"nonzero sqrt({self._d}) component: {self}"
            )
        return Fraction(self._a, self._c)

    def __repr__(self) -> str:
        return f"QuadElem(p={self.p!r}, q={self.q!r}, d={self._d!r})"

    def __str__(self) -> str:
        return f"{self.p} + {self.q}*sqrt({self._d})"
