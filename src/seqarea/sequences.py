"""Integer sequence engines: linear recurrences, figurate numbers, Binet forms.

Every named family is generated two independent ways where possible: by
forward iteration of its recurrence (:func:`term`) and by exact evaluation of
its closed Binet form in a quadratic field (:func:`binet_eval`).  The two
routes are kept separate so each can serve as an oracle for the other.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .numerics import QuadElem


class UnsupportedFamilyError(ValueError):
    """Raised when an operation does not apply to the given sequence family."""


@dataclass(frozen=True)
class RecurrenceSpec:
    """A homogeneous linear recurrence with integer coefficients.

    ``coefficients`` are (c1, ..., c_order) in
    ``f(n) = c1*f(n-1) + ... + c_order*f(n-order)``; ``initial_terms`` give
    f(0) .. f(order-1).
    """

    order: int
    coefficients: tuple[int, ...]
    initial_terms: tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        object.__setattr__(self, "initial_terms", tuple(self.initial_terms))
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if len(self.coefficients) != self.order:
            raise ValueError("coefficient list length must equal the order")
        if len(self.initial_terms) != self.order:
            raise ValueError("initial term list length must equal the order")


class FamilyKind(enum.Enum):
    FIBONACCI = "fibonacci"
    LUCAS = "lucas"
    GENERALIZED_FIBONACCI = "generalized"
    PELL = "pell"
    PELL_LUCAS = "pell-lucas"
    JACOBSTHAL = "jacobsthal"
    JACOBSTHAL_LUCAS = "jacobsthal-lucas"
    POLYGONAL = "polygonal"
    TRIBONACCI = "tribonacci"
    PERRIN = "perrin"
    PADOVAN = "padovan"
    CUSTOM = "custom"


DEFAULT_PADOVAN_INITIAL = (1, 1, 1)

BINET_KINDS = frozenset(
    {
        FamilyKind.FIBONACCI,
        FamilyKind.LUCAS,
        FamilyKind.GENERALIZED_FIBONACCI,
        FamilyKind.PELL,
        FamilyKind.PELL_LUCAS,
    }
)


@dataclass(frozen=True)
class SequenceFamily:
    """A named sequence family plus whatever parameters it needs.

    Use the classmethod constructors; they validate the parameter set for
    the kind (e.g. ``generalized`` needs s and t, ``polygonal`` a rank >= 3).
    """

    kind: FamilyKind
    s: int | None = None
    t: int | None = None
    rank: int | None = None
    initial: tuple[int, ...] | None = None
    spec: RecurrenceSpec | None = None

    def __post_init__(self) -> None:
        if self.kind is FamilyKind.GENERALIZED_FIBONACCI:
            if self.s is None or self.t is None:
                raise ValueError("generalized family requires s and t")
        elif self.kind is FamilyKind.POLYGONAL:
            if self.rank is None or self.rank < 3:
                raise ValueError("polygonal family requires rank >= 3")
        elif self.kind is FamilyKind.PADOVAN:
            initial = self.initial or DEFAULT_PADOVAN_INITIAL
            if len(initial) != 3:
                raise ValueError("padovan initial terms must be a triple")
            object.__setattr__(self, "initial", tuple(initial))
        elif self.kind is FamilyKind.CUSTOM:
            if self.spec is None:
                raise ValueError("custom family requires a RecurrenceSpec")

    @classmethod
    def fibonacci(cls) -> SequenceFamily:
        return cls(FamilyKind.FIBONACCI)

    @classmethod
    def lucas(cls) -> SequenceFamily:
        return cls(FamilyKind.LUCAS)

    @classmethod
    def generalized(cls, s: int, t: int) -> SequenceFamily:
        return cls(FamilyKind.GENERALIZED_FIBONACCI, s=s, t=t)

    @classmethod
    def pell(cls) -> SequenceFamily:
        return cls(FamilyKind.PELL)

    @classmethod
    def pell_lucas(cls) -> SequenceFamily:
        return cls(FamilyKind.PELL_LUCAS)

    @classmethod
    def jacobsthal(cls) -> SequenceFamily:
        return cls(FamilyKind.JACOBSTHAL)

    @classmethod
    def jacobsthal_lucas(cls) -> SequenceFamily:
        return cls(FamilyKind.JACOBSTHAL_LUCAS)

    @classmethod
    def polygonal(cls, rank: int) -> SequenceFamily:
        return cls(FamilyKind.POLYGONAL, rank=rank)

    @classmethod
    def tribonacci(cls) -> SequenceFamily:
        return cls(FamilyKind.TRIBONACCI)

    @classmethod
    def perrin(cls) -> SequenceFamily:
        return cls(FamilyKind.PERRIN)

    @classmethod
    def padovan(cls, initial: tuple[int, int, int] = DEFAULT_PADOVAN_INITIAL) -> SequenceFamily:
        return cls(FamilyKind.PADOVAN, initial=tuple(initial))

    @classmethod
    def custom(cls, spec: RecurrenceSpec) -> SequenceFamily:
        return cls(FamilyKind.CUSTOM, spec=spec)

    @property
    def is_binet(self) -> bool:
        """True if exact Binet parameters exist in a quadratic field."""
        return self.kind in BINET_KINDS

    @property
    def label(self) -> str:
        if self.kind is FamilyKind.GENERALIZED_FIBONACCI:
            return f"generalized(s={self.s},t={self.t})"
        if self.kind is FamilyKind.POLYGONAL:
            return f"polygonal(rank={self.rank})"
        if self.kind is FamilyKind.PADOVAN:
            terms = ",".join(str(v) for v in (self.initial or DEFAULT_PADOVAN_INITIAL))
            return f"padovan(initial={terms})"
        if self.kind is FamilyKind.CUSTOM:
            assert self.spec is not None
            return f"custom({self.spec.label or 'unnamed'})"
        return self.kind.value


# The recurrences of the families that take no parameters, built once.
_PRESETS: dict[FamilyKind, RecurrenceSpec] = {
    FamilyKind.FIBONACCI: RecurrenceSpec(2, (1, 1), (0, 1), "fibonacci"),
    FamilyKind.LUCAS: RecurrenceSpec(2, (1, 1), (2, 1), "lucas"),
    FamilyKind.PELL: RecurrenceSpec(2, (2, 1), (0, 1), "pell"),
    FamilyKind.PELL_LUCAS: RecurrenceSpec(2, (2, 1), (2, 2), "pell-lucas"),
    FamilyKind.JACOBSTHAL: RecurrenceSpec(2, (1, 2), (0, 1), "jacobsthal"),
    FamilyKind.JACOBSTHAL_LUCAS: RecurrenceSpec(2, (1, 2), (2, 1), "jacobsthal-lucas"),
    FamilyKind.TRIBONACCI: RecurrenceSpec(3, (1, 1, 1), (0, 1, 1), "tribonacci"),
    FamilyKind.PERRIN: RecurrenceSpec(3, (0, 1, 1), (3, 0, 2), "perrin"),
}


def preset(family: SequenceFamily) -> RecurrenceSpec:
    """The fixed recurrence behind a family (polygonal has none: closed form only)."""
    kind = family.kind
    spec = _PRESETS.get(kind)
    if spec is not None:
        return spec
    if kind is FamilyKind.GENERALIZED_FIBONACCI:
        assert family.s is not None and family.t is not None
        return RecurrenceSpec(2, (1, 1), (family.t - family.s, family.s), family.label)
    if kind is FamilyKind.PADOVAN:
        initial = family.initial or DEFAULT_PADOVAN_INITIAL
        return RecurrenceSpec(3, (0, 1, 1), tuple(initial), family.label)
    if kind is FamilyKind.CUSTOM:
        assert family.spec is not None
        return family.spec
    raise UnsupportedFamilyError(
        f"{kind.value} terms come from a closed form, not a fixed recurrence"
    )


# Computed prefixes are shared across calls; the lock keeps concurrent
# extension safe without changing the observable (pure) behaviour.
_PREFIX_CACHE: dict[RecurrenceSpec, list[int]] = {}
_PREFIX_LOCK = threading.Lock()


def term(spec: RecurrenceSpec, n: int) -> int:
    """Exact n-th term (n >= 0) by forward iteration with a cached prefix."""
    if n < 0:
        raise ValueError(f"term index must be >= 0, got {n}")
    with _PREFIX_LOCK:
        buf = _PREFIX_CACHE.setdefault(spec, list(spec.initial_terms))
        while len(buf) <= n:
            last = len(buf)
            buf.append(
                sum(c * buf[last - 1 - i] for i, c in enumerate(spec.coefficients))
            )
        return buf[n]


def iter_terms(spec: RecurrenceSpec) -> Iterator[int]:
    """Infinite iterator over f(0), f(1), f(2), ..."""
    n = 0
    while True:
        yield term(spec, n)
        n += 1


def polygonal_number(rank: int, n: int) -> int:
    """The n-th figurate number of the given rank (3 triangular, 4 square, ...).

    Closed form n*(n*(rank-2) - (rank-4))/2, which is always an integer.
    """
    if rank < 3:
        raise ValueError(f"polygonal rank must be >= 3, got {rank}")
    if n < 0:
        raise ValueError(f"polygonal index must be >= 0, got {n}")
    twice = n * (n * (rank - 2) - (rank - 4))
    assert twice % 2 == 0
    return twice // 2


def family_term(family: SequenceFamily, n: int) -> int:
    """n-th term of any family: closed form for polygonal, recurrence otherwise."""
    if family.kind is FamilyKind.POLYGONAL:
        assert family.rank is not None
        return polygonal_number(family.rank, n)
    return term(preset(family), n)


@dataclass(frozen=True)
class BinetParams:
    """Exact parameters (a, b, r) of the closed form
    ``f(n) = a*r^n + b*(-1)^(n+1)/r^n`` over one quadratic field."""

    a: QuadElem
    b: QuadElem
    r: QuadElem

    def __post_init__(self) -> None:
        if not (self.a.d == self.b.d == self.r.d):
            raise ValueError("a, b, r must share one radicand")
        if not self.r:
            raise ValueError("r must be nonzero")


def binet_params(family: SequenceFamily) -> BinetParams:
    """Exact (a, b, r) for the second-order families that admit them.

    Fibonacci-type families live in Q(sqrt(5)) with r the golden ratio;
    Pell-type families live in Q(sqrt(2)) with r = 1 + sqrt(2).  Jacobsthal
    and the third-order families have no such quadratic-field form.
    """
    kind = family.kind
    half = Fraction(1, 2)
    if kind in (FamilyKind.FIBONACCI, FamilyKind.LUCAS, FamilyKind.GENERALIZED_FIBONACCI):
        r = QuadElem(half, half, 5)
        inv_sqrt5 = QuadElem(Fraction(0), Fraction(1, 5), 5)
        if kind is FamilyKind.FIBONACCI:
            return BinetParams(inv_sqrt5, inv_sqrt5, r)
        if kind is FamilyKind.LUCAS:
            one = QuadElem.from_rational(1, 5)
            return BinetParams(one, -one, r)
        assert family.s is not None and family.t is not None
        s, t = family.s, family.t
        a = (s + (t - s) * r.inv()) * inv_sqrt5
        b = (s + (s - t) * r) * inv_sqrt5
        return BinetParams(a, b, r)
    if kind in (FamilyKind.PELL, FamilyKind.PELL_LUCAS):
        r = QuadElem(Fraction(1), Fraction(1), 2)
        if kind is FamilyKind.PELL:
            inv_2sqrt2 = QuadElem(Fraction(0), Fraction(1, 4), 2)
            return BinetParams(inv_2sqrt2, inv_2sqrt2, r)
        one = QuadElem.from_rational(1, 2)
        return BinetParams(one, -one, r)
    raise UnsupportedFamilyError(f"no quadratic Binet form for {family.label}")


def binet_eval(params: BinetParams, n: int) -> Fraction:
    """Evaluate a*r^n + b*(-1)^(n+1)/r^n exactly; the radical part must cancel."""
    sign = 1 if (n + 1) % 2 == 0 else -1
    value = params.a * (params.r**n) + sign * params.b * (params.r ** (-n))
    return value.to_rational()
