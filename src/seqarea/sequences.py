"""Integer sequence engines: linear recurrences, figurate numbers, Binet forms.

Every named family is generated two independent ways where possible: from
its integer recurrence (:func:`terms`, which jumps to an index by
companion-matrix powering and then iterates forward) and by exact evaluation
of its closed Binet form in a quadratic field (:func:`binet_eval`).  The two
routes are kept separate so each can serve as an oracle for the other.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import QuadElem, _split_square


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
    label: str = field(default="", compare=False)  # a name, not part of the value

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

# The one family kind that takes each parameter field; other kinds take none.
_FIELD_OWNERS = {
    "s": FamilyKind.GENERALIZED_FIBONACCI, "t": FamilyKind.GENERALIZED_FIBONACCI,
    "rank": FamilyKind.POLYGONAL, "initial": FamilyKind.PADOVAN,
    "spec": FamilyKind.CUSTOM,
}


@dataclass(frozen=True)
class SequenceFamily:
    """A named sequence family plus whatever parameters it needs.

    The constructor validates the parameter set for the kind: a field the
    kind does not take must be None, ``generalized`` needs s and t,
    ``polygonal`` a rank >= 3, ``custom`` a spec, and ``padovan`` gets the
    initial triple (1, 1, 1) unless given one.
    """

    kind: FamilyKind
    s: int | None = None
    t: int | None = None
    rank: int | None = None
    initial: tuple[int, ...] | None = None
    spec: RecurrenceSpec | None = None

    def __post_init__(self) -> None:
        for name, owner in _FIELD_OWNERS.items():
            if owner is not self.kind and getattr(self, name) is not None:
                raise ValueError(
                    f"parameter {name!r} applies only to family '{owner.value}'"
                )
        if self.kind is FamilyKind.GENERALIZED_FIBONACCI:
            if self.s is None or self.t is None:
                raise ValueError("generalized family requires s and t")
        elif self.kind is FamilyKind.POLYGONAL:
            if self.rank is None:
                raise ValueError("polygonal family requires rank >= 3")
            check_domain(rank=self.rank)
        elif self.kind is FamilyKind.PADOVAN:
            initial = DEFAULT_PADOVAN_INITIAL if self.initial is None else self.initial
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
    def padovan(cls, initial: tuple[int, int, int] | None = None) -> SequenceFamily:
        return cls(FamilyKind.PADOVAN, initial=initial)

    @classmethod
    def custom(cls, spec: RecurrenceSpec) -> SequenceFamily:
        return cls(FamilyKind.CUSTOM, spec=spec)

    @property
    def label(self) -> str:
        if self.kind is FamilyKind.GENERALIZED_FIBONACCI:
            return f"generalized(s={self.s},t={self.t})"
        if self.kind is FamilyKind.POLYGONAL:
            return f"polygonal(rank={self.rank})"
        if self.kind is FamilyKind.PADOVAN:
            assert self.initial is not None
            return f"padovan(initial={','.join(str(v) for v in self.initial)})"
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
        assert family.initial is not None
        return RecurrenceSpec(3, (0, 1, 1), family.initial, family.label)
    if kind is FamilyKind.CUSTOM:
        assert family.spec is not None
        return family.spec
    raise UnsupportedFamilyError(
        f"{kind.value} terms come from a closed form, not a fixed recurrence"
    )


# Request rules: the vertex domain, its reach and the index budgets.  A rule
# that several modules apply is checked by one function here.


def check_domain(n: int = 0, k: int = 1, m: int = 3, rank: int = 3) -> None:
    """Refuse a vertex pattern outside its domain: figurate rank >= 3 (checked
    first), start index n >= 0, stride k >= 1 and vertex count m >= 3."""
    if rank < 3:
        raise ValueError(f"polygonal rank must be >= 3, got {rank}")
    if n < 0:
        raise ValueError(f"start index n must be >= 0, got {n}")
    if k < 1:
        raise ValueError(f"stride k must be >= 1, got {k}")
    if m < 3:
        raise ValueError(f"vertex count m must be >= 3, got {m}")


def reach(n: int, k: int, m: int) -> int:
    """The largest sequence index n + (2m-1)k of the m-gon at (n, k)."""
    return n + (2 * m - 1) * k


# Grid guardrail: the largest sequence index a verification grid may reach.
# It keeps term sizes in the low hundreds of digits and grid runs in seconds,
# and every index up to it is read from one bounded table per recurrence
# (see ``_small_table``).
MAX_SEQUENCE_INDEX = 400

# Index budget of `area`, `gen --count` and `table third-order`: the largest
# sequence index they may touch.  A term there has up to about 38,000 digits
# (Pell); past it the command exits 2.
MAX_TERM_INDEX = 100_000


def check_term_budget(index: int) -> None:
    """Refuse a request that reaches past the term-index budget."""
    if index > MAX_TERM_INDEX:
        raise ValueError(
            f"request reaches sequence index {index}, beyond the "
            f"{MAX_TERM_INDEX} term-index budget"
        )


# Cell budget of `table polygonal`: 400 m values by 400 ranks.  Past it the
# command exits 2 before it builds a cell.
MAX_TABLE_CELLS = 160_000

# Stride cap of `table third-order`, whose cost grows like k_max^2 (a cell's
# area has digits in proportion to k).  Past it the command exits 2.
MAX_THIRD_ORDER_K = 2_000


def _extend(spec: RecurrenceSpec, window: list[int], count: int) -> list[int]:
    """Append terms to ``window`` (at least ``order`` consecutive terms) by
    forward iteration until it holds ``count``; return it."""
    coefficients = spec.coefficients
    while len(window) < count:
        window.append(sum(c * window[-1 - i] for i, c in enumerate(coefficients)))
    return window


def _mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def _jump(spec: RecurrenceSpec, start: int) -> list[int]:
    """The ``order`` consecutive terms f(start) .. f(start+order-1).

    The state (f(n), .., f(n+order-1)) advances by the companion matrix C,
    so the state at ``start`` is C**start applied to the initial terms.  The
    power is built from the top bit down: square, and on a set bit multiply
    by C, which only shifts the rows up and forms one new last row.  That is
    O(log start) big-integer matrix products, for every order; a start below
    the order needs no special case, since C**start merely shifts.
    """
    order = spec.order
    last_row = spec.coefficients[::-1]  # f(n+order) in terms of f(n) .. f(n+order-1)
    power = [[int(i == j) for j in range(order)] for i in range(order)]
    for bit in bin(start)[2:]:
        power = _mat_mul(power, power)
        if bit == "1":
            new_row = [
                sum(c * power[j][col] for j, c in enumerate(last_row))
                for col in range(order)
            ]
            power = power[1:] + [new_row]
    initial = spec.initial_terms
    return [sum(p * v for p, v in zip(row, initial)) for row in power]


@functools.lru_cache(maxsize=64)
def _small_table(spec: RecurrenceSpec) -> tuple[int, ...]:
    """f(0) .. f(MAX_SEQUENCE_INDEX) of one recurrence.

    A tuple, so every caller can share it.  The cache needs no lock of ours:
    at worst two threads build the same table and one copy is kept.
    """
    return tuple(_extend(spec, list(spec.initial_terms), MAX_SEQUENCE_INDEX + 1))


def _check_window(start: int, count: int) -> None:
    if start < 0:
        raise ValueError(f"term index must be >= 0, got {start}")
    if count < 0:
        raise ValueError(f"term count must be >= 0, got {count}")


def terms(spec: RecurrenceSpec, start: int, count: int) -> list[int]:
    """Exact f(start) .. f(start+count-1) of a recurrence.

    Windows inside the small-index table are sliced from it.  Otherwise the
    engine jumps to ``start`` by companion-matrix powering and iterates
    forward, so memory holds only the window, never the prefix before it.
    """
    _check_window(start, count)
    if start + count <= MAX_SEQUENCE_INDEX + 1:
        return list(_small_table(spec)[start : start + count])
    return _extend(spec, _jump(spec, start), count)[:count]


def term(spec: RecurrenceSpec, n: int) -> int:
    """Exact n-th term (n >= 0), from the same engine as :func:`terms`."""
    return terms(spec, n, 1)[0]


def polygonal_number(rank: int, n: int) -> int:
    """The n-th figurate number of the given rank (3 triangular, 4 square, ...).

    Closed form n*(n*(rank-2) - (rank-4))/2, which is always an integer.
    """
    check_domain(rank=rank)
    if n < 0:
        raise ValueError(f"polygonal index must be >= 0, got {n}")
    return _figurate(rank, n, 1)[0]


def _figurate(rank: int, start: int, count: int) -> list[int]:
    """Figurate numbers start .. start+count-1 of a rank already checked."""
    a, b = rank - 2, rank - 4
    return [n * (n * a - b) // 2 for n in range(start, start + count)]


def family_term(family: SequenceFamily, n: int) -> int:
    """n-th term of any family, from the same engine as :func:`family_terms`."""
    return family_terms(family, n, 1)[0]


def family_terms(family: SequenceFamily, start: int, count: int) -> list[int]:
    """Terms start .. start+count-1 of any family, from one engine call."""
    _check_window(start, count)
    if family.kind is FamilyKind.POLYGONAL:
        assert family.rank is not None
        return _figurate(family.rank, start, count)
    return terms(preset(family), start, count)


@dataclass(frozen=True)
class BinetParams:
    """Exact parameters (a, b, r) of the closed form
    ``f(n) = a*r^n - b*beta^n`` over one quadratic field, where beta is the
    conjugate of r and equals -1/r: r must have norm -1."""

    a: QuadElem
    b: QuadElem
    r: QuadElem

    def __post_init__(self) -> None:
        if not (self.a.d == self.b.d == self.r.d):
            raise ValueError("a, b, r must share one radicand")
        if self.r.norm() != -1:
            raise ValueError(f"r must have norm -1, got {self.r.norm()}")


def binet_params(family: SequenceFamily) -> BinetParams:
    """Exact (a, b, r) for a recurrence f(n) = c1*f(n-1) + f(n-2) with c1 != 0.

    The roots of x^2 - c1*x - 1 are r = (c1 + s*sqrt(d))/2 and its conjugate
    beta = -1/r, where c1^2 + 4 = s^2*d with d squarefree.  From the initial
    terms W0, W1: a = (W1 - W0*beta)/(r - beta) and
    b = -(W0*r - W1)/(r - beta).  Fibonacci-type families land in Q(sqrt(5))
    with r the golden ratio, Pell-type families in Q(sqrt(2)) with
    r = 1 + sqrt(2).  Jacobsthal (c2 = 2), the third-order families,
    polygonal numbers and c1 = 0 (rational roots 1 and -1) have no such form.
    """
    spec = None if family.kind is FamilyKind.POLYGONAL else preset(family)
    if spec is None or spec.order != 2 or spec.coefficients[1] != 1:
        raise UnsupportedFamilyError(f"no quadratic Binet form for {family.label}")
    c1 = spec.coefficients[0]
    s, d = _split_square(c1 * c1 + 4)
    if d == 1:  # only c1 = 0
        raise UnsupportedFamilyError(f"no quadratic Binet form for {family.label}")
    w0, w1 = spec.initial_terms
    r = QuadElem(c1, s, d) / 2
    beta = r.conjugate()
    gap = r - beta  # s*sqrt(d)
    return BinetParams((w1 - w0 * beta) / gap, (w1 - w0 * r) / gap, r)


def binet_eval(params: BinetParams, n: int) -> Fraction:
    """Evaluate a*r^n - b*beta^n exactly, with beta^n the conjugate of r^n;
    the radical part must cancel."""
    r_n = params.r**n
    return (params.a * r_n - params.b * r_n.conjugate()).to_rational()
