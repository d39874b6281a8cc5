"""Integer sequences: one linear-recurrence engine and the closed forms that check it.

Every family, figurate numbers included, is a linear recurrence, and its
terms come from one engine (:func:`terms`, which jumps to an index by
powering x modulo the characteristic polynomial, then iterates forward or
strides).  Where a family has a closed form it is a second, independent
route: exact evaluation of the Binet form in a quadratic field
(:func:`binet_eval`) for the second-order families, the figurate formula
(:func:`polygonal_number`) for polygonal numbers.  The routes are kept
separate so each can serve as an oracle for the other.
"""

from __future__ import annotations

import enum
import functools
import operator
from _thread import allocate_lock
from collections import deque
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .numerics import QuadElem, _split_square


class UnsupportedFamilyError(ValueError):
    """Raised when an operation does not apply to the given sequence family."""


# Sets a field of a _Value; only its __init__ may.
_setattr = object.__setattr__


class _Value:
    """An immutable value, as a frozen dataclass would give it.

    ``__match_args__`` names the constructor's fields in order: ``repr``
    shows them and pickling passes them back through the constructor, so
    every check runs again and no stored hash is copied (a family's hash
    mixes in its kind's, which hashes the member's name, and before Python
    3.12 None's, which hashes its address: both differ from process to
    process).  ``_key`` gives the fields that make the value: ``==``
    compares them, between instances of one class only, and ``hash`` hashes
    them as a tuple.  Fields are set once, in ``__init__``, by ``_setattr``.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _key(self) -> tuple[object, ...]:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def _fields(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __repr__(self) -> str:
        shown = map("{}={!r}".format, self.__match_args__, self._fields())
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return self.__class__, self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class RecurrenceSpec(_Value):
    """A homogeneous linear recurrence with integer coefficients.

    ``coefficients`` are (c1, ..., c_order) in
    ``f(n) = c1*f(n-1) + ... + c_order*f(n-order)``; ``initial_terms`` give
    f(0) .. f(order-1).  A value that is not an integer raises ``TypeError``.
    """

    __slots__ = ("coefficients", "initial_terms", "label", "_hash")
    __match_args__ = ("coefficients", "initial_terms", "label")

    coefficients: tuple[int, ...]
    initial_terms: tuple[int, ...]
    label: str

    def __init__(
        self, coefficients: Sequence[int], initial_terms: Sequence[int], label: str = ""
    ) -> None:
        coefficients = tuple(map(operator.index, coefficients))
        initial_terms = tuple(map(operator.index, initial_terms))
        if not coefficients:
            raise ValueError("order must be >= 1, got 0")
        if len(initial_terms) != len(coefficients):
            raise ValueError("initial term list length must equal the order")
        _setattr(self, "coefficients", coefficients)
        _setattr(self, "initial_terms", initial_terms)
        _setattr(self, "label", label)
        _setattr(self, "_hash", hash((coefficients, initial_terms)))

    def _key(self) -> tuple[object, ...]:
        # A label is a name, not part of the value.
        return self.coefficients, self.initial_terms

    def __hash__(self) -> int:
        # Taken once: every small-index table lookup hashes the spec.
        return self._hash

    @property
    def order(self) -> int:
        return len(self.coefficients)


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


# The recurrences of the families that take no parameters, built once.
_PRESETS: dict[FamilyKind, RecurrenceSpec] = {
    FamilyKind.FIBONACCI: RecurrenceSpec((1, 1), (0, 1), "fibonacci"),
    FamilyKind.LUCAS: RecurrenceSpec((1, 1), (2, 1), "lucas"),
    FamilyKind.PELL: RecurrenceSpec((2, 1), (0, 1), "pell"),
    FamilyKind.PELL_LUCAS: RecurrenceSpec((2, 1), (2, 2), "pell-lucas"),
    FamilyKind.JACOBSTHAL: RecurrenceSpec((1, 2), (0, 1), "jacobsthal"),
    FamilyKind.JACOBSTHAL_LUCAS: RecurrenceSpec((1, 2), (2, 1), "jacobsthal-lucas"),
    FamilyKind.TRIBONACCI: RecurrenceSpec((1, 1, 1), (0, 1, 1), "tribonacci"),
    FamilyKind.PERRIN: RecurrenceSpec((0, 1, 1), (3, 0, 2), "perrin"),
}

DEFAULT_PADOVAN_INITIAL = (1, 1, 1)

# The one family kind that takes each parameter field; other kinds take none.
_FIELD_OWNERS = {
    "s": FamilyKind.GENERALIZED_FIBONACCI, "t": FamilyKind.GENERALIZED_FIBONACCI,
    "rank": FamilyKind.POLYGONAL, "initial": FamilyKind.PADOVAN,
    "spec": FamilyKind.CUSTOM,
}


class SequenceFamily(_Value):
    """A named sequence family plus whatever parameters it needs.

    The constructor validates the parameter set for the kind: a field the
    kind does not take must be None, ``generalized`` needs s and t,
    ``polygonal`` a rank >= 3, ``custom`` a spec, and ``padovan`` gets the
    initial triple (1, 1, 1) unless given one.  A non-integer s, t, rank or
    initial term raises ``TypeError``.  The family's recurrence is built
    once, here, and :func:`preset` returns it: the figurate numbers of a
    rank are P(n) = 3P(n-1) - 3P(n-2) + P(n-3) from 0, 1, rank, quadratic
    in n and so with characteristic polynomial (x - 1)^3.
    """

    __slots__ = ("kind", "s", "t", "rank", "initial", "spec", "_recurrence", "_hash")
    __match_args__ = ("kind", "s", "t", "rank", "initial", "spec")

    kind: FamilyKind
    s: int | None
    t: int | None
    rank: int | None
    initial: tuple[int, ...] | None
    spec: RecurrenceSpec | None

    def __init__(
        self,
        kind: FamilyKind,
        s: int | None = None,
        t: int | None = None,
        rank: int | None = None,
        initial: Sequence[int] | None = None,
        spec: RecurrenceSpec | None = None,
    ) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "s", s)
        _setattr(self, "t", t)
        _setattr(self, "rank", rank)
        _setattr(self, "initial", initial)
        _setattr(self, "spec", spec)
        for name, owner in _FIELD_OWNERS.items():
            if owner is not self.kind and getattr(self, name) is not None:
                raise ValueError(
                    f"parameter {name!r} applies only to family '{owner.value}'"
                )
        if self.kind is FamilyKind.GENERALIZED_FIBONACCI:
            if self.s is None or self.t is None:
                raise ValueError("generalized family requires s and t")
            _setattr(self, "s", operator.index(self.s))
            _setattr(self, "t", operator.index(self.t))
            recurrence = RecurrenceSpec((1, 1), (self.t - self.s, self.s), self.label)
        elif self.kind is FamilyKind.POLYGONAL:
            if self.rank is None:
                raise ValueError("polygonal family requires rank >= 3")
            check_domain(rank=self.rank)
            recurrence = RecurrenceSpec((3, -3, 1), (0, 1, self.rank), self.label)
        elif self.kind is FamilyKind.PADOVAN:
            initial = DEFAULT_PADOVAN_INITIAL if self.initial is None else self.initial
            if len(initial) != 3:
                raise ValueError("padovan initial terms must be a triple")
            _setattr(self, "initial", tuple(map(operator.index, initial)))
            recurrence = RecurrenceSpec((0, 1, 1), self.initial, self.label)
        elif self.kind is FamilyKind.CUSTOM:
            if self.spec is None:
                raise ValueError("custom family requires a RecurrenceSpec")
            recurrence = self.spec
        else:
            recurrence = _PRESETS[self.kind]
        _setattr(self, "_recurrence", recurrence)
        _setattr(self, "_hash", hash(self._key()))

    def _key(self) -> tuple[object, ...]:
        return self.kind, self.s, self.t, self.rank, self.initial, self.spec

    def __hash__(self) -> int:
        # Taken once: every closed-form and Binet cache lookup hashes the
        # family, and a kind hashes through the Python-level Enum.__hash__.
        return self._hash

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


def preset(family: SequenceFamily) -> RecurrenceSpec:
    """The recurrence behind a family, built once by the family itself."""
    return family._recurrence


# Request rules: the vertex domain, its reach and the index budgets.  A rule
# that several modules apply is checked by one function here.


def check_domain(n: int = 0, k: int = 1, m: int = 3, rank: int = 3) -> None:
    """Refuse a vertex pattern outside its domain: figurate rank >= 3 (checked
    first), start index n >= 0, stride k >= 1 and vertex count m >= 3.  A
    value that is not an integer raises ``TypeError``."""
    if operator.index(rank) < 3:
        raise ValueError(f"polygonal rank must be >= 3, got {rank}")
    if operator.index(n) < 0:
        raise ValueError(f"start index n must be >= 0, got {n}")
    if operator.index(k) < 1:
        raise ValueError(f"stride k must be >= 1, got {k}")
    if operator.index(m) < 3:
        raise ValueError(f"vertex count m must be >= 3, got {m}")


def reach(n: int, k: int, m: int) -> int:
    """The largest sequence index n + (2m-1)k of the m-gon at (n, k)."""
    return n + (2 * m - 1) * k


def _as_range(values: Iterable[int], name: str) -> Sequence[int]:
    """One nonempty grid axis: a range as it is, its length and ends read
    without a list, and other values as a list of checked integers."""
    out = values if isinstance(values, range) else list(map(operator.index, values))
    if not out:
        raise ValueError(f"{name} range must be nonempty")
    return out


def _ends(values: Sequence[int]) -> tuple[int, int]:
    """Smallest and largest value; a range is read at its two ends only."""
    ends = (values[0], values[-1]) if isinstance(values, range) else values
    return min(ends), max(ends)


# Grid guardrail: the largest sequence index a verification grid may reach.
# It keeps term sizes in the low hundreds of digits and grid runs in seconds,
# and every window that ends at or below it is sliced from one bounded table
# per recurrence, a prefix grown only as far as the largest index read (see
# ``_prefix``).  Only the engine reads it to choose a route: a window that
# ends past it is strided, whatever its start.
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
    """Append terms to ``window`` by forward iteration until it holds
    ``count``; return it.  A window that must grow holds at least ``order``
    consecutive terms; one that already holds ``count`` is returned as is."""
    backward = spec.coefficients[::-1]  # c_d .. c_1, against f(n-d) .. f(n-1)
    state = deque(window[-spec.order :], maxlen=spec.order)  # the last d terms
    append, push, mul = window.append, state.append, operator.mul
    for _ in range(count - len(window)):
        value = sum(map(mul, backward, state))
        append(value)
        push(value)
    return window


def _fold(coefficients: tuple[int, ...], poly: list[int]) -> list[int]:
    """Reduce ``poly`` (low power first) modulo the characteristic polynomial
    x^d - c1*x^(d-1) - ... - c_d, in place, to its d low coefficients.

    Each high term h*x^e becomes h*x^(e-d) * (c1*x^(d-1) + ... + c_d): small
    multipliers on one big coefficient, from the top power down.
    """
    d = len(coefficients)
    for top in range(len(poly) - 1, d - 1, -1):
        h = poly.pop()
        if h:
            for i, c in enumerate(coefficients, 1):
                if c:
                    poly[top - i] += c * h
    return poly


def _square(a: list[int]) -> list[int]:
    """The square of a polynomial: d(d+1)/2 big products for d coefficients."""
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        out[2 * i] += x * x
        for j in range(i + 1, len(a)):
            out[i + j] += (x * a[j]) << 1
    return out


def _multiply(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _x_power(spec: RecurrenceSpec, e: int) -> list[int]:
    """x**e modulo the characteristic polynomial, as its d coefficients
    (low power first).

    Built from the top bit of ``e`` down: each doubling is one polynomial
    squaring and one fold, each set bit one shift-and-fold (Fiduccia, SIAM
    J. Comput. 14 (1985) 106-112).  Every order works alike, c_d = 0
    included: a power below the order is x**e itself.
    """
    coefficients = spec.coefficients
    a = [1] + [0] * (spec.order - 1)
    for bit in bin(e)[2:]:
        a = _fold(coefficients, _square(a))
        if bit == "1":
            a = _fold(coefficients, [0, *a])
    return a


def _strided(spec: RecurrenceSpec, start: int, count: int, step: int) -> list[int]:
    """f(start), f(start+step), .. (``count`` terms), with no term between.

    With x**start = a_0 + a_1*x + ... modulo the characteristic polynomial,
    f(start) = a_0*f(0) + a_1*f(1) + ...: O(log start) polynomial squarings.
    x**step is taken once; each next term is a <- a * x**step (then a fold),
    read off as a dotted with the initial terms.  Memory holds a few
    polynomials, whatever the stride.
    """
    coefficients, initial = spec.coefficients, spec.initial_terms
    a = _x_power(spec, start)
    stride = _x_power(spec, step)
    out = []
    while len(out) < count:
        if out:
            a = _fold(coefficients, _multiply(a, stride))
        out.append(sum(map(operator.mul, a, initial)))
    return out


@functools.lru_cache(maxsize=64)
def _small_table(spec: RecurrenceSpec) -> list[tuple[int, ...]]:
    """The holder of one recurrence's small-index table: a one-slot list
    whose tuple is the prefix f(0) .. f(j) built so far, empty at first.

    :func:`_prefix` reads and grows it.  At most 64 recurrences are held.
    """
    return [()]


# Taken only to store a grown prefix, never to read one.
_storing = allocate_lock()


def _prefix(spec: RecurrenceSpec, end: int) -> tuple[int, ...]:
    """f(0) .. f(j) for some j >= ``end``, an ``end`` at most
    MAX_SEQUENCE_INDEX: the stored prefix if it reaches f(end), or else
    that prefix grown by forward iteration to f(end) and no further.

    A grown prefix is a new tuple, stored whole if it is longer than the
    one stored by then: a reader never sees a part-built prefix, and the
    stored one never shrinks.  Two racing threads may build the same terms.
    """
    slot = _small_table(spec)
    held = slot[0]
    if len(held) > end:
        return held
    window = list(held if len(held) >= spec.order else spec.initial_terms[: end + 1])
    grown = tuple(_extend(spec, window, end + 1))
    with _storing:
        if len(slot[0]) < len(grown):
            slot[0] = grown
    return grown


def terms(spec: RecurrenceSpec, start: int, count: int, step: int = 1) -> list[int]:
    """Exact f(start), f(start+step), .. f(start+(count-1)*step) of a recurrence.

    A window that ends at index MAX_SEQUENCE_INDEX or below is sliced from
    the recurrence's small-index table, whose prefix grows to the window's
    last index and no further (:func:`_prefix`).  Otherwise the engine
    jumps to ``start`` by powering x modulo the characteristic polynomial
    and strides by x**step, fetching no term between two it returns; with
    ``step`` 1 it strides only to the first ``order`` terms and iterates
    forward from them.  Memory holds only what is returned and the bounded
    table, never the prefix past it.  A negative start or count or a step
    below 1 is refused; a value that is not an integer raises ``TypeError``.
    """
    if operator.index(start) < 0:
        raise ValueError(f"term index must be >= 0, got {start}")
    if operator.index(count) < 0:
        raise ValueError(f"term count must be >= 0, got {count}")
    if operator.index(step) < 1:
        raise ValueError(f"term step must be >= 1, got {step}")
    last = start + (count - 1) * step
    if last <= MAX_SEQUENCE_INDEX:
        # Most reads find f(last) stored: only a growth calls _prefix.
        table = _small_table(spec)[0]
        if len(table) <= last:
            table = _prefix(spec, last)
        return list(table[start : start + count * step : step])
    if step > 1:
        return _strided(spec, start, count, step)
    return _extend(spec, _strided(spec, start, min(count, spec.order), 1), count)


def term(spec: RecurrenceSpec, n: int) -> int:
    """Exact n-th term (n >= 0), from the same engine as :func:`terms`."""
    return terms(spec, n, 1)[0]


def polygonal_number(rank: int, n: int) -> int:
    """The n-th figurate number of the given rank (3 triangular, 4 square, ...).

    Closed form n*(n*(rank-2) - (rank-4))/2, which is always an integer: a
    route independent of the family's recurrence, which tests compare the
    engine against.  A rank or n that is not an integer raises ``TypeError``.
    """
    check_domain(rank=rank)
    if operator.index(n) < 0:
        raise ValueError(f"polygonal index must be >= 0, got {n}")
    return n * (n * (rank - 2) - (rank - 4)) // 2


def family_term(family: SequenceFamily, n: int) -> int:
    """n-th term of any family, from the same engine as :func:`family_terms`."""
    return family_terms(family, n, 1)[0]


def family_terms(
    family: SequenceFamily, start: int, count: int, step: int = 1
) -> list[int]:
    """Terms start, start+step, .. (``count`` of them) of any family: one
    :func:`terms` call on its recurrence."""
    return terms(preset(family), start, count, step)


class BinetParams(_Value):
    """Exact parameters (a, b, r) of the closed form
    ``f(n) = a*r^n - b*beta^n`` over one quadratic field, where beta is the
    conjugate of r and equals -1/r: r must have norm -1."""

    __slots__ = __match_args__ = ("a", "b", "r")

    a: QuadElem
    b: QuadElem
    r: QuadElem

    def __init__(self, a: QuadElem, b: QuadElem, r: QuadElem) -> None:
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "r", r)
        if not (self.a.d == self.b.d == self.r.d):
            raise ValueError("a, b, r must share one radicand")
        if self.r.norm() != -1:
            raise ValueError(f"r must have norm -1, got {self.r.norm()}")

    def _key(self) -> tuple[object, ...]:
        return self.a, self.b, self.r


@functools.lru_cache(maxsize=64)
def binet_params(family: SequenceFamily) -> BinetParams:
    """Exact (a, b, r) for a recurrence f(n) = c1*f(n-1) + f(n-2) with c1 != 0.

    The roots of x^2 - c1*x - 1 are r = (c1 + s*sqrt(d))/2 and its conjugate
    beta = -1/r, where c1^2 + 4 = s^2*d with d squarefree.  From the initial
    terms W0, W1: a = (W1 - W0*beta)/(r - beta) and
    b = -(W0*r - W1)/(r - beta).  Fibonacci-type families land in Q(sqrt(5))
    with r the golden ratio, Pell-type families in Q(sqrt(2)) with
    r = 1 + sqrt(2).  Jacobsthal (c2 = 2), the third-order recurrences
    (polygonal numbers among them) and c1 = 0 (rational roots 1 and -1) have
    no such form.

    Derived once per family value, as ``closedforms._closed_form`` is: equal
    families (custom specs that differ only in ``label`` too) get the same
    object, which is safe to share because ``BinetParams`` and its
    ``QuadElem`` fields are immutable.  An unsupported family raises on
    every call; errors are not cached.
    """
    spec = preset(family)
    if spec.order != 2 or spec.coefficients[1] != 1:
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
    the radical part must cancel.  Any integer n is defined, a negative one
    too; a non-integer raises ``TypeError``."""
    r_n = params.r ** operator.index(n)
    return (params.a * r_n - params.b * r_n.conjugate()).to_rational()
