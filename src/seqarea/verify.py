"""Cross-checking harness: sweep parameter grids and compare area routes.

Every cell pits the shoelace oracle (exact surveyor's formula on actual
integer vertices) against the applicable closed form.  Matches are exact
rational equality; there are no tolerances anywhere.  Published reference
tables are embedded as data so that any discrepancy is surfaced as a flag
instead of being silently corrected.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence

from .closedforms import closed_area_for, polygonal_mgon_area
from .geometry import Point, collinear, twice_shoelace, vertex_columns
from .sequences import (
    MAX_SEQUENCE_INDEX,
    MAX_TABLE_CELLS,
    MAX_THIRD_ORDER_K,
    FamilyKind,
    SequenceFamily,
    UnsupportedFamilyError,
    check_domain,
    check_term_budget,
    family_terms,
    reach,
)


@dataclass(frozen=True)
class VerificationCell:
    """One grid point: the m-gon of stride k from index n, both areas, and
    the exact-match verdict."""

    n: int
    k: int
    m: int
    oracle_area: Fraction
    closed_area: Fraction
    match: bool
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """All cells of one grid sweep over one family, in deterministic order.

    ``elapsed`` is wall-clock seconds for the sweep; serializers skip it so
    identical inputs yield byte-identical output.
    """

    family: SequenceFamily
    grid: str
    cells: tuple[VerificationCell, ...]
    pass_count: int
    fail_count: int
    elapsed: float


def _as_range(values: Iterable[int], name: str) -> Sequence[int]:
    # A range stays a range: its length and ends are read without a list.
    out = values if isinstance(values, range) else list(values)
    if not out:
        raise ValueError(f"{name} range must be nonempty")
    return out


def _ends(values: Sequence[int]) -> tuple[int, int]:
    """Smallest and largest value; a range is read at its two ends only."""
    ends = (values[0], values[-1]) if isinstance(values, range) else values
    return min(ends), max(ends)


def verify_family(
    family: SequenceFamily,
    n_range: Iterable[int],
    k_range: Iterable[int],
    m_range: Iterable[int],
) -> VerificationReport:
    """Compare shoelace oracle and closed-form area over a full (n, k, m) grid.

    Covers every family :func:`closed_area_for` answers.  A cell whose closed
    area is 0 must also have collinear vertices, and its note says
    ``collinear`` or ``NOT COLLINEAR``.  Cell order is fixed: n outer,
    k middle, m inner; every cell reads one term slice f(0) .. f(largest
    index) shared by the whole grid.

    No :class:`~seqarea.geometry.Polygon` is built per cell: the oracle is
    still the shoelace sum over the cell's actual vertex terms, read as two
    strided columns of that slice by :func:`~seqarea.geometry.twice_shoelace`
    and compared with the closed form in integers.  Points are built only
    where the closed area is 0, for the collinearity check.
    """
    closed_area_for(family, 1, 3)  # a family with no closed form fails first
    ns = _as_range(n_range, "n")
    ks = _as_range(k_range, "k")
    ms = _as_range(m_range, "m")
    (n_lo, n_hi), (k_lo, k_hi), (m_lo, m_hi) = map(_ends, (ns, ks, ms))
    worst = reach(n_hi, k_hi, m_hi)
    if worst > MAX_SEQUENCE_INDEX:
        raise ValueError(
            f"grid reaches sequence index {worst}, beyond the "
            f"{MAX_SEQUENCE_INDEX} guardrail"
        )
    started = time.perf_counter()
    seq = family_terms(family, 0, worst + 1)
    # Every cell's domain holds if the smallest n, k and m are in it; it is
    # checked before the first closed form is read.
    check_domain(n_lo, k_lo, m_lo)
    # The closed area does not depend on n: one evaluation per (k, m).
    closed_areas: dict[tuple[int, int], Fraction] = {}
    cells = []
    for n, k, m in product(ns, ks, ms):
        xs, ys = vertex_columns(seq, n, k, m)
        twice = abs(twice_shoelace(xs, ys))
        closed = closed_areas.get((k, m))
        if closed is None:
            closed = closed_areas[k, m] = closed_area_for(family, k, m)
        match = twice * closed.denominator == 2 * closed.numerator
        # An equal oracle shares the closed form's Fraction.
        oracle = closed if match else Fraction(twice, 2)
        if closed:
            cells.append(VerificationCell(n, k, m, oracle, closed, match))
            continue
        is_line = collinear(list(map(Point, xs, ys)))
        note = "collinear" if is_line else "NOT COLLINEAR"
        cells.append(VerificationCell(n, k, m, oracle, closed, is_line and match, note))
    passed = sum(c.match for c in cells)
    return VerificationReport(
        family=family,
        grid=(
            f"family={family.label} n={ns[0]}..{ns[-1]} "
            f"k={ks[0]}..{ks[-1]} m={ms[0]}..{ms[-1]}"
        ),
        cells=tuple(cells),
        pass_count=passed,
        fail_count=len(cells) - passed,
        elapsed=time.perf_counter() - started,
    )


def verify_collinearity(
    family: SequenceFamily,
    n_range: Iterable[int],
    k_range: Iterable[int],
    m_range: Iterable[int],
) -> VerificationReport:
    """:func:`verify_family` for the Jacobsthal pair, whose closed area is 0:
    each cell passes iff its vertices are collinear and the oracle area is 0."""
    if family.kind not in (FamilyKind.JACOBSTHAL, FamilyKind.JACOBSTHAL_LUCAS):
        raise UnsupportedFamilyError(
            f"collinearity verification applies to jacobsthal families, "
            f"not {family.label}"
        )
    return verify_family(family, n_range, k_range, m_range)


# ---------------------------------------------------------------------------
# Reference tables, embedded verbatim from the published source so that any
# disagreement shows up as an explicit flag in the output.

# Coefficient of k^4 in the m-gon area on rank-r figurate vertices,
# for m = 3..7 (rows) and rank = 3..7 (columns).
PUBLISHED_POLYGONAL_COEFFS: dict[tuple[int, int], int] = {
    (3, 3): 4, (3, 4): 16, (3, 5): 36, (3, 6): 64, (3, 7): 100,
    (4, 3): 16, (4, 4): 64, (4, 5): 144, (4, 6): 256, (4, 7): 400,
    (5, 3): 40, (5, 4): 160, (5, 5): 360, (5, 6): 640, (5, 7): 1000,
    (6, 3): 80, (6, 4): 320, (6, 5): 720, (6, 6): 1280, (6, 7): 2000,
    (7, 3): 140, (7, 4): 560, (7, 5): 1260, (7, 6): 2240, (7, 7): 3500,
}

# Published triangle areas for third-order sequences at n = 1, k = 1..6.
# The Perrin k=3 entry is reproduced exactly as printed (31/9); the oracle
# disagrees and the table flags it rather than "fixing" it.  The Padovan
# column was printed without stating initial terms, so every Padovan cell is
# flagged UNVERIFIED-CONVENTION regardless of agreement.
PUBLISHED_THIRD_ORDER: dict[str, dict[int, Fraction]] = {
    "tribonacci": {
        1: Fraction(3),
        2: Fraction(64),
        3: Fraction(849),
        4: Fraction(23360),
        5: Fraction(509729),
        6: Fraction(10049160),
    },
    "perrin": {
        1: Fraction(9, 2),
        2: Fraction(47, 2),
        3: Fraction(31, 9),
        4: Fraction(149),
        5: Fraction(1629, 2),
        6: Fraction(4820),
    },
    "padovan": {
        1: Fraction(0),
        2: Fraction(1),
        3: Fraction(15),
        4: Fraction(44),
        5: Fraction(95),
        6: Fraction(810),
    },
}

_RANK_NAMES = {
    3: "Triangular",
    4: "Square",
    5: "Pentagonal",
    6: "Hexagonal",
    7: "Heptagonal",
    8: "Octagonal",
    9: "Nonagonal",
    10: "Decagonal",
}


def rank_name(rank: int) -> str:
    return _RANK_NAMES.get(rank, f"{rank}-gonal")


@dataclass(frozen=True)
class PolygonalTableCell:
    m: int
    rank: int
    coefficient: int
    published: int | None
    match: bool | None


@dataclass(frozen=True)
class PolygonalTable:
    m_values: tuple[int, ...]
    ranks: tuple[int, ...]
    cells: tuple[PolygonalTableCell, ...]

    def cell(self, m: int, rank: int) -> PolygonalTableCell:
        for c in self.cells:
            if c.m == m and c.rank == rank:
                return c
        raise KeyError((m, rank))

    @property
    def mismatches(self) -> tuple[PolygonalTableCell, ...]:
        return tuple(c for c in self.cells if c.match is False)


def polygonal_table(
    m_range: Iterable[int], rank_range: Iterable[int]
) -> PolygonalTable:
    """Coefficient of k^4 for each (m, rank), flagged against published values.

    The coefficient is the m-gon area at k = 1, which scales as k^4.
    """
    ms = _as_range(m_range, "m")
    ranks = _as_range(rank_range, "rank")
    if len(ms) * len(ranks) > MAX_TABLE_CELLS:
        raise ValueError(
            f"table has {len(ms) * len(ranks)} cells, beyond the "
            f"{MAX_TABLE_CELLS} table-cell budget"
        )
    cells = []
    for m in ms:
        for rank in ranks:
            area = polygonal_mgon_area(rank, 1, m)
            assert area.denominator == 1
            coeff = area.numerator
            published = PUBLISHED_POLYGONAL_COEFFS.get((m, rank))
            match = None if published is None else coeff == published
            cells.append(PolygonalTableCell(m, rank, coeff, published, match))
    return PolygonalTable(tuple(ms), tuple(ranks), tuple(cells))


THIRD_ORDER_COLUMNS = ("tribonacci", "perrin", "padovan")

STATUS_MATCH = "MATCH"
STATUS_MISMATCH = "MISMATCH"
STATUS_UNVERIFIED = "UNVERIFIED-CONVENTION"


@dataclass(frozen=True)
class ThirdOrderCell:
    column: str
    k: int
    computed: Fraction
    published: Fraction | None
    status: str


@dataclass(frozen=True)
class ThirdOrderTable:
    n: int
    k_max: int
    padovan_initial: tuple[int, ...]
    cells: tuple[ThirdOrderCell, ...]

    def cell(self, column: str, k: int) -> ThirdOrderCell:
        for c in self.cells:
            if c.column == column and c.k == k:
                return c
        raise KeyError((column, k))

    def column(self, column: str) -> tuple[ThirdOrderCell, ...]:
        return tuple(c for c in self.cells if c.column == column)


def third_order_table(
    n: int,
    k_max: int,
    padovan_initial: tuple[int, int, int] | None = None,
) -> ThirdOrderTable:
    """Oracle triangle areas for tribonacci / perrin / padovan vertices.

    Published values attach only where they exist (n = 1, k <= 6).  Padovan
    rows always carry UNVERIFIED-CONVENTION because the published column's
    initial terms are unknown; the caller picks the convention to compute.
    The term-index budget is checked first, then n >= 0 and 1 <= k_max <= cap.
    """
    last = reach(n, k_max, 3)  # the triangle at k = k_max reaches furthest
    check_term_budget(last)
    check_domain(n)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if k_max > MAX_THIRD_ORDER_K:
        raise ValueError(f"k_max {k_max} is beyond the {MAX_THIRD_ORDER_K} stride cap")
    padovan = SequenceFamily.padovan(padovan_initial)
    families = {
        "tribonacci": SequenceFamily.tribonacci(),
        "perrin": SequenceFamily.perrin(),
        "padovan": padovan,
    }
    # One slice per family, f(n) .. f(last): every triangle's window.
    slices = {
        column: family_terms(family, n, last - n + 1)
        for column, family in families.items()
    }
    cells = []
    for k in range(1, k_max + 1):
        for column in THIRD_ORDER_COLUMNS:
            # The triangle's vertex terms, read from the column's slice as a
            # verify cell reads its grid's slice.
            twice = twice_shoelace(*vertex_columns(slices[column], 0, k, 3))
            computed = Fraction(abs(twice), 2)
            published = PUBLISHED_THIRD_ORDER[column].get(k) if n == 1 else None
            if column == "padovan":
                status = STATUS_UNVERIFIED
            elif published is None:
                status = ""
            elif computed == published:
                status = STATUS_MATCH
            else:
                status = STATUS_MISMATCH
            cells.append(ThirdOrderCell(column, k, computed, published, status))
    return ThirdOrderTable(n, k_max, padovan.initial, tuple(cells))
