"""Cross-checking harness: sweep parameter grids and compare area routes.

Every cell pits the shoelace oracle (exact surveyor's formula on actual
integer vertices) against the applicable closed form, as signed
twice-areas compared as integers; there are no tolerances anywhere.
Published reference tables are embedded as data so that any discrepancy is
surfaced as a flag instead of being silently corrected.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import groupby, product, repeat

from .closedforms import _closed_form, _polygonal_coefficient, closed_areas
from .geometry import (
    collinear,
    twice_polygon_area,
    twice_shoelace_plane,
    vertex_columns,
)
from .sequences import (
    MAX_SEQUENCE_INDEX,
    MAX_TABLE_CELLS,
    MAX_THIRD_ORDER_K,
    FamilyKind,
    SequenceFamily,
    UnsupportedFamilyError,
    _as_range,
    _ends,
    check_domain,
    check_term_budget,
    family_terms,
    reach,
)


class VerificationCell(
    namedtuple(
        "VerificationCell", "n k m oracle_twice closed_twice match note", defaults=("",)
    )
):
    """One grid point: the m-gon of stride k from index n, twice its signed
    area by both routes, and the exact-match verdict."""

    __slots__ = ()


class VerificationReport(
    namedtuple("VerificationReport", "family grid cells pass_count fail_count")
):
    """All cells of one grid sweep over one family, in deterministic order."""

    __slots__ = ()


class VerificationCells(Sequence):
    """A report's cells in n, k, m order, held as (n, k) rows of one width.

    ``rows`` lists (n, k, j) per row, and ``bodies[j]`` that row's cells as
    (m, oracle_twice, closed_twice, match, note) tuples; rows of one content
    share one body.  A :class:`VerificationCell` is built only when a cell
    is read.  Length and indexing take O(1); iteration, ``==``, ``hash`` and
    ``repr`` are those of the tuple of the cells.
    """

    __slots__ = ("rows", "bodies", "_width")

    def __init__(
        self, rows: list[tuple[int, int, int]], bodies: list[tuple], width: int
    ) -> None:
        self.rows, self.bodies, self._width = rows, bodies, width

    def __len__(self) -> int:
        return len(self.rows) * self._width

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("cell index out of range")
        n, k, j = self.rows[i // self._width]
        return VerificationCell._make((n, k, *self.bodies[j][i % self._width]))

    def __iter__(self) -> Iterator[VerificationCell]:
        make, bodies = VerificationCell._make, self.bodies
        for n, k, j in self.rows:
            for fields in bodies[j]:
                yield make((n, k, *fields))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, VerificationCells)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def cell_rows(
    cells: Sequence[VerificationCell],
) -> tuple[list[tuple[int, int, int]], list[tuple]]:
    """The rows and bodies of ``cells``, as :class:`VerificationCells` holds
    them: a view's own, or else one row and one body per run of cells with
    one (n, k)."""
    if isinstance(cells, VerificationCells):
        return cells.rows, cells.bodies
    rows: list[tuple[int, int, int]] = []
    bodies: list[tuple] = []
    for (n, k), run in groupby(cells, operator.itemgetter(0, 1)):
        rows.append((n, k, len(bodies)))
        bodies.append(tuple(cell[2:] for cell in run))
    return rows, bodies


def _size(values: Sequence[int]) -> int:
    """``len`` of a nonempty axis, which overflows past sys.maxsize for a range."""
    if isinstance(values, range):
        return (values[-1] - values[0]) // values.step + 1
    return len(values)


def verify_family(
    family: SequenceFamily,
    n_range: Iterable[int],
    k_range: Iterable[int],
    m_range: Iterable[int],
) -> VerificationReport:
    """Compare shoelace oracle and closed-form area over a full (n, k, m) grid.

    Covers every family :func:`closed_areas` answers, which gives every
    (k, m)'s S and the family's q from one slice of U.  A cell passes if
    its oracle equals the closed form S * q**n, sign included; a cell whose
    closed area is 0 must also have collinear vertices, and its note says
    ``collinear`` or ``NOT COLLINEAR``.  Cell order is fixed: n outer,
    k middle, m inner; every cell reads one term slice f(0) .. f(largest
    index) shared by the whole grid.

    The oracle is the shoelace sum of the cell's vertex terms.
    :func:`twice_shoelace_plane` computes it for every cell at once, with a
    collinearity flag; a zero-area cell the flag does not prove goes to
    :func:`collinear` on its own columns.

    The grid is judged by (n, k) rows of one cell per m.  The rows with one
    (k, q**n) share one tuple of closed twice-areas.  A row whose oracles
    equal it, and whose flags prove each of its zero cells collinear,
    matches in one step and shares one body of MATCH cells with every row
    of its tuple: one body for a whole Jacobsthal grid.  Any other row is
    judged cell by cell.  The report's ``cells`` is a
    :class:`VerificationCells` view over the rows.
    """
    _closed_form(family)  # a family with no closed form is refused first
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
    seq = family_terms(family, 0, worst + 1)
    # Every cell's domain holds if the smallest n, k and m are in it; it is
    # checked before the first column or closed form is read.
    check_domain(n_lo, k_lo, m_lo)
    # One S per (k, m) from one slice of U; the closed twice-areas S * q**n
    # of a (k, n) row, in m order, are one tuple per distinct (k, q**n): one
    # per k where |q| = 1, and one for the whole grid where every S is 0
    # (the Jacobsthal pair).
    forms, q = closed_areas(family, ks, ms)
    powers = {n: q**n for n in ns}
    flat = not any(forms.values())
    # (k, q**n), or None if flat -> [closed, positions of its zeros, MATCH body index]
    closed_rows: dict[tuple[int, int] | None, list] = {}
    plane = twice_shoelace_plane(seq, ns, ks, ms)
    twices = zip(*[plane[m][0] for m in ms])
    lines = zip(*[plane[m][1] for m in ms])
    rows: list[tuple[int, int, int]] = []
    bodies: list[tuple] = []
    judged: dict[tuple, int] = {}  # a body judged cell by cell -> its index
    passed = 0
    for (n, k), oracles, flags in zip(product(ns, ks), twices, lines):
        qn = powers[n]
        key = None if flat else (k, qn)
        shared = closed_rows.get(key)
        if shared is None:
            closed = tuple([forms[k, m] * qn for m in ms])
            zeros = ()
            if 0 in closed:
                zeros = [i for i, twice in enumerate(closed) if not twice]
            shared = closed_rows[key] = [closed, zeros, None]
        closed, zeros, j = shared
        # The whole row matches, its zero cells proved collinear by their flags.
        if oracles == closed and (not zeros or all(map(flags.__getitem__, zeros))):
            if j is None:
                j = shared[2] = len(bodies)
                notes = ["" if twice else "collinear" for twice in closed]
                bodies.append(tuple(zip(ms, closed, closed, repeat(True), notes)))
            rows.append((n, k, j))
            passed += len(ms)
            continue
        row_cells = []
        for m, oracle, closed_twice, line in zip(ms, oracles, closed, flags):
            match = oracle == closed_twice
            note = ""
            if closed_twice == 0:
                is_line = line or collinear(*vertex_columns(seq, n, k, m))
                note = "collinear" if is_line else "NOT COLLINEAR"
                match = is_line and match
            row_cells.append((m, oracle, closed_twice, match, note))
            passed += match
        # Rows judged alike share a body.
        body = tuple(row_cells)
        j = judged.setdefault(body, len(bodies))
        if j == len(bodies):
            bodies.append(body)
        rows.append((n, k, j))
    cells = VerificationCells(rows, bodies, len(ms))
    return VerificationReport(
        family=family,
        grid=(
            f"family={family.label} n={ns[0]}..{ns[-1]} "
            f"k={ks[0]}..{ks[-1]} m={ms[0]}..{ms[-1]}"
        ),
        cells=cells,
        pass_count=passed,
        fail_count=len(cells) - passed,
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


class PolygonalTableCell(
    namedtuple("PolygonalTableCell", "m rank coefficient published match")
):
    """The coefficient of k^4 at (m, rank); ``published`` and ``match`` are
    None where no published value exists."""

    __slots__ = ()


class PolygonalTable(namedtuple("PolygonalTable", "m_values ranks cells")):
    """Every (m, rank) cell of one polygonal table, m-major."""

    __slots__ = ()

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
    size = _size(ms) * _size(ranks)
    if size > MAX_TABLE_CELLS:
        raise ValueError(
            f"table has {size} cells, beyond the "
            f"{MAX_TABLE_CELLS} table-cell budget"
        )
    # Every cell's domain holds if the smallest m and rank are in it.
    check_domain(m=_ends(ms)[0], rank=_ends(ranks)[0])
    cells = []
    for m in ms:
        for rank in ranks:
            coeff = _polygonal_coefficient(rank, m)
            published = PUBLISHED_POLYGONAL_COEFFS.get((m, rank))
            match = None if published is None else coeff == published
            cells.append(PolygonalTableCell(m, rank, coeff, published, match))
    return PolygonalTable(tuple(ms), tuple(ranks), tuple(cells))


THIRD_ORDER_COLUMNS = ("tribonacci", "perrin", "padovan")

STATUS_MATCH = "MATCH"
STATUS_MISMATCH = "MISMATCH"
STATUS_UNVERIFIED = "UNVERIFIED-CONVENTION"


class ThirdOrderCell(namedtuple("ThirdOrderCell", "column k twice published status")):
    """Twice the signed oracle area of one triangle, and its published area."""

    __slots__ = ()


class ThirdOrderTable(namedtuple("ThirdOrderTable", "n k_max padovan_initial cells")):
    """The triangles at start n for k = 1 .. k_max, k-major, one cell per
    column."""

    __slots__ = ()


def third_order_table(
    n: int,
    k_max: int,
    padovan_initial: tuple[int, int, int] | None = None,
) -> ThirdOrderTable:
    """Oracle triangle areas for tribonacci / perrin / padovan vertices:
    each cell is ``twice_polygon_area(family, n, k, 3)``, the one oracle
    ``area`` uses, so the table fetches no term itself.

    Published values attach only where they exist (n = 1, k <= 6).  Padovan
    rows always carry UNVERIFIED-CONVENTION because the published column's
    initial terms are unknown; the caller picks the convention to compute.
    The term-index budget is checked first, then n >= 0 and 1 <= k_max <= cap.
    """
    # The triangle at k = k_max reaches furthest.
    check_term_budget(reach(n, k_max, 3))
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
    cells = []
    for k in range(1, k_max + 1):
        for column in THIRD_ORDER_COLUMNS:
            twice = twice_polygon_area(families[column], n, k, 3)
            published = PUBLISHED_THIRD_ORDER[column].get(k) if n == 1 else None
            if column == "padovan":
                status = STATUS_UNVERIFIED
            elif published is None:
                status = ""
            elif abs(twice) == 2 * published:
                status = STATUS_MATCH
            else:
                status = STATUS_MISMATCH
            cells.append(ThirdOrderCell(column, k, twice, published, status))
    return ThirdOrderTable(n, k_max, padovan.initial, tuple(cells))
