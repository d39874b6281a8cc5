"""Exact areas of polygons whose vertices are drawn from integer sequences.

The package builds m-gons whose vertex coordinates are consecutive
stride-k terms of Fibonacci-type, Pell-type, Jacobsthal, figurate and
third-order sequences, computes their areas with the exact surveyor's
formula, evaluates the corresponding closed-form area expressions (including
the general factored form in quadratic-field arithmetic), and cross-verifies
the routes over parameter grids.  Everything is arbitrary-precision and
rational; there is no floating point on any value path.
"""

from .closedforms import (
    ClosedFormResult,
    closed_triangle_area,
    general_mgon_area,
    general_triangle_area,
    mgon_area,
    polygonal_mgon_area,
    polygonal_triangle_area,
    twice_signed_area,
)
from .geometry import (
    build_vertices,
    collinear,
    shoelace_area,
    shoelace_signed,
)
from .numerics import (
    IrrationalResidueError,
    QuadElem,
    RadicandMismatchError,
    rational_str,
)
from .sequences import (
    BinetParams,
    FamilyKind,
    RecurrenceSpec,
    SequenceFamily,
    UnsupportedFamilyError,
    binet_eval,
    binet_params,
    family_term,
    family_terms,
    polygonal_number,
    preset,
    term,
    terms,
)
from .verify import (
    PolygonalTable,
    PolygonalTableCell,
    ThirdOrderCell,
    ThirdOrderTable,
    VerificationCell,
    VerificationReport,
    polygonal_table,
    third_order_table,
    verify_collinearity,
    verify_family,
)

__version__ = "0.1.0"

__all__ = [
    "BinetParams",
    "ClosedFormResult",
    "FamilyKind",
    "IrrationalResidueError",
    "PolygonalTable",
    "PolygonalTableCell",
    "QuadElem",
    "RadicandMismatchError",
    "RecurrenceSpec",
    "SequenceFamily",
    "ThirdOrderCell",
    "ThirdOrderTable",
    "UnsupportedFamilyError",
    "VerificationCell",
    "VerificationReport",
    "binet_eval",
    "binet_params",
    "build_vertices",
    "closed_triangle_area",
    "collinear",
    "family_term",
    "family_terms",
    "general_mgon_area",
    "general_triangle_area",
    "mgon_area",
    "polygonal_mgon_area",
    "polygonal_number",
    "polygonal_table",
    "polygonal_triangle_area",
    "preset",
    "rational_str",
    "shoelace_area",
    "shoelace_signed",
    "term",
    "terms",
    "third_order_table",
    "twice_signed_area",
    "verify_collinearity",
    "verify_family",
]
