"""Shared helpers for the randomized suites.

All randomness flows through one fixed default seed so failures replay
exactly; set SEQAREA_TEST_SEED to explore other streams.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction
from unittest import mock

from hypothesis import strategies as st

from seqarea import closedforms, geometry, sequences
from seqarea.numerics import QuadElem
from seqarea.sequences import reach

DEFAULT_SEED = 20240901


def make_rng(offset: int = 0) -> random.Random:
    seed = int(os.environ.get("SEQAREA_TEST_SEED", DEFAULT_SEED))
    return random.Random(seed + offset)


def random_rational(rng: random.Random, span: int = 60) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 20))


def random_quadelem(rng: random.Random, d: int, span: int = 60) -> QuadElem:
    return QuadElem(random_rational(rng, span), random_rational(rng, span), d)


def nonzero_quadelem(rng: random.Random, d: int) -> QuadElem:
    while True:
        x = random_quadelem(rng, d)
        if x:
            return x


def assert_canonical(x: QuadElem) -> None:
    for part in (x.p, x.q):
        assert part.denominator > 0
        assert math.gcd(abs(part.numerator), part.denominator) == 1


def field_axiom_violations(rng: random.Random, d: int, cases: int) -> int:
    """Count violations of the field identities on random elements."""
    bad = 0
    one = QuadElem(1, 0, d)
    for _ in range(cases):
        x = random_quadelem(rng, d)
        y = random_quadelem(rng, d)
        z = random_quadelem(rng, d)
        if (x + y) + z != x + (y + z):
            bad += 1
        if (x * y) * z != x * (y * z):
            bad += 1
        if x * (y + z) != x * y + x * z:
            bad += 1
        if x + y != y + x or x * y != y * x:
            bad += 1
        w = nonzero_quadelem(rng, d)
        if w * w.inv() != one:
            bad += 1
        for value in (x + y, x * y, w.inv()):
            assert_canonical(value)
    return bad


def area_route(order: int, n: int, k: int, m: int) -> str:
    """The route ``twice_polygon_area`` should take, by its one rule: none
    ("zero") for d = 1, whose area is 0; the jump along the area's own
    recurrence for d <= 3 where n passes (2m-1)k, the span of the polygon
    at start 0; else the direct shoelace."""
    if order == 1:
        return "zero"
    if order <= 3 and n > reach(0, k, m):
        return "jump"
    return "direct"


def routed_area(family, n: int, k: int, m: int) -> tuple[int, str]:
    """``twice_polygon_area`` and the route it took, seen from what it
    called: the direct route builds the polygon at n and jumps nowhere, the
    jump builds the polygons at starts 0 .. d(d-1)/2 - 1 and jumps to n
    once, and "zero" builds no polygon at all."""
    with mock.patch.object(
        geometry, "build_vertices", wraps=geometry.build_vertices
    ) as fetch, mock.patch.object(
        geometry, "_x_power", wraps=sequences._x_power
    ) as jump:
        twice = geometry.twice_polygon_area(family, n, k, m)
    builds = [call.args for call in fetch.call_args_list]
    powers = [call.args[1] for call in jump.call_args_list]
    if not builds:
        assert not powers
        return twice, "zero"
    if builds == [(family, n, k, m)] and not powers:
        return twice, "direct"
    d = sequences.preset(family).order
    assert builds == [(family, i, k, m) for i in range(d * (d - 1) // 2)]
    assert powers == [n]
    return twice, "jump"


@st.composite
def grid_values(draw, lo, hi):
    """One grid axis as ``verify_family`` takes it: an ascending or
    descending range, a single value, or a list, unsorted and duplicated."""
    a, b = sorted([draw(st.integers(lo, hi)), draw(st.integers(lo, hi))])
    kind = draw(st.sampled_from(["range", "descending", "single", "list"]))
    if kind == "range":
        return range(a, b + 1)
    if kind == "descending":
        return range(b, a - 1, -1)
    if kind == "single":
        return [a]
    values = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=5))
    return values + values[:1]


GRIDS = {"ns": grid_values(0, 40), "ks": grid_values(1, 12), "ms": grid_values(3, 12)}


def closed_areas_with(fault):
    """A stand-in for ``verify.closed_areas``: the grid's own closed forms,
    with each (k, m)'s S passed through ``fault(k, m, S)``."""

    def closed_areas(family, ks, ms):
        forms, q = closedforms.closed_areas(family, ks, ms)
        return {(k, m): fault(k, m, twice) for (k, m), twice in forms.items()}, q

    return closed_areas
