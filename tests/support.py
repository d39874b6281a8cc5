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

from seqarea import geometry, sequences
from seqarea.numerics import QuadElem
from seqarea.sequences import MAX_SEQUENCE_INDEX, preset, reach

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
    """The route ``twice_polygon_area`` should take, by its rule: the area's
    own recurrence ("sample" below d(d-1), where no recurrence is derived)
    for d <= 3 where the polygons at starts 0 .. d(d-1)-1 lie in the table,
    else the bilinear form where those at starts 0 .. d-1 do, else the
    direct shoelace."""
    count = order * (order - 1)
    if order <= 3 and reach(count - 1, k, m) <= MAX_SEQUENCE_INDEX:
        return "sample" if n < count else "recurrence"
    return "bilinear" if reach(order - 1, k, m) <= MAX_SEQUENCE_INDEX else "direct"


def routed_area(family, n: int, k: int, m: int) -> tuple[int, str]:
    """``twice_polygon_area`` and the route it took, seen from what it
    called: the bilinear form jumps on the family's own recurrence and
    fetches the polygons at starts 0 .. d-1, the direct route fetches the
    one at n, and the area's recurrence fetches none (and derives nothing
    below d(d-1))."""
    spec = preset(family)
    with mock.patch.object(
        geometry, "build_vertices", wraps=geometry.build_vertices
    ) as fetch, mock.patch.object(
        geometry, "_x_power", wraps=sequences._x_power
    ) as jump, mock.patch.object(
        geometry, "_berlekamp_massey", wraps=sequences._berlekamp_massey
    ) as derive:
        twice = geometry.twice_polygon_area(family, n, k, m)
    starts = [call.args[1] for call in fetch.call_args_list]
    if any(call.args[0] is spec for call in jump.call_args_list):
        assert starts == list(range(spec.order)) and not derive.called
        return twice, "bilinear"
    if fetch.called:
        assert starts == [n] and not (jump.called or derive.called)
        return twice, "direct"
    return twice, "recurrence" if derive.called else "sample"
