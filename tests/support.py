"""Shared helpers for the randomized suites.

All randomness flows through one fixed default seed so failures replay
exactly; set SEQAREA_TEST_SEED to explore other streams.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

from seqarea.numerics import QuadElem

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
