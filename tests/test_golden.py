"""Literal stdout of the CLI, pinned byte for byte.

These cover every format of every result type, the keys the area JSON
omits per method, the empty CSV fields, the markdown line for a polygonal
table with no published cells, a non-square pivot (a transposed table would
not pass it) and each flag of the published tables.
"""

import hashlib

import pytest

from seqarea import cli, verify
from support import closed_areas_with

VERIFY_PELL_MARKDOWN = """\
grid: family=pell n=0..1 k=1..2 m=3..4
pass_count: 8
fail_count: 0

| n | k | m | oracle | closed | match | note |
| --- | --- | --- | --- | --- | --- | --- |
| 0 | 1 | 3 | 4 | 4 | MATCH |  |
| 0 | 1 | 4 | 32 | 32 | MATCH |  |
| 0 | 2 | 3 | 384 | 384 | MATCH |  |
| 0 | 2 | 4 | 13824 | 13824 | MATCH |  |
| 1 | 1 | 3 | 4 | 4 | MATCH |  |
| 1 | 1 | 4 | 32 | 32 | MATCH |  |
| 1 | 2 | 3 | 384 | 384 | MATCH |  |
| 1 | 2 | 4 | 13824 | 13824 | MATCH |  |
"""

VERIFY_PELL_JSON = """\
{
  "grid": "family=pell n=0..1 k=1..2 m=3..4",
  "cells": [
    {
      "family": "pell",
      "n": 0,
      "k": 1,
      "m": 3,
      "oracle": "4",
      "closed": "4",
      "match": true,
      "note": ""
    },
    {
      "family": "pell",
      "n": 0,
      "k": 1,
      "m": 4,
      "oracle": "32",
      "closed": "32",
      "match": true,
      "note": ""
    },
    {
      "family": "pell",
      "n": 0,
      "k": 2,
      "m": 3,
      "oracle": "384",
      "closed": "384",
      "match": true,
      "note": ""
    },
    {
      "family": "pell",
      "n": 0,
      "k": 2,
      "m": 4,
      "oracle": "13824",
      "closed": "13824",
      "match": true,
      "note": ""
    },
    {
      "family": "pell",
      "n": 1,
      "k": 1,
      "m": 3,
      "oracle": "4",
      "closed": "4",
      "match": true,
      "note": ""
    },
    {
      "family": "pell",
      "n": 1,
      "k": 1,
      "m": 4,
      "oracle": "32",
      "closed": "32",
      "match": true,
      "note": ""
    },
    {
      "family": "pell",
      "n": 1,
      "k": 2,
      "m": 3,
      "oracle": "384",
      "closed": "384",
      "match": true,
      "note": ""
    },
    {
      "family": "pell",
      "n": 1,
      "k": 2,
      "m": 4,
      "oracle": "13824",
      "closed": "13824",
      "match": true,
      "note": ""
    }
  ],
  "pass_count": 8,
  "fail_count": 0
}
"""

VERIFY_PELL_CSV = """\
family,n,k,m,oracle,closed,match,note
pell,0,1,3,4,4,true,
pell,0,1,4,32,32,true,
pell,0,2,3,384,384,true,
pell,0,2,4,13824,13824,true,
pell,1,1,3,4,4,true,
pell,1,1,4,32,32,true,
pell,1,2,3,384,384,true,
pell,1,2,4,13824,13824,true,
"""

AREA_BOTH_JSON = """\
{
  "family": "generalized(s=2,t=5)",
  "n": 7,
  "k": 3,
  "m": 5,
  "method": "both",
  "oracle": "509696",
  "closed": "509696",
  "match": true
}
"""

AREA_BOTH_CSV = """\
family,n,k,m,oracle,closed,match
"generalized(s=2,t=5)",7,3,5,509696,509696,true
"""

AREA_ORACLE_JSON = """\
{
  "family": "generalized(s=2,t=5)",
  "n": 7,
  "k": 3,
  "m": 5,
  "method": "oracle",
  "oracle": "509696"
}
"""

AREA_ORACLE_CSV = """\
family,n,k,m,oracle,closed,match
"generalized(s=2,t=5)",7,3,5,509696,,
"""

THIRD_ORDER_JSON = """\
{
  "n": 0,
  "k_max": 2,
  "padovan_initial": [
    1,
    0,
    0
  ],
  "cells": [
    {
      "column": "tribonacci",
      "k": 1,
      "computed": "1",
      "published": null,
      "status": ""
    },
    {
      "column": "perrin",
      "k": 1,
      "computed": "1",
      "published": null,
      "status": ""
    },
    {
      "column": "padovan",
      "k": 1,
      "computed": "0",
      "published": null,
      "status": "UNVERIFIED-CONVENTION"
    },
    {
      "column": "tribonacci",
      "k": 2,
      "computed": "32",
      "published": null,
      "status": ""
    },
    {
      "column": "perrin",
      "k": 2,
      "computed": "18",
      "published": null,
      "status": ""
    },
    {
      "column": "padovan",
      "k": 2,
      "computed": "2",
      "published": null,
      "status": "UNVERIFIED-CONVENTION"
    }
  ]
}
"""

THIRD_ORDER_CSV = """\
column,k,computed,published,status
tribonacci,1,1,,
perrin,1,1,,
padovan,1,0,,UNVERIFIED-CONVENTION
tribonacci,2,32,,
perrin,2,18,,
padovan,2,2,,UNVERIFIED-CONVENTION
"""

POLYGONAL_UNPUBLISHED_MARKDOWN = """\
Coefficient of k^4 in the m-gon area on polygonal-number vertices

| m | Octagonal | Nonagonal |
| --- | --- | --- |
| 8 | 8064 | 10976 |
| 9 | 12096 | 16464 |

published check: no reference cells in range
"""

POLYGONAL_PARTLY_PUBLISHED_CSV = """\
m,rank,coefficient,published,match
7,6,2240,2240,true
7,7,3500,3500,true
8,6,3584,,
8,7,5600,,
"""

GEN_MARKDOWN = """\
2
1
3
4
"""

GEN_JSON = """\
[
  "2",
  "1",
  "3",
  "4"
]
"""

GEN_CSV = """\
n,value
0,2
1,1
2,3
3,4
"""

AREA_BOTH_MARKDOWN = """\
oracle: 509696
closed: 509696
MATCH
"""

VERIFY_JACOBSTHAL_MARKDOWN = """\
grid: family=jacobsthal n=0..1 k=1..2 m=3..3
pass_count: 4
fail_count: 0

| n | k | m | oracle | closed | match | note |
| --- | --- | --- | --- | --- | --- | --- |
| 0 | 1 | 3 | 0 | 0 | MATCH | collinear |
| 0 | 2 | 3 | 0 | 0 | MATCH | collinear |
| 1 | 1 | 3 | 0 | 0 | MATCH | collinear |
| 1 | 2 | 3 | 0 | 0 | MATCH | collinear |
"""

THIRD_ORDER_DEFAULT_MARKDOWN = """\
Triangle areas on third-order sequence vertices, n=1, k=1..6 (padovan initial 1,1,1)

| k | Tribonacci | Perrin | Padovan |
| --- | --- | --- | --- |
| 1 | 3 [MATCH] | 9/2 [MATCH] | 1/2 [UNVERIFIED-CONVENTION; published 0] |
| 2 | 64 [MATCH] | 47/2 [MATCH] | 2 [UNVERIFIED-CONVENTION; published 1] |
| 3 | 849 [MATCH] | 31/2 [MISMATCH; published 31/9] | 9 [UNVERIFIED-CONVENTION; published 15] |
| 4 | 23360 [MATCH] | 149 [MATCH] | 29/2 [UNVERIFIED-CONVENTION; published 44] |
| 5 | 509729 [MATCH] | 1629/2 [MATCH] | 51/2 [UNVERIFIED-CONVENTION; published 95] |
| 6 | 10049160 [MATCH] | 4820 [MATCH] | 55/2 [UNVERIFIED-CONVENTION; published 810] |
"""

POLYGONAL_NON_SQUARE_MARKDOWN = """\
Coefficient of k^4 in the m-gon area on polygonal-number vertices

| m | Triangular | Square | Pentagonal | Hexagonal | Heptagonal |
| --- | --- | --- | --- | --- | --- |
| 3 | 4 | 16 | 36 | 64 | 100 |
| 4 | 16 | 64 | 144 | 256 | 400 |

published check: 10/10 cells match
"""

POLYGONAL_MISMATCH_MARKDOWN = """\
Coefficient of k^4 in the m-gon area on polygonal-number vertices

| m | Triangular | Square | Pentagonal | Hexagonal | Heptagonal |
| --- | --- | --- | --- | --- | --- |
| 3 | 4 | 16 | 36 | 64 | 100 |
| 4 | 16 | 64 | 144 | 256 | 400 |

MISMATCH at m=3 rank=4: computed 16, published 17
MISMATCH at m=4 rank=7: computed 400, published 399
published check: 8/10 cells match
"""


VERIFY_GENERALIZED_JSON = """\
{
  "grid": "family=generalized(s=2,t=3) n=0..1 k=1..2 m=3..3",
  "cells": [
    {
      "family": "generalized(s=2,t=3)",
      "n": 0,
      "k": 1,
      "m": 3,
      "oracle": "1/2",
      "closed": "1/2",
      "match": true,
      "note": ""
    },
    {
      "family": "generalized(s=2,t=3)",
      "n": 0,
      "k": 2,
      "m": 3,
      "oracle": "15/2",
      "closed": "15/2",
      "match": true,
      "note": ""
    },
    {
      "family": "generalized(s=2,t=3)",
      "n": 1,
      "k": 1,
      "m": 3,
      "oracle": "1/2",
      "closed": "1/2",
      "match": true,
      "note": ""
    },
    {
      "family": "generalized(s=2,t=3)",
      "n": 1,
      "k": 2,
      "m": 3,
      "oracle": "15/2",
      "closed": "15/2",
      "match": true,
      "note": ""
    }
  ],
  "pass_count": 4,
  "fail_count": 0
}
"""

VERIFY_GENERALIZED_CSV = """\
family,n,k,m,oracle,closed,match,note
"generalized(s=2,t=3)",0,1,3,1/2,1/2,true,
"generalized(s=2,t=3)",0,2,3,15/2,15/2,true,
"generalized(s=2,t=3)",1,1,3,1/2,1/2,true,
"generalized(s=2,t=3)",1,2,3,15/2,15/2,true,
"""

VERIFY_JACOBSTHAL_JSON = """\
{
  "grid": "family=jacobsthal n=0..1 k=1..1 m=3..4",
  "cells": [
    {
      "family": "jacobsthal",
      "n": 0,
      "k": 1,
      "m": 3,
      "oracle": "0",
      "closed": "0",
      "match": true,
      "note": "collinear"
    },
    {
      "family": "jacobsthal",
      "n": 0,
      "k": 1,
      "m": 4,
      "oracle": "0",
      "closed": "0",
      "match": true,
      "note": "collinear"
    },
    {
      "family": "jacobsthal",
      "n": 1,
      "k": 1,
      "m": 3,
      "oracle": "0",
      "closed": "0",
      "match": true,
      "note": "collinear"
    },
    {
      "family": "jacobsthal",
      "n": 1,
      "k": 1,
      "m": 4,
      "oracle": "0",
      "closed": "0",
      "match": true,
      "note": "collinear"
    }
  ],
  "pass_count": 4,
  "fail_count": 0
}
"""

VERIFY_JACOBSTHAL_CSV = """\
family,n,k,m,oracle,closed,match,note
jacobsthal,0,1,3,0,0,true,collinear
jacobsthal,0,1,4,0,0,true,collinear
jacobsthal,1,1,3,0,0,true,collinear
jacobsthal,1,1,4,0,0,true,collinear
"""

# A Fibonacci grid under a broken closed form (``test_failing_grid_bytes``):
# a 0 at (k, m) = (1, 3) on vertices that are not collinear, and an area
# off by 1/2 at (2, 4).
VERIFY_FAILING_MARKDOWN = """\
grid: family=fibonacci n=0..1 k=1..2 m=3..4
pass_count: 4
fail_count: 4

| n | k | m | oracle | closed | match | note |
| --- | --- | --- | --- | --- | --- | --- |
| 0 | 1 | 3 | 1/2 | 0 | MISMATCH | NOT COLLINEAR |
| 0 | 1 | 4 | 5/2 | 5/2 | MATCH |  |
| 0 | 2 | 3 | 15/2 | 15/2 | MATCH |  |
| 0 | 2 | 4 | 135/2 | 68 | MISMATCH |  |
| 1 | 1 | 3 | 1/2 | 0 | MISMATCH | NOT COLLINEAR |
| 1 | 1 | 4 | 5/2 | 5/2 | MATCH |  |
| 1 | 2 | 3 | 15/2 | 15/2 | MATCH |  |
| 1 | 2 | 4 | 135/2 | 68 | MISMATCH |  |
"""

VERIFY_FAILING_JSON = """\
{
  "grid": "family=fibonacci n=0..1 k=1..2 m=3..4",
  "cells": [
    {
      "family": "fibonacci",
      "n": 0,
      "k": 1,
      "m": 3,
      "oracle": "1/2",
      "closed": "0",
      "match": false,
      "note": "NOT COLLINEAR"
    },
    {
      "family": "fibonacci",
      "n": 0,
      "k": 1,
      "m": 4,
      "oracle": "5/2",
      "closed": "5/2",
      "match": true,
      "note": ""
    },
    {
      "family": "fibonacci",
      "n": 0,
      "k": 2,
      "m": 3,
      "oracle": "15/2",
      "closed": "15/2",
      "match": true,
      "note": ""
    },
    {
      "family": "fibonacci",
      "n": 0,
      "k": 2,
      "m": 4,
      "oracle": "135/2",
      "closed": "68",
      "match": false,
      "note": ""
    },
    {
      "family": "fibonacci",
      "n": 1,
      "k": 1,
      "m": 3,
      "oracle": "1/2",
      "closed": "0",
      "match": false,
      "note": "NOT COLLINEAR"
    },
    {
      "family": "fibonacci",
      "n": 1,
      "k": 1,
      "m": 4,
      "oracle": "5/2",
      "closed": "5/2",
      "match": true,
      "note": ""
    },
    {
      "family": "fibonacci",
      "n": 1,
      "k": 2,
      "m": 3,
      "oracle": "15/2",
      "closed": "15/2",
      "match": true,
      "note": ""
    },
    {
      "family": "fibonacci",
      "n": 1,
      "k": 2,
      "m": 4,
      "oracle": "135/2",
      "closed": "68",
      "match": false,
      "note": ""
    }
  ],
  "pass_count": 4,
  "fail_count": 4
}
"""

VERIFY_FAILING_CSV = """\
family,n,k,m,oracle,closed,match,note
fibonacci,0,1,3,1/2,0,false,NOT COLLINEAR
fibonacci,0,1,4,5/2,5/2,true,
fibonacci,0,2,3,15/2,15/2,true,
fibonacci,0,2,4,135/2,68,false,
fibonacci,1,1,3,1/2,0,false,NOT COLLINEAR
fibonacci,1,1,4,5/2,5/2,true,
fibonacci,1,2,3,15/2,15/2,true,
fibonacci,1,2,4,135/2,68,false,
"""

# SHA-256 and length of the 3,360-cell Fibonacci grid at the index guardrail.
GUARDRAIL_DIGESTS = {
    "markdown": (288664, "f2f940821b2def4fedf692c68aab7ad9ee5f56e51e1aba65db6f241a44b6f624"),
    "json": (728769, "c102fd737f297a74e6db10395d122e0e4f340cfdd4993860a111682eb40fd558"),
    "csv": (265012, "0dd088dd85a537f01971f3ad205689c34434f8207ae36cb5fff2d68074b18d92"),
}

# The same guardrail grid over the other routes: the Jacobsthal pair, whose
# 3,360 cells each have closed area 0 and pass by collinearity, and one
# generalized and one polygonal family.
FAMILY_GUARDRAIL_DIGESTS = [
    pytest.param(family, fmt, digest, id=f"{family[0]}-{fmt}")
    for family, digests in [
        (("jacobsthal",), {
            "markdown": (145319, "8f8148a573d297d9aa2185e31c5c473e6646fd7eaa2f912acc9b4d8f93598c56"),
            "json": (588784, "472ede16057ecd1688e128d608af2c63f375e20c5e98e7f6ac468c72372ff95d"),
            "csv": (125026, "c8fe7b201aa0ec35bd993fa6425d690349c7abe0254ab9058f670b2f52b121f4"),
        }),
        (("jacobsthal-lucas",), {
            "markdown": (145325, "0bfa485a32fc579003b05063ced1f252c5e6a4ca901da70e8c6578b285a21945"),
            "json": (608950, "3149e9008145fbe560912d77a78a4022230dfbe8bce92a0f05e7d4a6c759b3d3"),
            "csv": (145186, "eddadf806f97258cddc9d6e52219127233573004a8508c1d7fc1b4c10be3611e"),
        }),
        (("generalized", "--s", "2", "--t", "3"), {
            "markdown": (288675, "fbce67a73800d4830972570932cba7a191ac6d5eedd978cf13beb732d366fa88"),
            "json": (765740, "2f4555681ec787021595087ea05530258ab7bce1fd5fb051b879e183829eb417"),
            "csv": (308692, "5d7cc4eb2095682b06f3e7501b1a2e871ec7620fefaf900e709b800d434c1a88"),
        }),
        (("polygonal", "--rank", "5"), {
            "markdown": (155490, "0f7c5ba540dfd5997f9b970852ca4c7f8edf77b08c12286b49c8a4e026ae9a79"),
            "json": (622475, "93c972d095ebad8e1ba39b3a27c83b5c21264d2ce121ca4a2e339f99446bcc29"),
            "csv": (158710, "3746882d3f90eb57aaca55000dd89a3b605b14e8ed9cac4f6eb77cf6175436e8"),
        }),
    ]
    for fmt, digest in digests.items()
]

# SHA-256 and length of `area` output at large n, where the oracle multiplies
# numbers of tens of thousands of bits: a jump along the area's own recurrence
# from shoelaces near index 0, or (at the 20,000 stride) strided vertex
# terms.  The pell digests at the 20,000 stride and at n = 99,000 were
# hashed before the oracle took a jump route, and the perrin ones at spans
# (2m-1)k = 397 and 399 before it took the area's recurrence there.
LARGE_N_DIGESTS = [
    pytest.param(
        ("area", "pell", "--n", "27549", "--k", "18", "--m", "10", "--method", "both",
         "--format", "json"),
        (388, "19fae1ebdd98544f9a33eabf2e3eb89a27e788801d6d38abb43615ac06b21ff7"),
        id="pell-both-json",
    ),
    pytest.param(
        ("area", "tribonacci", "--n", "21182", "--k", "5", "--m", "4", "--method", "oracle",
         "--format", "markdown"),
        (2812, "2f4e0cf65a1efc11c22383e0c46aa00db8d2a268d9b989f40ba935a83cf7b42b"),
        id="tribonacci-oracle-markdown",
    ),
    pytest.param(
        ("area", "perrin", "--n", "31668", "--k", "3", "--m", "3", "--format", "csv"),
        (1989, "759ea429883299ce87955ff8b9504c3d0401e8d8623306b4169cf7f19bc7c3cf"),
        id="perrin-oracle-csv",
    ),
    pytest.param(
        ("area", "padovan", "--initial-terms", "2,-1,3", "--n", "40000", "--k", "7",
         "--m", "5"),
        (2451, "a088562845b5847aeb61f7fa72457312ed972cf52f0a3b1b9e593d498348f77f"),
        id="padovan-oracle-markdown",
    ),
    pytest.param(
        ("area", "generalized", "--s", "3", "--t", "-2", "--n", "39000", "--k", "300",
         "--m", "6", "--method", "both"),
        (1402, "72b13b58fdbbab0fe9e7cbe6a6585d12d3033ea9a9b1f9e81524b6804b6f19fc"),
        id="generalized-both-markdown",
    ),
    pytest.param(
        ("area", "pell", "--n", "0", "--k", "20000", "--m", "3", "--method", "both"),
        (76578, "e538115ccc7cc6e06bfe4ada96885428028c12b067ebf17e7ca0b4ab5eef4b00"),
        id="pell-large-stride-both-markdown",
    ),
    pytest.param(
        ("area", "pell", "--n", "99000", "--k", "20", "--m", "10", "--method", "both"),
        (314, "23e6ddf7cbbe6f3794f6579bacfaefaba1622c8cdb5a7bbfb2a0f9b733b21ade"),
        id="pell-budget-both-markdown",
    ),
    pytest.param(
        ("area", "tribonacci", "--n", "99000", "--k", "20", "--m", "10"),
        (13201, "501c04be09e4af89de288f12e5729eb2b59d48f0b75444202fc05e054ccbd9aa"),
        id="tribonacci-budget-oracle-markdown",
    ),
    pytest.param(
        ("area", "perrin", "--n", "99000", "--k", "1", "--m", "199"),
        (6097, "cfbd2c2885fa70f77d5835faa4cfde476ca73f3accdfeb67c892516de5f3f22d"),
        id="perrin-budget-span-397-oracle-markdown",
    ),
    pytest.param(
        ("area", "perrin", "--n", "99000", "--k", "1", "--m", "200"),
        (6097, "9543ebc77196d85778a7ea4d06b281601fa771c6124cdff8f913050a05c24b26"),
        id="perrin-budget-span-399-oracle-markdown",
    ),
    # Polygonal output near the term-index budget: the area's recurrence,
    # the direct route at a large stride and one deep forward `gen`
    # window, hashed while polygonal terms still came from the figurate
    # formula rather than the recurrence (3, -3, 1).
    pytest.param(
        ("area", "polygonal", "--rank", "7", "--n", "99000", "--k", "20", "--m", "10",
         "--method", "both"),
        (44, "91ba1ac04f2394d518978d80b35209261617792736f076f957956f216f392198"),
        id="polygonal-budget-both-markdown",
    ),
    pytest.param(
        ("area", "polygonal", "--rank", "5", "--n", "0", "--k", "20000", "--m", "3",
         "--method", "both", "--format", "json"),
        (177, "9f6b555a6235babb76965133d42c9f2a0a48dc53470a12c547b1288b5e4f5b4d"),
        id="polygonal-large-stride-both-json",
    ),
    pytest.param(
        ("gen", "polygonal", "--rank", "9", "--count", "100001", "--format", "csv"),
        (1710737, "2377525870d2e7094ac828bd8d387b2f9fc626e0b84a7bf4b4b7794f3dc116de"),
        id="polygonal-gen-budget-csv",
    ),
]


AREA = ("area", "generalized", "--s", "2", "--t", "5", "--n", "7", "--k", "3", "--m", "5")
VERIFY = ("verify", "pell", "--n", "0..1", "--k", "1..2", "--m", "3..4")
VERIFY_GENERALIZED = (
    "verify", "generalized", "--s", "2", "--t", "3", "--n", "0..1", "--k", "1..2", "--m", "3"
)
VERIFY_JACOBSTHAL = ("verify", "jacobsthal", "--n", "0..1", "--k", "1", "--m", "3..4")
VERIFY_FAILING = ("verify", "fibonacci", "--n", "0..1", "--k", "1..2", "--m", "3..4")
GUARDRAIL = ("verify", "fibonacci", "--n", "0..20", "--k", "1..20", "--m", "3..10")
THIRD_ORDER = ("table", "third-order", "--k-max", "2", "--n", "0", "--padovan-initial", "1,0,0")

GEN = ("gen", "lucas", "--count", "4")
GEN_NONE = ("gen", "lucas", "--count", "0")
POLYGONAL_NON_SQUARE = ("table", "polygonal", "--m", "3..4", "--rank", "3..7")

CASES = [
    pytest.param(GEN, GEN_MARKDOWN, id="gen-markdown"),
    pytest.param(GEN + ("--format", "json"), GEN_JSON, id="gen-json"),
    pytest.param(GEN + ("--format", "csv"), GEN_CSV, id="gen-csv"),
    pytest.param(GEN_NONE, "", id="gen-none-markdown"),
    pytest.param(GEN_NONE + ("--format", "json"), "[]\n", id="gen-none-json"),
    pytest.param(GEN_NONE + ("--format", "csv"), "n,value\n", id="gen-none-csv"),
    pytest.param(AREA + ("--method", "oracle"), "509696\n", id="area-oracle-markdown"),
    pytest.param(AREA + ("--method", "closed"), "509696\n", id="area-closed-markdown"),
    pytest.param(AREA + ("--method", "both"), AREA_BOTH_MARKDOWN, id="area-both-markdown"),
    pytest.param(
        ("area", "jacobsthal", "--n", "7", "--k", "3", "--m", "5", "--method", "both"),
        "oracle: 0\nclosed: 0\nMATCH\n",
        id="area-jacobsthal-both-markdown",
    ),
    pytest.param(
        ("verify", "jacobsthal", "--n", "0..1", "--k", "1..2", "--m", "3"),
        VERIFY_JACOBSTHAL_MARKDOWN,
        id="verify-collinear-markdown",
    ),
    pytest.param(
        ("table", "third-order"), THIRD_ORDER_DEFAULT_MARKDOWN, id="third-order-markdown"
    ),
    pytest.param(
        POLYGONAL_NON_SQUARE, POLYGONAL_NON_SQUARE_MARKDOWN, id="polygonal-non-square-markdown"
    ),
    pytest.param(VERIFY, VERIFY_PELL_MARKDOWN, id="verify-markdown"),
    pytest.param(VERIFY + ("--format", "json"), VERIFY_PELL_JSON, id="verify-json"),
    pytest.param(VERIFY + ("--format", "csv"), VERIFY_PELL_CSV, id="verify-csv"),
    pytest.param(
        VERIFY_GENERALIZED + ("--format", "json"), VERIFY_GENERALIZED_JSON,
        id="verify-quoted-label-json",
    ),
    pytest.param(
        VERIFY_GENERALIZED + ("--format", "csv"), VERIFY_GENERALIZED_CSV,
        id="verify-quoted-label-csv",
    ),
    pytest.param(
        VERIFY_JACOBSTHAL + ("--format", "json"), VERIFY_JACOBSTHAL_JSON,
        id="verify-collinear-json",
    ),
    pytest.param(
        VERIFY_JACOBSTHAL + ("--format", "csv"), VERIFY_JACOBSTHAL_CSV,
        id="verify-collinear-csv",
    ),
    pytest.param(
        AREA + ("--method", "both", "--format", "json"), AREA_BOTH_JSON, id="area-both-json"
    ),
    pytest.param(
        AREA + ("--method", "both", "--format", "csv"), AREA_BOTH_CSV, id="area-both-csv"
    ),
    pytest.param(
        AREA + ("--method", "oracle", "--format", "json"), AREA_ORACLE_JSON,
        id="area-oracle-json",
    ),
    pytest.param(
        AREA + ("--method", "oracle", "--format", "csv"), AREA_ORACLE_CSV,
        id="area-oracle-csv",
    ),
    pytest.param(THIRD_ORDER + ("--format", "json"), THIRD_ORDER_JSON, id="third-order-json"),
    pytest.param(THIRD_ORDER + ("--format", "csv"), THIRD_ORDER_CSV, id="third-order-csv"),
    pytest.param(
        ("table", "polygonal", "--m", "8..9", "--rank", "8..9"),
        POLYGONAL_UNPUBLISHED_MARKDOWN,
        id="polygonal-unpublished-markdown",
    ),
    pytest.param(
        ("table", "polygonal", "--m", "7..8", "--rank", "6..7", "--format", "csv"),
        POLYGONAL_PARTLY_PUBLISHED_CSV,
        id="polygonal-partly-published-csv",
    ),
]


@pytest.mark.parametrize("argv, expected", CASES)
def test_stdout_bytes(capsys, argv, expected):
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == expected


def test_polygonal_mismatch_lines(capsys, monkeypatch):
    published = dict(verify.PUBLISHED_POLYGONAL_COEFFS)
    published[(3, 4)] = 17
    published[(4, 7)] = 399
    monkeypatch.setattr(verify, "PUBLISHED_POLYGONAL_COEFFS", published)
    assert cli.main(list(POLYGONAL_NON_SQUARE)) == 0
    assert capsys.readouterr().out == POLYGONAL_MISMATCH_MARKDOWN


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("markdown", VERIFY_FAILING_MARKDOWN),
        ("json", VERIFY_FAILING_JSON),
        ("csv", VERIFY_FAILING_CSV),
    ],
)
def test_failing_grid_bytes(capsys, monkeypatch, fmt, expected):
    # The closed form S * q**n with S = 0 at (k, m) = (1, 3) and |S| one
    # unit further from zero at (2, 4).
    def broken(k, m, twice):
        if (k, m) == (1, 3):
            return 0
        if (k, m) == (2, 4):
            return twice + (1 if twice > 0 else -1)
        return twice

    monkeypatch.setattr(verify, "closed_areas", closed_areas_with(broken))
    assert cli.main([*VERIFY_FAILING, "--format", fmt]) == 1
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("fmt", sorted(GUARDRAIL_DIGESTS))
def test_guardrail_grid_digest(capsys, fmt):
    assert cli.main([*GUARDRAIL, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == GUARDRAIL_DIGESTS[fmt]


@pytest.mark.parametrize("family, fmt, digest", FAMILY_GUARDRAIL_DIGESTS)
def test_family_guardrail_grid_digest(capsys, family, fmt, digest):
    grid = ("--n", "0..20", "--k", "1..20", "--m", "3..10")
    assert cli.main(["verify", *family, *grid, "--format", fmt]) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == digest


@pytest.mark.parametrize("argv, digest", LARGE_N_DIGESTS)
def test_large_n_area_digest(capsys, argv, digest):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert (len(out), hashlib.sha256(out).hexdigest()) == digest
