"""Literal stdout of the CLI, pinned byte for byte.

These cover the machine formats of every result type, the keys the area
JSON omits per method, the empty CSV fields and the markdown line for a
polygonal table with no published cells.
"""

import pytest

from seqarea import cli

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


AREA = ("area", "generalized", "--s", "2", "--t", "5", "--n", "7", "--k", "3", "--m", "5")
VERIFY = ("verify", "pell", "--n", "0..1", "--k", "1..2", "--m", "3..4")
THIRD_ORDER = ("table", "third-order", "--k-max", "2", "--n", "0", "--padovan-initial", "1,0,0")

CASES = [
    pytest.param(VERIFY, VERIFY_PELL_MARKDOWN, id="verify-markdown"),
    pytest.param(VERIFY + ("--format", "json"), VERIFY_PELL_JSON, id="verify-json"),
    pytest.param(VERIFY + ("--format", "csv"), VERIFY_PELL_CSV, id="verify-csv"),
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
