"""The command line's contract, checked on drawn argvs of every subcommand.

Every argv either exits 0 with output that the benchmark's independent
reference (``perfbench/reference.py``, which imports nothing of seqarea)
accepts value by value, or exits 2 with no output and either a one-line
refusal or the usage pair.  Verify grids reach up to one index past the
guardrail, and some ask for k = 0, m = 2 or a reversed range; area
polygons reach a few thousand, on both sides of n = (2m-1)k; gen counts
run from -1 to 450 and the tables' ranges start as low as 2 (m, rank) or
-1 (k_max).
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqarea import cli
from seqarea.sequences import MAX_SEQUENCE_INDEX, reach

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"


def load_reference():
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = load_reference()
CHECKER = ref.Checker()  # holds only the reference's own term lists

FAMILIES = st.one_of(
    st.sampled_from(
        ["fibonacci", "lucas", "pell", "pell-lucas", "jacobsthal", "jacobsthal-lucas"]
    ).map(ref.Family),
    st.builds(
        ref.Family, st.just("generalized"), s=st.integers(1, 6), t=st.integers(1, 6)
    ),
    st.builds(ref.Family, st.just("polygonal"), rank=st.integers(3, 12)),
)


@st.composite
def grids(draw):
    """(ns, ks, ms) as (lo, hi) pairs whose largest index n + (2m-1)k falls
    at 399, 400 or 401; now and then k starts at 0, m at 2, or an axis is
    reversed."""
    m_hi = draw(st.integers(3, 12))
    k_hi = draw(st.integers(1, 399 // (2 * m_hi - 1)))
    n_hi = MAX_SEQUENCE_INDEX + draw(st.integers(-1, 1)) - (2 * m_hi - 1) * k_hi
    axes = [
        [max(0, n_hi - draw(st.integers(0, 2))), n_hi],
        [max(1, k_hi - draw(st.integers(0, 2))), k_hi],
        [max(3, m_hi - draw(st.integers(0, 2))), m_hi],
    ]
    fault = draw(st.sampled_from([None] * 6 + ["k = 0", "m = 2", "reversed"]))
    if fault == "k = 0":
        axes[1][0] = 0
    elif fault == "m = 2":
        axes[2][0] = 2
    elif fault == "reversed":
        axis = axes[draw(st.integers(0, 2))]
        axis[0] = axis[1] + draw(st.integers(1, 2))
    return axes


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_refusal(command, out, err):
    """No output, and one ``error:`` line or the usage pair of ``command``."""
    lines = err.splitlines()
    assert not out
    assert len(lines) in (1, 2)
    if len(lines) == 1:
        assert lines[0].startswith("error: ")
    else:
        assert lines[0].startswith(f"usage: seqarea {command} ")
        assert lines[1].startswith(f"seqarea {command}: error: ")


@settings(max_examples=100, deadline=None)
@given(
    family=FAMILIES,
    grid=grids(),
    fmt=st.sampled_from(["markdown", "csv", "json"]),
)
def test_verify_exits_cleanly_and_reports_true_areas(family, grid, fmt):
    (n_lo, n_hi), (k_lo, k_hi), (m_lo, m_hi) = grid
    argv = ["verify", *family.cli_args(), "--n", f"{n_lo}..{n_hi}",
            "--k", f"{k_lo}..{k_hi}", "--m", f"{m_lo}..{m_hi}", "--format", fmt]
    code, out, err = run(argv)
    valid = (
        n_lo <= n_hi and 1 <= k_lo <= k_hi and 3 <= m_lo <= m_hi
        and reach(n_hi, k_hi, m_hi) <= MAX_SEQUENCE_INDEX
    )
    assert code == (0 if valid else 2)
    if code == 2:
        assert_refusal("verify", out, err)
        return
    assert not err
    ns, ks, ms = range(n_lo, n_hi + 1), range(k_lo, k_hi + 1), range(m_lo, m_hi + 1)
    assert CHECKER.check_verify(family, ns, ks, ms, fmt, code, out) == []


NO_CLOSED_FORM = ("tribonacci", "perrin", "padovan")

EVERY_FAMILY = st.one_of(
    st.sampled_from(
        ["fibonacci", "lucas", "pell", "pell-lucas", "jacobsthal", "jacobsthal-lucas",
         *NO_CLOSED_FORM]
    ).map(ref.Family),
    st.builds(
        ref.Family, st.just("generalized"), s=st.integers(-3, 6), t=st.integers(-3, 6)
    ),
    st.builds(ref.Family, st.just("polygonal"), rank=st.integers(3, 12)),
    st.builds(
        ref.Family, st.just("padovan"),
        initial=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    ),
)


def family_args(family):
    """``family`` on the command line, a padovan start included."""
    if family.name == "padovan" and family.initial != (1, 1, 1):
        return [family.name, "--initial-terms", ",".join(map(str, family.initial))]
    return family.cli_args()


@st.composite
def polygons(draw):
    """(n, k, m): each now and then 0-3, n one either side of (2m-1)k, or n
    up to a few thousand; the largest index stays below 5,000."""
    m = draw(st.integers(0, 3) | st.integers(3, 10) | st.integers(3, 10))
    k = draw(st.integers(0, 3) | st.integers(1, 100) | st.integers(1, 100))
    shape = draw(st.sampled_from(["small", "edge", "far"]))
    if shape == "small":
        n = draw(st.integers(0, 3))
    elif shape == "edge":
        n = (2 * m - 1) * k + draw(st.sampled_from([-1, 1]))
    else:
        n = draw(st.integers(0, 3000))
    return n, k, m


def csv_area_as_json(family, n, k, m, out):
    """The one row of an ``area`` CSV, its request fields checked, as the
    JSON object the reference reads."""
    [row] = csv.DictReader(io.StringIO(out))
    request = [row["family"], row["n"], row["k"], row["m"]]
    assert request == [family.label, str(n), str(k), str(m)]
    match = {"": None, "true": True, "false": False}[row["match"]]
    return json.dumps(
        {"oracle": row["oracle"], "closed": row["closed"] or None, "match": match}
    )


@settings(max_examples=80, deadline=None)
@given(
    family=EVERY_FAMILY,
    polygon=polygons(),
    method=st.sampled_from(["oracle", "both"]),
    fmt=st.sampled_from(["markdown", "csv", "json"]),
)
@example(ref.Family("tribonacci"), (0, 1, 3), "both", "markdown")
@example(ref.Family("padovan", initial=(0, 0, 0)), (6, 1, 3), "both", "json")
@example(ref.Family("generalized", s=0, t=0), (6, 1, 4), "both", "csv")
def test_area_exits_cleanly_and_reports_true_areas(family, polygon, method, fmt):
    n, k, m = polygon
    argv = ["area", *family_args(family), "--n", str(n), "--k", str(k), "--m", str(m),
            "--method", method, "--format", fmt]
    code, out, err = run(argv)
    valid = n >= 0 and k >= 1 and m >= 3
    closed = family.name not in NO_CLOSED_FORM
    assert code == (0 if valid and (closed or method == "oracle") else 2)
    if code == 2:
        assert_refusal("area", out, err)
        if valid:
            assert err == f"error: no closed form for {family.label}\n"
        return
    assert not err
    if fmt == "csv":
        out, fmt = csv_area_as_json(family, n, k, m, out), "json"
    assert CHECKER.check_area(family, n, k, m, method, fmt, code, out) == []


def gen_values(out, fmt):
    if fmt == "json":
        return [int(value) for value in json.loads(out)]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value"]
        assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
        return [int(r[1]) for r in rows[1:]]
    return [int(line) for line in out.splitlines()]


@settings(max_examples=40, deadline=None)
@given(
    family=EVERY_FAMILY,
    count=st.integers(-1, 450),
    fmt=st.sampled_from(["markdown", "csv", "json"]),
)
@example(ref.Family("fibonacci"), -1, "markdown")
@example(ref.Family("pell"), 0, "csv")
@example(ref.Family("polygonal", rank=5), 450, "json")
def test_gen_prints_the_terms(family, count, fmt):
    code, out, err = run(["gen", *family_args(family), "--count", str(count),
                          "--format", fmt])
    assert code == (0 if count >= 0 else 2)
    if code == 2:
        assert_refusal("gen", out, err)
        return
    assert not err
    assert gen_values(out, fmt) == family.terms(0, count)


@settings(max_examples=30, deadline=None)
@given(
    m=st.tuples(st.integers(2, 7), st.integers(0, 3)),
    rank=st.tuples(st.integers(2, 7), st.integers(0, 3)),
    fmt=st.sampled_from(["markdown", "csv", "json"]),
)
@example((2, 2), (3, 1), "markdown")
@example((3, 0), (2, 3), "csv")
def test_polygonal_table_exits_cleanly_and_is_true(m, rank, fmt):
    m_values, ranks = (range(lo, lo + extra + 1) for lo, extra in (m, rank))
    argv = ["table", "polygonal", "--m", f"{m_values[0]}..{m_values[-1]}",
            "--rank", f"{ranks[0]}..{ranks[-1]}", "--format", fmt]
    code, out, err = run(argv)
    assert code == (0 if m_values[0] >= 3 and ranks[0] >= 3 else 2)
    if code == 2:
        assert_refusal("table polygonal", out, err)
        return
    assert not err
    assert CHECKER.check_polygonal_table(m_values, ranks, fmt, code, out) == []


def test_third_order_table_exits_cleanly_and_is_true():
    for k_max in range(-1, 13):
        for fmt in ("markdown", "csv", "json"):
            argv = ["table", "third-order", "--k-max", str(k_max), "--format", fmt]
            code, out, err = run(argv)
            assert code == (0 if k_max >= 1 else 2), argv
            if code == 2:
                assert_refusal("table third-order", out, err)
                continue
            assert not err
            assert CHECKER.check_third_order(k_max, fmt, code, out) == [], argv
