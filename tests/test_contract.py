"""The command line's contract for ``verify``, checked on drawn argvs.

Every argv either exits 0 with a report that the benchmark's independent
reference (``perfbench/reference.py``, which imports nothing of seqarea)
accepts cell by cell, or exits 2 with a one-line refusal and no output.
Grids reach up to one index past the guardrail, and some ask for k = 0,
m = 2 or a reversed range.
"""

from __future__ import annotations

import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
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
        lines = err.splitlines()
        assert not out
        assert len(lines) in (1, 2)
        if len(lines) == 1:
            assert lines[0].startswith("error: ")
        else:
            assert lines[0].startswith("usage: seqarea verify ")
            assert lines[1].startswith("seqarea verify: error: ")
        return
    assert not err
    ns, ks, ms = range(n_lo, n_hi + 1), range(k_lo, k_hi + 1), range(m_lo, m_hi + 1)
    assert CHECKER.check_verify(family, ns, ks, ms, fmt, code, out) == []
