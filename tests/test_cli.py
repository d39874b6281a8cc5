import csv
import io
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product

import pytest

from seqarea import (
    SequenceFamily,
    build_vertices,
    cli,
    closedforms,
    rational_str,
    shoelace_area,
    verify,
)
from seqarea.sequences import MAX_TABLE_CELLS, MAX_TERM_INDEX, MAX_THIRD_ORDER_K
from seqarea.verify import polygonal_table, third_order_table

EXPECTED_POLYGONAL_MARKDOWN = """\
Coefficient of k^4 in the m-gon area on polygonal-number vertices

| m | Triangular | Square | Pentagonal | Hexagonal | Heptagonal |
| --- | --- | --- | --- | --- | --- |
| 3 | 4 | 16 | 36 | 64 | 100 |
| 4 | 16 | 64 | 144 | 256 | 400 |
| 5 | 40 | 160 | 360 | 640 | 1000 |
| 6 | 80 | 320 | 720 | 1280 | 2000 |
| 7 | 140 | 560 | 1260 | 2240 | 3500 |

published check: 25/25 cells match
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_fibonacci_lines(self, capsys):
        code, out, _ = run(capsys, "gen", "fibonacci", "--count", "8")
        assert code == 0
        assert out.splitlines() == ["0", "1", "1", "2", "3", "5", "8", "13"]

    def test_polygonal(self, capsys):
        code, out, _ = run(capsys, "gen", "polygonal", "--rank", "6", "--count", "5")
        assert code == 0
        assert out.splitlines() == ["0", "1", "6", "15", "28"]

    def test_generalized(self, capsys):
        code, out, _ = run(
            capsys, "gen", "generalized", "--s", "2", "--t", "3", "--count", "5"
        )
        assert code == 0
        assert out.splitlines() == ["1", "2", "3", "5", "8"]

    def test_json_array_of_strings(self, capsys):
        code, out, _ = run(
            capsys, "gen", "fibonacci", "--count", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == ["0", "1", "1", "2"]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "gen", "pell", "--count", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows == [["n", "value"], ["0", "0"], ["1", "1"], ["2", "2"]]

    def test_padovan_initial_terms(self, capsys):
        code, out, _ = run(
            capsys, "gen", "padovan", "--initial-terms", "1,0,0", "--count", "6"
        )
        assert code == 0
        assert out.splitlines() == ["1", "0", "0", "1", "0", "1"]

    def test_negative_count_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "fibonacci", "--count", "-2")
        assert code == 2
        assert "count" in err


class TestArea:
    def test_both_match(self, capsys):
        code, out, _ = run(
            capsys, "area", "fibonacci", "--n", "1", "--k", "2", "--m", "3",
            "--method", "both",
        )
        assert code == 0
        assert out == "oracle: 15/2\nclosed: 15/2\nMATCH\n"

    def test_oracle_default_jacobsthal(self, capsys):
        code, out, _ = run(capsys, "area", "jacobsthal", "--n", "1", "--k", "1", "--m", "3")
        assert code == 0
        assert out == "0\n"

    def test_closed_polygonal(self, capsys):
        code, out, _ = run(
            capsys, "area", "polygonal", "--rank", "7", "--n", "1", "--k", "1",
            "--m", "7", "--method", "closed",
        )
        assert code == 0
        assert out == "3500\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "area", "pell", "--n", "0", "--k", "1", "--m", "3",
            "--method", "both", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"] == "4" and payload["closed"] == "4"
        assert payload["match"] is True

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "closed_area_for", lambda family, k, m: (1998, 1))
        code, out, _ = run(
            capsys, "area", "fibonacci", "--n", "1", "--k", "1", "--m", "3",
            "--method", "both",
        )
        assert code == 1
        assert "MISMATCH" in out

    def test_sign_error_exits_one(self, capsys, monkeypatch):
        # q -> -q: the closed area keeps its value and loses its sign at odd n.
        real = closedforms.closed_area_for
        monkeypatch.setattr(
            cli, "closed_area_for", lambda *args: (real(*args)[0], -real(*args)[1])
        )
        argv = ("area", "fibonacci", "--k", "1", "--m", "3", "--method", "both")
        code, out, _ = run(capsys, *argv, "--n", "1")
        assert (code, out) == (1, "oracle: 1/2\nclosed: 1/2\nMISMATCH\n")
        code, out, _ = run(capsys, *argv, "--n", "2")
        assert (code, out) == (0, "oracle: 1/2\nclosed: 1/2\nMATCH\n")

    def test_sign_error_at_large_n_exits_one(self, capsys, monkeypatch):
        # Past its first two starts the oracle jumps along the area's own
        # recurrence, derived from small-index shoelaces, not from the
        # closed form: q -> -q still misses at odd n.
        argv = ("area", "pell", "--n", "30001", "--k", "7", "--m", "5", "--method", "both")
        assert run(capsys, *argv)[0] == 0
        real = closedforms.closed_area_for
        monkeypatch.setattr(
            cli, "closed_area_for", lambda *args: (real(*args)[0], -real(*args)[1])
        )
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out.endswith("\nMISMATCH\n")

    def test_no_closed_form_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "area", "tribonacci", "--n", "1", "--k", "1", "--m", "3",
            "--method", "both",
        )
        assert code == 2
        assert "closed form" in err

    def test_oracle_on_third_order_works(self, capsys):
        code, out, _ = run(capsys, "area", "tribonacci", "--n", "1", "--k", "2", "--m", "3")
        assert code == 0
        assert out == "64\n"

    def test_values_beyond_4300_digits_print_in_full(self, capsys):
        code, out, _ = run(capsys, "area", "tribonacci", "--n", "34000", "--k", "3", "--m", "3")
        assert code == 0
        vertices = build_vertices(SequenceFamily.tribonacci(), 34000, 3, 3)
        assert out == rational_str(shoelace_area(*vertices)) + "\n"
        assert len(out) > 4300

    def test_out_of_memory_is_a_refusal(self, capsys, monkeypatch):
        # Exit 1 means a mismatch only: running out of memory is one error line.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "twice_polygon_area", exhausted)
        argv = ("area", "pell", "--n", "0", "--k", "1", "--m", "50000", "--format", "csv")
        assert run(capsys, *argv) == (2, "", "error: out of memory\n")

    def test_invalid_spec_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "area", "fibonacci", "--n", "1", "--k", "0", "--m", "3")
        assert code == 2


class TestVerify:
    def test_json_schema_and_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "verify", "fibonacci", "--n", "1..5", "--k", "1..4",
            "--m", "3..5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"grid", "cells", "pass_count", "fail_count"}
        assert payload["fail_count"] == 0
        assert payload["pass_count"] == len(payload["cells"]) == 60
        cell = payload["cells"][0]
        assert set(cell) == {"family", "n", "k", "m", "oracle", "closed", "match", "note"}
        assert cell["oracle"] == "1/2"

    def test_collinearity_grid(self, capsys):
        code, out, _ = run(
            capsys, "verify", "jacobsthal", "--n", "0..8", "--k", "1..6",
            "--m", "3..8", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fail_count"] == 0
        assert all(c["oracle"] == "0" for c in payload["cells"])

    def test_csv_header(self, capsys):
        code, out, _ = run(
            capsys, "verify", "pell", "--n", "0..1", "--k", "1..2", "--m", "3..4",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n", "k", "m", "oracle", "closed", "match", "note"]
        assert len(rows) == 1 + 8

    def test_byte_identical_across_runs(self, capsys):
        args = ("verify", "lucas", "--n", "0..2", "--k", "1..2", "--m", "3..4",
                "--format", "json")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_failing_grid_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            verify, "closed_areas",
            lambda family, ks, ms: (dict.fromkeys(product(ks, ms), 1998), 1),
        )
        code, out, _ = run(
            capsys, "verify", "fibonacci", "--n", "1..1", "--k", "1..1", "--m", "3..3"
        )
        assert code == 1
        assert "fail_count: 1" in out

    def test_sign_error_fails_odd_n(self, capsys, monkeypatch):
        real = closedforms.closed_areas
        monkeypatch.setattr(
            verify, "closed_areas", lambda *args: (real(*args)[0], -real(*args)[1])
        )
        code, out, _ = run(
            capsys, "verify", "fibonacci", "--n", "0..1", "--k", "1..2", "--m", "3..4",
            "--format", "json",
        )
        assert code == 1
        cells = json.loads(out)["cells"]
        assert [c["match"] for c in cells] == [True] * 4 + [False] * 4
        assert all(c["oracle"] == c["closed"] for c in cells)

    def test_unsupported_family_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "perrin", "--n", "1..2", "--k", "1..2", "--m", "3..4"
        )
        assert code == 2
        assert "no closed form" in err

    def test_markdown_contains_cells(self, capsys):
        code, out, _ = run(
            capsys, "verify", "polygonal", "--rank", "4", "--n", "1..2",
            "--k", "1..2", "--m", "3..4",
        )
        assert code == 0
        assert "grid: family=polygonal(rank=4)" in out
        assert "| MATCH |" in out


class TestTable:
    def test_polygonal_markdown_bytes(self, capsys):
        code, out, _ = run(capsys, "table", "polygonal")
        assert code == 0
        assert out == EXPECTED_POLYGONAL_MARKDOWN

    def test_polygonal_json(self, capsys):
        code, out, _ = run(capsys, "table", "polygonal", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_values"] == [3, 4, 5, 6, 7]
        assert payload["cells"][0] == {
            "m": 3, "rank": 3, "coefficient": 4, "published": 4, "match": True,
        }

    def test_third_order_markdown_flags(self, capsys):
        code, out, _ = run(capsys, "table", "third-order", "--k-max", "6")
        assert code == 0
        assert "| 3 | 849 [MATCH] | 31/2 [MISMATCH; published 31/9] |" in out
        assert out.count("[UNVERIFIED-CONVENTION") == 6
        assert "10049160 [MATCH]" in out

    def test_third_order_custom_start(self, capsys):
        code, out, _ = run(
            capsys, "table", "third-order", "--k-max", "2", "--n", "0",
            "--padovan-initial", "1,0,0", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["column", "k", "computed", "published", "status"]
        assert len(rows) == 1 + 6
        assert all(row[3] == "" for row in rows[1:])

    def test_bad_triple_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "third-order", "--padovan-initial", "1,2")
        assert code == 2

    def test_bad_k_max_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "table", "third-order", "--k-max", "0")
        assert code == 2

    @pytest.mark.parametrize("stray", [
        ("--k-max", "9"), ("--n", "7"), ("--padovan-initial", "1,0,0"),
    ])
    def test_polygonal_rejects_third_order_options(self, capsys, stray):
        code, out, err = run(capsys, "table", "polygonal", *stray)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {stray[0]}" in err

    @pytest.mark.parametrize("stray", [("--rank", "3..9"), ("--m", "4")])
    def test_third_order_rejects_polygonal_options(self, capsys, stray):
        code, out, err = run(capsys, "table", "third-order", *stray)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {stray[0]}" in err


class TestTermBudget:
    """`area`, `gen --count` and `table third-order` stop at MAX_TERM_INDEX."""

    def assert_refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(MAX_TERM_INDEX) in err

    def test_area_at_and_past_the_budget(self, capsys):
        n = MAX_TERM_INDEX - 5  # the triangle's last vertex index is n + 5k
        code, out, _ = run(
            capsys, "area", "fibonacci", "--n", str(n), "--k", "1", "--m", "3",
            "--method", "both",
        )
        assert code == 0
        assert out == "oracle: 1/2\nclosed: 1/2\nMATCH\n"
        self.assert_refused(
            capsys, "area", "fibonacci", "--n", str(n + 1), "--k", "1", "--m", "3"
        )

    def test_gen_at_and_past_the_budget(self, capsys):
        count = MAX_TERM_INDEX + 1  # indices 0 .. MAX_TERM_INDEX
        code, out, _ = run(
            capsys, "gen", "polygonal", "--rank", "3", "--count", str(count)
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == count
        assert lines[-1] == str(MAX_TERM_INDEX * (MAX_TERM_INDEX + 1) // 2)
        self.assert_refused(
            capsys, "gen", "polygonal", "--rank", "3", "--count", str(count + 1)
        )

    def test_third_order_table_at_and_past_the_budget(self, capsys):
        n = MAX_TERM_INDEX - 5  # k_max = 1 reaches n + 5
        code, out, _ = run(
            capsys, "table", "third-order", "--n", str(n), "--k-max", "1",
            "--format", "json",
        )
        assert code == 0
        assert [c["k"] for c in json.loads(out)["cells"]] == [1, 1, 1]
        self.assert_refused(
            capsys, "table", "third-order", "--n", str(n + 1), "--k-max", "1"
        )
        self.assert_refused(
            capsys, "table", "third-order", "--n", "0",
            "--k-max", str(MAX_TERM_INDEX // 5 + 1),
        )


class TestTableBudget:
    """`table polygonal` stops at MAX_TABLE_CELLS before it builds a cell."""

    def test_at_the_budget(self):
        table = polygonal_table(range(3, 4), range(3, 3 + MAX_TABLE_CELLS))
        assert len(table.cells) == MAX_TABLE_CELLS

    @pytest.mark.parametrize(
        "m, rank", [("3", f"3..{2 + MAX_TABLE_CELLS + 1}"), ("3..10000", "3..10000")]
    )
    def test_past_the_budget(self, capsys, m, rank):
        code, out, err = run(capsys, "table", "polygonal", "--m", m, "--rank", rank)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(MAX_TABLE_CELLS) in err


class TestThirdOrderCap:
    """`table third-order` stops at MAX_THIRD_ORDER_K before it fetches a term."""

    def test_at_the_cap(self):
        table = third_order_table(0, MAX_THIRD_ORDER_K)
        assert len(table.cells) == 3 * MAX_THIRD_ORDER_K

    def test_past_the_cap(self, capsys):
        code, out, err = run(
            capsys, "table", "third-order", "--n", "0",
            "--k-max", str(MAX_THIRD_ORDER_K + 1),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(MAX_THIRD_ORDER_K) in err


class TestArgumentHandling:
    def test_unknown_family(self, capsys):
        code, _, _ = run(capsys, "gen", "nonsense", "--count", "3")
        assert code == 2

    def test_generalized_requires_parameters(self, capsys):
        code, _, err = run(capsys, "gen", "generalized", "--count", "3")
        assert code == 2
        assert "--s" in err

    def test_polygonal_requires_rank(self, capsys):
        code, _, _ = run(capsys, "area", "polygonal", "--n", "1", "--k", "1", "--m", "3")
        assert code == 2

    def test_stray_parameters_rejected(self, capsys):
        code, _, err = run(capsys, "gen", "fibonacci", "--s", "1", "--count", "3")
        assert code == 2
        assert "generalized" in err

    def test_rank_below_three_rejected(self, capsys):
        code, _, _ = run(capsys, "gen", "polygonal", "--rank", "2", "--count", "3")
        assert code == 2

    def test_reversed_range_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "fibonacci", "--n", "5..3", "--k", "1", "--m", "3")
        assert code == 2

    def test_malformed_range_rejected(self, capsys):
        code, _, _ = run(capsys, "verify", "fibonacci", "--n", "x..y", "--k", "1", "--m", "3")
        assert code == 2

    def test_single_value_range(self, capsys):
        code, out, _ = run(
            capsys, "verify", "fibonacci", "--n", "3", "--k", "2", "--m", "4",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["pass_count"] == 1

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "fibonacci", "--n", "1..2", "--k", "1", "--m", "3",
            "--format", "json", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["fail_count"] == 0

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.md"
        code, out, err = run(
            capsys, "verify", "fibonacci", "--n", "0..2", "--k", "1..2", "--m", "3..4",
            "--out", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "seqarea", "area", "pell", "--n", "1", "--k", "1",
         "--m", "3", "--method", "both"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "oracle: 4\nclosed: 4\nMATCH\n"


# Every refusal the CLI makes after parsing: argv and its one stderr line.
REFUSALS = [
    # the term-index budget
    (["gen", "polygonal", "--rank", "3", "--count", str(MAX_TERM_INDEX + 2)],
     "request reaches sequence index 100001, beyond the 100000 term-index budget"),
    (["area", "fibonacci", "--n", str(MAX_TERM_INDEX - 4), "--k", "1", "--m", "3"],
     "request reaches sequence index 100001, beyond the 100000 term-index budget"),
    (["table", "third-order", "--n", str(MAX_TERM_INDEX - 4), "--k-max", "1"],
     "request reaches sequence index 100001, beyond the 100000 term-index budget"),
    (["table", "third-order", "--n", "0", "--k-max", "20001"],
     "request reaches sequence index 100005, beyond the 100000 term-index budget"),
    # the verify guardrail, the table-cell budget and the stride cap
    (["verify", "fibonacci", "--n", "0..400", "--k", "1", "--m", "3"],
     "grid reaches sequence index 405, beyond the 400 guardrail"),
    (["verify", "pell", "--n", "0", "--k", "1..100", "--m", "3"],
     "grid reaches sequence index 500, beyond the 400 guardrail"),
    (["table", "polygonal", "--m", "3", "--rank", f"3..{3 + MAX_TABLE_CELLS}"],
     "table has 160001 cells, beyond the 160000 table-cell budget"),
    # a range longer than sys.maxsize is counted, not measured with len()
    (["table", "polygonal", "--m", f"3..{10**20}"],
     "table has 499999999999999999990 cells, beyond the 160000 table-cell budget"),
    (["table", "polygonal", "--rank", f"3..{10**20}"],
     "table has 499999999999999999990 cells, beyond the 160000 table-cell budget"),
    (["table", "third-order", "--n", "0", "--k-max", str(MAX_THIRD_ORDER_K + 1)],
     "k_max 2001 is beyond the 2000 stride cap"),
    # the vertex domain
    (["area", "fibonacci", "--n", "-1", "--k", "1", "--m", "3"],
     "start index n must be >= 0, got -1"),
    (["area", "fibonacci", "--n", "1", "--k", "0", "--m", "3"],
     "stride k must be >= 1, got 0"),
    (["area", "polygonal", "--rank", "5", "--n", "1", "--k", "1", "--m", "2"],
     "vertex count m must be >= 3, got 2"),
    (["verify", "lucas", "--n=-2..1", "--k", "1", "--m", "3"],
     "start index n must be >= 0, got -2"),
    (["verify", "lucas", "--n", "1", "--k", "0..1", "--m", "3"],
     "stride k must be >= 1, got 0"),
    (["verify", "lucas", "--n", "1", "--k", "1", "--m", "2..3"],
     "vertex count m must be >= 3, got 2"),
    (["table", "polygonal", "--m", "2..4"], "vertex count m must be >= 3, got 2"),
    (["table", "polygonal", "--rank", "2..4"], "polygonal rank must be >= 3, got 2"),
    (["table", "third-order", "--n", "-1"], "start index n must be >= 0, got -1"),
    (["table", "third-order", "--k-max", "0"], "k_max must be >= 1, got 0"),
    (["gen", "fibonacci", "--count", "-2"], "--count must be >= 0, got -2"),
    # an empty --out names no file: refused, not read as stdout
    (["gen", "fibonacci", "--count", "3", "--out="],
     "[Errno 2] No such file or directory: ''"),
    # families without a closed form
    (["area", "tribonacci", "--n", "1", "--k", "1", "--m", "3", "--method", "closed"],
     "no closed form for tribonacci"),
    (["verify", "padovan", "--n", "1", "--k", "1", "--m", "3"],
     "no closed form for padovan(initial=1,1,1)"),
    # family parameters
    (["gen", "generalized", "--count", "3"], "family 'generalized' requires --s and --t"),
    (["gen", "generalized", "--t", "2", "--count", "3"],
     "family 'generalized' requires --s and --t"),
    (["gen", "polygonal", "--count", "3"], "family 'polygonal' requires --rank"),
    (["gen", "polygonal", "--rank", "2", "--count", "3"],
     "polygonal rank must be >= 3, got 2"),
    (["gen", "fibonacci", "--s", "1", "--count", "3"],
     "parameter 's' applies only to family 'generalized'"),
    (["area", "pell", "--t", "1", "--n", "1", "--k", "1", "--m", "3"],
     "parameter 't' applies only to family 'generalized'"),
    (["verify", "lucas", "--rank", "3", "--n", "1", "--k", "1", "--m", "3"],
     "parameter 'rank' applies only to family 'polygonal'"),
    (["gen", "tribonacci", "--initial-terms", "1,0,0", "--count", "3"],
     "parameter 'initial' applies only to family 'padovan'"),
    # two faults in one request: a missing flag wins over a stray one
    (["gen", "polygonal", "--s", "1", "--count", "3"],
     "family 'polygonal' requires --rank"),
    (["gen", "generalized", "--s", "1", "--t", "2", "--rank", "2", "--count", "3"],
     "parameter 'rank' applies only to family 'polygonal'"),
    (["gen", "polygonal", "--rank", "2", "--initial-terms", "1,0,0", "--count", "3"],
     "parameter 'initial' applies only to family 'padovan'"),
    (["table", "polygonal", "--m", "2..3", "--rank", "2..3"],
     "polygonal rank must be >= 3, got 2"),
    (["area", "fibonacci", "--n", "-1", "--k", "0", "--m", "2"],
     "start index n must be >= 0, got -1"),
    (["table", "third-order", "--n", "-1", "--k-max", "30000"],
     "request reaches sequence index 149999, beyond the 100000 term-index budget"),
    # a verify grid: no closed form, then the guardrail, then the domain
    (["verify", "tribonacci", "--n", "0..999", "--k", "1", "--m", "3"],
     "no closed form for tribonacci"),
    (["verify", "fibonacci", "--n", "0..999", "--k", "0", "--m", "3"],
     "grid reaches sequence index 999, beyond the 400 guardrail"),
]


@pytest.mark.parametrize("argv, line", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusal_line(capsys, argv, line):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {line}\n")


class TestSeparateNegativeValues:
    """A value that starts with a single ``-`` may be its own token."""

    @pytest.mark.parametrize("argv", [
        ["gen", "padovan", "--initial-terms", "-1,0,0", "--count", "6"],
        ["gen", "padovan", "--initial-terms=-1,0,0", "--count", "6"],
    ])
    def test_gen(self, capsys, argv):
        assert run(capsys, *argv) == (0, "-1\n0\n0\n-1\n0\n-1\n", "")

    def test_verify_refusal(self, capsys):
        argv = ["verify", "lucas", "--n", "-2..1", "--k", "1", "--m", "3"]
        line = dict((tuple(a), text) for a, text in REFUSALS)[
            ("verify", "lucas", "--n=-2..1", "--k", "1", "--m", "3")
        ]
        assert run(capsys, *argv) == (2, "", f"error: {line}\n")


# One option table serves every main() call in a process, and each call
# parses into a fresh namespace.  A corpus over every subcommand, all three
# formats, a usage error, a refusal and --help.
REUSE_CORPUS = [
    ["gen", "fibonacci", "--count", "12"],
    ["gen", "padovan", "--initial-terms", "1,0,0", "--count", "8", "--format", "csv"],
    ["gen", "polygonal", "--rank", "5", "--count", "6", "--format", "json"],
    ["area", "pell", "--n", "3", "--k", "2", "--m", "5", "--method", "both"],
    ["area", "polygonal", "--rank", "4", "--n", "1", "--k", "1", "--m", "4",
     "--method", "closed", "--format", "json"],
    ["verify", "lucas", "--n", "0..3", "--k", "1..2", "--m", "3..4"],
    ["verify", "jacobsthal", "--n", "1..2", "--k", "1", "--m", "3..5", "--format", "csv"],
    ["verify", "fibonacci", "--n", "a..b", "--k", "1", "--m", "3"],
    ["table", "polygonal", "--m", "3..5", "--rank", "3..6", "--format", "json"],
    ["table", "third-order", "--k-max", "4", "--padovan-initial", "2,1,1"],
    ["table", "third-order", "--k-max", "3", "--format", "csv"],
    ["gen", "polygonal", "--rank", "2", "--count", "3"],
    ["--help"],
]


def _run_corpus(capsys, corpus):
    return {tuple(argv): run(capsys, *argv) for argv in corpus}


class TestParserReuse:
    def test_corpus_is_order_independent(self, capsys):
        forward = _run_corpus(capsys, REUSE_CORPUS)
        backward = _run_corpus(capsys, REUSE_CORPUS[::-1])
        again = _run_corpus(capsys, REUSE_CORPUS)
        assert forward == backward == again
        codes = sorted(code for code, _, _ in forward.values())
        assert codes == [0] * 11 + [2, 2]

    @pytest.mark.parametrize("argv", [REUSE_CORPUS[5], REUSE_CORPUS[8]])
    def test_corpus_matches_a_fresh_process(self, capsys, argv):
        run(capsys, *REUSE_CORPUS[1])  # the in-process parser has served before
        result = subprocess.run(
            [sys.executable, "-m", "seqarea", *argv], capture_output=True, text=True
        )
        assert run(capsys, *argv) == (result.returncode, result.stdout, result.stderr)

    @pytest.mark.parametrize(
        "first, second",
        [
            (["gen", "padovan", "--initial-terms", "1,0,0", "--count", "6"],
             ["gen", "padovan", "--count", "6"]),
            (["table", "third-order", "--padovan-initial", "2,1,1"],
             ["table", "third-order"]),
        ],
    )
    def test_options_do_not_leak(self, capsys, first, second):
        fresh = subprocess.run(
            [sys.executable, "-m", "seqarea", *second], capture_output=True, text=True
        )
        run(capsys, *first)
        assert run(capsys, *second) == (fresh.returncode, fresh.stdout, fresh.stderr)

    def test_out_does_not_leak(self, tmp_path, capsys):
        argv = ["verify", "fibonacci", "--n", "1..2", "--k", "1", "--m", "3"]
        code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "a.md"))
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (tmp_path / "a.md").read_text()

    def test_threads_share_the_parser(self, tmp_path):
        argv = ["verify", "pell", "--n", "0..4", "--k", "1..3", "--m", "3..5",
                "--format", "csv"]
        paths = [tmp_path / f"{i}.csv" for i in range(16)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(cli.main, [*argv, "--out", str(p)]) for p in paths]
                codes = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(previous)
        assert codes == [0] * 16
        texts = {p.read_text() for p in paths}
        assert len(texts) == 1 and texts.pop().startswith("family,n,k,m,")
