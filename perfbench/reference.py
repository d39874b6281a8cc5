"""Independent reference for checking seqarea's outputs.

Nothing here imports seqarea.  Terms come from plain loops over the
recurrences, with fast doubling (second order) or companion-matrix powering
(third order) to jump to large start indices.  Areas come from a separate
shoelace and from the paper's formulas, copied out on their own:

* Fibonacci-type and Pell-type m-gons share the core
  |(m-1)*S(k)*S(2k) - S(k)*S((2m-2)k)|, with S the Fibonacci or Pell numbers,
  times 1/2 (Fibonacci, Pell), 5/2 (Lucas), 4 (Pell-Lucas) or
  |s^2+st-t^2|/2 (generalized, G0 = t-s, G1 = s);
* polygonal m-gons have area 4*C(m,3)*(rank-2)^2*k^4;
* every Jacobsthal and Jacobsthal-Lucas polygon is degenerate (area 0);
* the published tribonacci triangle row at n = 1 is 3, 64, 849, 23360,
  509729, 10049160, and the published Perrin k = 3 entry (31/9) is a misprint
  that must stay flagged MISMATCH.

The ``check_*`` functions take a request and what the program printed and
return a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

# (coefficients c1..c_order, initial terms f(0)..f(order-1))
RECURRENCES = {
    "fibonacci": ((1, 1), (0, 1)),
    "lucas": ((1, 1), (2, 1)),
    "pell": ((2, 1), (0, 1)),
    "pell-lucas": ((2, 1), (2, 2)),
    "jacobsthal": ((1, 2), (0, 1)),
    "jacobsthal-lucas": ((1, 2), (2, 1)),
    "tribonacci": ((1, 1, 1), (0, 1, 1)),
    "perrin": ((0, 1, 1), (3, 0, 2)),
}

PUBLISHED_TRIBONACCI = {1: 3, 2: 64, 3: 849, 4: 23360, 5: 509729, 6: 10049160}
PERRIN_MISPRINT = (3, Fraction(31, 9))
POLYGONAL_PUBLISHED_M = range(3, 8)
POLYGONAL_PUBLISHED_RANK = range(3, 8)

# Below this index a plain loop from f(0) is cheap enough.
JUMP_THRESHOLD = 2000


class Family:
    """One sequence: name plus s, t (generalized) or rank (polygonal)."""

    def __init__(self, name, s=None, t=None, rank=None, initial=None):
        self.name, self.s, self.t, self.rank = name, s, t, rank
        if name == "generalized":
            self.coeffs, self.initial = (1, 1), (t - s, s)
        elif name == "padovan":
            self.coeffs, self.initial = (0, 1, 1), tuple(initial or (1, 1, 1))
        elif name != "polygonal":
            self.coeffs, self.initial = RECURRENCES[name]

    @property
    def label(self):
        if self.name == "generalized":
            return f"generalized(s={self.s},t={self.t})"
        if self.name == "polygonal":
            return f"polygonal(rank={self.rank})"
        if self.name == "padovan":
            return "padovan(initial=" + ",".join(map(str, self.initial)) + ")"
        return self.name

    def cli_args(self):
        if self.name == "generalized":
            return [self.name, "--s", str(self.s), "--t", str(self.t)]
        if self.name == "polygonal":
            return [self.name, "--rank", str(self.rank)]
        return [self.name]

    def terms(self, start, count):
        """f(start), ..., f(start + count - 1)."""
        if self.name == "polygonal":
            r = self.rank
            return [
                i * (i * (r - 2) - (r - 4)) // 2 for i in range(start, start + count)
            ]
        order = len(self.coeffs)
        if start < JUMP_THRESHOLD:
            window = list(self.initial)
            first = 0
        else:
            window = _jump(self.coeffs, self.initial, start)
            first = start
        out = []
        i = first
        while len(out) < count:
            if i >= start:
                out.append(window[0])
            nxt = sum(c * window[order - 1 - j] for j, c in enumerate(self.coeffs))
            window = window[1:] + [nxt]
            i += 1
        return out


def _lucas_u_pair(p, q, n):
    """(U(n), U(n+1)) of the Lucas sequence U(P, Q) by fast doubling."""
    a, b = 0, 1  # U(0), U(1)
    for bit in bin(n)[2:]:
        # (U(j), U(j+1)) -> (U(2j), U(2j+1))
        a, b = a * (2 * b - p * a), b * b - q * a * a
        if bit == "1":
            a, b = b, p * b - q * a
    return a, b


def _mat_mul(x, y):
    return [
        [sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)] for i in range(3)
    ]


def _jump(coeffs, initial, start):
    """The window f(start), ..., f(start + order - 1)."""
    if len(coeffs) == 2:
        c1, c2 = coeffs
        a0, a1 = initial
        u_prev, u = _lucas_u_pair(c1, -c2, start - 1)
        u_next = c1 * u + c2 * u_prev
        # f(n) = a1*U(n) + c2*a0*U(n-1) for any f with these coefficients.
        return [a1 * u + c2 * a0 * u_prev, a1 * u_next + c2 * a0 * u]
    # Third order: the companion matrix maps (f(i+2), f(i+1), f(i)) one step on.
    c1, c2, c3 = coeffs
    result = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    base = [[c1, c2, c3], [1, 0, 0], [0, 1, 0]]
    e = start
    while e:
        if e & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        e >>= 1
    f0, f1, f2 = initial
    col = (f2, f1, f0)
    # result * (f2, f1, f0) = (f(start+2), f(start+1), f(start))
    top = [sum(result[i][j] * col[j] for j in range(3)) for i in range(3)]
    return [top[2], top[1], top[0]]


def shoelace(points):
    twice = 0
    count = len(points)
    for i in range(count):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % count]
        twice += x1 * y2 - x2 * y1
    return Fraction(abs(twice), 2)


def polygon_area(family, n, k, m, cache=None):
    """Shoelace area of vertices (f(n+2ik), f(n+(2i+1)k)), i = 0..m-1."""
    span = (2 * m - 1) * k + 1
    if cache is not None:
        vals = cache.get(family.label)
        if vals is None or len(vals) < n + span:
            vals = family.terms(0, max(n + span, 401))
            cache[family.label] = vals
        get = vals.__getitem__
        points = [(get(n + 2 * i * k), get(n + (2 * i + 1) * k)) for i in range(m)]
    else:
        vals = family.terms(n, span)
        points = [(vals[2 * i * k], vals[(2 * i + 1) * k]) for i in range(m)]
    return shoelace(points)


_FIB = Family("fibonacci")
_PELL = Family("pell")


def _core(base, k, m):
    s_k, s_2k, s_span = (base.terms(i, 1)[0] for i in (k, 2 * k, (2 * m - 2) * k))
    return abs((m - 1) * s_k * s_2k - s_k * s_span)


def mgon_formula(family, k, m):
    """The paper's closed area, or None where the family has none."""
    name = family.name
    if name in ("fibonacci", "lucas", "generalized"):
        core = _core(_FIB, k, m)
        if name == "fibonacci":
            return Fraction(core, 2)
        if name == "lucas":
            return Fraction(5 * core, 2)
        s, t = family.s, family.t
        return Fraction(abs(s * s + s * t - t * t) * core, 2)
    if name == "pell":
        return Fraction(_core(_PELL, k, m), 2)
    if name == "pell-lucas":
        return Fraction(4 * _core(_PELL, k, m))
    if name == "polygonal":
        return Fraction(4 * math.comb(m, 3) * (family.rank - 2) ** 2 * k**4)
    if name in ("jacobsthal", "jacobsthal-lucas"):
        return Fraction(0)
    return None


# ---------------------------------------------------------------------------
# Output parsing


def _md_row(line):
    return [c.strip() for c in line.strip().strip("|").split("|")]


def _md_table(lines):
    """Header and body rows of the first markdown table in ``lines``."""
    start = next(i for i, line in enumerate(lines) if line.startswith("| "))
    header = _md_row(lines[start])
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("| "):
            break
        rows.append(_md_row(line))
    return header, rows


def _frac(text):
    return None if text in (None, "") else Fraction(text)


def parse_report(text, fmt):
    """A verify report as (grid label or None, pass, fail or None, cells)."""
    if fmt == "json":
        data = json.loads(text)
        cells = [
            (c["family"], c["n"], c["k"], c["m"], _frac(c["oracle"]),
             _frac(c["closed"]), c["match"], c["note"])
            for c in data["cells"]
        ]
        return data["grid"], data["pass_count"], data["fail_count"], cells
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["family", "n", "k", "m", "oracle", "closed", "match", "note"]:
            raise ValueError(f"unexpected csv header {rows[0]}")
        cells = [
            (r[0], int(r[1]), int(r[2]), int(r[3]), _frac(r[4]), _frac(r[5]),
             {"true": True, "false": False}[r[6]], r[7])
            for r in rows[1:]
        ]
        return None, None, None, cells
    lines = text.splitlines()
    grid = lines[0].removeprefix("grid: ")
    passed = int(lines[1].removeprefix("pass_count: "))
    failed = int(lines[2].removeprefix("fail_count: "))
    header, rows = _md_table(lines)
    if header != ["n", "k", "m", "oracle", "closed", "match", "note"]:
        raise ValueError(f"unexpected markdown header {header}")
    cells = [
        (None, int(r[0]), int(r[1]), int(r[2]), _frac(r[3]), _frac(r[4]),
         {"MATCH": True, "MISMATCH": False}[r[5]], r[6])
        for r in rows
    ]
    return grid, passed, failed, cells


# ---------------------------------------------------------------------------
# Checks


class Checker:
    """Holds the reference's own term lists, so grids index plain lists."""

    def __init__(self):
        self.cache = {}

    def check_verify(self, family, ns, ks, ms, fmt, rc, out):
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        grid, passed, failed, cells = parse_report(out, fmt)
        expected = [(n, k, m) for n in ns for k in ks for m in ms]
        label = (
            f"family={family.label} n={ns[0]}..{ns[-1]} "
            f"k={ks[0]}..{ks[-1]} m={ms[0]}..{ms[-1]}"
        )
        if grid is not None and grid != label:
            problems.append(f"grid label {grid!r}, expected {label!r}")
        if passed is not None and (passed, failed) != (len(expected), 0):
            problems.append(f"pass/fail counts {passed}/{failed}")
        if [(c[1], c[2], c[3]) for c in cells] != expected:
            return problems + ["cells differ from the requested grid"]
        collinear = family.name in ("jacobsthal", "jacobsthal-lucas")
        formula, by_shape = {}, {}
        for fam, n, k, m, oracle, closed, match, note in cells:
            want = formula.get((k, m))
            if want is None:
                want = formula[(k, m)] = mgon_formula(family, k, m)
            if oracle != polygon_area(family, n, k, m, self.cache):
                problems.append(f"oracle {oracle} wrong at n={n} k={k} m={m}")
            if closed != want or match is not True:
                problems.append(f"closed {closed} / match {match} at n={n} k={k} m={m}")
            if fam is not None and fam != family.label:
                problems.append(f"family label {fam!r}")
            if note != ("collinear" if collinear else ""):
                problems.append(f"note {note!r} at n={n} k={k} m={m}")
            # Property of the method: the area does not depend on n.
            if by_shape.setdefault((k, m), oracle) != oracle:
                problems.append(f"area changes with n at k={k} m={m}")
        return problems

    def check_area(self, family, n, k, m, method, fmt, rc, out):
        want = polygon_area(family, n, k, m)
        closed_want = mgon_formula(family, k, m)
        if method == "both" and closed_want != want:
            return [f"reference disagrees with itself at {family.label} n={n}"]
        if fmt == "json":
            data = json.loads(out)
            oracle, closed = _frac(data.get("oracle")), _frac(data.get("closed"))
            verdict = data.get("match")
        else:
            lines = out.splitlines()
            if method == "both":
                oracle = Fraction(lines[0].removeprefix("oracle: "))
                closed = Fraction(lines[1].removeprefix("closed: "))
                verdict = {"MATCH": True, "MISMATCH": False}[lines[2]]
            else:
                oracle, closed, verdict = Fraction(lines[0]), None, None
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}, expected 0")
        if oracle != want:
            problems.append(f"oracle {oracle}, expected {want}")
        if method == "both" and (closed != closed_want or verdict is not True):
            problems.append(f"closed {closed} / verdict {verdict}")
        return problems

    def check_polygonal_table(self, m_values, ranks, fmt, rc, out):
        problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
        want = {
            (m, r): 4 * math.comb(m, 3) * (r - 2) ** 2 for m in m_values for r in ranks
        }
        published = {
            key for key in want
            if key[0] in POLYGONAL_PUBLISHED_M and key[1] in POLYGONAL_PUBLISHED_RANK
        }
        if fmt == "json":
            cells = json.loads(out)["cells"]
            got = {(c["m"], c["rank"]): c["coefficient"] for c in cells}
            flags = {(c["m"], c["rank"]): (c["published"], c["match"]) for c in cells}
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))[1:]
            got = {(int(r[0]), int(r[1])): int(r[2]) for r in rows}
            flags = {
                (int(r[0]), int(r[1])): (_int_or_none(r[3]), _bool_or_none(r[4]))
                for r in rows
            }
        else:
            lines = out.splitlines()
            header, rows = _md_table(lines)
            if header[0] != "m" or len(header) != 1 + len(ranks):
                problems.append(f"markdown header {header}")
            got = {
                (int(row[0]), r): int(v) for row in rows for r, v in zip(ranks, row[1:])
            }
            if published:
                summary = f"published check: {len(published)}/{len(published)} cells match"
            else:
                summary = "published check: no reference cells in range"
            if lines[-1] != summary:
                problems.append(f"summary line {lines[-1]!r}")
            flags = None
        if got != want:
            problems.append("polygonal coefficients differ from 4*C(m,3)*(rank-2)^2")
        if flags is not None:
            for key, value in want.items():
                expect = (value, True) if key in published else (None, None)
                if flags.get(key) != expect:
                    problems.append(f"published/match {flags.get(key)} at {key}")
        return problems

    def check_third_order(self, k_max, fmt, rc, out):
        problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
        columns = ("tribonacci", "perrin", "padovan")
        families = {c: Family(c) for c in columns}
        cells = {}
        if fmt == "json":
            for c in json.loads(out)["cells"]:
                cells[(c["column"], c["k"])] = (
                    _frac(c["computed"]), _frac(c["published"]), c["status"]
                )
        elif fmt == "csv":
            for r in list(csv.reader(io.StringIO(out)))[1:]:
                cells[(r[0], int(r[1]))] = (_frac(r[2]), _frac(r[3]), r[4])
        else:
            _, rows = _md_table(out.splitlines())
            pattern = re.compile(r"^(\S+)(?: \[([^;\]]+)(?:; published (\S+))?\])?$")
            for row in rows:
                for column, text in zip(columns, row[1:]):
                    hit = pattern.match(text)
                    if hit is None:
                        problems.append(f"unparsed cell {text!r}")
                        continue
                    value, status, pub = hit.groups()
                    cells[(column, int(row[0]))] = (
                        Fraction(value), _frac(pub), status or ""
                    )
        if sorted(cells) != sorted((c, k) for c in columns for k in range(1, k_max + 1)):
            return problems + ["third-order cells differ from k = 1..k_max"]
        for (column, k), (computed, pub, status) in cells.items():
            if computed != polygon_area(families[column], 1, k, 3, self.cache):
                problems.append(f"{column} k={k} computed {computed}")
            if column == "padovan":
                if status != "UNVERIFIED-CONVENTION":
                    problems.append(f"padovan k={k} status {status!r}")
                continue
            if column == "tribonacci" and k in PUBLISHED_TRIBONACCI:
                if computed != PUBLISHED_TRIBONACCI[k]:
                    problems.append(f"tribonacci k={k} differs from the published row")
            if (column, k) == ("perrin", PERRIN_MISPRINT[0]):
                expect = ("MISMATCH", PERRIN_MISPRINT[1])
            elif k <= 6:
                # Markdown prints the published value only when it differs.
                expect = ("MATCH", computed if fmt != "markdown" else None)
            else:
                expect = ("", None)
            if (status, pub) != expect:
                problems.append(f"{column} k={k} status/published {(status, pub)}")
        return problems


def _int_or_none(text):
    return None if text == "" else int(text)


def _bool_or_none(text):
    return {"": None, "true": True, "false": False}[text]


def calibration_work():
    """A fixed slice of pure-Python work (term loops, shoelace, Fractions).

    The benchmark times it between requests to follow the machine's speed;
    it is benchmark code, so no change to seqarea can move it.
    """
    pell = Family("pell")
    total = Fraction(0)
    for _ in range(6):
        for k in (1, 2, 3, 4):
            total += polygon_area(pell, 10 + k, k, 8) + mgon_formula(pell, k, 8)
    return total



def memory_calibration_work():
    """Like an ``area`` request at large n, in a fresh fork: build and keep a
    long prefix of big terms (about 8 MB), paying the same page faults."""
    Family("pell").terms(0, 12000)
