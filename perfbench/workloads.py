"""The benchmark's three workloads: request lists, warm-up and execution.

Every list is drawn from the seed alone, so it is the same on every commit.
Each list is stratified: its slots (family, format, grid shape or index
level) are fixed and the seed only moves a request inside its slot, so the
cost of a round hardly depends on the seed.

* ``verify-grid`` runs ``seqarea.cli.main(["verify", ...])`` in-process with
  stdout captured to memory, plus a few ``table`` requests.
* ``area-large-n`` runs ``area`` at start indices in the tens of thousands,
  each in a child forked from a process that touched no large index, because
  the term store is process-wide and keeps every prefix.
* ``qfield-crosscheck`` calls the library: the general Q(sqrt d) forms
  against the family forms, and Binet against the recurrence.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import resource
import traceback

import reference as ref
import seqarea
from tracing import KEEP_SPANS
from seqarea import cli

FORMATS = ("markdown", "csv", "json")
GRID_FAMILIES = (
    "fibonacci", "lucas", "generalized", "pell", "pell-lucas", "polygonal",
    "jacobsthal", "jacobsthal-lucas",
)
BOTH_FAMILIES = ("fibonacci", "lucas", "generalized", "pell", "pell-lucas", "polygonal")
# Two generalized families, so a round averages over two seed-drawn (s, t).
QFIELD_FAMILIES = ("fibonacci", "lucas", "generalized", "generalized", "pell",
                   "pell-lucas")

# An area the program computes but cannot print: the exact tribonacci oracle
# at n = 34000 has more than 4300 digits, Python's default limit for int ->
# str, and `area` exits 2.  Its inputs do not depend on the seed, so it fails
# the same way in every round of every run.
KNOWN_FAILURE = ["area", "tribonacci", "--n", "34000", "--k", "3", "--m", "3",
                 "--method", "oracle"]


class Request:
    """One operation: what to run, how many cells it checks, how to check it."""

    def __init__(self, label, cells, check, argv=None, call=None):
        self.label, self.cells, self.check = label, cells, check
        self.argv, self.call = argv, call


class Outcome:
    def __init__(self, ms, rc, out, err, rss_kb=0, trace=None):
        self.ms, self.rc, self.out, self.err = ms, rc, out, err
        self.rss_kb, self.trace = rss_kb, trace


def _family(rng, name):
    if name == "generalized":
        return ref.Family(name, s=rng.randint(1, 6), t=rng.randint(1, 6))
    if name == "polygonal":
        return ref.Family(name, rank=rng.randint(3, 12))
    return ref.Family(name)


def _span(lo, count):
    return range(lo, lo + count)


def verify_request(fam, ns, ks, ms, fmt):
    argv = ["verify", *fam.cli_args(), "--n", f"{ns[0]}..{ns[-1]}",
            "--k", f"{ks[0]}..{ks[-1]}", "--m", f"{ms[0]}..{ms[-1]}", "--format", fmt]
    return Request(
        f"verify {fam.label} {len(ns) * len(ks) * len(ms)} cells {fmt}",
        len(ns) * len(ks) * len(ms),
        lambda checker, o: checker.check_verify(fam, ns, ks, ms, fmt, o.rc, o.out),
        argv=argv,
    )


def verify_grid_requests(rng):
    """79 requests, about 18,000 cells."""
    reqs = [
        # The full 3,360-cell guardrail grid, index n + (2m-1)k up to 400.
        verify_request(ref.Family("fibonacci"), range(0, 21), range(1, 21),
                        range(3, 11), fmt)
        for fmt in FORMATS
    ]
    for name in GRID_FAMILIES:
        for fmt in FORMATS:
            fam = _family(rng, name)
            # 300 cells reaching index <= 25 + 17*20 = 365.
            reqs.append(verify_request(
                fam, _span(rng.randint(0, 20), 6), _span(rng.randint(1, 11), 10),
                range(3, 8), fmt))
            # Two 18-cell grids anywhere under the guardrail.
            for m_lo in (3, 6):
                while True:
                    n_lo, k_lo = rng.randint(0, 120), rng.randint(1, 30)
                    if n_lo + 2 + (2 * m_lo + 1) * (k_lo + 2) <= 400:
                        break
                reqs.append(verify_request(
                    fam, _span(n_lo, 3), _span(k_lo, 3), _span(m_lo, 2), fmt))
    for _ in range(2):
        m_values = _span(rng.randint(3, 5), rng.randint(3, 5))
        ranks = _span(rng.randint(3, 6), rng.randint(3, 6))
        fmt = rng.choice(FORMATS)
        reqs.append(Request(
            f"table polygonal {fmt}", len(m_values) * len(ranks),
            lambda c, o, mv=m_values, rk=ranks, f=fmt:
                c.check_polygonal_table(mv, rk, f, o.rc, o.out),
            argv=["table", "polygonal", "--m", f"{m_values[0]}..{m_values[-1]}",
                  "--rank", f"{ranks[0]}..{ranks[-1]}", "--format", fmt]))
    for _ in range(2):
        k_max, fmt = rng.randint(6, 12), rng.choice(FORMATS)
        reqs.append(Request(
            f"table third-order {fmt}", 3 * k_max,
            lambda c, o, km=k_max, f=fmt: c.check_third_order(km, f, o.rc, o.out),
            argv=["table", "third-order", "--k-max", str(k_max), "--format", fmt]))
    rng.shuffle(reqs)
    return reqs


def _area_request(fam, n, k, m, method, fmt):
    argv = ["area", *fam.cli_args(), "--n", str(n), "--k", str(k), "--m", str(m),
            "--method", method, "--format", fmt]
    return Request(
        f"area {fam.label} n={n} {method}", 1,
        lambda checker, o: checker.check_area(fam, n, k, m, method, fmt, o.rc, o.out),
        argv=argv,
    )


def area_large_n_requests(rng):
    """41 requests: 36 `--method both`, 4 third-order oracles, 1 known failure."""
    reqs = []
    # Start indices step evenly through 5000..35000 and the families take
    # turns, so request costs form a continuum and no quantile sits on a gap.
    for slot in range(36):
        name = BOTH_FAMILIES[slot % len(BOTH_FAMILIES)]
        reqs.append(_area_request(
            _family(rng, name), 5000 + 833 * slot + rng.randrange(200),
            rng.randint(1, 20), rng.randint(3, 10), "both", FORMATS[2 * (slot // 6 % 2)]))
    # Kept below n = 24000 for tribonacci so the oracle stays printable; the
    # fixed request below shows what happens past that.
    for name, levels in (("tribonacci", (10000, 20000)), ("perrin", (15000, 30000))):
        for n_base in levels:
            reqs.append(_area_request(
                ref.Family(name), n_base + rng.randrange(2000), rng.randint(1, 6),
                rng.randint(3, 5), "oracle", "markdown"))
    reqs.append(Request(
        "area tribonacci n=34000 oracle (known failure)", 1,
        lambda checker, o: checker.check_area(
            ref.Family("tribonacci"), 34000, 3, 3, "oracle", "markdown", o.rc, o.out),
        argv=list(KNOWN_FAILURE)))
    rng.shuffle(reqs)
    return reqs


def _seqarea_family(fam):
    if fam.name == "generalized":
        return seqarea.SequenceFamily.generalized(fam.s, fam.t)
    return {
        "fibonacci": seqarea.SequenceFamily.fibonacci,
        "lucas": seqarea.SequenceFamily.lucas,
        "pell": seqarea.SequenceFamily.pell,
        "pell-lucas": seqarea.SequenceFamily.pell_lucas,
    }[fam.name]()


def _equal_to(want, *got):
    return [] if all(g == want for g in got) else [f"{got} != reference {want}"]


def qfield_requests(rng):
    """84 requests: per family 6 m-gon, 4 triangle and 4 Binet checks."""
    reqs = []
    for name in QFIELD_FAMILIES:
        fam = _family(rng, name)
        for k_base, m in ((2, 3), (4, 5), (7, 4), (10, 6), (14, 8), (18, 10)):
            k = k_base + rng.randrange(3)

            def call(fam=fam, k=k, m=m):
                family = _seqarea_family(fam)
                params = seqarea.binet_params(family)
                return (seqarea.general_mgon_area(params, k, m),
                        seqarea.mgon_area(family, k, m))

            reqs.append(Request(
                f"mgon {fam.label} k={k} m={m}", 1,
                lambda c, o, fam=fam, k=k, m=m:
                    _equal_to(ref.mgon_formula(fam, k, m), *o.out),
                call=call))
        for k_base in (2, 6, 12, 20):
            k, n = k_base + rng.randrange(3), rng.randint(0, 400)

            def call(fam=fam, k=k, n=n):
                family = _seqarea_family(fam)
                params = seqarea.binet_params(family)
                general = seqarea.general_triangle_area(params, n, k).to_rational()
                return abs(general), seqarea.closed_triangle_area(family, k).area

            reqs.append(Request(
                f"triangle {fam.label} n={n} k={k}", 1,
                lambda c, o, fam=fam, k=k: _equal_to(ref.mgon_formula(fam, k, 3), *o.out),
                call=call))
        for n_base in (40, 120, 240, 380):
            n = n_base + rng.randrange(20)

            def call(fam=fam, n=n):
                family = _seqarea_family(fam)
                params = seqarea.binet_params(family)
                return (seqarea.binet_eval(params, n),
                        seqarea.term(seqarea.preset(family), n))

            reqs.append(Request(
                f"binet {fam.label} n={n}", 0,
                lambda c, o, fam=fam, n=n: _equal_to(fam.terms(n, 1)[0], *o.out),
                call=call))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# Warm-up: the same, seed-free steps in a set-up probe and before timing.


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def warm_up(workload):
    if workload == "verify-grid":
        for fmt in FORMATS:
            for name in GRID_FAMILIES:
                extra = {"generalized": ["--s", "2", "--t", "3"],
                         "polygonal": ["--rank", "5"]}.get(name, [])
                _quiet_main(["verify", name, *extra, "--n", "0..2", "--k", "1..2",
                             "--m", "3..4", "--format", fmt])
            _quiet_main(["table", "polygonal", "--format", fmt])
            _quiet_main(["table", "third-order", "--format", fmt])
    elif workload == "area-large-n":
        for fmt in FORMATS:
            _quiet_main(["area", "fibonacci", "--n", "10", "--k", "2", "--m", "4",
                         "--method", "both", "--format", fmt])
            _quiet_main(["area", "perrin", "--n", "10", "--k", "2", "--m", "3",
                         "--format", fmt])
    else:
        for make in (seqarea.SequenceFamily.fibonacci, seqarea.SequenceFamily.pell):
            family = make()
            params = seqarea.binet_params(family)
            seqarea.general_mgon_area(params, 3, 4)
            seqarea.general_triangle_area(params, 1, 3).to_rational()
            seqarea.binet_eval(params, 30)
            seqarea.mgon_area(family, 3, 4)


# ---------------------------------------------------------------------------
# Execution


def run_inprocess(req, clock, tracer=None):
    """Run one request in this process, timing only the program's call."""
    out_buf, err_buf = io.StringIO(), io.StringIO()
    rc, out = None, None
    if tracer is not None:
        tracer.begin_request()
    t0 = clock()
    try:
        if req.argv is not None:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                rc = cli.main(req.argv)
            out = out_buf.getvalue()
        else:
            out, rc = req.call(), 0
    except Exception:  # a crash is a failed operation, not a benchmark error
        err_buf.write(traceback.format_exc())
    ms = (clock() - t0) * 1e3
    if tracer is not None:
        tracer.end_request()
    return Outcome(ms, rc, out, err_buf.getvalue())


def run_forked(req, clock, tracer=None, keep=False, request_id=0):
    """Run one CLI request in a forked child and collect its outcome."""
    # Frozen objects are skipped by the collector, so a child's collections do
    # not touch (and copy) every page it shares with this process.
    gc.freeze()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read_fd)
            if tracer is not None:
                tracer.new_round()
                tracer.kept = []
            outcome = run_inprocess(req, clock, tracer)
            payload = {
                "ms": outcome.ms, "rc": outcome.rc, "out": outcome.out,
                "err": outcome.err,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                "trace": tracer.fold(keep, request_id) if tracer is not None else None,
                "kept": tracer.kept if tracer is not None else [],
            }
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return Outcome(0.0, None, None, f"child exited with status {status}")
    payload = json.loads(data)
    if tracer is not None:
        room = max(0, KEEP_SPANS - len(tracer.kept))
        tracer.kept.extend(tuple(span) for span in payload["kept"][:room])
    return Outcome(payload["ms"], payload["rc"], payload["out"], payload["err"],
                   payload["rss_kb"], payload["trace"])


# Workload -> (request list maker, runner).
WORKLOADS = {
    "verify-grid": (verify_grid_requests, run_inprocess),
    "area-large-n": (area_large_n_requests, run_forked),
    "qfield-crosscheck": (qfield_requests, run_inprocess),
}


def requests_for(workload, seed):
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"))

