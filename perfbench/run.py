"""seqarea benchmark: one workload, timed, checked, one JSON line of metrics.

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Runs from the root of a seqarea checkout and imports the package from its
``src`` directory.  With ``--trace 0`` it reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics, writing the traced spans to ``perfbench/out``.  See
README.md for the workloads, the metrics and the steadiness evidence.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

# Fresh interpreters timed for setup_s (after one untimed start that writes
# the bytecode cache): a few before the timed rounds, then one between rounds
# whenever a twelfth of the run has passed since the last, the rest after.
SETUP_PROBES = 16
SETUP_PROBES_BEFORE = 4
MIN_SAMPLES = 100  # every run times this many requests or more: p90 has 10 beyond
CALIBRATE_EVERY_S = 0.05  # a calibration slice after a request ending this long after the last
NEAREST = 9  # calibration slices whose median scales one time


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-grid", "area-large-n", "qfield-crosscheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _start(args):
    """Milliseconds until a fresh interpreter prints its first line."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-E", "-S", *args],
                             stdout=subprocess.PIPE, cwd=ROOT, text=True)
    line = child.stdout.readline()
    elapsed = (time.perf_counter() - t0) * 1e3
    child.stdout.close()
    if child.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"interpreter start failed with exit code {child.returncode}")
    return elapsed


def measure_setup(workload, probes, bare):
    """Seconds from starting a fresh interpreter to warm-up done, per probe.

    ``-E -S`` keeps the host's environment variables and site-packages hooks
    out of the figure; seqarea needs neither.  Without ``-E`` a
    PYTHONDONTWRITEBYTECODE in the environment would make every probe compile.
    Each probe follows a bare interpreter start timed into ``bare``, and is
    scaled by it (see Speed).
    """
    samples = []
    for _ in range(probes):
        bare.tick()
        ms = _start([os.path.join(HERE, "warm.py"), workload])
        samples.append(ms * bare.factor(time.perf_counter()) / 1e3)
    return samples


class Speed:
    """Calibration slices timed through the run, to follow the machine's speed.

    The host's speed drifts by up to 1.6x within minutes (other tenants on the
    same cores).  ``measure()`` times one fixed slice of benchmark code that
    no seqarea change can move, in milliseconds.  ``factor(t)`` is ``ref_ms``
    over the median of the NEAREST slices nearest in time to ``t``; a time
    multiplied by it is the time the same work would take on a machine where
    one slice takes ``ref_ms``.
    """

    def __init__(self, measure, ref_ms):
        self.measure, self.ref_ms = measure, ref_ms
        self.at, self.ms = [], []

    def tick(self):
        ms = self.measure()
        self.at.append(time.perf_counter())
        self.ms.append(ms)

    def maybe_tick(self):
        if not self.at or time.perf_counter() - self.at[-1] > CALIBRATE_EVERY_S:
            self.tick()

    def factor(self, t):
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return self.ref_ms / statistics.median(self.ms[lo:lo + NEAREST])


def speeds(reference, workloads, forked):
    """The calibration for request times and the one for set-up probes.

    In-process requests are pure-Python work and follow a CPU slice.  Forked
    requests and set-up probes go largely to page faults in a fresh address
    space, which a CPU slice does not follow; they follow a forked slice that
    builds and keeps a long prefix of big terms, and a bare interpreter
    start, respectively.
    """
    if forked:
        slice_req = workloads.Request("calibration", 0, None,
                                      call=reference.memory_calibration_work)
        requests = Speed(lambda: workloads.run_forked(slice_req, time.perf_counter).ms,
                         45.0)
    else:
        def cpu_slice():
            t0 = time.perf_counter()
            reference.calibration_work()
            return (time.perf_counter() - t0) * 1e3

        requests = Speed(cpu_slice, 4.0)
    bare = Speed(lambda: _start(["-c", "print('ready')"]), 10.0)
    return requests, bare


class Run:
    """Counts and outcomes of one benchmark run."""

    def __init__(self, requests, runner, checker, forked, speed=None):
        self.requests, self.runner, self.checker = requests, runner, checker
        self.forked, self.speed = forked, speed
        self.attempted = self.errors = self.wrong = 0
        self.problems = []
        self.rss_kb = 0

    def judge(self, req, outcome):
        """Count one operation; returns the cells it checked (0 if it failed)."""
        self.attempted += 1
        if outcome.rc is None or outcome.rc == 2:
            # The program refused or crashed: a failed operation, not a wrong one.
            self.errors += 1
            self.problems.append(f"{req.label}: {outcome.err.strip()[-300:]}")
            return 0
        try:
            problems = req.check(self.checker, outcome)
        except (ValueError, KeyError, IndexError, StopIteration, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.wrong += 1
            self.problems.append(f"{req.label}: {problems[:3]}")
            return 0
        return req.cells

    def round(self, tracer=None, keep=False):
        """One pass over the request list.

        In-process outcomes are judged at once and only their numbers kept;
        forked ones are judged by ``settle``, after every child is done.
        """
        log = RoundLog(tracer is not None)
        clock = time.perf_counter
        for index, req in enumerate(self.requests):
            if self.forked:
                outcome = self.runner(req, clock, tracer, keep, index)
                log.at.append(clock())
                self.rss_kb = max(self.rss_kb, outcome.rss_kb)
                log.pending.append((index, req, outcome))
                cells = 0
            else:
                outcome = self.runner(req, clock, tracer)
                log.at.append(clock())
                if tracer is not None:
                    outcome.trace = tracer.fold(keep, index)
                cells = self.judge(req, outcome)
            log.ms.append(outcome.ms)
            log.cells.append(cells)
            if tracer is not None:
                outcome.trace["bytes_out"] = (
                    len(outcome.out.encode()) if isinstance(outcome.out, str) else 0)
                log.traces.append(outcome.trace)
            self.speed.maybe_tick()
        if tracer is not None:
            log.distinct = (sum(t["distinct"] for t in log.traces) if self.forked
                            else len(tracer.distinct))
        return log

    def settle(self, logs):
        """Judge forked outcomes and scale in-process times; returns raw times."""
        raw = []
        for log in logs:
            for index, req, outcome in log.pending:
                log.cells[index] = self.judge(req, outcome)
            log.pending = []
            raw.extend(log.ms)
            if self.speed is not None:  # None only in the self-test
                for i, at in enumerate(log.at):
                    log.ms[i] *= self.speed.factor(at)
        return raw


class RoundLog:
    """Per-request times, end instants and checked cells of one round."""

    def __init__(self, traced):
        self.traced = traced
        self.ms, self.at, self.cells = array("d"), array("d"), array("q")
        self.pending = []  # forked (index, request, outcome), judged by settle
        self.traces = []
        self.distinct = 0

    def rate(self):
        return sum(self.cells) / (sum(self.ms) / 1e3)


def per_layer(traced_rounds, tracing):
    """Per-round averages of the traced rounds' span and count totals."""
    rounds = len(traced_rounds)
    self_ns = collections.Counter()
    per_name = collections.Counter()
    counts = collections.Counter()
    distinct = spans = overhead_ns = bytes_out = max_index = max_bits = 0
    for log in traced_rounds:
        distinct += log.distinct
        for t in log.traces:
            self_ns.update(t["self_ns"])
            per_name.update(t["per_name_ns"])
            counts.update(t["counts"])
            spans += t["spans"]
            overhead_ns += t["overhead_ns"]
            bytes_out += t["bytes_out"]
            max_index = max(max_index, t["max_index"])
            max_bits = max(max_bits, t["max_bits"])
    term_calls = counts["sequences.term_calls"]
    metrics = {}
    for name in tracing.TIME_METRICS:
        metrics[name] = (self_ns[name] / 1e6 / rounds, "ms/round")
    for name in tracing.COUNT_METRICS:
        metrics[name] = (counts[name] / rounds, "count/round")
    metrics["sequences.distinct_index_share"] = (
        distinct / term_calls if term_calls else 0.0, "ratio")
    metrics["sequences.max_index"] = (max_index, "index")
    metrics["sequences.max_term_bits"] = (max_bits, "bit")
    metrics["cli.bytes_out"] = (bytes_out / rounds, "B/round")
    metrics["trace.spans"] = (spans / rounds, "count/round")
    metrics["trace.wrapper_ms"] = (overhead_ns / 1e6 / rounds, "ms/round")
    by_function = {k: v / 1e6 / rounds for k, v in sorted(per_name.items())}
    return metrics, {"rounds": rounds, "self_ms_per_round_by_function": by_function}


def write_trace(workload, seed, metrics, summary, kept):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}")
    with open(stem + "-trace.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "metrics": {k: v[0] for k, v in metrics.items()}, **summary},
                  fh, indent=1)
    with open(stem + "-spans.jsonl", "w") as fh:
        fh.write(json.dumps(["request", "span", "parent", "name", "start_ns",
                             "end_ns"]) + "\n")
        for span in kept:
            fh.write(json.dumps(span) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "seqarea", "__init__.py")):
        print(f"error: no seqarea sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import reference
    import selftest
    import tracing
    import workloads

    import seqarea

    if not os.path.abspath(seqarea.__file__).startswith(SRC + os.sep):
        print(f"error: imported seqarea from {seqarea.__file__}", file=sys.stderr)
        return 2
    planted = selftest.planted_faults_detected()

    requests = workloads.requests_for(args.workload, args.seed)
    runner = workloads.WORKLOADS[args.workload][1]
    forked = runner is workloads.run_forked
    speed, bare = speeds(reference, workloads, forked)
    setup = [] if args.trace else measure_setup(
        args.workload, 1 + SETUP_PROBES_BEFORE, bare)[1:]
    run = Run(requests, runner, reference.Checker(), forked, speed)
    workloads.warm_up(args.workload)
    if not forked:
        run.round()  # priming pass: fills the term store the timed rounds reuse

    min_rounds = math.ceil(MIN_SAMPLES / len(requests))
    tracer = tracing.Tracer() if args.trace else None
    rounds = []
    start = last_probe = time.perf_counter()
    while (len(rounds) < min_rounds or time.perf_counter() - start < args.seconds
           or (args.trace and len(rounds) % 2 == 1)):
        # The traced run alternates untraced and traced rounds in pairs.
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.new_round()
            tracer.install()
        try:
            rounds.append(run.round(tracer if traced else None, keep=len(rounds) == 1))
        finally:
            if traced:
                tracer.uninstall()
        # Spread over the run, the probes see the same drifting machine the
        # rounds do, not just its state at the start and the end.
        if (not args.trace and len(setup) < SETUP_PROBES
                and time.perf_counter() - last_probe > args.seconds / 12):
            setup += measure_setup(args.workload, 1, bare)
            last_probe = time.perf_counter()
    peak_kb = run.rss_kb if forked else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not args.trace:
        setup += measure_setup(args.workload, SETUP_PROBES - len(setup), bare)
    raw_ms = run.settle(rounds)
    plain = [log for log in rounds if not log.traced]
    traced_rounds = [log for log in rounds if log.traced]
    latencies = [ms for log in plain for ms in log.ms]

    if args.trace:
        metrics, summary = per_layer(traced_rounds, tracing)
        overhead = (statistics.median(log.rate() for log in plain)
                    / statistics.median(log.rate() for log in traced_rounds) - 1)
        metrics["trace.overhead_pct"] = (overhead * 100, "%")
        write_trace(args.workload, args.seed, metrics, summary, tracer.kept)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "cells_per_s": (statistics.median(log.rate() for log in plain), "1/s"),
            "request_p50_ms": (statistics.median(latencies), "ms"),
            "request_p90_ms": (statistics.quantiles(latencies, n=10)[8], "ms"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        }

    for line in run.problems[:20]:
        print(f"failed: {line}")
    print(f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(requests)} "
          f"requests, {run.errors} refused, {run.wrong} wrong")
    print(f"unscaled: request p50 {statistics.median(raw_ms):.4f} ms; calibration "
          f"slice median {statistics.median(speed.ms):.4f} ms over {len(speed.ms)}"
          + (f"; bare start median {statistics.median(bare.ms):.4f} ms" if bare.ms else ""))
    print(json.dumps({
        "correct": run.wrong == 0 and planted,
        "attempted": run.attempted,
        "failed": run.errors + run.wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
