"""Self-test of the checker: planted faults must count as failed operations.

    python3 perfbench/selftest.py

Runs one real ``verify`` request, then judges three outcomes with the same
code the benchmark uses: the real one (must pass), one with an oracle cell
off by 1/2, and one with exit code 1 instead of 0 (each must fail).  Exits 0
when all three come out as expected.  run.py also calls
``planted_faults_detected`` before every run and reports ``correct: false``
if it does not hold.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def _judged_failed(outcome, req):
    from run import Run

    run = Run([req], workloads.run_inprocess, reference.Checker(), forked=False)
    run.judge(req, outcome)
    return run.errors + run.wrong


def planted_faults_detected(verbose=False):
    req = workloads.verify_request(
        reference.Family("pell"), range(0, 3), range(1, 3), range(3, 5), "json")
    real = workloads.run_inprocess(req, time.perf_counter)

    data = json.loads(real.out)
    cell = data["cells"][len(data["cells"]) // 2]
    cell["oracle"] = str(Fraction(cell["oracle"]) + Fraction(1, 2))
    off_by_half = workloads.Outcome(real.ms, real.rc, json.dumps(data, indent=2), "")
    wrong_exit = workloads.Outcome(real.ms, 1, real.out, "")

    verdicts = {
        "real output passes": _judged_failed(real, req) == 0,
        "oracle cell off by 1/2 fails": _judged_failed(off_by_half, req) == 1,
        "exit code 1 fails": _judged_failed(wrong_exit, req) == 1,
    }
    if verbose:
        for name, ok in verdicts.items():
            print(f"{'PASS' if ok else 'FAIL'}: {name}")
    return all(verdicts.values())


if __name__ == "__main__":
    sys.exit(0 if planted_faults_detected(verbose=True) else 1)
