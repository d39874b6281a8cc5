"""Set-up probe: a fresh interpreter imports seqarea and runs the warm-up.

    python3 perfbench/warm.py verify-grid

Prints ``ready`` once the warm-up is done; run.py times a fresh start up to
that line and reports the median of several starts as ``setup_s``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402  (needs the path above)

workloads.warm_up(sys.argv[1])
print("ready", flush=True)
