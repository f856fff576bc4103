"""Set-up probe: import stacky and numpy, draw one workload's inputs, and
report ready.  run.py times a few of these from process start to the ready
line to get setup_s.  With --pass, the probe then runs the workload's first
pass and reports its peak resident memory, so that peak_rss_mb comes from a
fresh process that ran the work once.

    python3 perfbench/probe.py <workload> <seed> [--pass]
"""

import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402,F401

import workloads  # noqa: E402

wl = workloads.WORKLOADS[sys.argv[1]]
inputs = wl.make_inputs(int(sys.argv[2]))
print("ready", workloads.digest(inputs), flush=True)
if "--pass" in sys.argv[3:]:
    for op in inputs[0]:
        wl.run_op(op)
    print("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, flush=True)
