"""Set up one workload in a fresh interpreter and print when its inputs are
ready, as a CLOCK_MONOTONIC reading in seconds.

    python3 bench/setup_probe.py WORKLOAD SEED

run.py starts this several times and takes each spawn-to-ready interval as
one set-up sample: interpreter start, ``import clustercat`` and building the
workload's quivers and exchange matrices. The affine walks are drawn later,
before each sweep, because drawing them runs no clustercat code.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(repr(time.monotonic()))
