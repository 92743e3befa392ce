"""Set-up probe: a fresh process imports surfrep.cli, builds one workload's
groups, presentations and inputs, then prints CLOCK_MONOTONIC in ns.

Usage: python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import surfrep.cli  # noqa: E402,F401  the import a CLI call pays

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(time.monotonic_ns())
