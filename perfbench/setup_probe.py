"""Print the seconds a fresh process needs to import nda and build the
StateSpecs and ops of one workload:
    PYTHONPATH=src python3 perfbench/setup_probe.py nodes 20260801

`run.py` starts several of these and takes the median as `setup_s`.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import is what is timed)

workloads.build(sys.argv[1], int(sys.argv[2]), workloads.Budget(),
                workloads.catalog_exact)
print(time.perf_counter() - t0)
