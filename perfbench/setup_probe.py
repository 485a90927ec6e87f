"""One cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>  (with src/ on PYTHONPATH)

Times the package import, the spec build and the first calls that build the
estimator tables, and prints them as one JSON line.  run.py starts this
several times per run and reports the medians.
"""

import json
import sys
import time

t0 = time.perf_counter()
import mixcluster as mc  # noqa: E402

t1 = time.perf_counter()
from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[1]]
op = next(workload.rounds(0))[0]
t2 = time.perf_counter()
spec = workload.spec(mc, op)
t3 = time.perf_counter()
workload.tables_warmup(mc, spec, op.tag)
t4 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "spec_s": t3 - t2, "tables_s": t4 - t3}))
