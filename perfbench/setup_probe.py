"""Time one cold set-up in a fresh interpreter: import lccn_lab and build a workload's datasets.

Usage: python3 perfbench/setup_probe.py <workload> <seed>, with src/ on
PYTHONPATH. Prints the seconds, then PROBE_SAMPLES calibration samples taken
right after on the same core, on its only output line.
"""

import sys
import time

start = time.perf_counter()

import lccn_lab.cli  # noqa: E402  (the import is what is timed)
from workloads import data_config  # noqa: E402

lccn_lab.cli.build_datasets(data_config(sys.argv[1], int(sys.argv[2])))
seconds = time.perf_counter() - start

from calibrate import calibration_sample  # noqa: E402

PROBE_SAMPLES = 5
calibration_sample()  # warm-up: the first calls in a fresh interpreter are slow
print(repr(seconds), *(repr(calibration_sample()) for _ in range(PROBE_SAMPLES)))
