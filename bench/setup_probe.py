"""Time from a fresh interpreter to a ready library, for one workload.

Usage: python3 bench/setup_probe.py <workload>

Imports ftrees and ftrees.cli and makes the first warm-up call of each
of the workload's timed operations, then prints the elapsed seconds and
the calibration kernel's seconds around them (see calibrate.py).  The
benchmark runs this in several fresh interpreters and reports the median
of the scaled times as setup_s.
"""

import sys
import time

import calibrate
import run
import workloads

if __name__ == "__main__":
    before = calibrate.speed()
    t0 = time.perf_counter()
    lib = run.import_library()
    workloads.WARMUPS[sys.argv[1]](lib)
    seconds = time.perf_counter() - t0
    print(repr(seconds), repr((before + calibrate.speed()) / 2))
