"""Set-up time of one workload in a fresh process: imports, config and cache
warm-up (one op at a tiny size, which fills the pre-averaging constant cache
and scipy's lazy imports). Prints the seconds it took and, after it, the
median time of the calibration kernel in the same process.

Usage (from the repository root): python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main() -> None:
    wl = workloads.WORKLOADS[sys.argv[1]]
    wl.build("full")
    workloads.warm_up(wl, int(sys.argv[2]))
    setup_s = time.perf_counter() - T0

    import statistics

    import calibrate

    kernel_s = statistics.median(calibrate.time_kernel() for _ in range(7))
    print(repr(setup_s), repr(kernel_s))


if __name__ == "__main__":
    main()
