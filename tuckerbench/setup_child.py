"""Set-up probe, run in a fresh process: ``import repro`` plus the first
warm-up solve, and the high-water RSS of this process and its ranks.

Usage: ``python3 setup_child.py <workload> <seed> <input.npy>``.
Prints one JSON object.  Loading the input from disk is excluded from
``setup_s`` (input generation is reported separately).
"""

import sys
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"),
)

import numpy as np  # noqa: E402

import repro  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, seed, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    t_load = time.perf_counter()
    x = np.load(path)
    load_s = time.perf_counter() - t_load
    WORKLOADS[name].solve(x, seed)
    setup_s = time.perf_counter() - _T0 - load_s
    # VmHWM, not RUSAGE_SELF: ru_maxrss survives exec, so it would
    # report the peak of the benchmark process that spawned this one.
    with open("/proc/self/status") as fh:
        self_kb = next(
            int(line.split()[1]) for line in fh if line.startswith("VmHWM:")
        )
    ranks_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    from probes import stop_resource_tracker

    stop_resource_tracker()
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "load_s": load_s,
                "driver_peak_rss_mb": self_kb / 1024.0,
                "rank_peak_rss_mb": ranks_kb / 1024.0,
            }
        )
    )


if __name__ == "__main__":
    main()
