"""Peak resident memory of one round of a workload's job calls.

    python3 perfbench/memprobe.py WORKLOAD SEED

Builds the same inputs as run.py, runs the warm-up and one round of the
job calls without their checks, and prints its own peak resident memory
(ru_maxrss) in MB.  run.py runs it as a child process: in the checking
process the checks' reference computations (dense FFT grids, expm) could
set the high-water mark.  It inherits run.py's environment, which pins
BLAS, OpenMP and volcalc to one thread.
"""

import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(workload, seed):
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)

    import numpy as np

    from workloads import BUILDERS

    build = BUILDERS[workload]
    jobs = build(np.random.default_rng([seed, 0]), {})
    warm = build(np.random.default_rng([seed, 1, 0]), {}, small=True)
    for job in warm + jobs:
        try:
            job.call()
        except Exception:  # the checked rounds count it as a failed operation
            pass
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
