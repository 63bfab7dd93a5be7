"""Prove that every check of the benchmark can fail.

    python3 perfbench/selfcheck.py

For each job of each workload's round (seed 2026), the true output must
pass its checks; then every wrong answer planted for that job (q_0 scaled
by 1 + 1e-6, a contour result at the wrong t, a composition with one
coefficient changed, ...) must be counted as a failed operation.  Finally
every named check that ran must have been tripped by some plant.  Exits 0
when all of this holds, 1 otherwise.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VOLTERRA_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SEED = 2026


def main():
    if not os.path.isfile(os.path.join(SRC, "volcalc", "__init__.py")):
        print(f"error: no volcalc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)

    import numpy as np

    from workloads import BUILDERS, Checker

    bad = []
    evaluated, tripped = set(), set()
    planted = caught = 0
    for name, build in BUILDERS.items():
        jobs = build(np.random.default_rng([SEED, 0]), {})
        done = {}
        for job in jobs:
            out = job.call()
            ck = Checker()
            job.check(ck, out, done)
            evaluated |= ck.evaluated
            if ck.failures:
                bad.append(f"{job.label}: true output rejected: {ck.failures}")
            for plant_name, plant in job.plants():
                planted += 1
                wrong = Checker()
                try:
                    job.check(wrong, plant(out), done)
                except Exception as exc:  # counted as failed, as in run.py
                    wrong.failures.append(f"check raised {type(exc).__name__}: {exc}")
                if wrong.failures:
                    caught += 1
                    tripped |= {f.split(":")[0] for f in wrong.failures}
                else:
                    bad.append(f"{job.label}: planted '{plant_name}' not caught")
            done[job.label] = out
        print(f"{name}: {len(jobs)} jobs checked", flush=True)
    never = sorted(evaluated - tripped)
    if never:
        bad.append(f"checks never tripped by a plant: {never}")
    print(f"{caught}/{planted} planted wrong answers counted as failed; "
          f"{len(tripped & evaluated)}/{len(evaluated)} checks shown to fail")
    for line in bad:
        print("FAIL " + line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
