"""Run one volcalc benchmark workload and print its metrics.

    python3 perfbench/run.py --workload symbol_build --seed 1 --seconds 30 --trace 0

Run from the root of a volcalc checkout (the package is imported from its
src/ directory).  The process is single-threaded: BLAS and OpenMP are
pinned to one thread before numpy is imported.  It sets up (import, spec
generation and loading, one warm-up pass of every job kind; repeated and
the median taken), then runs whole rounds of the workload's fixed job list
back to back, one client, closed loop, until --seconds is used up.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics.  Lines starting with
'#' describe the run; the last line is the JSON result.
"""

import os
import time

T_START = time.perf_counter()

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "VOLTERRA_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_JOBS = 100
HOST_REF_EVERY = 5


def parse_args(workloads, argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads():
    """Thread counts reported by every OpenBLAS loaded into this process."""
    import ctypes

    out = {}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return out
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def make_host_ref(np):
    """Fixed reference kernel: a pure-Python dict loop and a complex solve."""
    rng = np.random.default_rng(20260101)
    A = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96)) + 20 * np.eye(96)
    B = np.eye(96, dtype=complex)

    def host_ref():
        t0 = time.perf_counter()
        acc = {}
        for i in range(40000):
            k = i & 255
            acc[k] = acc.get(k, 0) + i
        np.linalg.solve(A, B)
        return time.perf_counter() - t0

    return host_ref


def job_peak_rss(workload, seed):
    """Peak resident memory, in MB, of memprobe.py run as a child process.
    subprocess.run waits for the child, and kills it first on a timeout."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "memprobe.py"),
                           workload, str(seed)],
                          capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "volcalc", "__init__.py")):
        print(f"error: no volcalc sources under {SRC}; run from a volcalc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)

    import numpy as np
    import scipy

    import volcalc  # noqa: F401  (imported here so its import time counts in setup_s)
    from tracer import Tracer
    from workloads import BUILDERS, Checker

    t_import = time.perf_counter() - T_START
    args = parse_args(sorted(BUILDERS), argv)
    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas,
    }
    print("# " + json.dumps(header), flush=True)

    build = BUILDERS[args.workload]
    host_ref = make_host_ref(np)
    host = []
    correct = True
    problems = []

    def timed(job, call):
        """Run one job, timed from outside: (wall, cpu, output, exception)."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out, err = call(job.call), None
        except Exception as exc:  # an operation that fails is counted, not fatal
            out, err = None, exc
        return time.perf_counter() - t0, time.process_time() - c0, out, err

    def judge(job, out, err, done):
        """Check one job's output, outside its timing; True if it failed."""
        nonlocal correct
        if err is not None:
            problems.append(f"{job.label}: raised {type(err).__name__}: {err}")
            return True
        ck = Checker()
        try:
            job.check(ck, out, done)
        except Exception as exc:
            ck.failures.append(f"check raised {type(exc).__name__}: {exc}")
        done[job.label] = out
        if ck.failures:
            correct = False
            problems.extend(f"{job.label}: {f}" for f in ck.failures)
            return True
        return False

    def plain(fn):
        return fn()

    # --- set-up: spec generation and loading, input preparation, warm-up of
    # every job kind; the warm-up's checks run after the interval is read ---
    setup_runs, load_runs = [], []
    jobs = None
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        stats = {}
        jobs = build(np.random.default_rng([args.seed, 0]), stats)
        warm = build(np.random.default_rng([args.seed, 1, rep]), {}, small=True)
        warm_out = [timed(job, plain)[2:] for job in warm]
        setup_runs.append(time.perf_counter() - t0)
        load_runs.append(stats["load_s"])
        missing = {job.kind for job in jobs} - {job.kind for job in warm}
        if missing:
            raise RuntimeError(f"warm-up misses job kinds {sorted(missing)}")
        done = {}
        for job, (out, err) in zip(warm, warm_out):
            if judge(job, out, err, done):
                correct = False
    setup_s = t_import + statistics.median(setup_runs)

    attempted = failed = 0

    def run_round(call):
        """One pass over the job list; each job is timed, then checked."""
        nonlocal attempted, failed
        done = {}
        walls, cpus, ref_times = [], [], []
        for i, job in enumerate(jobs):
            if i % HOST_REF_EVERY == 0:
                ref_times.append(host_ref())
            wall, cpu, out, err = timed(job, call)
            walls.append(wall)
            cpus.append(cpu)
            attempted += 1
            failed += judge(job, out, err, done)
        return {"walls": walls, "wall": sum(walls), "cpu": sum(cpus), "host_ref": ref_times}

    if not args.trace:
        t0 = time.perf_counter()
        peak_mb = job_peak_rss(args.workload, args.seed)
        memory_probe_s = time.perf_counter() - t0

    # --- measured rounds ---
    tracer = Tracer() if args.trace else None
    modes = (False, True) if args.trace else (False,)
    min_iters = math.ceil(MIN_JOBS / (len(jobs) * len(modes)))
    rounds = []
    span_dump = None
    t_meas = time.perf_counter()
    while True:
        t_iter = time.perf_counter()
        for traced in modes:
            if traced:
                tracer.reset()
                tracer.install()
            try:
                rnd = run_round(tracer.run_job if traced else plain)
            finally:
                if traced:
                    tracer.remove()
            host += rnd["host_ref"]
            rnd["traced"] = traced
            rnd["host_ref"] = statistics.median(rnd["host_ref"])
            if traced:
                rnd["self_s"] = dict(tracer.self_s)
                rnd["counts"] = dict(tracer.counts)
                if span_dump is None:
                    span_dump = tracer.spans
            rounds.append(rnd)
        iters = len(rounds) // len(modes)
        elapsed = time.perf_counter() - t_meas
        if iters >= min_iters and elapsed + (time.perf_counter() - t_iter) > args.seconds:
            break

    plain_rounds = [r for r in rounds if not r["traced"]]
    wall_med = statistics.median(r["wall"] for r in plain_rounds)
    by_kind = {}
    for r in plain_rounds:
        for job, w in zip(jobs, r["walls"]):
            by_kind.setdefault(job.kind, []).append(w)
    info = {"rounds": len(rounds), "jobs_per_round": len(jobs),
            "kind_median_s": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
            "round_wall_s": [round(r["wall"], 4) for r in rounds],
            "round_host_ref_s": [round(r["host_ref"], 5) for r in rounds],
            "host_ref_s": statistics.median(host), "setup_runs_s": setup_runs,
            "import_s": t_import}
    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        layer_self = {}
        for name in tracer.layer_names():
            layer_self[name] = statistics.median(r["self_s"].get(name, 0.0)
                                                 for r in traced_rounds)
        counts = traced_rounds[0]["counts"]
        if any(r["counts"] != counts for r in traced_rounds):
            correct = False
            problems.append("trace: counts differ between traced rounds")
        traced_wall = statistics.median(r["wall"] for r in traced_rounds)
        info["layer_self_sum_s"] = sum(layer_self.values())
        info["traced_wall_s"] = traced_wall
        # the layers' self times (not the jobs' root spans) lie inside the
        # jobs' outside timing unless the tracer counts a child's time twice
        for r in traced_rounds:
            if sum(r["self_s"].get(name, 0.0) for name in layer_self) > r["wall"]:
                correct = False
                problems.append("trace: layer self times exceed the traced wall time")
        metrics = {f"{name}_s": (layer_self[name], "s") for name in layer_self}
        for name in tracer.counter_names():
            metrics[name] = (counts.get(name, 0), "count")
        metrics["specfile.load_s"] = (statistics.median(load_runs), "s")
        metrics["host.ref_s"] = (statistics.median(host), "s")
        metrics["trace.overhead_s"] = (traced_wall - wall_med, "s")
        write_spans(span_dump, args)
    else:
        lat = [w for r in plain_rounds for w in r["walls"]]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_med, "s"),
            "cpu_s": (statistics.median(r["cpu"] for r in plain_rounds), "s"),
            "job_p50_s": (statistics.median(lat), "s"),
            "job_p90_s": (p90(lat), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        info["memory_probe_s"] = memory_probe_s
        info["checked_ru_maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("# " + json.dumps(info), flush=True)
    for line in problems[:20]:
        print(f"# problem: {line}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def write_spans(spans, args):
    """Spans of the first traced round: [name index, start, end, parent]."""
    if not spans:
        return
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = spans[0][1]
    rows = [[index[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]] for s in spans]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
