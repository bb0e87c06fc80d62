"""Benchmark of the biphoton-cascade package, run from the repository root.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One invocation runs one workload (see ``workloads.py``) as a closed loop
with a single client in this one process: set-up, then whole rounds of
ops until ``--seconds`` have passed, each op checked by its correctness
gate.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every figure by name with its unit and the environment record.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
Their times are in reference seconds: wall seconds corrected for the
host's current speed by the gauge in ``speed.py``.  The wall-clock
``ops_per_s`` is printed beside them.
``--trace 1`` is a separate run that records a span around every call into
a package module, reports the ``per_layer`` metrics, and writes the spans
to ``bench/out/``.  It runs a fixed number of rounds (about ``--seconds``
long on the reference machine) so that its counts repeat exactly for a
given seed.  ``--negative-control`` shifts the reference of one gate per
workload by 1e-3, so that ops fail.

Seeds 1-10 were used while the benchmark was written.  ``HELD_OUT_SEED``
was not run then: re-check a claimed gain on it too.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path

from speed import Gauge, reference_seconds

HELD_OUT_SEED = 918273
IMPORT_REPEATS = 3
SETUP_REPEATS = 3
TRACE_TIME_CAP_S = 150.0
MMAP_THRESHOLD = 32 * 1024 * 1024  # glibc's upper limit on 64-bit
TRIM_THRESHOLD = 256 * 1024 * 1024
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true")
    return parser.parse_args(argv)


def pin_malloc() -> str:
    """Fix glibc's mmap and trim thresholds high, so freed blocks are reused.

    Left adaptive, glibc raises the mmap threshold after freeing large
    blocks and trims the heap by its own history, so whether integrate_R's
    N x N temporaries page-fault on every call changed with the seed
    (oracle_points: ~40 or ~75 ops/s, each repeatable).  Pinned low, at the
    128 KiB default, every temporary page-faults on every call, about 3/4
    of integrate_R's time.  Pinned high, temporaries up to 32 MiB come from
    the heap and are reused, as they are in a long-lived process once the
    adaptive threshold has risen, and every run allocates the same way
    whatever its seed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "not pinned: no mallopt"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    if (mallopt(m_mmap_threshold, MMAP_THRESHOLD) != 1
            or mallopt(m_trim_threshold, TRIM_THRESHOLD) != 1):
        return "not pinned: mallopt refused"
    return f"mmap threshold pinned at {MMAP_THRESHOLD} bytes, trim at {TRIM_THRESHOLD}"


def import_seconds() -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    the package.

    This is the start-up every CLI call pays; it cannot be repeated inside
    one process, so each repeat is a child interpreter, run to completion
    before the next.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import biphoton_cascade"]
    return statistics.median(
        reference_seconds(partial(subprocess.run, cmd, cwd=ROOT, env=env, check=True,
                                  timeout=120))[1]
        for _ in range(IMPORT_REPEATS))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(args, malloc: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the layout of show_config differs across NumPy versions
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "malloc": malloc,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "negative_control": args.negative_control,
    }


def run_rounds(rounds, tracer, seconds, max_rounds):
    """Closed loop over whole rounds.

    Returns (op latencies, failure messages, refusals, elapsed seconds,
    rounds, gauge).  The gauge holds the summed op time in wall and in
    reference seconds; its kernel runs between ops and is not op time.
    """
    latencies, failures, refusals = [], [], 0
    gauge = Gauge()
    start = time.perf_counter()
    done = 0
    while done < max_rounds and (done == 0 or time.perf_counter() - start < seconds):
        for k, op in enumerate(rounds[done % len(rounds)]):
            op_start = time.perf_counter()
            try:
                if tracer.op(f"{done}.{k}", op, tracer) == "refused":
                    refusals += 1
            except Exception as exc:  # every failure is counted, the loop goes on
                if not failures:
                    traceback.print_exc(file=sys.stderr)
                failures.append(f"op {done}.{k}: {type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - op_start)
            gauge.add(latencies[-1])
        done += 1
        if tracer.on and time.perf_counter() - start > TRACE_TIME_CAP_S:
            print(f"warning: traced run stopped after {done} of {max_rounds} rounds",
                  file=sys.stderr)
            break
    gauge.close()
    return latencies, failures, refusals, time.perf_counter() - start, done, gauge


def main(argv=None) -> int:
    args = parse_args(argv)
    malloc = pin_malloc()
    if not (SRC / "biphoton_cascade" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import biphoton_cascade
    if Path(biphoton_cascade.__file__).resolve().parent != SRC / "biphoton_cascade":
        print(f"error: imported {biphoton_cascade.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    import numpy as np
    from spans import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    setup, round_seconds = WORKLOADS[args.workload]
    offset = 1e-3 if args.negative_control else 0.0
    env = environment(args, malloc)
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            tracer = Tracer()
            rounds = tracer.op("setup", setup, np.random.default_rng(args.seed), tracer,
                               offset, out_dir)
            # A fixed round count, not a deadline, so that counts repeat.
            max_rounds = max(1, math.ceil(args.seconds / round_seconds))
            deadline = math.inf
        else:
            tracer = NullTracer()
            import_s = import_seconds()
            setup_times = []
            for _ in range(SETUP_REPEATS):
                rounds = None  # release the previous set-up before the next
                rounds, seconds = reference_seconds(
                    setup, np.random.default_rng(args.seed), tracer, offset, out_dir)
                setup_times.append(seconds)
            max_rounds = math.inf
            deadline = args.seconds
        latencies, failures, refusals, elapsed, done, gauge = run_rounds(
            rounds, tracer, deadline, max_rounds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted, failed = len(latencies), len(failures)
    ops_per_s = (attempted - failed) / gauge.wall
    ops_per_ref_s = (attempted - failed) / gauge.reference
    kernels = gauge.kernels
    env.update(attempted=attempted, failed=failed, refusals=refusals, rounds=done,
               elapsed_s=elapsed, op_s=gauge.wall, op_ref_s=gauge.reference,
               gauge_kernels=len(kernels), gauge_kernel_ms_median=1e3 * statistics.median(kernels),
               gauge_kernel_ms_range=[1e3 * min(kernels), 1e3 * max(kernels)],
               wall_s=time.perf_counter() - started)
    for line in failures[:5]:
        print(f"failed {line}", file=sys.stderr)
    print(f"ops: {attempted} in {done} rounds over {elapsed:.3f} s, "
          f"{failed} failed, {refusals} refused")

    if args.trace:
        values = tracer.metrics()
        values["trace.ops_per_ref_s"] = ops_per_ref_s
        wanted = spec["per_layer"]
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path, env)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        ms = sorted(1e3 * x for x in latencies)
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "ops_per_ref_s": ops_per_ref_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
        print(f"setup: import {import_s:.4f} ref s (median of {IMPORT_REPEATS} interpreters), "
              f"set-up {statistics.median(setup_times):.4f} ref s (median of {SETUP_REPEATS})")
        # Printed, not in BENCHMARK.json: see bench/README.md.
        print(f"  ops_per_s {ops_per_s:.6g} 1/s (wall clock, op time only)")
        print(f"  fail_frac {failed / attempted:.6g} frac")
        print(f"  op_p50_ms {statistics.median(ms):.6g} ms (n={attempted})")
        # The 90th percentile needs at least ten samples beyond it.
        if attempted >= 100:
            print(f"  op_p90_ms {statistics.quantiles(ms, n=10)[-1]:.6g} ms (n={attempted})")
        else:
            print(f"  op_p90_ms omitted: {attempted} ops < 100")
    metrics = {}
    for entry in wanted:
        value = float(values.get(entry["name"], 0.0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']} {value:.6g} {entry['unit']}")
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
