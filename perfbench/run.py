"""Benchmark of the hlsp solver, run from the root of a checkout.

    python3 perfbench/run.py --workload small_oracle --seed 0 --seconds 30 --trace 0

Generates the workload's problems from the seed, solves them through the
library's public entry points for ``--seconds`` seconds, checks every
solve against its reference, prints a readable report and then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` every unit is solved untraced and then traced, and the
metrics are the per-layer ones plus the tracing overhead. See README.md
next to this file for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("small_oracle", "ineq_dense", "eq_chain")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
OPENBLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="time one set-up in this process and print it (used internally)",
    )
    return parser.parse_args(argv)


def pin_blas_threads():
    """One BLAS thread for numpy's and scipy's OpenBLAS; must precede their import."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def blas_threads():
    """Thread count of each OpenBLAS copy loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in OPENBLAS_THREAD_QUERIES:
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                found[Path(path).name] = int(query())
                break
    return found


def timed_setup(workload_name, seed):
    t0 = time.perf_counter()
    import harness

    problems = harness.setup(harness.WORKLOADS[workload_name], seed)
    return time.perf_counter() - t0, problems


def probe_setup(workload_name, seed):
    """Set-up time of a fresh process, so the import cost is paid each time."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload",
        workload_name,
        "--seed",
        str(seed),
    ]
    done = subprocess.run(
        cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def fmt(name, value, unit):
    return f"{name:<32} {value:>14.6g} {unit}"


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        seconds, _ = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    own_setup_s, problems = timed_setup(args.workload, args.seed)
    import numpy as np
    import scipy

    import harness
    import hlsp
    from tracer import SpanRecorder

    if Path(hlsp.__file__).resolve().parent != (ROOT / "src" / "hlsp").resolve():
        print(f"hlsp imported from {hlsp.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workload = harness.WORKLOADS[args.workload]
    threads = blas_threads()
    print(f"# hlsp benchmark: workload {workload.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(
        f"# python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
        + ", ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
        + f", openblas threads {threads or 'not queried'}"
    )
    if any(n != 1 for n in threads.values()):
        print(f"BLAS is not pinned to one thread: {threads}", file=sys.stderr)
        return 2

    setup_runs = [probe_setup(workload.name, args.seed) for _ in range(SETUP_PROBES)]
    references = [workload.reference(p) for p in problems]
    recorder = SpanRecorder() if args.trace else None
    samples, traced, ledger = harness.timed_loop(
        workload, problems, references, args.seconds, recorder
    )
    ledger.merge_file(OUT_DIR / "counters.json", harness.code_scope(workload, args.seed))

    # an operation is a (problem, method) pair; it fails when its solve raises
    # or misses the reference. The run itself is incorrect only when a
    # repeat of a pair, traced or not, does other work or reaches another
    # verdict than its first solve
    pairs = harness.first_solves(samples)
    wrong = [s for s in pairs if s.report is not None and not s.ok]
    correct = not ledger.mismatches
    e2e = harness.solve_metrics(samples)
    e2e["setup_s"] = (statistics.median(setup_runs), "s")
    e2e["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "MB",
    )
    units = len({s.step for s in samples})
    print(f"# {len(samples)} timed solves in {units} units "
          f"({len(problems)} in the pool, {len(pairs)} problem-method pairs); set-up runs "
          + " ".join(f"{t:.4f}" for t in setup_runs)
          + f" s, this process {own_setup_s:.4f} s")
    print("end-to-end" + (" (untraced solves of the traced run)" if args.trace else ""))
    for name, (value, unit) in e2e.items():
        print(fmt(name, value, unit))
    print("per method")
    for line in harness.per_method_lines(samples, workload.methods):
        print(line)

    if args.trace:
        table = recorder.table()
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        table.save(OUT_DIR / f"spans-{workload.name}-{args.seed}.npz")
        metrics = harness.per_layer_metrics(
            table, recorder, traced, samples, harness.SolverConfig().max_iter
        )
        print(f"per layer (mean per traced solve, {len(traced)} traced solves, "
              f"{len(table.duration)} spans)")
        for name, (value, unit) in metrics.items():
            print(fmt(name, value, unit))
    else:
        metrics = e2e
    # the JSON line carries exactly the metrics BENCHMARK.json lists
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: metrics[m["name"]]
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }

    for key, before, after in ledger.mismatches:
        print(f"counter mismatch {key}: {before} != {after}", file=sys.stderr)
    for s in wrong:
        print(f"reference check failed: problem {s.unit} method {s.method}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(pairs),
                "failed": sum(not s.ok for s in pairs),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
