"""Print one sha1 per group of solver outputs, to compare two trees bit for bit.

    python tools/output_digest.py

Each tree digests its own ``src/hlsp``. The groups are

- ``small_oracle``: seeds 0-1 of the benchmark pool, all five methods;
- ``ineq_dense`` and ``eq_chain``: seeds 0-1, their benchmark methods;
- ``fuzz``: the scaled-fuzz family of ``tests/test_fuzz.py``, all five methods;
- ``found+data``: ``tests/found`` and ``tests/data``, all five methods.

A group's digest covers, solve by solve, ``x``, ``converged``, every
``LevelReport`` field but ``wall_time_s`` and ``last_duals``, or the
exception name of a solve that raises. Floats enter by their hex form, so
equal digests mean equal bits. Next to each digest go the group's totals of
the machine-independent counters, by their benchmark names: Newton
iterations, factorizations, the ``fact_work`` flop proxy, dual evaluations
and working-set changes (``asm_iterations``), and the number of
sub-converged levels (``sub_converged``); a solve that raises adds none.
The generators and the
counters are imported, read only, from ``perfbench/harness.py`` and
``tests/test_fuzz.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

from harness import WORKLOADS, counters  # noqa: E402
from test_fuzz import SEEDS, fuzz_problem  # noqa: E402

from hlsp.cascade import solve_hlsp  # noqa: E402
from hlsp.config import METHODS, SolverConfig  # noqa: E402
from hlsp.fileio import load_problem, problem_from_dict  # noqa: E402

BENCH_SEEDS = (0, 1)


def _feed(h, value):
    """Hash ``value`` by type and bits, the same for a numpy or Python scalar."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        for key in sorted(value):
            h.update(f"k{key}".encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"l{len(value)}".encode())
        for item in value:
            _feed(h, item)
    elif isinstance(value, (bool, np.bool_)):
        h.update(f"b{bool(value)}".encode())
    elif isinstance(value, (int, np.integer)):
        h.update(f"i{int(value)}".encode())
    elif isinstance(value, (float, np.floating)):
        h.update(f"f{float(value).hex()}".encode())
    else:
        h.update(f"o{value!r}".encode())


def _feed_solve(h, problem, method):
    """Hash one solve; returns its counters, empty for a solve that raises."""
    try:
        report = solve_hlsp(problem, SolverConfig(method=method))
    except Exception as exc:  # noqa: BLE001  the exception's name is the output
        _feed(h, f"raised {type(exc).__name__}")
        return {}
    levels = [asdict(lv) for lv in report.levels]
    for lv in levels:
        del lv["wall_time_s"]
    _feed(h, [report.x, report.converged, levels, report.last_duals])
    return {
        **counters(report),
        "sub_converged": sum(lv["sub_converged"] for lv in levels),
    }


def _corpus():
    for path in sorted((ROOT / "tests" / "found").glob("*.json")):
        yield problem_from_dict(json.loads(path.read_text())["problem"])
    for path in sorted((ROOT / "tests" / "data").glob("*.json")):
        yield load_problem(path)


def groups():
    """(name, methods, problems) for each group, in print order."""
    for name in ("small_oracle", "ineq_dense", "eq_chain"):
        w = WORKLOADS[name]
        problems = (
            w.generate(seed, i) for seed in BENCH_SEEDS for i in range(w.pool_size)
        )
        yield name, w.methods, problems
    yield "fuzz", METHODS, (fuzz_problem(seed) for seed in SEEDS)
    yield "found+data", METHODS, _corpus()


def main():
    for name, methods, problems in groups():
        t0 = time.perf_counter()
        h = hashlib.sha1()
        totals = Counter()
        for problem in problems:
            for method in methods:
                totals.update(_feed_solve(h, problem, method))
        counts = "  ".join(f"{key} {value}" for key, value in totals.items())
        print(f"{h.hexdigest()}  {name}  ({time.perf_counter() - t0:.1f} s)  {counts}")


if __name__ == "__main__":
    main()
