"""Benchmark suite runner: random instances, methods, timing tables.

Emits one delimiter-separated row per instance and method with work
counters, timing medians over repeats, and the per-level remaining
variable counts, plus a pairwise method time-ratio summary. The
equality-only sweep over the first level's row count shows the projected
forms' level-2 work falling while classical's grows.
"""

from __future__ import annotations

import csv
import time
from functools import partial

import numpy as np

from .cascade import solve_hlsp
from .config import SolverConfig
from .fileio import save_json
from .oracle import lexicographic_lsq_equality
from .problem import ConstraintBlock, HlspProblem, Level, random_hlsp

REFERENCE = "lexicographic"

TABLE_COLUMNS = [
    "instance",
    "method",
    "seed",
    "n",
    "time_s",
    "iterations",
    "factorizations",
    "dual_evaluations",
    "kkt_max",
    "n_r_per_level",
    "fact_work",
    "converged",
]


# the suite spec's top-level fields, by their type after json.load
SPEC_FIELD_TYPES = {
    "seeds": list,
    "methods": list,
    "repeats": int,
    "instances": list,
    "config": dict,
    "equality_sweep": dict,
}


class BenchSpecError(ValueError):
    """The suite spec is malformed."""


def _spec_int(value, what, least=None):
    """``value`` if it is an integer of at least ``least``, else a spec error.

    ``json.load`` makes ``true`` a bool, an int to isinstance, and ``3.7`` a
    float that ``int`` would truncate; neither is a count or a seed.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise BenchSpecError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise BenchSpecError(f"{what} must be at least {least}, got {value!r}")
    return value


def _fact_work(shapes):
    """Flop proxy for a factorization list: sum of min-dim^2 * max-dim."""
    return int(sum(min(m, k) ** 2 * max(m, k) for m, k in shapes))


def _row(instance_name, method, seed, problem, config, repeats):
    """One table row; ``config`` None times ``REFERENCE``, which counts no work.

    One untimed solve comes first, so first-call costs stay out of the
    median of the ``repeats`` timed ones.
    """
    solve = partial(solve_hlsp, config=config) if config else lexicographic_lsq_equality
    solve(problem)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = solve(problem)
        times.append(time.perf_counter() - t0)
    levels = report.levels if config else []
    kkts = [lv.kkt_norm for lv in levels if lv.kkt_norm is not None]
    return {
        "instance": instance_name,
        "method": method,
        "seed": seed,
        "n": problem.n,
        "time_s": float(np.median(times)),
        "iterations": sum(lv.iterations for lv in levels),
        "factorizations": sum(lv.factorizations for lv in levels),
        "dual_evaluations": sum(lv.dual_evaluations for lv in levels),
        "kkt_max": max(kkts) if kkts else 0.0,
        "n_r_per_level": ";".join(str(lv.n_r_after) for lv in levels),
        "fact_work": _fact_work([sh for lv in levels for sh in lv.fact_shapes]),
        "converged": report.converged if config else True,
    }


def equality_sweep_problem(n, m1e, m2, seed=0):
    """Two equality-only levels: m1e independent rows, then m2 regularizers."""
    rng = np.random.default_rng(seed)
    a1 = rng.uniform(-1.0, 1.0, (m1e, n))
    b1 = rng.uniform(-1.0, 1.0, m1e)
    a2 = np.eye(n)[:m2] if m2 <= n else rng.uniform(-1.0, 1.0, (m2, n))
    b2 = rng.uniform(-1.0, 1.0, m2)
    return HlspProblem(
        n=n,
        levels=(
            Level(ConstraintBlock(a1.reshape(m1e, n), b1), ConstraintBlock.empty(n)),
            Level(ConstraintBlock(a2.reshape(m2, n), b2), ConstraintBlock.empty(n)),
        ),
    )


def _spec_problems(spec):
    """Yield (name, seed, problem) per instance and seed, then per sweep step.

    Each problem is generated when the suite reaches it; an entry that
    cannot generate one is a spec error.
    """
    for idx, inst in enumerate(spec.get("instances", [])):
        if not isinstance(inst, dict) or not {"n", "levels"} <= set(inst):
            raise BenchSpecError(f"instance {idx} needs the fields n and levels")
        n = _spec_int(inst["n"], f"instance {idx}: n")
        for seed in spec.get("seeds", [0]):
            try:
                specs = [tuple(lv) for lv in inst["levels"]]
                for level, lv in enumerate(specs, start=1):
                    for count in lv[:3]:
                        _spec_int(count, f"level {level} count")
                problem = random_hlsp(seed, n, specs)
            except (TypeError, ValueError) as exc:
                raise BenchSpecError(f"instance {idx}: {exc}") from exc
            yield inst.get("name", f"inst{idx}"), seed, problem
    sweep = spec.get("equality_sweep")
    if not sweep:
        return
    seed = _spec_int(sweep.get("seed", 0), "equality_sweep: seed")
    n = _spec_int(sweep.get("n", 60), "equality_sweep: n")
    m2 = _spec_int(sweep.get("m2", n), "equality_sweep: m2")
    step = _spec_int(sweep.get("step", 1), "equality_sweep: step", least=1)
    for m1e in range(0, n + 1, step):
        try:
            problem = equality_sweep_problem(n, m1e, m2, seed=seed)
        except (TypeError, ValueError) as exc:
            raise BenchSpecError(f"equality_sweep: {exc}") from exc
        yield f"sweep_m1e={m1e}", seed, problem


def run_benchmark(spec, out_path=None):
    """Run the suite described by the spec dict; returns (rows, summary).

    Spec fields: ``instances`` (each with ``n`` and ``levels`` as
    [m_e, m_i, rank_deficiency, mode] lists), ``seeds``, ``methods``,
    ``repeats`` (a positive integer, default 5), optional
    ``equality_sweep`` with ``n``, ``m2`` and ``step``. Every count and
    seed must be an integer; a boolean or a fraction is a spec error.
    ``methods`` may list ``REFERENCE``, whose rows time the sequential
    equality-only solve; a problem with inequality rows is then an error.
    """
    if not isinstance(spec, dict):
        raise BenchSpecError("spec must be a JSON object")
    for key, kind in SPEC_FIELD_TYPES.items():
        if key in spec and not isinstance(spec[key], kind):
            raise BenchSpecError(
                f"spec field {key!r} must be {kind.__name__}, "
                f"got {type(spec[key]).__name__}"
            )
    methods = spec.get("methods", ["nf-ipm"])
    repeats = _spec_int(spec.get("repeats", 5), "spec field 'repeats'", least=1)
    for seed in spec.get("seeds", []):
        _spec_int(seed, "spec field 'seeds' entry")
    try:
        cfg = spec.get("config", {})
        configs = {m: SolverConfig(method=m, **cfg) for m in methods if m != REFERENCE}
    except TypeError as exc:
        raise BenchSpecError(f"bad config in spec: {exc}") from exc
    rows = []
    for name, seed, problem in _spec_problems(spec):
        if REFERENCE in methods and any(lv.inequalities.m for lv in problem.levels):
            raise BenchSpecError(f"{name}: {REFERENCE} takes equality-only problems")
        for method in methods:
            rows.append(_row(name, method, seed, problem, configs.get(method), repeats))
    summary = time_ratio_summary(rows)
    if out_path is not None:
        write_table(rows, out_path)
        save_json(summary, str(out_path) + ".summary.json")
    return rows, summary


def time_ratio_summary(rows):
    """Total-time ratios between every ordered pair of methods."""
    totals = {}
    for row in rows:
        totals[row["method"]] = totals.get(row["method"], 0.0) + row["time_s"]
    ratios = {}
    for a in totals:
        for b in totals:
            if a != b and totals[b] > 0:
                ratios[f"{a}/{b}"] = totals[a] / totals[b]
    return {"total_time_s": totals, "time_ratios": ratios}


def write_table(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=TABLE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
