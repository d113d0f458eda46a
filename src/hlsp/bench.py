"""Benchmark suite runner: random instances, methods, timing tables.

Emits one delimiter-separated row per instance and method with work
counters, timing medians over repeats, and the per-level remaining
variable counts, plus a pairwise method time-ratio summary. The
equality-only sweep over the first level's row count reproduces the
qualitative crossover between the step forms.
"""

from __future__ import annotations

import csv
import json
import time

import numpy as np

from .cascade import solve_hlsp
from .config import SolverConfig
from .newton import ls_form_recommended
from .problem import ConstraintBlock, HlspProblem, Level, random_hlsp

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
    "second_fact_dims",
    "ls_recommended",
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


def _fact_work(shapes):
    """Flop proxy for a factorization list: sum of min-dim^2 * max-dim."""
    return int(sum(min(m, k) ** 2 * max(m, k) for m, k in shapes))


def _row(instance_name, method, seed, problem, config, repeats):
    times = []
    report = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        report = solve_hlsp(problem, config)
        times.append(time.perf_counter() - t0)
    kkts = [lv.kkt_norm for lv in report.levels if lv.kkt_norm is not None]
    level1 = problem.levels[0]
    recommended = ls_form_recommended(
        0, level1.inequalities.m, level1.equalities.m, problem.n
    )
    # the classical form's second factorization per iteration is the
    # active-row product; informational for crossover inspection
    second_dims = []
    if config.method == "classical" and len(report.levels) > 1:
        shapes = report.levels[1].fact_shapes
        if len(shapes) > 1:
            second_dims = list(shapes[1])
    return {
        "instance": instance_name,
        "method": config.method,
        "seed": seed,
        "n": problem.n,
        "time_s": float(np.median(times)),
        "iterations": sum(lv.iterations for lv in report.levels),
        "factorizations": sum(lv.factorizations for lv in report.levels),
        "dual_evaluations": sum(lv.dual_evaluations for lv in report.levels),
        "kkt_max": max(kkts) if kkts else 0.0,
        "n_r_per_level": ";".join(str(lv.n_r_after) for lv in report.levels),
        "fact_work": _fact_work(
            [sh for lv in report.levels for sh in lv.fact_shapes]
        ),
        "second_fact_dims": ";".join(map(str, second_dims)),
        "ls_recommended": recommended,
        "converged": report.converged,
    }, report


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
        for seed in spec.get("seeds", [0]):
            try:
                specs = [tuple(lv) for lv in inst["levels"]]
                problem = random_hlsp(seed, int(inst["n"]), specs)
            except (TypeError, ValueError) as exc:
                raise BenchSpecError(f"instance {idx}: {exc}") from exc
            yield inst.get("name", f"inst{idx}"), seed, problem
    sweep = spec.get("equality_sweep")
    if not sweep:
        return
    seed = sweep.get("seed", 0)
    try:
        n = int(sweep.get("n", 60))
        m2 = int(sweep.get("m2", n))
        m1e_values = range(0, n + 1, int(sweep.get("step", 1)))
    except (TypeError, ValueError) as exc:
        raise BenchSpecError(f"equality_sweep: {exc}") from exc
    for m1e in m1e_values:
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
    ``equality_sweep`` with ``n``, ``m2`` and ``step``.
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
    repeats = spec.get("repeats", 5)
    # a JSON true is an int to isinstance; it is not a repeat count
    if isinstance(repeats, bool) or repeats < 1:
        raise BenchSpecError(f"spec field 'repeats' must be a positive integer, got {repeats!r}")
    try:
        configs = {m: SolverConfig(method=m, **spec.get("config", {})) for m in methods}
    except TypeError as exc:
        raise BenchSpecError(f"bad config in spec: {exc}") from exc
    rows = []
    for name, seed, problem in _spec_problems(spec):
        for method in methods:
            row, _ = _row(name, method, seed, problem, configs[method], repeats)
            rows.append(row)
    summary = time_ratio_summary(rows)
    if out_path is not None:
        write_table(rows, out_path)
        with open(str(out_path) + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
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
