"""Workloads, reference checks, the timed solve loop and the metrics.

Every workload is closed-loop: one process solves one problem at a time
and starts the next solve only when the previous one returned. A unit of
work is one problem solved by each of the workload's methods in turn; the
loop covers the whole pool of problems generated from the seed once, then
keeps cycling through it until the requested time is spent. After every
solve it times a fixed numpy reference loop, the yardstick for the
machine's speed at that moment. Solves go through the public
entry points ``solve_hlsp`` and ``hybrid_solve``, looked up on
``hlsp.cascade`` at call time so that the traced run can rebind them.
The oracle and the sequential equality reference are used only to check
outputs, outside the timers.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hlsp
from hlsp import (
    ConstraintBlock,
    HlspProblem,
    Level,
    MethodNotApplicable,
    SolverConfig,
    brute_force_cascade,
    cascade,
    cascade_objectives,
    lexicographic_lsq_equality,
    random_hlsp,
)

from tracer import instrumented

ORACLE_TOL = 1e-6  # the acceptance gate's objective tolerance
CROSS_FORM_RTOL = 1e-6
EQUALITY_X_TOL = 1e-8  # the acceptance gate's equality-only tolerance
P90_MIN_SAMPLES = 100  # problems; p90 needs at least ten samples beyond it
SHAPE_STREAM = 7919  # seeds the small_oracle shapes, which no --seed changes

INEQ_DENSE_N = 80
# the n = 60 level family (10,20,2,feasible) (5,30,0,mixed) (20,20,3,mixed)
# (0,40,0,mixed) with every row count scaled by 4/3; README.md says why
# not n = 200
INEQ_DENSE_LEVELS = (
    (13, 27, 2, "feasible"),
    (7, 40, 0, "mixed"),
    (27, 27, 3, "mixed"),
    (0, 53, 0, "mixed"),
)
EQ_CHAIN_N = 160
EQ_CHAIN_LEVELS = 16
EQ_CHAIN_ROWS = 9  # rank 8 per level: 16 * 8 = 128 of 160 variables


def _problem_rng(seed, index):
    return np.random.default_rng([seed, index])


def small_oracle_problem(seed, index):
    """n 4-8, 2-3 levels, at most 4 rows per level, all feasibility modes.

    The shape of problem ``index`` (size, levels, row counts, mode) is the
    same for every seed, and the seed draws only the data. Runs with
    different seeds then solve the same mix of shapes, so their timings
    differ by the data and the machine, not by how many large or
    three-level problems the seed happened to draw.
    """
    rng = np.random.default_rng([SHAPE_STREAM, index])
    n = int(rng.integers(4, 9))
    specs = []
    for _ in range(int(rng.integers(2, 4))):
        m_e = int(rng.integers(0, 3))
        m_i = int(rng.integers(0, 5 - m_e))
        mode = ("feasible", "mixed", "infeasible")[int(rng.integers(0, 3))]
        if mode == "infeasible" and m_i < 2:
            mode = "mixed"
        specs.append((m_e, m_i, 0, mode))
    if not any(m_e + m_i for m_e, m_i, _, _ in specs):
        specs[0] = (1, 1, 0, "mixed")
    return random_hlsp(int(_problem_rng(seed, index).integers(2**31)), n, specs)


def ineq_dense_problem(seed, index):
    rng = _problem_rng(seed, index)
    return random_hlsp(int(rng.integers(2**31)), INEQ_DENSE_N, INEQ_DENSE_LEVELS)


def eq_chain_problem(seed, index):
    """Rank-deficient equality levels, then a full-rank regularizer level."""
    rng = _problem_rng(seed, index)
    n = EQ_CHAIN_N
    chain = random_hlsp(
        int(rng.integers(2**31)),
        n,
        [(EQ_CHAIN_ROWS, 0, 1, "feasible")] * EQ_CHAIN_LEVELS,
    )
    reg = Level(
        equalities=ConstraintBlock(np.eye(n), rng.uniform(-1.0, 1.0, n)),
        inequalities=ConstraintBlock.empty(n),
    )
    return HlspProblem(n=n, levels=chain.levels + (reg,))


def warmup_problem():
    """Tiny problem that runs every step form, the -asm search and the fallback."""
    return random_hlsp(
        1, 8, [(2, 2, 0, "mixed"), (1, 3, 0, "feasible"), (2, 0, 1, "feasible")]
    )


def _max_objective_gap(report, objectives):
    return max(abs(a - b) for a, b in zip(report.objectives, objectives))


def check_small_oracle(problem, reference, outcomes):
    return {
        m: _max_objective_gap(rep, reference) <= ORACLE_TOL for m, rep in outcomes.items()
    }


def check_ineq_dense(problem, reference, outcomes):
    """The normal and least-squares forms must agree level by level."""
    if len(outcomes) < 2:
        return {m: False for m in outcomes}
    a, b = (outcomes[m].objectives for m in ("nf-ipm", "ls-ipm"))
    ok = all(abs(x - y) <= CROSS_FORM_RTOL * max(1.0, abs(x), abs(y)) for x, y in zip(a, b))
    return {m: ok for m in outcomes}


def check_eq_chain(problem, reference, outcomes):
    return {
        m: float(np.max(np.abs(rep.x - reference))) <= EQUALITY_X_TOL
        for m, rep in outcomes.items()
    }


def oracle_objectives(problem):
    _, violations = brute_force_cascade(problem)
    return cascade_objectives(problem, violations)


_reference_rng = np.random.default_rng(20210625)
SMALL_MATRICES = [
    _reference_rng.standard_normal((6, 6)) + 6.0 * np.eye(6) for _ in range(8)
]
SMALL_RHS = _reference_rng.standard_normal((6, 3))
DENSE_MATRIX = _reference_rng.standard_normal((INEQ_DENSE_N, INEQ_DENSE_N)) + np.sqrt(
    INEQ_DENSE_N
) * np.eye(INEQ_DENSE_N)
DENSE_RHS = _reference_rng.standard_normal((INEQ_DENSE_N, 3))


def small_reference_loop():
    """Fixed tiny dense solves in numpy, with no hlsp code: a yardstick.

    The machine is shared, and its speed drifts by up to about 1.5x over
    seconds to minutes. Timing a fixed loop right after each solve
    measures the speed the solve ran at. This loop's mix of numpy calls,
    tiny LAPACK solves and Python float conversions is the mix of a small
    hlsp solve; a pure-Python integer loop tracked the solves several
    times worse. About 1 ms on a 2.1 GHz Xeon.
    """
    total = 0.0
    for _ in range(12):
        for a in SMALL_MATRICES:
            x = np.linalg.solve(a, SMALL_RHS)
            total += float(x[0, 0]) + float((a @ x).sum())
    return total


def dense_reference_loop():
    """Fixed QR factorizations and solves at the ineq_dense size: a yardstick.

    Contention from other tenants slows LAPACK at this size by other
    shares than it slows tiny numpy calls, so a workload whose time goes
    to factorizations of this size is measured against them. About 1 ms
    on a 2.1 GHz Xeon.
    """
    total = 0.0
    for _ in range(3):
        r = np.linalg.qr(DENSE_MATRIX, mode="r")
        x = np.linalg.solve(DENSE_MATRIX, DENSE_RHS)
        total += abs(float(r[0, 0])) + float(x[0, 0]) + float((DENSE_MATRIX @ x - DENSE_RHS).sum())
    return total


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple
    pool_size: int
    generate: object  # (seed, index) -> HlspProblem
    reference: object  # problem -> reference data, or None
    check: object  # (problem, reference, {method: report}) -> {method: ok}
    yardstick: object = small_reference_loop  # timed after every solve


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_oracle",
            methods=("nf-ipm", "ls-ipm", "nf-ipm-asm", "ls-ipm-asm", "classical"),
            pool_size=200,
            generate=small_oracle_problem,
            reference=oracle_objectives,
            check=check_small_oracle,
        ),
        Workload(
            name="ineq_dense",
            methods=("nf-ipm", "ls-ipm"),
            pool_size=64,
            generate=ineq_dense_problem,
            reference=lambda problem: None,
            check=check_ineq_dense,
            yardstick=dense_reference_loop,
        ),
        Workload(
            name="eq_chain",
            methods=("nf-ipm", "ls-ipm", "classical"),
            pool_size=32,
            generate=eq_chain_problem,
            reference=lambda problem: lexicographic_lsq_equality(problem),
            check=check_eq_chain,
        ),
    )
}


def solve(problem, method):
    config = SolverConfig(method=method)
    entry = cascade.hybrid_solve if config.uses_asm else cascade.solve_hlsp
    return entry(problem, config)


def setup(workload, seed):
    """The set-up that ``setup_s`` times: imports, problem pool, warm-up solves.

    The warm-up solves one tiny problem with every method, so lazy imports
    and first-call costs are paid here and not in the timed solves.
    """
    import hlsp.bench  # noqa: F401  off the timed path, imported by users of the CLI
    import hlsp.cli  # noqa: F401
    import hlsp.fileio  # noqa: F401

    problems = [workload.generate(seed, i) for i in range(workload.pool_size)]
    warm = warmup_problem()
    for method in workload.methods:
        try:
            solve(warm, method)
        except MethodNotApplicable:
            pass
    return problems


def fact_work(shapes):
    """Flop proxy of a factorization list: sum of min-dim^2 * max-dim."""
    return sum(min(m, k) ** 2 * max(m, k) for m, k in shapes)


def counters(report):
    """Machine-independent work counters of one solve."""
    levels = report.levels
    return {
        "newton.iterations": sum(lv.iterations for lv in levels),
        "factorization.count": sum(lv.factorizations for lv in levels),
        "factorization.fact_work": sum(fact_work(lv.fact_shapes) for lv in levels),
        "newton.dual_evaluations": sum(lv.dual_evaluations for lv in levels),
        "cascade.asm_iterations": sum(lv.asm_iterations for lv in levels),
    }


@dataclass
class Sample:
    unit: int  # index of the problem in the pool
    step: int  # index of the unit in the run; a pool problem can recur
    method: str
    seconds: float
    report: object  # SolveReport, or None when the solve raised
    error: str  # exception type name, or ""
    ok: bool = False
    ref_seconds: float = float("nan")  # the reference loop timed after the solve

    @property
    def work(self):
        """What must repeat for the (problem, method): counted work and verdict."""
        done = counters(self.report) if self.report is not None else {"raised": self.error}
        return {**done, "ok": self.ok}


class CounterLedger:
    """Checks that a (problem, method) pair always does the same counted work."""

    def __init__(self):
        self.seen = {}
        self.mismatches = []

    def record(self, key, value):
        key = str(key)
        if key in self.seen and self.seen[key] != value:
            self.mismatches.append((key, self.seen[key], value))
        self.seen.setdefault(key, value)

    def merge_file(self, path, scope):
        """Compare against and extend the counters stored by earlier runs."""
        stored = {}
        if path.exists():
            stored = json.loads(path.read_text())
        mine = stored.setdefault(scope, {})
        for key, value in self.seen.items():
            if key in mine and mine[key] != value:
                self.mismatches.append((key, mine[key], value))
            mine.setdefault(key, value)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(stored, sort_keys=True))
        tmp.replace(path)


def code_scope(workload, seed):
    """Ledger scope: counters may differ only across code or library versions.

    The benchmark's own files are part of the code, since they generate
    the problems.
    """
    digest = hashlib.sha256()
    sources = [*Path(hlsp.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    for src in sorted(sources):
        digest.update(src.name.encode())
        digest.update(src.read_bytes())
    import scipy

    digest.update(f"{np.__version__} {scipy.__version__}".encode())
    return f"{digest.hexdigest()[:16]}/{workload.name}/{seed}"


def _run_unit(workload, i, k, problem, reference, recorder=None):
    samples, outcomes = [], {}
    for method in workload.methods:
        if recorder is not None:
            recorder.begin_solve()
        t0 = time.perf_counter()
        try:
            report, error = solve(problem, method), ""
        except Exception as exc:  # a solve that raises is a counted failure
            report, error = None, type(exc).__name__
        seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        workload.yardstick()
        ref_seconds = time.perf_counter() - t0
        samples.append(Sample(i, k, method, seconds, report, error, ref_seconds=ref_seconds))
        if report is not None:
            outcomes[method] = report
    verdicts = workload.check(problem, reference, outcomes)
    for s in samples:
        s.ok = verdicts.get(s.method, False)
    return samples


def timed_loop(workload, problems, references, seconds, recorder=None):
    """Run whole units until ``seconds`` have passed and every problem ran once.

    With a recorder, every unit runs untraced and then traced, and the two
    must produce the same counters and the same ``x``.
    """
    samples, traced = [], []
    ledger = CounterLedger()
    t_begin = time.perf_counter()
    k = 0
    while k < len(problems) or time.perf_counter() - t_begin < seconds:
        i = k % len(problems)
        plain = _run_unit(workload, i, k, problems[i], references[i])
        samples.extend(plain)
        if recorder is not None:
            with instrumented(recorder):
                spans = _run_unit(
                    workload, i, k, problems[i], references[i], recorder
                )
            traced.extend(spans)
            for a, b in zip(plain, spans):
                same_x = (a.report is None) == (b.report is None) and (
                    a.report is None or np.array_equal(a.report.x, b.report.x)
                )
                if not same_x:
                    ledger.mismatches.append(((i, a.method), "x", "traced x differs"))
        for s in plain + (spans if recorder is not None else []):
            ledger.record((s.unit, s.method), s.work)
        k += 1
    return samples, traced, ledger


def problem_solve_times(samples):
    """Per problem: the best time of each method over its repeats, averaged.

    On a shared machine other processes slow whole stretches of a run;
    the best of a problem's repeats drops those stretches, in the manner
    of ``timeit``. Averaging over the methods of
    one problem before taking a median keeps the median central even when
    the methods differ several-fold in speed.
    """
    best = {}
    for s in samples:
        key = (s.unit, s.method)
        best[key] = min(best.get(key, s.seconds), s.seconds)
    per_problem = {}
    for (unit, _), seconds in best.items():
        per_problem.setdefault(unit, []).append(seconds)
    return [statistics.fmean(times) for times in per_problem.values()]


def problem_relative_times(samples):
    """Per problem: solve time over reference-loop time, as a median per method.

    Each solve's time is divided by the reference loop timed right after
    it, which cancels most of the machine's drift. Each method's median
    over the problem's repeats is taken, and these are averaged over the
    methods, as in ``problem_solve_times``.
    """
    ratios = {}
    for s in samples:
        ratios.setdefault((s.unit, s.method), []).append(s.seconds / s.ref_seconds)
    per_problem = {}
    for (unit, _), values in ratios.items():
        per_problem.setdefault(unit, []).append(statistics.median(values))
    return [statistics.fmean(values) for values in per_problem.values()]


def first_solves(samples):
    """The first solve of each (problem, method) pair.

    A pair is one operation of the run. Its repeats only re-time it, and
    the counter ledger makes the run incorrect if a repeat's counted work
    or verdict differs, so what the first solves report is a function of
    the seed and the code, not of how many repeats the time allowed.
    """
    first = {}
    for s in samples:
        first.setdefault((s.unit, s.method), s)
    return list(first.values())


def solve_metrics(samples):
    """End-to-end figures of one set of timed solves."""
    times = [s.seconds for s in samples]
    per_problem = problem_solve_times(samples)
    pairs = first_solves(samples)
    returned = [s for s in pairs if s.report is not None]
    levels = [lv for s in returned for lv in s.report.levels if lv.kkt_norm is not None]
    out = {
        "solve_rel_p50": (statistics.median(problem_relative_times(samples)), "ratio"),
        "solve_s_p50": (statistics.median(per_problem), "s"),
        "solves_per_s": (sum(s.ok for s in samples) / sum(times), "1/s"),
        "converged_share": (
            sum(s.report.converged for s in returned) / len(pairs),
            "ratio",
        ),
        "level_converged_share": (
            sum(not lv.sub_converged for lv in levels) / max(1, len(levels)),
            "ratio",
        ),
        "failed_share": (
            sum(not s.ok for s in pairs) / len(pairs),
            "ratio",
        ),
        "reference_loop_s": (statistics.median(s.ref_seconds for s in samples), "s"),
    }
    if len(per_problem) >= P90_MIN_SAMPLES:
        out["solve_s_p90"] = (float(np.percentile(per_problem, 90)), "s")
    return out


def per_layer_metrics(table, recorder, traced, untraced, max_iter):
    """Per-layer figures of the traced solves, each a mean per traced solve."""
    solves = max(1, len(traced))
    reports = [s.report for s in traced if s.report is not None]
    work = [counters(r) for r in reports]

    def per_solve(value):
        return value / solves

    def total(key):
        return sum(c[key] for c in work)

    iterations = total("newton.iterations")
    staged_cols = recorder.givens_columns + recorder.householder_columns
    tests = table.count("newton.converged")
    caps = table.child_counts("cascade.newton_loop", "newton.mehrotra_iteration")
    p50_traced = statistics.median(problem_solve_times(traced))
    p50_plain = statistics.median(problem_solve_times(untraced))
    levels = sum(lv.kkt_norm is not None for r in reports for lv in r.levels)
    s, c, r = "s/solve", "count/solve", "ratio"
    return {
        "factorization.rrqr_s": (per_solve(table.total("factorization.rrqr")), s),
        "factorization.staged_rrqr_s": (
            per_solve(table.total("factorization.staged_rrqr")),
            s,
        ),
        "factorization.solve_s": (
            per_solve(
                table.total(
                    "factorization.Rrqr.solve_basic",
                    "factorization.Rrqr.solve_transpose_basic",
                    "factorization.StagedFactorization.solve_basic",
                    "factorization.OrthoTransform.apply",
                    "factorization.OrthoTransform.apply_transpose",
                )
            ),
            s,
        ),
        "factorization.nullspace_basis_s": (
            per_solve(table.total("factorization.nullspace_basis")),
            s,
        ),
        "factorization.append_row_s": (
            per_solve(table.total("factorization.rrqr_append_row")),
            s,
        ),
        "factorization.fact_work": (per_solve(total("factorization.fact_work")), c),
        "factorization.count": (per_solve(total("factorization.count")), c),
        "factorization.per_iteration": (
            total("factorization.count") / max(1, iterations),
            r,
        ),
        "factorization.givens_col_share": (
            recorder.givens_columns / max(1, staged_cols),
            r,
        ),
        "cascade.solve_self_s": (
            per_solve(table.total_self("cascade.solve_hlsp", "cascade.hybrid_solve")),
            s,
        ),
        "cascade.build_level_context_s": (
            per_solve(table.total("cascade.build_level_context")),
            s,
        ),
        "cascade.chain_extend_s": (
            per_solve(table.total("cascade.NullSpaceChain.extend")),
            s,
        ),
        "cascade.project_s": (
            per_solve(table.total("cascade.project_inactive", "cascade.project_current")),
            s,
        ),
        "cascade.asm_level_self_s": (
            per_solve(table.total_self("cascade.asm_level_feasibility")),
            s,
        ),
        "cascade.asm_iterations": (per_solve(total("cascade.asm_iterations")), c),
        "cascade.levels_solved": (per_solve(levels), c),
        "newton.mehrotra_self_s": (
            per_solve(table.total_self("newton.mehrotra_iteration")),
            s,
        ),
        "newton.line_search_s": (per_solve(table.total("newton.line_search")), s),
        "newton.converged_s": (per_solve(table.total("newton.converged")), s),
        "newton.recover_dual_s": (
            per_solve(table.total("newton.recover_equality_dual")),
            s,
        ),
        "newton.iterations": (per_solve(iterations), c),
        "newton.iter_cap_levels": (per_solve(int(np.sum(caps >= max_iter))), c),
        "newton.dual_evaluations": (per_solve(total("newton.dual_evaluations")), c),
        "newton.dual_evals_per_test": (
            total("newton.dual_evaluations") / max(1, tests),
            r,
        ),
        "problem.validate_s": (per_solve(table.total("problem.validate_problem")), s),
        "problem.tag_bound_rows_s": (
            per_solve(table.total("problem.tag_bound_rows")),
            s,
        ),
        "trace.spans_per_solve": (per_solve(len(table.duration)), c),
        "trace.solve_s_p50_traced": (p50_traced, "s"),
        "trace.solve_s_p50_untraced": (p50_plain, "s"),
        "trace.overhead_s": (p50_traced - p50_plain, "s"),
    }


def per_method_lines(samples, methods):
    lines = []
    for method in methods:
        mine = [s for s in samples if s.method == method]
        if not mine:
            continue
        raised = {}
        for s in mine:
            if s.error:
                raised[s.error] = raised.get(s.error, 0) + 1
        conv = sum(s.report is not None and s.report.converged for s in mine)
        wrong = sum(s.report is not None and not s.ok for s in mine)
        lines.append(
            f"  {method:<11} solves {len(mine):>5}  p50 "
            f"{statistics.median(s.seconds for s in mine):.6f} s  converged "
            f"{conv}/{len(mine)}  wrong {wrong}  raised "
            f"{sum(raised.values())} {raised if raised else ''}".rstrip()
        )
    return lines
