"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here; the suite is the exit gate for the
package. Heavy enumeration stays within the oracle's budget and the whole
module is expected to run in well under five minutes.
"""

import statistics
import time
from dataclasses import replace

import numpy as np

from hlsp.bench import equality_sweep_problem
from hlsp.cascade import ASM_MAX_ITER, hybrid_solve, solve_hlsp
from hlsp.config import SolverConfig
from hlsp.factorization import rrqr, staged_rrqr
from hlsp.newton import (
    _dual_free_stationarity,
    _step_solver,
    assemble_f_g,
    recover_equality_dual,
)
from hlsp.oracle import brute_force_cascade, cascade_objectives, lexicographic_lsq_equality
from hlsp.problem import ConstraintBlock, HlspProblem, Level, random_hlsp

from conftest import build_random_level


def verdict(number, name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {number}: {name} ({detail})")
    return ok


def mixed_instances(count):
    """Instance pool for the oracle-equivalence gate: n <= 6, <= 3 levels,
    <= 4 rows per level, all feasibility flavors."""
    instances = []
    for seed in range(count):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(2, 7))
        levels = []
        for _ in range(int(rng.integers(1, 4))):
            m_e = int(rng.integers(0, 3))
            m_i = int(rng.integers(0, 5 - m_e))
            mode = ["feasible", "mixed", "mixed", "infeasible"][int(rng.integers(0, 4))]
            if mode == "infeasible" and m_i < 2:
                mode = "mixed"
            levels.append((m_e, m_i, 0, mode))
        if not any(s[0] + s[1] for s in levels):
            levels[0] = (1, 1, 0, "mixed")
        instances.append(random_hlsp(20_000 + seed, n, levels))
    return instances


class TestCriterion1OracleEquivalence:
    def test_oracle_equivalence(self):
        t0 = time.perf_counter()
        instances = mixed_instances(300)
        worst = 0.0
        failures = 0
        for idx, problem in enumerate(instances):
            x_o, v_o = brute_force_cascade(problem)
            obj_o = cascade_objectives(problem, v_o)
            pure_method = "nf-ipm" if idx % 2 == 0 else "ls-ipm"
            asm_method = "nf-ipm-asm" if idx % 2 == 0 else "ls-ipm-asm"
            rep_pure = solve_hlsp(problem, SolverConfig(method=pure_method))
            rep_hyb = hybrid_solve(problem, SolverConfig(method=asm_method))
            for rep in (rep_pure, rep_hyb):
                diff = max(abs(a - b) for a, b in zip(rep.objectives, obj_o))
                worst = max(worst, diff)
                if diff > 1e-6:
                    failures += 1
        elapsed = time.perf_counter() - t0
        ok = failures == 0 and elapsed < 300.0
        assert verdict(
            1,
            "oracle equivalence on 300 mixed instances",
            ok,
            f"max objective gap {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2EqualityOnlyIdentity:
    def test_equality_only_identity(self):
        worst_x = 0.0
        counter_ok = True
        for seed in range(100):
            rng = np.random.default_rng(30_000 + seed)
            n = int(rng.integers(4, 31))
            specs = []
            budget = n - 1
            for _ in range(int(rng.integers(1, 4))):
                if budget <= 0:
                    break
                m_e = int(rng.integers(1, min(4, budget) + 1))
                specs.append((m_e, 0, 0, "feasible"))
                budget -= m_e
            # full-rank regularization pins the remainder, making x unique
            problem = random_hlsp(seed, n, specs)
            reg = Level(
                equalities=ConstraintBlock(
                    np.eye(n), np.random.default_rng(seed).uniform(-1, 1, n)
                ),
                inequalities=ConstraintBlock.empty(n),
            )
            problem = HlspProblem(n=n, levels=problem.levels + (reg,))
            rep = solve_hlsp(problem, SolverConfig(method="ls-ipm"))
            x_ref = lexicographic_lsq_equality(problem)
            worst_x = max(worst_x, float(np.max(np.abs(rep.x - x_ref))))
            for lv in rep.levels:
                if lv.iterations != 1 or lv.factorizations != 1:
                    counter_ok = False
        ok = worst_x < 1e-8 and counter_ok
        assert verdict(
            2,
            "equality-only hierarchies match the sequential reference",
            ok,
            f"max |x - x_ref| {worst_x:.2e}, one iteration and one "
            f"factorization per level: {counter_ok}",
        )


class TestCriterion3KktConvergence:
    def test_kkt_convergence(self):
        iters = []
        failed = 0
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed + 5000)
            n = int(rng.integers(4, 12))
            specs = []
            used = 0
            for _ in range(int(rng.integers(1, 4))):
                m_e = int(rng.integers(0, max(1, (n - used) // 2) + 1))
                m_i = int(rng.integers(0, 4))
                specs.append((m_e, m_i, 0, "feasible"))
                used += m_e
            problem = random_hlsp(seed, n, specs)
            rep = solve_hlsp(problem, SolverConfig(method="nf-ipm"))
            for lv in rep.levels:
                if lv.kkt_norm is not None and lv.iterations > 0:
                    iters.append(lv.iterations)
                    worst = max(worst, lv.kkt_norm)
            if not rep.converged:
                failed += 1
        med = statistics.median(iters)
        ok = failed == 0 and worst < 1e-12 and med <= 15
        assert verdict(
            3,
            "every level reaches 1e-12 within the cap",
            ok,
            f"{failed}/100 failures, worst norm {worst:.2e}, median iterations {med}",
        )


class TestCriterion4CrossFormAgreement:
    def test_cross_form_agreement(self):
        worst = 0.0
        worst_classical = 0.0
        classical_checked = 0
        for seed in range(200):
            rng = np.random.default_rng(seed + 700)
            n = int(rng.integers(4, 9))
            m_prior = int(rng.integers(0, 3))
            n_r = n - m_prior
            # enough rows for a nonsingular reduced system, so the Newton
            # step is unique and the two forms must coincide
            m_eq = int(rng.integers(0, 4))
            m_ineq = int(rng.integers(0, 4))
            m_inact = max(int(rng.integers(0, 4)), n_r + 1 - m_eq - m_ineq)
            ctx, s = build_random_level(
                seed, n=n, m_eq=m_eq, m_ineq=m_ineq, m_inact=m_inact, m_prior=m_prior
            )
            f, g = assemble_f_g(ctx, s, 0.003, 0.004)
            # the basis has a unit row per free variable: dx there is dz
            dx_nf = _step_solver(ctx, s, "normal")(f, g).dx
            dz_nf = dx_nf[ctx.basis.free]
            dz_ls = _step_solver(ctx, s, "ls")(f, g).dx[ctx.basis.free]
            scale = max(1.0, float(np.linalg.norm(dz_nf)))
            worst = max(worst, float(np.linalg.norm(dz_nf - dz_ls)) / scale)
            if m_eq + m_ineq + m_inact >= n + 1:
                stacked = np.vstack([ctx.a_eq, ctx.a_ineq, ctx.a_inact])
                if rrqr(stacked).rank == n:
                    dx_cl = _step_solver(ctx, s, "classical")(f, g).dx
                    classical_checked += 1
                    worst_classical = max(
                        worst_classical,
                        float(np.linalg.norm(dx_cl - dx_nf))
                        / max(1.0, float(np.linalg.norm(dx_nf))),
                    )
        ok = worst < 1e-8 and worst_classical < 1e-8 and classical_checked > 20
        assert verdict(
            4,
            "projected-normal and least-squares steps agree on 200 states",
            ok,
            f"max relative gap {worst:.2e}; classical checked on "
            f"{classical_checked} full-rank states, max gap {worst_classical:.2e}",
        )


class TestCriterion5DualRecursion:
    def test_dual_recursion(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed + 900)
            n = int(rng.integers(6, 12))
            stages = int(rng.integers(2, 5))
            # independent active rows keep the multipliers unique, which
            # the comparison against the least-squares solve needs
            m_prior = max(1, min(3, (n - 1) // stages))
            ctx, s = build_random_level(
                seed + 1300,
                n=n,
                m_eq=m_prior,
                m_ineq=0,
                m_inact=0,
                m_prior=m_prior,
                prior_stages=stages,
            )
            lam_true = rng.uniform(-2, 2, ctx.m_act)
            ctx.a_eq = ctx.a_act.copy()
            ctx.b_eq = np.zeros(ctx.m_act)
            s = replace(s, v_eq=lam_true)
            lam = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
            rhs = ctx.a_eq.T @ s.v_eq
            lam_ref = np.linalg.lstsq(ctx.a_act.T, rhs, rcond=None)[0]
            scale = max(1.0, float(np.linalg.norm(lam_ref)))
            worst = max(worst, float(np.linalg.norm(lam - lam_ref)) / scale)
        ok = worst < 1e-8
        assert verdict(
            5,
            "recursive duals equal the direct least-squares solve",
            ok,
            f"max relative gap {worst:.2e} over 100 chains",
        )


class TestCriterion6StagedFactorization:
    def test_staged_rrqr_agreement(self):
        worst = 0.0
        bound_over_stage1 = 0
        for seed in range(200):
            rng = np.random.default_rng(seed + 1100)
            n = int(rng.integers(2, 13))
            m_a = int(rng.integers(0, n + 3))
            m_b = int(rng.integers(0, 10))
            a = rng.uniform(-1, 1, (m_a, n))
            b = rng.uniform(-1, 1, (m_b, n))
            if seed % 3 == 0 and m_b >= 2:
                # bound-heavy top block: single +-1 entries per row
                b = np.zeros((m_b, n))
                for i in range(m_b):
                    b[i, rng.integers(0, n)] = rng.choice([-1.0, 1.0])
                bound_over_stage1 += m_a > 0
            staged = staged_rrqr(b, rrqr(a))
            rhs = rng.uniform(-1, 1, m_a + m_b)
            stack = np.vstack([b, a])
            x = staged.solve_basic(rhs[:m_b], rhs[m_b:])
            res = float(np.linalg.norm(stack @ x - rhs))
            x_direct = rrqr(stack).solve_basic(rhs)
            res_direct = float(np.linalg.norm(stack @ x_direct - rhs))
            res_lstsq = float(
                np.linalg.norm(stack @ np.linalg.lstsq(stack, rhs, rcond=None)[0] - rhs)
            )
            worst = max(
                worst,
                abs(res - res_direct) / max(1.0, res_direct),
                abs(res - res_lstsq) / max(1.0, res_lstsq),
            )
        ok = worst < 1e-8 and bound_over_stage1 >= 30
        assert verdict(
            6,
            "staged and direct factorizations give equal residuals",
            ok,
            f"max relative residual gap {worst:.2e}; bound rows over a nonempty "
            f"stage 1 on {bound_over_stage1} stacks",
        )


class TestCriterion7LazyDual:
    def test_lazy_dual_economy(self):
        # the sample is the first 30 qualifying solves, drawn from seed 2000
        # upward: only a solve in which some level takes two or more Newton
        # iterations counts, and an early hand-over makes those rarer
        checked = 0
        violations = 0
        for seed in range(400):
            rng = np.random.default_rng(seed + 2000)
            n = int(rng.integers(3, 8))
            specs = [
                (int(rng.integers(0, 2)), int(rng.integers(1, 4)), 0, "feasible"),
                (int(rng.integers(0, 2)), int(rng.integers(1, 3)), 0, "mixed"),
            ]
            problem = random_hlsp(seed + 2500, n, specs)
            rep = solve_hlsp(problem, SolverConfig(method="nf-ipm"))
            if not any(lv.iterations >= 2 for lv in rep.levels):
                continue
            checked += 1
            duals = sum(lv.dual_evaluations for lv in rep.levels)
            iters = sum(lv.iterations for lv in rep.levels)
            if not duals < iters:
                violations += 1
            if checked == 30:
                break
        ok = violations == 0 and checked >= 30
        assert verdict(
            7,
            "dual evaluations stay strictly below Newton iterations",
            ok,
            f"{checked} instances checked in {seed + 1} seeds, {violations} violations",
        )


def level2_fact_work(report):
    if len(report.levels) < 2:
        return 0
    return sum(
        min(m, k) ** 2 * max(m, k) for m, k in report.levels[1].fact_shapes
    )


class TestCriterion8SweepTrend:
    def test_equality_sweep_trend(self, tmp_path):
        n = 60
        work = {"nf-ipm": [], "ls-ipm": []}
        classical_second = []
        n_r_ok = True
        rows = []
        for m1e in range(0, n + 1):
            problem = equality_sweep_problem(n, m1e, n, seed=0)
            for method in ("nf-ipm", "ls-ipm", "classical"):
                t0 = time.perf_counter()
                rep = solve_hlsp(problem, SolverConfig(method=method))
                wall = time.perf_counter() - t0
                rows.append(
                    f"{m1e},{method},{wall:.6f},"
                    f"{sum(lv.iterations for lv in rep.levels)},"
                    f"{level2_fact_work(rep)}"
                )
                if rep.levels[0].n_r_after != n - m1e:
                    n_r_ok = False
                if method == "classical":
                    # per iteration the shapes are the quadratic term and
                    # the active-row product; the latter exists once the
                    # first level pinned anything
                    shapes = rep.levels[1].fact_shapes if len(rep.levels) > 1 else []
                    dim = shapes[1][0] if m1e > 0 and len(shapes) > 1 else 0
                    classical_second.append(dim)
                else:
                    work[method].append(level2_fact_work(rep))
        table = tmp_path / "sweep_times.csv"
        table.write_text(
            "m1e,method,wall_time_s,iterations,level2_fact_work\n" + "\n".join(rows) + "\n"
        )
        monotone = {
            m: all(a >= b for a, b in zip(vals, vals[1:])) for m, vals in work.items()
        }
        # at the last sweep point the first level consumes everything and
        # the second level never runs, so growth is judged before it
        ran = classical_second[:-1]
        classical_grows = (
            all(a <= b for a, b in zip(ran, ran[1:])) and ran[-1] > ran[1]
        )
        ok = n_r_ok and all(monotone.values()) and classical_grows
        assert verdict(
            8,
            "equality-only sweep reproduces the crossover trend",
            ok,
            f"n_r accounting {n_r_ok}, level-2 work non-increasing {monotone}, "
            f"classical second factorization grows {classical_grows}; "
            f"timing table at {table}",
        )


def ill_conditioned_instance(seed, n=8):
    """One feasible level whose equality block spans eight decades."""
    rng = np.random.default_rng(seed)
    m_e, m_i = 4, 3
    a_e = rng.uniform(-1, 1, (m_e, n))
    a_e /= np.linalg.norm(a_e, axis=1, keepdims=True)
    scales = np.logspace(0, -8, m_e)
    a_e = a_e * scales[:, None]
    b_e = a_e @ rng.uniform(-1, 1, n) + scales * rng.uniform(-0.5, 0.5, m_e)
    x0 = rng.uniform(-1, 1, n)
    a_i = rng.uniform(-1, 1, (m_i, n))
    b_i = a_i @ x0 - rng.uniform(0.1, 1.0, m_i)
    level = Level(
        equalities=ConstraintBlock(a_e, b_e),
        inequalities=ConstraintBlock(a_i, b_i),
    )
    reg = Level(
        equalities=ConstraintBlock(np.eye(n), np.zeros(n)),
        inequalities=ConstraintBlock.empty(n),
    )
    problem = HlspProblem(n=n, levels=(level, reg))
    assert np.linalg.cond(a_e) >= 1e8
    return problem


class TestCriterion9IllConditionedRobustness:
    def test_interior_point_robustness(self):
        converged = 0
        iteration_counts = []
        asm_capped = 0
        for seed in range(50):
            problem = ill_conditioned_instance(seed + 3000)
            rep = solve_hlsp(problem, SolverConfig(method="nf-ipm"))
            if rep.converged:
                converged += 1
                iteration_counts.append(sum(lv.iterations for lv in rep.levels))
            hyb = hybrid_solve(problem, SolverConfig(method="nf-ipm-asm"))
            if any(lv.asm_iterations >= ASM_MAX_ITER for lv in hyb.levels):
                asm_capped += 1
        ratio = (
            max(iteration_counts) / min(iteration_counts)
            if iteration_counts
            else np.inf
        )
        ok = converged >= 45 and ratio <= 2.0
        assert verdict(
            9,
            "interior point stays robust on ill-conditioned instances",
            ok,
            f"{converged}/50 converged, iteration spread x{ratio:.2f}, "
            f"hybrid hit its cap on {asm_capped} instances (tolerated)",
        )
