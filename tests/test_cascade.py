import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlsp import cascade, newton
from hlsp.cascade import (
    CascadeState,
    InactiveCarry,
    InvalidProblemError,
    NullSpaceChain,
    _residuals,
    asm_level_feasibility,
    build_level_context,
    hybrid_solve,
    linear_level,
    newton_loop,
    project_current,
    project_inactive,
    solve_hlsp,
)
from hlsp.config import METHODS, SolverConfig
from hlsp.factorization import ChainBasis, NonFiniteError, rrqr
from hlsp.fileio import load_problem, problem_from_dict
from hlsp.newton import (
    Counters,
    IterateState,
    _dual_free_stationarity,
    converged,
    initial_state,
    recover_equality_dual,
)
from hlsp.oracle import brute_force_cascade, cascade_objectives
from hlsp.problem import ConstraintBlock, HlspProblem, Level, random_hlsp

from test_found import INSTANCES, load


def lvl(n, ae, be, ai, bi):
    return Level(
        equalities=ConstraintBlock(np.asarray(ae, dtype=float).reshape(-1, n), be),
        inequalities=ConstraintBlock(np.asarray(ai, dtype=float).reshape(-1, n), bi),
    )


def asm_problem(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    mode = ["feasible", "mixed"][seed % 2]
    return random_hlsp(seed + 300, n, [(1, 2, 0, mode), (1, 1, 0, "feasible")])


def level_work(report):
    """Per-level (iterations, factorizations, asm iterations) of a solve."""
    return [(v.iterations, v.factorizations, v.asm_iterations) for v in report.levels]


def two_sided_conflict():
    """One variable squeezed by x >= 1 and x <= 0; optimum splits at 0.5."""
    return HlspProblem(
        n=1,
        levels=(
            lvl(1, np.zeros((0, 1)), [], [[1.0], [-1.0]], [1.0, 0.0]),
            lvl(1, [[1.0]], [0.0], np.zeros((0, 1)), []),
        ),
    )


class TestSolveExamples:
    def test_nullspace_exhaustion_two_levels(self):
        p = HlspProblem(
            n=1,
            levels=(
                lvl(1, [[1.0]], [1.0], np.zeros((0, 1)), []),
                lvl(1, [[1.0]], [3.0], np.zeros((0, 1)), []),
            ),
        )
        rep = solve_hlsp(p, SolverConfig(method="ls-ipm"))
        assert abs(rep.x[0] - 1.0) < 1e-12
        assert abs(rep.levels[1].v_star_norm - 2.0) < 1e-10
        assert rep.levels[0].n_r_after == 0
        assert rep.levels[1].iterations == 0

    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm"])
    def test_conflicting_bounds_consume_the_variable(self, method):
        rep = solve_hlsp(two_sided_conflict(), SolverConfig(method=method))
        assert abs(rep.x[0] - 0.5) < 1e-8
        assert abs(rep.objectives[0] - 0.25) < 1e-10
        assert rep.levels[0].n_r_after == 0

    def test_carried_constraint_activates_at_lower_level(self):
        p = HlspProblem(
            n=2,
            levels=(
                lvl(2, np.zeros((0, 2)), [], [[1.0, 0.0]], [1.0]),
                lvl(2, np.eye(2), [0.0, 0.0], np.zeros((0, 2)), []),
            ),
        )
        rep = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        assert np.allclose(rep.x, [1.0, 0.0], atol=1e-7)
        x_o, v_o = brute_force_cascade(p)
        assert np.allclose(rep.objectives, cascade_objectives(p, v_o), atol=1e-8)

    def test_virtual_level_created_between_levels(self):
        p = HlspProblem(
            n=2,
            levels=(
                lvl(2, np.zeros((0, 2)), [], [[1.0, 0.0]], [1.0]),
                lvl(2, [[1.0, 0.0]], [0.0], np.zeros((0, 2)), []),
                lvl(2, [[0.0, 1.0]], [5.0], np.zeros((0, 2)), []),
            ),
        )
        rep = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        assert np.allclose(rep.x, [1.0, 5.0], atol=1e-7)
        assert rep.levels[1].rank_virtual == 1
        assert abs(rep.objectives[1] - 0.5) < 1e-8

    def test_empty_level_passes_through(self):
        p = HlspProblem(
            n=2,
            levels=(
                lvl(2, np.zeros((0, 2)), [], np.zeros((0, 2)), []),
                lvl(2, np.eye(2), [1.0, 2.0], np.zeros((0, 2)), []),
            ),
        )
        rep = solve_hlsp(p, SolverConfig(method="ls-ipm"))
        assert rep.levels[0].iterations == 0
        assert np.allclose(rep.x, [1.0, 2.0], atol=1e-10)

    def test_determinism(self):
        p = random_hlsp(3, 5, [(2, 2, 0, "mixed"), (1, 2, 0, "feasible")])
        r1 = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        r2 = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        assert np.array_equal(r1.x, r2.x)
        assert r1.objectives == r2.objectives

    def test_invalid_problem_rejected(self):
        level = Level(
            equalities=ConstraintBlock(np.zeros((1, 3)), np.zeros(1)),
            inequalities=ConstraintBlock(np.zeros((1, 2)), np.zeros(1)),
        )
        with pytest.raises(InvalidProblemError):
            solve_hlsp(HlspProblem(n=3, levels=(level,)))

    def test_iteration_cap_marks_sub_converged(self):
        # the active-set step finishes a capped barrier level, so the cap
        # shows only where that step falls short too: scaled.json's level 1,
        # whose rank decision drops its two small conflicting rows
        config = SolverConfig(method="nf-ipm", max_iter=2)
        rep = solve_hlsp(scaled_rows_problem(), config)
        assert rep.levels[0].sub_converged
        assert not rep.converged
        assert rep.levels[0].iterations <= 2

    def test_capped_barrier_level_is_finished_by_the_active_set_step(self, monkeypatch):
        # an early active-set step from this level's first iterate ends it;
        # with no pair ever decided, no early step runs, the level runs to
        # the cap of two, and one active-set call finishes it
        p = random_hlsp(5, 4, [(1, 3, 0, "mixed")])
        real, calls = cascade.asm_level_feasibility, []

        def recording(ctx, x, work, budget=None):
            calls.append(x)
            return real(ctx, x, work, budget)

        monkeypatch.setattr(cascade, "asm_level_feasibility", recording)
        early = solve_hlsp(p, SolverConfig(method="nf-ipm", max_iter=2))
        assert early.levels[0].iterations == 1 and len(calls) == 1
        monkeypatch.setattr(cascade, "_undecided", lambda before, s: math.inf)
        calls.clear()
        rep = solve_hlsp(p, SolverConfig(method="nf-ipm", max_iter=2))
        assert rep.levels[0].iterations == 2 and len(calls) == 1
        assert rep.converged
        full = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        assert np.allclose(rep.objectives, full.objectives, rtol=0.0, atol=1e-12)

    def test_warm_start_primal(self):
        p = random_hlsp(8, 4, [(2, 0, 0, "feasible")])
        rep0 = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        rep1 = solve_hlsp(p, SolverConfig(method="nf-ipm", warm_start_x=rep0.x))
        assert np.allclose(rep0.x, rep1.x, atol=1e-9)

    @pytest.mark.parametrize(
        "warm",
        [np.zeros(3), np.zeros((4, 1)), [0.0, np.nan, 0.0, 0.0], [np.inf] * 4, ["a"] * 4],
        ids=["short", "column", "nan", "inf", "text"],
    )
    def test_invalid_warm_start_rejected(self, warm):
        p = random_hlsp(8, 4, [(2, 1, 0, "feasible")])
        with pytest.raises(ValueError, match="warm_start_x"):
            solve_hlsp(p, SolverConfig(warm_start_x=warm))


class TestProjections:
    def test_no_activation_when_strictly_satisfied(self):
        p = HlspProblem(
            n=2,
            levels=(
                lvl(2, np.zeros((0, 2)), [], [[1.0, 0.0]], [-1.0]),
                lvl(2, [[0.0, 1.0]], [1.0], np.zeros((0, 2)), []),
            ),
        )
        config = SolverConfig()
        state = CascadeState.fresh(2)
        counters = Counters()
        ctx = build_level_context(state, p.levels[0], config, counters)
        start = initial_state(ctx, np.zeros(2))
        s = newton_loop(ctx, start, config.step_form)[0]
        project_inactive(state, s.x, s.lam_inact, counters)
        project_current(state, p.levels[0], _residuals(p.levels[0], s.x), counters)
        # satisfied row carried, nothing active
        assert state.carry.m == 1
        assert state.chain.n_r == 2  # no rank consumed
        # now solve level 2 and activate from the carry only if saturated
        ctx2 = build_level_context(state, p.levels[1], config, counters)
        s2 = newton_loop(ctx2, initial_state(ctx2, s.x), config.step_form)[0]
        stages_before = len(state.chain.stages)
        project_inactive(state, s2.x, s2.lam_inact, counters)
        assert len(state.chain.stages) == stages_before  # x2 move ignores x1 >= -1
        assert state.carry.m == 1

    def test_saturated_with_significant_dual_activates(self):
        state = CascadeState.fresh(2)
        state.carry.append(np.array([[1.0, 0.0]]), np.array([1.0]))
        counters = Counters()
        x = np.array([1.0 + 1e-10, 3.0])
        rank, lam_inact = project_inactive(state, x, np.array([0.3]), counters)
        assert rank == 1 and lam_inact.shape == (0,)
        assert np.array_equal(state.chain.rows, [[1.0, 0.0]])
        assert state.carry.m == 0
        # the stored violation is the exact residual at activation time, so
        # the pinned row stays consistent for every later level
        assert abs(state.chain.v_star[0] - 1e-10) < 1e-16

    def test_accidentally_saturated_not_activated(self):
        state = CascadeState.fresh(2)
        state.carry.append(np.array([[1.0, 0.0]]), np.array([1.0]))
        counters = Counters()
        lam = np.array([1e-10])
        rank, lam_inact = project_inactive(state, np.array([1.0 + 1e-10, 0.0]), lam, counters)
        assert rank == 0 and lam_inact is lam
        assert state.carry.m == 1

    def test_projection_leaves_the_iterate_and_returns_the_carried_duals(self):
        state = CascadeState.fresh(3)
        state.carry.append(np.eye(3), np.array([-5.0, 1.0, -5.0]))
        config, counters = SolverConfig(), Counters()
        # the middle row is saturated with a significant dual
        s = IterateState(
            x=np.array([0.0, 1.0 + 1e-10, 0.0]),
            v_eq=np.zeros(0),
            v_ineq=np.zeros(0),
            w_ineq=np.zeros(0),
            w_inact=np.array([5.0, 1e-10, 5.0]),
            lam_inact=np.array([0.2, 0.3, 0.4]),
        )
        arrays = {name: getattr(s, name) for name in ("x", "w_inact", "lam_inact")}
        copies = {name: a.copy() for name, a in arrays.items()}
        rank, lam_inact = project_inactive(state, s.x, s.lam_inact, counters)
        assert rank == 1 and state.carry.m == 2
        for name, a in arrays.items():
            assert getattr(s, name) is a and np.array_equal(a, copies[name]), name
        assert np.array_equal(lam_inact, s.lam_inact[[True, False, True]])
        assert lam_inact.shape == (state.carry.m,)

    def test_last_duals_hold_the_rows_still_carried(self, monkeypatch):
        # level 1 carries x1 <= 1 and x2 <= 5; level 2's x1 = 2 saturates
        # the first, whose row moves into the chain
        p = HlspProblem(
            n=2,
            levels=(
                lvl(2, np.zeros((0, 2)), [], [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -5.0]),
                lvl(2, [[1.0, 0.0]], [2.0], np.zeros((0, 2)), []),
            ),
        )
        real, seen = cascade.project_inactive, []

        def recording(state, x, lam_inact, counters, retained=None):
            out = real(state, x, lam_inact, counters, retained)
            seen.append((out[1], state.carry.m))
            return out

        monkeypatch.setattr(cascade, "project_inactive", recording)
        rep = solve_hlsp(p, SolverConfig())
        assert [lv.rank_virtual for lv in rep.levels] == [0, 1]
        lam_inact, carried = seen[-1]
        assert carried == 1 and rep.last_duals["lam_inact"].shape == (1,)
        assert rep.last_duals["lam_inact"] is lam_inact

    def test_violated_row_pinned_with_its_violation(self):
        p = two_sided_conflict()
        config = SolverConfig()
        state = CascadeState.fresh(1)
        counters = Counters()
        ctx = build_level_context(state, p.levels[0], config, counters)
        start = initial_state(ctx, np.zeros(1))
        s = newton_loop(ctx, start, config.step_form)[0]
        assert project_inactive(state, s.x, s.lam_inact, counters)[0] == 0
        assert project_current(state, p.levels[0], _residuals(p.levels[0], s.x), counters) == 1
        # both inequalities are pinned, in level order, with their violations
        assert np.array_equal(state.chain.rows, [[1.0], [-1.0]])
        assert np.allclose(state.chain.v_star, [-0.5, -0.5], atol=1e-8)
        assert state.chain.n_r == 0  # rank 1 of 1 consumed

    def test_active_stack_stacks_every_stage(self):
        def assert_stacked(chain, rhs, v_star):
            stacked = np.vstack([st.rows for st in chain.stages])
            assert np.array_equal(chain.rows, stacked)
            assert np.array_equal(chain.rhs, rhs)
            assert np.array_equal(chain.v_star, v_star)

        state = CascadeState.fresh(4)
        rows, rhs, v_star = state.chain.rows, state.chain.rhs, state.chain.v_star
        assert rows.shape == (0, 4) and rhs.shape == (0,) and v_star.shape == (0,)
        config = SolverConfig()
        counters = Counters()
        # the equality and the violated first inequality activate; the
        # second inequality is satisfied and carried
        level = lvl(4, [[1, 0, 0, 0]], [1.0], [[0, 1, 0, 0], [0, 0, 1, 0]], [0.5, -1.0])
        s = SimpleNamespace(x=np.array([1.0, 0.2, 0.0, 0.0]))
        assert project_current(state, level, _residuals(level, s.x), counters) == 2
        assert np.array_equal(state.chain.rows, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert_stacked(state.chain, [1.0, 0.5], [0.0, 0.2 - 0.5])
        # the carried row saturates with a significant dual
        s = SimpleNamespace(
            x=np.array([1.0, 0.2, -1.0, 0.0]),
            lam_inact=np.array([0.3]),
        )
        assert project_inactive(state, s.x, s.lam_inact, counters)[0] == 1
        assert np.array_equal(state.chain.rows[2:], [[0, 0, 1, 0]])
        assert_stacked(state.chain, [1.0, 0.5, -1.0], [0.0, 0.2 - 0.5, 0.0])

    def test_context_active_stack_survives_later_extensions(self):
        # the chain appends rows into a buffer that held contexts view;
        # stages of 3 and 1 rows leave the buffer with room for 2 more, so
        # the next stage writes into the buffer the second context views
        rng = np.random.default_rng(43)
        n = 30
        state = CascadeState.fresh(n)
        config, counters = SolverConfig(), Counters()
        s = SimpleNamespace(x=rng.uniform(-1, 1, n))
        plan = [("real", 3), ("real", 1), ("virtual", 2), ("real", 9), ("virtual", 6)]
        expected, held = [], []

        def stack(ctx):
            return ctx.a_act, ctx.b_act, ctx.v_act

        for kind, m in plan:
            a, b = rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m)
            if kind == "real":
                level = lvl(n, a, b, np.zeros((0, n)), [])
                assert project_current(state, level, _residuals(level, s.x), counters) == m
            else:
                # carried rows saturated at x, with significant duals
                b = a @ s.x
                state.carry.append(a, b)
                s.lam_inact = np.ones(m)
                assert project_inactive(state, s.x, s.lam_inact, counters)[0] == m
            expected.append((a, b, a @ s.x - b))
            if len(held) < 2:
                ctx = build_level_context(state, level, config, counters)
                held.append((ctx, [v.copy() for v in stack(ctx)]))
        for ctx, copies in held:
            for view, copy in zip(stack(ctx), copies):
                assert np.array_equal(view, copy)
        chain = state.chain
        assert np.array_equal(chain.rows, np.vstack([e[0] for e in expected]))
        assert np.array_equal(chain.rhs, np.concatenate([e[1] for e in expected]))
        assert np.array_equal(chain.v_star, np.concatenate([e[2] for e in expected]))

    def test_tighter_bound_merging(self):
        state = CascadeState.fresh(3)
        state.carry.append(np.array([[0.0, 1.0, 0.0]]), np.array([0.3]))
        state.carry.append(
            np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]), np.array([0.7, 2.0])
        )
        assert state.carry.m == 2
        assert state.carry.rhs[0] == 0.7

    def test_opposite_side_bounds_not_merged(self):
        state = CascadeState.fresh(2)
        state.carry.append(np.array([[0.0, 1.0]]), np.array([0.3]))
        state.carry.append(np.array([[0.0, -1.0]]), np.array([-0.9]))
        assert state.carry.m == 2

    def test_duplicate_bounds_within_one_batch_merge(self):
        state = CascadeState.fresh(2)
        state.carry.append(
            np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]),
            np.array([0.3, 0.9, 0.1]),
        )
        assert state.carry.m == 2
        assert state.carry.rhs[0] == 0.9

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_carry_merge_matches_first_seen_reference(self, data):
        n = data.draw(st.integers(1, 2))
        carry = InactiveCarry(n)
        ref_rows, ref_rhs = [], []
        for _ in range(data.draw(st.integers(1, 8))):
            if ref_rows and data.draw(st.booleans()):
                m = len(ref_rows)
                mask = np.array(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
                carry.remove(mask)
                ref_rows = [r for r, out in zip(ref_rows, mask) if not out]
                ref_rhs = [b for b, out in zip(ref_rhs, mask) if not out]
            else:
                rows, rhs = carry_batch(data, n)
                carry.append(rows, rhs)
                for row, b in zip(rows, rhs):
                    hit = [i for i, r in enumerate(ref_rows) if same_bound(r, row)]
                    if hit:
                        ref_rhs[hit[0]] = max(ref_rhs[hit[0]], b)
                    else:
                        ref_rows.append(row)
                        ref_rhs.append(b)
            assert np.array_equal(carry.matrix, np.array(ref_rows).reshape(-1, n))
            assert np.array_equal(carry.rhs, np.array(ref_rhs))


def carry_batch(data, n):
    """Rows mixing bounds of either side, scaled single entries and dense rows."""
    rows = []
    for _ in range(data.draw(st.integers(0, 6))):
        row = np.zeros(n)
        j = data.draw(st.integers(0, n - 1))
        kind = data.draw(st.sampled_from(["bound", "scaled", "dense"]))
        if kind == "dense":
            entries = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
            row = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
        else:
            values = [-1.0, 1.0] if kind == "bound" else [-2.0, -0.5, 0.5, 3.0]
            row[j] = data.draw(st.sampled_from(values))
        rows.append(row)
    # few distinct right-hand sides, so that merged bounds often tie
    rhs = [data.draw(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 2.0])) for _ in rows]
    return np.array(rows).reshape(-1, n), np.array(rhs)


def same_bound(a, b):
    """Both rows are bounds (one nonzero, of magnitude 1) on one variable and side."""
    nz = np.flatnonzero(a)
    return (
        nz.size == 1
        and abs(a[nz[0]]) == 1.0
        and np.array_equal(np.flatnonzero(b), nz)
        and a[nz[0]] == b[nz[0]]
    )


def restated_row_problem():
    """Level 2 restates a row of level 1; level 3 pins x = 0 (n = 3)."""
    rows = [[0.3, 0.8, 0.6], [-0.5, -0.4, 0.7]]
    no_rows = np.zeros((0, 3))
    return HlspProblem(
        n=3,
        levels=(
            lvl(3, rows, [-1.0, 0.6], no_rows, []),
            lvl(3, rows[:1], [-1.0], no_rows, []),
            lvl(3, np.eye(3), np.zeros(3), no_rows, []),
        ),
    )


class TestRestatedRows:
    @pytest.mark.parametrize("method", METHODS)
    def test_restated_row_consumes_no_variable(self, method):
        # level 2 projects to rounding noise; its rank is judged against
        # the unprojected row, so level 3 keeps the free variable
        p = restated_row_problem()
        rep = solve_hlsp(p, SolverConfig(method=method))
        _, v_o = brute_force_cascade(p)
        assert np.allclose(rep.objectives, cascade_objectives(p, v_o), rtol=0, atol=1e-9)
        assert rep.levels[1].rank_current == 0


def box_and_task():
    """A box, then rows that repeat two of its bounds, then a task."""
    box = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
    return HlspProblem(
        n=3,
        levels=(
            lvl(3, np.zeros((0, 3)), [], box, [-1, -1, -2, -2]),
            lvl(3, np.zeros((0, 3)), [], [[1, 0, 0], [0, -1, 0], [0.5, 0.5, 1]],
                [0.5, -1.5, 0.2]),
            lvl(3, np.eye(3), [0, 3, 1], np.zeros((0, 3)), []),
        ),
    )


class TestBoundRows:
    @pytest.mark.parametrize("method", METHODS)
    def test_merged_bounds_match_brute_force(self, method):
        p = box_and_task()
        rep = solve_hlsp(p, SolverConfig(method=method))
        _, v_o = brute_force_cascade(p)
        assert np.allclose(rep.objectives, cascade_objectives(p, v_o), rtol=0, atol=1e-6)
        # the two bound rows of level 2 merge into the box: 4 + 1, not 4 + 3
        assert rep.levels[2].m_inact == 5


    @pytest.mark.parametrize("seed", range(4))
    def test_least_squares_form_on_box_plus_task(self, seed):
        # level 1 stacks 2n bound rows over a task while the basis is still
        # I: the staged factorization of the least-squares step meets them
        # directly
        n, t = 40, 5
        rng = np.random.default_rng(seed)
        task1, task2 = rng.uniform(-1, 1, (t, n)), rng.uniform(-1, 1, (t, n))
        box = np.vstack([np.eye(n), -np.eye(n)])
        p = HlspProblem(
            n=n,
            levels=(
                lvl(n, task1, rng.uniform(-1, 1, t), box, -np.ones(2 * n)),
                lvl(n, task2, rng.uniform(-1, 1, t), np.zeros((0, n)), []),
                lvl(n, np.eye(n), np.zeros(n), np.zeros((0, n)), []),
            ),
        )
        ls = solve_hlsp(p, SolverConfig(method="ls-ipm"))
        nf = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        assert ls.converged
        assert not any(level.method_fallback for level in ls.levels)
        # levels 1 and 2 are feasible and end at objectives of 1e-26
        assert np.allclose(ls.objectives, nf.objectives, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_level_context_factorizes_nothing_up_front(method):
    counters = Counters()
    build_level_context(
        CascadeState.fresh(2), lvl(2, [[1, 1]], [1], [[1, 0]], [0]),
        SolverConfig(method=method), counters,
    )
    assert counters.factorizations == 0


def carried_row_blocks():
    """Level 1 carries x <= 1; level 2 pulls x to (2, 0)."""
    return HlspProblem(
        n=2,
        levels=(
            lvl(2, np.zeros((0, 2)), [], [[-1.0, 0.0]], [-1.0]),
            lvl(2, np.eye(2), [2.0, 0.0], np.zeros((0, 2)), []),
        ),
    )


class TestAsm:
    @staticmethod
    def pinned_point_problem():
        """x = (1, 1) by its equalities, with x >= 0.5, y >= 0.5, x + y >= 1.5."""
        return HlspProblem(
            n=2,
            levels=(
                lvl(
                    2,
                    np.eye(2),
                    [1.0, 1.0],
                    [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                    [0.5, 0.5, 1.5],
                ),
            ),
        )

    def test_feasible_start_zero_set_changes(self):
        # from the optimum, where every inequality holds, no row is violated
        # and the first working set's step is zero
        config = SolverConfig(method="nf-ipm-asm", warm_start_x=[1.0, 1.0])
        rep = hybrid_solve(self.pinned_point_problem(), config)
        assert rep.levels[0].asm_iterations == 0
        assert rep.converged
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-9)

    def test_rows_violated_at_the_start_leave_one_at_a_time(self):
        # at x = 0 all three rows are violated and pinned. Their minimizer is
        # (0.75, 0.75), where rows 0 and 1 hold with r = 0.25: row 0 leaves
        # (the tie goes to the lower index). The next minimizers are
        # (0.9, 0.7), where row 1 leaves with r = 0.2, and (5/6, 5/6), where
        # row 2 leaves with r = 1/6; the last set's minimizer is (1, 1)
        p = self.pinned_point_problem()
        rep = hybrid_solve(p, SolverConfig(method="nf-ipm-asm"))
        assert rep.levels[0].asm_iterations == 3
        assert rep.levels[0].iterations == 0
        assert rep.converged
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-12)
        # four working sets, one RRQR each; the last is the equality block,
        # which the projection reuses
        assert rep.levels[0].fact_shapes == [(5, 2), (4, 2), (3, 2), (2, 2)]

    def test_conflicting_bounds_both_activate(self):
        # x >= 1 is violated at 0 and pinned; the step to x = 1 is blocked at
        # once by x <= 0, which joins, and the pair's minimizer is 0.5
        p = two_sided_conflict()
        rep = hybrid_solve(p, SolverConfig(method="ls-ipm-asm"))
        assert abs(rep.x[0] - 0.5) < 1e-8
        assert rep.levels[0].asm_iterations == 1

    def test_warm_start_with_true_active_set(self):
        p = two_sided_conflict()
        config = SolverConfig(method="nf-ipm-asm", warm_active_sets={1: (0, 1)})
        rep = hybrid_solve(p, config)
        assert abs(rep.x[0] - 0.5) < 1e-8
        assert rep.levels[0].asm_iterations == 0

    @pytest.mark.parametrize(
        "sets,level", [({1: (0, 2)}, 1), ({1: [-1]}, 1), ({2: [0]}, 2), ({3: []}, 3)]
    )
    def test_warm_rows_outside_the_level_rejected(self, sets, level):
        config = SolverConfig(method="nf-ipm-asm", warm_active_sets=sets)
        with pytest.raises(ValueError, match=f"warm_active_sets.* level {level}"):
            hybrid_solve(two_sided_conflict(), config)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pure_ipm(self, seed):
        p = asm_problem(seed)
        pure = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        hyb = hybrid_solve(p, SolverConfig(method="nf-ipm-asm"))
        assert np.allclose(pure.objectives, hyb.objectives, atol=1e-6)

    def test_blocking_carried_row_joins(self):
        # the step from 0 to (2, 0) meets level 1's x <= 1 halfway; the row
        # joins with multiplier 1 and moves to a virtual level
        rep = solve_hlsp(carried_row_blocks(), SolverConfig(method="nf-ipm-asm"))
        lv = rep.levels[1]
        assert (lv.asm_iterations, lv.rank_virtual, lv.sub_converged) == (1, 1, False)
        assert np.allclose(rep.x, [1.0, 0.0], atol=1e-12)
        assert lv.objective == pytest.approx(0.5)

    def test_negative_carried_multiplier_leaves(self):
        # both carried bounds x >= 0 and y >= 0 are tight at 0 and start in
        # the set. Against the pull to (1, -1) the first has multiplier -1 and
        # leaves, the second keeps 1 and moves to a virtual level
        p = HlspProblem(
            n=2,
            levels=(
                lvl(2, np.zeros((0, 2)), [], np.eye(2), [0.0, 0.0]),
                lvl(2, np.eye(2), [1.0, -1.0], np.zeros((0, 2)), []),
            ),
        )
        rep = solve_hlsp(p, SolverConfig(method="ls-ipm-asm"))
        lv = rep.levels[1]
        assert (lv.asm_iterations, lv.rank_virtual, lv.sub_converged) == (1, 1, False)
        assert np.allclose(rep.x, [1.0, 0.0], atol=1e-12)
        assert lv.objective == pytest.approx(0.5)

    def test_repeated_set_switches_to_blands_rule_and_ends(self, monkeypatch):
        # level 1 holds two of its rows twice and ends with one such pair
        # tight. With the rounding guard of the ratio test off, a step of
        # rounding size lets the row of the pair that just left join again,
        # so a working set repeats; the search switches to Bland's rule
        # there, and the level ends converged at the guarded solve's objective
        pair = [
            [0.32051591394044565, 0.7507649632885589],
            [0.943841836004762, 0.6300829036052695],
        ]
        third = [[0.7119363942389763, -0.14068147920315077]]
        b_pair = [0.26911615586539406, -0.18960165819492392]
        task = [
            [0.8082393522392939, 0.6946256829368573],
            [0.8806586475596325, 0.6572970909819831],
        ]
        p = HlspProblem(
            n=2,
            levels=(
                lvl(2, np.zeros((0, 2)), [], pair + third + pair,
                    b_pair + [-0.5256946537266571] + b_pair),
                lvl(2, [[1.0, 0.0]], [-0.5699040715658903],
                    task, [0.649301998993821, -0.6749133201474018]),
            ),
        )
        guarded = solve_hlsp(p, SolverConfig(method="nf-ipm-asm"))
        sets, step = [], cascade._working_set_step

        def recorded(ctx, x, pin, tight):
            sets.append((ctx.counters, pin.tobytes(), tight.tobytes()))
            return step(ctx, x, pin, tight)

        monkeypatch.setattr(cascade, "FALL_TOL", 0.0)
        monkeypatch.setattr(cascade, "_working_set_step", recorded)
        rep = solve_hlsp(p, SolverConfig(method="nf-ipm-asm"))
        level_2 = [key[1:] for key in sets if key[0] is sets[-1][0]]
        assert len(set(level_2)) < len(level_2)
        assert rep.converged
        assert rep.levels[1].asm_iterations == len(level_2) - 1
        assert np.allclose(rep.objectives, guarded.objectives, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("method", ["nf-ipm-asm", "ls-ipm-asm"])
    def test_spent_budget_ends_levels_feasible_and_sub_converged(self, method, monkeypatch):
        # with no budget a level ends where its first working set's step
        # stops: here feasible at x <= 1, which may not join
        monkeypatch.setattr(cascade, "ASM_MAX_ITER", 0)
        rep = solve_hlsp(carried_row_blocks(), SolverConfig(method=method))
        lv = rep.levels[1]
        assert (lv.asm_iterations, lv.iterations, lv.sub_converged) == (0, 0, True)
        assert np.allclose(rep.x, [1.0, 0.0], atol=1e-12)
        cut = 0
        for seed in range(8):
            p = asm_problem(seed)
            rep = solve_hlsp(p, SolverConfig(method=method))
            best = solve_hlsp(p, SolverConfig(method="nf-ipm")).levels[0].objective
            assert all(lv.asm_iterations == lv.iterations == 0 for lv in rep.levels)
            assert rep.levels[0].objective >= best - 1e-9
            cut += sum(lv.sub_converged for lv in rep.levels)
        assert cut > 0

    @pytest.mark.parametrize("method", ["nf-ipm-asm", "ls-ipm-asm"])
    def test_every_active_stack_is_factorized(self, method):
        # the empty stack needs none, then one RRQR per non-empty active
        # stack ([x >= 1], then both rows); the projection pins the final
        # stack's two rows and reuses its RRQR
        rep = solve_hlsp(two_sided_conflict(), SolverConfig(method=method))
        assert rep.levels[0].fact_shapes == [(1, 1), (2, 1)]

    @pytest.mark.parametrize("method", METHODS)
    def test_tight_carried_row_activates_without_an_rrqr(self, monkeypatch, method):
        # level 1 carries x1 <= 1 and x2 <= 5; level 2's x = (2, 3) holds the
        # first tight. The last step's RRQR of the tight row moves it into the
        # chain, and its RRQR of the equalities in that row's null space pins
        # them: the activation factorizes nothing
        p = HlspProblem(
            n=2,
            levels=(
                lvl(2, np.zeros((0, 2)), [], [[-1.0, 0.0], [0.0, -1.0]], [-1.0, -5.0]),
                lvl(2, np.eye(2), [2.0, 3.0], np.zeros((0, 2)), []),
            ),
        )
        made, phase = [], [None]

        def recording_rrqr(*args, **kwargs):
            made.append(phase[0])
            return rrqr(*args, **kwargs)

        def in_phase(name, real):
            def wrapped(*args):
                phase[0] = name
                try:
                    return real(*args)
                finally:
                    phase[0] = None

            return wrapped

        monkeypatch.setattr(cascade, "rrqr", recording_rrqr)
        for name in ("project_inactive", "project_current"):
            monkeypatch.setattr(cascade, name, in_phase(name, getattr(cascade, name)))
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert [(lv.rank_virtual, lv.rank_current) for lv in rep.levels] == [(0, 0), (1, 1)]
        assert made and not any(made)
        assert rep.converged and np.allclose(rep.x, [1.0, 3.0], atol=1e-12)

    def test_asm_level_feasibility_direct(self):
        p = two_sided_conflict()
        config = SolverConfig(method="nf-ipm-asm")
        state = CascadeState.fresh(1)
        counters = Counters()
        ctx = build_level_context(state, p.levels[0], config, counters)
        x = np.zeros(1)
        ctx, s, conv, norm, _ = asm_level_feasibility(ctx, x, cascade._residual_seed(ctx, x))
        assert conv
        assert ctx.m_eq == 2  # the final working set pins both rows
        assert abs(s.x[0] - 0.5) < 1e-8
        # both rows are pinned at their optimal violations
        assert np.allclose(ctx.a_eq @ s.x - ctx.b_eq, [-0.5, -0.5], atol=1e-8)

    @pytest.mark.parametrize("budget", [None, 0, 1, 2, 3])
    def test_a_call_makes_at_most_its_budget_of_changes(self, budget):
        # x = (5, 5) with x >= 0 both pinned at x = 0: the pinned rows pull
        # the step to (2.5, 2.5), and each must leave, one change apiece. A
        # call whose budget is short ends at its last point at the change it
        # may not make, unconverged; the changes it made stay counted. The
        # level's earlier changes do not draw on a call's budget
        level = lvl(2, np.eye(2), [5.0, 5.0], np.eye(2), [0.0, 0.0])
        counters = Counters(asm_iterations=1000)
        ctx = build_level_context(CascadeState.fresh(2), level, SolverConfig(), counters)
        _, s, conv, _, _ = asm_level_feasibility(ctx, np.zeros(2), [True, True], budget)
        made = 2 if budget is None else min(budget, 2)
        assert counters.asm_iterations - 1000 == made
        assert conv == (made == 2)
        assert np.allclose(s.x, [[2.5, 2.5], [5.0, 2.5], [5.0, 5.0]][made], atol=1e-12)

    @pytest.mark.parametrize("method", ["nf-ipm-asm", "ls-ipm-asm"])
    @pytest.mark.parametrize("seed", range(3))
    def test_solve_hlsp_runs_asm_like_hybrid_solve(self, method, seed):
        specs = [(1, 3, 0, "mixed"), (2, 2, 1, "feasible"), (0, 3, 0, "mixed")]
        p = random_hlsp(seed + 500, 6, specs)
        direct = solve_hlsp(p, SolverConfig(method=method))
        guarded = hybrid_solve(p, SolverConfig(method=method))
        assert np.array_equal(direct.x, guarded.x)
        assert level_work(direct) == level_work(guarded)
        assert sum(lv.asm_iterations for lv in direct.levels) > 0

    def test_hybrid_rejects_non_asm_method(self):
        p = two_sided_conflict()
        with pytest.raises(ValueError):
            hybrid_solve(p, SolverConfig(method="nf-ipm"))

    def test_equality_only_matches_ls_ipm_factorizations(self):
        p = random_hlsp(17, 8, [(3, 0, 0, "feasible"), (2, 0, 0, "feasible")])
        ls = solve_hlsp(p, SolverConfig(method="ls-ipm"))
        hyb = hybrid_solve(p, SolverConfig(method="ls-ipm-asm"))
        for a, b in zip(ls.levels, hyb.levels):
            assert a.fact_shapes == b.fact_shapes
            assert a.factorizations == b.factorizations
        assert np.allclose(ls.x, hyb.x, atol=1e-10)


def with_regularizer(problem, seed):
    """Append a full-rank identity level, which makes x unique."""
    n = problem.n
    b = np.random.default_rng(seed).uniform(-1, 1, n)
    reg = lvl(n, np.eye(n), b, np.zeros((0, n)), [])
    return HlspProblem(n=n, levels=problem.levels + (reg,))


def equality_only_problems():
    """Acceptance criterion 2's generator, then chains of rank-deficient levels."""
    for seed in range(12):
        rng = np.random.default_rng(30_000 + seed)
        n = int(rng.integers(4, 31))
        specs, budget = [], n - 1
        for _ in range(int(rng.integers(1, 4))):
            if budget <= 0:
                break
            m_e = int(rng.integers(1, min(4, budget) + 1))
            specs.append((m_e, 0, 0, "feasible"))
            budget -= m_e
        yield with_regularizer(random_hlsp(seed, n, specs), seed)
    for seed in range(4):
        chain = random_hlsp(seed, 24, [(5, 0, 1, "feasible")] * 4)
        yield with_regularizer(chain, seed)


class TestEqualityOnlyLevels:
    def test_one_decomposition_per_level_in_every_form(self):
        for problem in equality_only_problems():
            reps = {
                m: solve_hlsp(problem, SolverConfig(method=m))
                for m in ("nf-ipm", "ls-ipm", "classical")
            }
            for method in ("nf-ipm", "ls-ipm"):
                for lv in reps[method].levels:
                    assert (lv.iterations, lv.factorizations) == (1, 1)
            fell_back = [lv for lv in reps["classical"].levels if lv.method_fallback]
            assert fell_back
            for lv in fell_back:
                assert (lv.iterations, lv.factorizations) == (1, 1)
            # both projected forms take the same step on the same factorization
            assert np.array_equal(reps["nf-ipm"].x, reps["ls-ipm"].x)
            assert np.allclose(reps["classical"].x, reps["ls-ipm"].x, atol=1e-8)


def linear_hierarchy(seed, identity):
    """Rank-deficient equality levels, one restating an earlier row with a
    conflicting right-hand side, and an optional final identity level.
    Every level but the identity has fewer rows than variables."""
    rng = np.random.default_rng(31_000 + seed)
    n = int(rng.integers(4, 41))
    specs = []
    for _ in range(int(rng.integers(2, 5))):
        m_e = int(rng.integers(1, max(2, n // 3)))
        specs.append((m_e, 0, int(rng.integers(0, min(2, m_e) + 1)), "feasible"))
    levels = list(random_hlsp(seed, n, specs).levels)
    first = levels[0].equalities
    restated = lvl(n, first.matrix[:1], first.rhs[:1] + 0.5, np.zeros((0, n)), [])
    levels.insert(int(rng.integers(1, len(levels) + 1)), restated)
    problem = HlspProblem(n=n, levels=tuple(levels))
    return with_regularizer(problem, seed) if identity else problem


def paper_cascade(problem, x, max_iter=50, eps=1e-12):
    """The paper's work per linear level, written out with the same kernels.

    Each level is tested at its start; while the test fails and steps
    remain, it takes one basic step on one RRQR of ``A_eq B`` and is tested
    again. The test is ``converged``'s: the equality block and the chain's
    pinned rows, then, below ``eps``, the stationarity in the chain basis.
    The rows then extend the chain at their residual, and the basis by the
    elimination update, which keeps only the eliminated rows. Yields (x,
    norm, steps, shape, n_r) per level solved: ``shape`` is the RRQR's and
    ``n_r`` the basis width after the extension.
    """
    n = problem.n
    basis = ChainBasis.identity(n)
    rows, rhs, v_star = np.zeros((0, n)), np.zeros(0), np.zeros(0)

    def test(a, b, x):
        ax = a @ x
        r = ax - b
        partial = (b - ax) + r
        if rhs.size:
            partial = np.concatenate([partial, (rhs - rows @ x) + v_star])
        norm = math.sqrt(partial.dot(partial))
        if norm < eps:
            g_r = basis.T @ (a.T @ r)
            norm = float(np.hypot(norm, math.sqrt(g_r.dot(g_r))))
        return norm, r

    for level in problem.levels:
        if basis.shape[1] == 0:
            return
        a, b = level.equalities.matrix, level.equalities.rhs
        fact = rrqr(a @ basis, scale_rows=a)
        norm, r = test(a, b, x)
        steps = 0
        while not norm < eps and steps < max_iter:
            x = x + basis @ fact.solve_basic(b - a @ x)
            steps += 1
            norm, r = test(a, b, x)
        basis = basis.extended(fact)
        yield x, norm, steps, fact.shape, basis.shape[1]
        rows, rhs = np.vstack([rows, a]), np.concatenate([rhs, b])
        v_star = np.concatenate([v_star, r])


class TestLinearLevelCost:
    """``linear_level`` against ``paper_cascade``, bit for bit."""

    def check(self, monkeypatch, problem, config, x0):
        seen = []
        real = cascade.linear_level

        def recording(chain, level, x, config, counters, form):
            out = real(chain, level, x, config, counters, form)
            seen.append(out[0])
            return out

        monkeypatch.setattr(cascade, "linear_level", recording)
        report = solve_hlsp(problem, config)
        solved = [lv for lv in report.levels if lv.kkt_norm is not None]
        paper = list(paper_cascade(problem, x0, config.max_iter, config.eps))
        assert len(seen) == len(solved) == len(paper)
        for (x, norm, steps, shape, n_r), lv, x_solver in zip(paper, solved, seen):
            assert np.array_equal(x_solver, x)
            assert lv.kkt_norm == norm
            assert lv.sub_converged == (not norm < config.eps)
            assert lv.method_fallback == (config.method == "classical")
            assert (lv.iterations, lv.factorizations, lv.fact_shapes) == (steps, 1, [shape])
            assert lv.n_r_after == n_r == lv.n_r_before - lv.rank_current
        assert np.array_equal(report.x, paper[-1][0])
        return report

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "method,identity",
        [("nf-ipm", True), ("ls-ipm", True), ("classical", False)],
    )
    def test_one_rrqr_one_basic_step_one_extension(
        self, monkeypatch, seed, method, identity
    ):
        # every level but an optimal start takes one step and converges
        problem = linear_hierarchy(seed, identity)
        config = SolverConfig(method=method)
        report = self.check(monkeypatch, problem, config, np.zeros(problem.n))
        assert report.converged
        assert all(lv.iterations in (0, 1) for lv in report.levels)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm", "classical"])
    def test_no_step_keeps_x(self, monkeypatch, seed, method):
        # max_iter = 0: every level is tested once, takes no step and makes
        # its one RRQR for the chain extension
        problem = linear_hierarchy(seed, method != "classical")
        config = SolverConfig(method=method, max_iter=0)
        report = self.check(monkeypatch, problem, config, np.zeros(problem.n))
        assert np.array_equal(report.x, np.zeros(problem.n))
        assert not report.converged

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm", "classical"])
    def test_optimal_warm_start_takes_no_step(self, monkeypatch, seed, method):
        problem = linear_hierarchy(seed, method != "classical")
        x = solve_hlsp(problem, SolverConfig(method=method)).x
        config = SolverConfig(method=method, warm_start_x=x)
        report = self.check(monkeypatch, problem, config, x)
        steps = [lv.iterations for lv in report.levels if lv.kkt_norm is not None]
        assert steps == [0] * len(steps)
        assert np.array_equal(report.x, x) and report.converged


# classical raises MethodNotApplicable inside the Newton loop on these
NUMERICALLY_SINGULAR = (
    random_hlsp(305473437, 4, [(2, 1, 0, "feasible"), (2, 2, 0, "mixed")]),
    random_hlsp(3201959, 6, [(1, 3, 0, "feasible"), (2, 2, 0, "infeasible")]),
)


class TestClassicalMethod:
    def test_full_rank_hierarchy_matches_projected(self):
        rng = np.random.default_rng(23)
        n = 5
        a1 = rng.uniform(-1, 1, (2, n))
        p = HlspProblem(
            n=n,
            levels=(
                lvl(n, a1, rng.uniform(-1, 1, 2), np.zeros((0, n)), []),
                lvl(n, np.eye(n), np.zeros(n), np.zeros((0, n)), []),
            ),
        )
        nf = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        cl = solve_hlsp(p, SolverConfig(method="classical"))
        assert np.allclose(nf.x, cl.x, atol=1e-8)
        # level 1 has a singular quadratic term and falls back; level 2
        # runs classically with its two factorizations per iteration
        assert cl.levels[0].method_fallback
        assert not cl.levels[1].method_fallback
        # per iteration: the quadratic term and the Schur product; the
        # final factorization projects the active rows
        shapes = cl.levels[1].fact_shapes
        assert shapes[0] == (5, 5) and shapes[1] == (2, 2)
        assert cl.levels[1].factorizations == 2 * cl.levels[1].iterations + 1

    def test_fewer_rows_than_variables_skip_the_probe(self, monkeypatch):
        probes = []
        counted_rrqr = cascade.rrqr

        def rrqr(matrix, *args, counter=None, **kwargs):
            if counter is None:  # an uncounted call would be a probe
                probes.append(np.shape(matrix))
            return counted_rrqr(matrix, *args, counter=counter, **kwargs)

        monkeypatch.setattr(cascade, "rrqr", rrqr)
        n = 6
        p = random_hlsp(1, n, [(2, 1, 0, "feasible"), (1, 2, 0, "mixed"), (2, 0, 0, "feasible")])
        empty = lvl(n, np.zeros((0, n)), [], np.zeros((0, n)), [])
        p = HlspProblem(n=n, levels=(empty,) + p.levels)
        rep = solve_hlsp(p, SolverConfig(method="classical"))
        assert [lv.m_eq + lv.m_ineq + lv.m_inact for lv in rep.levels] == [0, 3, 4, 5]
        assert probes == []
        assert [lv.method_fallback for lv in rep.levels] == [False, True, True, True]

    def test_rank_deficient_quadratic_term_falls_back(self):
        p = random_hlsp(29, 6, [(2, 0, 0, "feasible"), (2, 0, 0, "feasible")])
        rep = solve_hlsp(p, SolverConfig(method="classical"))
        assert all(lv.method_fallback for lv in rep.levels)
        nf = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        assert np.allclose(rep.x, nf.x, atol=1e-9)

    @pytest.mark.parametrize("problem", NUMERICALLY_SINGULAR, ids=["n4", "n6"])
    def test_numerically_singular_quadratic_term_falls_back(self, problem):
        # the structural probe passes on some level, but the weighted
        # quadratic term loses rank during the Newton loop
        rep = solve_hlsp(problem, SolverConfig(method="classical"))
        assert any(lv.method_fallback for lv in rep.levels)
        _, v_o = brute_force_cascade(problem)
        gaps = np.abs(np.array(rep.objectives) - cascade_objectives(problem, v_o))
        assert np.all(gaps < 1e-6)


# CI's console-script instances: a level without rows, a level restating a
# row of level 1, and a 1e150 equality row
CI_INSTANCES = (
    {
        "n": 3,
        "levels": [
            {"A_e": [], "b_e": [], "A_i": [], "b_i": []},
            {"A_e": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b_e": [0, 3, 1], "A_i": [], "b_i": []},
        ],
    },
    {
        "n": 3,
        "levels": [
            {"A_e": [[0.3, 0.8, 0.6], [-0.5, -0.4, 0.7]], "b_e": [-1.0, 0.6], "A_i": [], "b_i": []},
            {"A_e": [[0.3, 0.8, 0.6]], "b_e": [-1.0], "A_i": [], "b_i": []},
            {"A_e": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "b_e": [0, 0, 0], "A_i": [], "b_i": []},
        ],
    },
    {
        "n": 2,
        "levels": [
            {"A_e": [[1e150, 0]], "b_e": [1e150], "A_i": [], "b_i": []},
            {"A_e": [[1, 1]], "b_e": [0], "A_i": [], "b_i": []},
        ],
    },
)


def full_rank_last_level():
    """Two equality levels, then 12 rows in the 12 variables.

    Classical takes the normal form on the first two levels, which have
    fewer rows than variables, and keeps its own form on the last.
    """
    specs = [(4, 0, 0, "feasible"), (3, 0, 0, "feasible"), (12, 0, 0, "feasible")]
    return random_hlsp(0, 12, specs)


class TestNewtonLoopLevels:
    @pytest.mark.parametrize("method", METHODS)
    def test_the_newton_loop_sees_only_barrier_levels(self, monkeypatch, method):
        real, calls = cascade.newton_loop, []

        def checked(ctx, s, form):
            assert ctx.m_ineq + ctx.m_inact > 0
            calls.append(form)
            return real(ctx, s, form)

        monkeypatch.setattr(cascade, "newton_loop", checked)
        problems = [load(name)[0] for name in INSTANCES]
        data = sorted((Path(__file__).parent / "data").glob("*.json"))
        problems += [load_problem(f) for f in data]
        problems += [problem_from_dict(d) for d in CI_INSTANCES] + [full_rank_last_level()]
        config = SolverConfig(method=method)
        for p in problems:
            solve_hlsp(p, config)
        # the interior-point methods run it on the barrier levels there are
        assert bool(calls) == (not config.uses_asm)

    def test_classical_keeps_its_form_on_a_full_rank_linear_level(self):
        rep = solve_hlsp(full_rank_last_level(), SolverConfig(method="classical"))
        assert [lv.method_fallback for lv in rep.levels] == [True, True, False]
        # one range-space step: the quadratic term's Cholesky factor and the
        # Schur complement of the 7 pinned rows, then the chain extension
        assert rep.levels[-1].fact_shapes == [(12, 12), (7, 7), (12, 5)]
        assert rep.converged
        nf = solve_hlsp(full_rank_last_level(), SolverConfig(method="nf-ipm"))
        assert np.allclose(rep.x, nf.x, rtol=0.0, atol=1e-10)


# levels with at least as many rows as variables, where classical runs,
# falls back at its first Cholesky factorization, or loses rank later
COUNTED_PROBLEMS = (
    random_hlsp(5, 4, [(2, 3, 0, "feasible"), (4, 0, 0, "feasible")]),
    random_hlsp(17, 5, [(5, 0, 2, "feasible"), (2, 2, 0, "mixed"), (5, 0, 0, "feasible")]),
    random_hlsp(41, 6, [(1, 3, 0, "feasible"), (2, 4, 0, "infeasible"), (6, 0, 1, "feasible")]),
) + NUMERICALLY_SINGULAR
# every binding of a factorization kernel that a solve calls
KERNEL_SITES = (
    (cascade, "rrqr"),
    (newton, "rrqr"),
    (newton, "staged_rrqr"),
    (newton, "cholesky"),
    (newton, "pivoted_cholesky"),
)


class TestCountedWork:
    @pytest.mark.parametrize("method", METHODS)
    def test_every_factorization_is_counted(self, monkeypatch, method):
        counters = []

        def counted(kernel):
            def call(matrix, *args, counter=None, **kwargs):
                if np.size(matrix):
                    counters.append(counter)
                return kernel(matrix, *args, counter=counter, **kwargs)

            return call

        for module, name in KERNEL_SITES:
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        for problem in COUNTED_PROBLEMS:
            counters.clear()
            rep = solve_hlsp(problem, SolverConfig(method=method))
            assert all(c is not None for c in counters)
            assert len(counters) == sum(lv.factorizations for lv in rep.levels)


class TestInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_lexicographic_non_interference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        specs = [(1, 2, 0, "mixed"), (1, 1, 0, "feasible"), (0, 2, 0, "mixed")]
        p = random_hlsp(seed + 400, n, specs)
        rep = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        # replay: stored violations must be reproduced by the final primal
        state = CascadeState.fresh(n)
        config = SolverConfig(method="nf-ipm")
        x = np.zeros(n)
        for li, level in enumerate(p.levels, 1):
            counters = Counters()
            ctx = build_level_context(state, level, config, counters)
            start = initial_state(ctx, x)
            s = newton_loop(ctx, start, config.step_form)[0]
            x = s.x
            project_inactive(state, s.x, s.lam_inact, counters)
            if state.chain.n_r:
                project_current(state, level, _residuals(level, s.x), counters)
            if state.chain.n_r == 0:
                break
        chain = state.chain
        drift = chain.rows @ x - chain.rhs - chain.v_star
        ends = np.cumsum([stage.rows.shape[0] for stage in chain.stages])
        for stage_drift in np.split(drift, ends[:-1]):
            assert np.linalg.norm(stage_drift) < 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_inactive_feasibility_and_rank_accounting(self, seed):
        rng = np.random.default_rng(seed + 60)
        n = int(rng.integers(3, 7))
        p = random_hlsp(seed + 500, n, [(1, 2, 0, "feasible"), (1, 2, 0, "mixed")])
        rep = solve_hlsp(p, SolverConfig(method="nf-ipm"))
        x = rep.x
        # all strictly-satisfied rows stay satisfied at the final point
        state_levels = rep.levels
        total_rank = sum(l.rank_virtual + l.rank_current for l in state_levels)
        assert total_rank + state_levels[-1].n_r_after == n
        # monotone variable elimination
        n_rs = [l.n_r_before for l in state_levels] + [state_levels[-1].n_r_after]
        assert all(a >= b for a, b in zip(n_rs, n_rs[1:]))
        for level in p.levels:
            a, b = level.inequalities.matrix, level.inequalities.rhs
            if a.shape[0]:
                r = a @ x - b
                # either pinned at a violation or feasible within tolerance
                assert np.all((r >= -1e-7) | (r <= 0))

    @pytest.mark.parametrize("seed", range(12))
    def test_objectives_match_brute_force(self, seed):
        rng = np.random.default_rng(seed + 90)
        n = int(rng.integers(2, 7))
        levels = []
        for _ in range(int(rng.integers(1, 4))):
            m_e = int(rng.integers(0, 3))
            m_i = int(rng.integers(0, max(1, 5 - m_e)))
            mode = ["feasible", "mixed", "mixed"][int(rng.integers(0, 3))]
            levels.append((m_e, m_i, 0, mode))
        if not any(s[0] + s[1] for s in levels):
            levels[0] = (1, 1, 0, "mixed")
        p = random_hlsp(seed + 600, n, levels)
        x_o, v_o = brute_force_cascade(p)
        obj_o = cascade_objectives(p, v_o)
        for method, solver in [("nf-ipm", solve_hlsp), ("ls-ipm-asm", hybrid_solve)]:
            rep = solver(p, SolverConfig(method=method))
            assert np.allclose(rep.objectives, obj_o, atol=1e-6), (
                method,
                rep.objectives,
                obj_o,
            )


def level2_exhausts_chain():
    specs = [(2, 0, 0, "feasible"), (2, 1, 0, "feasible"), (1, 1, 0, "mixed")]
    return random_hlsp(41, 4, specs)


class TestLastDuals:
    @pytest.mark.parametrize("method", METHODS)
    def test_one_walk_for_the_last_level_solved(self, method):
        rep = solve_hlsp(level2_exhausts_chain(), SolverConfig(method=method))
        assert rep.levels[1].n_r_after == 0 and rep.levels[2].kkt_norm is None
        assert [lv.dual_evaluations for lv in rep.levels] == [0, 1, 0]
        assert rep.last_duals["lam_act"].shape == (2,)

    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm"])
    def test_duals_are_the_walk_at_level_2(self, method):
        p = level2_exhausts_chain()
        config = SolverConfig(method=method)
        rep = solve_hlsp(p, config)
        # replay the cascade to level 2's final iterate: level 1 is linear,
        # level 2 has a barrier row, so its Newton loop hands over once the
        # iterate's split has settled, and the active-set step finishes it
        # from the hand-over point walked onto the chain, seeded by that split
        state = CascadeState.fresh(p.n)
        counters = Counters()
        x = linear_level(
            state.chain, p.levels[0], np.zeros(p.n), config, counters, "normal"
        )[0]
        ctx = build_level_context(state, p.levels[1], config, counters)
        assert ctx.m_ineq == 1
        start = initial_state(ctx, x)
        s = newton_loop(ctx, start, config.step_form)[0]
        x = cascade._onto_chain(ctx, s.x)
        ctx, s = asm_level_feasibility(ctx, x, cascade._split_seed(s))[:2]
        assert np.array_equal(s.x, rep.x)
        assert ctx.m_act == 2
        lam_act = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
        assert np.array_equal(rep.last_duals["lam_act"], lam_act)


    @pytest.mark.parametrize("method", METHODS)
    def test_a_linear_last_level_walks_from_its_own_context(self, method):
        # level 2 is linear and the last level solved: the walk reads level
        # 1's stage and the level's own stationarity A_eq^T r_eq, with its
        # residual r_eq as v_eq; it equals the walk from a full context
        p = random_hlsp(43, 5, [(2, 0, 0, "feasible"), (2, 0, 1, "feasible")])
        config = SolverConfig(method=method)
        rep = solve_hlsp(p, config)
        assert [lv.dual_evaluations for lv in rep.levels] == [0, 1]
        state = CascadeState.fresh(p.n)
        linear_level(state.chain, p.levels[0], np.zeros(p.n), config, Counters(), "normal")
        ctx = build_level_context(state, p.levels[1], config, Counters())
        s = initial_state(ctx, rep.x)
        lam_act = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
        assert lam_act.shape == (2,)
        assert np.array_equal(rep.last_duals["lam_act"], lam_act)

    def test_a_lone_linear_level_has_no_walk(self):
        rep = solve_hlsp(random_hlsp(44, 5, [(2, 0, 0, "feasible")]), SolverConfig())
        assert rep.levels[0].dual_evaluations == 0
        assert rep.last_duals["lam_act"].shape == rep.last_duals["lam_inact"].shape == (0,)


def carried_pair_problem():
    """``small_oracle`` seed 613, problem 55.

    Level 2 has two equalities, the two carried rows of level 1 and
    n_r = 2. Under a fixed fraction-to-boundary step of 0.995 its iterates
    settled into a period-3 cycle (step lengths 0.956, 0.471, 0.494) at a
    KKT norm of 3.0e-3 in all five methods, 0.033 off the oracle's
    objective; Mehrotra's step-length rule ends the cycle.
    """
    specs = [(2, 2, 0, "feasible"), (2, 0, 0, "mixed"), (2, 2, 0, "mixed")]
    return random_hlsp(1712024670, 4, specs)


class TestKnownStalls:
    def test_carried_pair_level_converges(self):
        rep = solve_hlsp(carried_pair_problem(), SolverConfig(method="nf-ipm"))
        assert not rep.levels[1].sub_converged

    @pytest.mark.parametrize("method", METHODS)
    def test_carried_pair_level_matches_the_oracle(self, method):
        p = carried_pair_problem()
        expected = cascade_objectives(p, brute_force_cascade(p)[1])
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert np.allclose(rep.objectives, expected, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("method", ["nf-ipm", "classical"])
    def test_row_and_its_small_multiple_level_matches_the_oracle(self, method):
        # level 1 holds a row next to its -1e-6 multiple; under a fixed step
        # of 0.995 the normal form ended it 9.8e-5 above the oracle
        p = problem_from_dict(
            {
                "n": 8,
                "levels": [
                    {
                        "A_e": [],
                        "b_e": [],
                        "A_i": [
                            [-8.26e-07, -4.48e-07, 6.37e-07, 5.51e-07, 8.3e-07, -1.9e-07, -4.11e-07, 6.99e-07],
                            [0.826, 0.448, -0.637, -0.551, -0.83, 0.19, 0.411, -0.699],
                            [0.849, -0.277, 0.109, 0.31, -0.9, -0.28, 0.442, -0.182],
                        ],
                        "b_i": [1.65e-07, 1.03, 0.54],
                    },
                    {
                        "A_e": [[-0.54, 0.774, 0.233, 0.895, -0.401, 0.581, -0.634, -0.66]],
                        "b_e": [-0.245],
                        "A_i": [[-8.99e-06, -2.14e-06, -4.55e-06, 1.27e-06, -1.06e-06, -6.91e-06, 5.83e-06, -9.03e-06]],
                        "b_i": [-1.17e-05],
                    },
                ],
            }
        )
        expected = cascade_objectives(p, brute_force_cascade(p)[1])
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert np.allclose(rep.objectives, expected, rtol=0.0, atol=1e-6)


def scaled_rows_problem():
    """Inequality rows scaled over 1e-6 to 1e6 (CI's ``scaled.json``).

    The interior point's barrier weights span many decades here, and the
    active-set solve holds its tight carried rows at a zero slack.
    """
    return problem_from_dict(
        {
            "n": 4,
            "levels": [
                {
                    "A_e": [],
                    "b_e": [],
                    "A_i": [
                        [-8e5, -7e5, -1e6, 8e5],
                        [8e-5, 7e-5, 1e-4, -8e-5],
                        [1e-4, -5e-5, 2e-5, 3e-6],
                        [-1e-5, 5e-6, -2e-6, -3e-7],
                        [-1e5, -1e5, -3e5, -9e5],
                    ],
                    "b_i": [-1.0, 3.0, -0.1, 1.0, -0.4],
                },
                {
                    "A_e": [],
                    "b_e": [],
                    "A_i": [[-2e4, 1e4, 2e4, 4e4], [2e-5, -1e-5, -2e-5, -4e-5]],
                    "b_i": [0.01, 0.5],
                },
                {
                    "A_e": [[0, 0, 0, 0]],
                    "b_e": [0.7],
                    "A_i": [[-0.006, -0.004, -0.008, 0.002]],
                    "b_i": [-0.7],
                },
            ],
        }
    )


class TestCrossover:
    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm", "classical"])
    def test_only_barrier_levels_hand_over(self, monkeypatch, method):
        # an equality level, then a level with a barrier row; the chain is
        # exhausted before level 3. The equality level is linear_level's (in
        # classical too, which takes the normal form on its two rows in four
        # variables); only the barrier level runs the Newton loop, and only
        # it goes on to the active-set step
        calls, real_loop = [], cascade.newton_loop
        real_linear = cascade.linear_level
        real_asm = cascade.asm_level_feasibility

        def recording_linear(chain, level, x, config, counters, form):
            calls.append(("linear", level.inequalities.m))
            return real_linear(chain, level, x, config, counters, form)

        def recording_loop(ctx, s, form):
            calls.append(("newton", ctx.m_ineq + ctx.m_inact > 0))
            return real_loop(ctx, s, form)

        def recording_asm(ctx, x, work, budget=None):
            calls.append(("asm", len(calls)))
            return real_asm(ctx, x, work, budget)

        monkeypatch.setattr(cascade, "linear_level", recording_linear)
        monkeypatch.setattr(cascade, "newton_loop", recording_loop)
        monkeypatch.setattr(cascade, "asm_level_feasibility", recording_asm)
        rep = solve_hlsp(level2_exhausts_chain(), SolverConfig(method=method))
        assert calls == [("linear", 0), ("newton", True), ("asm", 2)]
        assert rep.converged

    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm", "classical"])
    def test_crossover_starts_from_the_split_not_the_signs(self, monkeypatch, method):
        # level 2 holds x >= 2 and x >= 0.6 and carries level 1's x <= 1.
        # At its scripted hand-over point x = 0.5 the residual signs pin
        # both level rows (r = -1.5, -0.1) and leave the carried row free
        # (slack 0.5). The pairs pin x >= 2 (-v = 1.5 > w = 0), leave
        # x >= 0.6 free (-v = 0.01 < w = 0.5) and hold x <= 1 tight
        # (lam = 1 > w = 1e-3): the level's optimal set, so no row changes
        p = HlspProblem(
            n=1,
            levels=(
                lvl(1, np.zeros((0, 1)), [], [[-1.0]], [-1.0]),
                lvl(1, np.zeros((0, 1)), [], [[1.0], [1.0]], [2.0, 0.6]),
            ),
        )
        hand_over = IterateState(
            x=np.array([0.5]),
            v_eq=np.zeros(0),
            v_ineq=np.array([-1.5, -0.01]),
            w_ineq=np.array([0.0, 0.5]),
            w_inact=np.array([1e-3]),
            lam_inact=np.array([1.0]),
        )
        real_loop, step, sets = cascade.newton_loop, cascade._working_set_step, []

        def scripted_loop(ctx, s, form):
            if ctx.m_inact:
                return hand_over, False, 1.0, None
            return real_loop(ctx, s, form)

        def recorded(ctx, x, pin, tight):
            sets.append((ctx.counters, pin.tolist(), tight.tolist()))
            return step(ctx, x, pin, tight)

        monkeypatch.setattr(cascade, "newton_loop", scripted_loop)
        monkeypatch.setattr(cascade, "_working_set_step", recorded)
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert [key[1:] for key in sets if key[0] is sets[-1][0]] == [([True, False], [True])]
        assert rep.levels[1].asm_iterations == 0
        assert rep.converged
        assert np.allclose(rep.x, [1.0], atol=1e-12)
        assert rep.levels[1].objective == pytest.approx(0.5)

    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm"])
    def test_signs_need_a_change_where_the_split_needs_none(self, monkeypatch, method):
        # small_oracle seed 1 problem 92: seeded by the residual signs at
        # level 2's hand-over point, the active-set step makes two changes to
        # reach the optimum that the split's working set already holds
        p = load_problem(Path(__file__).parent / "data" / "signs_need_a_change.json")
        config = SolverConfig(method=method)
        split = solve_hlsp(p, config)
        real = cascade.asm_level_feasibility

        def by_signs(ctx, x, work, budget=None):
            return real(ctx, x, cascade._residual_seed(ctx, x), budget)

        monkeypatch.setattr(cascade, "asm_level_feasibility", by_signs)
        signs = solve_hlsp(p, config)
        assert [lv.asm_iterations for lv in split.levels] == [0, 0]
        assert [lv.asm_iterations for lv in signs.levels] == [0, 2]
        assert split.converged and signs.converged
        assert np.allclose(split.objectives, signs.objectives, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("method", ["nf-ipm", "ls-ipm", "classical"])
    def test_crossover_off_the_carried_rows_restarts_from_the_start(
        self, monkeypatch, method
    ):
        # found/three_carried_two_free.json, small_oracle seed 811 problem
        # 142: level 3's split holds its three carried rows tight in two
        # free directions, and the correction onto them leaves two of them
        # violated. The level is solved again from its start, as the -asm
        # methods solve it, and ends on the carried rows at their objectives
        data = (Path(__file__).parent / "found" / "three_carried_two_free.json").read_text()
        p = problem_from_dict(json.loads(data)["problem"])
        asm = solve_hlsp(p, SolverConfig(method="nf-ipm-asm"))
        real, ends = cascade.asm_level_feasibility, []

        def recording(ctx, x, work, budget=None):
            out = real(ctx, x, work, budget)
            ends.append((ctx.m_inact, cascade._off_carried(out[0], out[1].x)))
            return out

        monkeypatch.setattr(cascade, "asm_level_feasibility", recording)
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert ends[-2:] == [(3, True), (3, False)]
        # the early steps from level 3's iterates take the same guess and
        # end off the carried rows too; the loop rejects them
        assert all(m_inact == 3 for m_inact, off in ends[:-2] if off)
        assert rep.converged
        assert np.allclose(rep.objectives, asm.objectives, rtol=0.0, atol=1e-12)
        # without them, no call before the last two ends off a carried row
        monkeypatch.setattr(cascade, "_undecided", lambda before, s: math.inf)
        ends.clear()
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert ends[-2:] == [(3, True), (3, False)]
        assert not any(off for _, off in ends[:-2])
        assert rep.converged
        assert np.allclose(rep.objectives, asm.objectives, rtol=0.0, atol=1e-12)

    def test_one_active_set_call_unless_the_crossover_restarts(self, monkeypatch):
        # _off_carried is faked: every point but the level's start, x = 0, is
        # off a carried row. So every early active-set step from an iterate
        # is rejected, and the interior point's crossover after the loop
        # solves the barrier level again from its start; the -asm level
        # solve does not
        p = HlspProblem(
            n=2, levels=(lvl(2, np.zeros((0, 2)), [], np.eye(2), [1.0, 1.0]),)
        )
        real, starts = cascade.asm_level_feasibility, []

        def recording(ctx, x, work, budget=None):
            starts.append(x.copy())
            return real(ctx, x, work, budget)

        monkeypatch.setattr(cascade, "_off_carried", lambda ctx, x: bool(x.any()))
        monkeypatch.setattr(cascade, "asm_level_feasibility", recording)
        solve_hlsp(p, SolverConfig(method="nf-ipm"))
        assert len(starts) > 2 and all(x.any() for x in starts[:-1])
        assert not starts[-1].any()
        starts.clear()
        # with no pair ever decided, no early step runs
        monkeypatch.setattr(cascade, "_undecided", lambda before, s: math.inf)
        solve_hlsp(p, SolverConfig(method="nf-ipm"))
        assert len(starts) == 2 and starts[0].any() and not starts[1].any()
        starts.clear()
        solve_hlsp(p, SolverConfig(method="nf-ipm-asm"))
        assert len(starts) == 1 and not starts[0].any()

    @pytest.mark.parametrize(
        "method,data",
        [
            ("classical", "classical_off_chain"),
            ("nf-ipm", "projected_off_chain"),
            ("ls-ipm", "projected_off_chain"),
        ],
    )
    def test_hand_over_point_is_walked_onto_the_chain(self, monkeypatch, method, data):
        # level 2's hand-over point is off level 1's pinned rows by more than
        # eps, which no step in the chain basis repairs. classical_off_chain
        # is random_hlsp(199698783, 5, [(4, 2, 0, "feasible"), (0, 6, 0,
        # "infeasible")]), whose level 2 classical steps in the full space
        # and leaves 1.3e-8 off; projected_off_chain is small_oracle seed 58
        # problem 7, where the rounding of the projected forms' steps in the
        # chain basis leaves it 1.8e-12 (nf-ipm) and 1.4e-12 (ls-ipm) off
        p = load_problem(Path(__file__).parent / "data" / f"{data}.json")
        states, fresh = [], cascade.CascadeState.fresh.__func__

        def recording_fresh(cls, n):
            states.append(fresh(cls, n))
            return states[-1]

        monkeypatch.setattr(cascade.CascadeState, "fresh", classmethod(recording_fresh))
        config = SolverConfig(method=method)
        rep = solve_hlsp(p, config)
        assert not any(lv.sub_converged or lv.method_fallback for lv in rep.levels)
        chain = states[0].chain
        assert chain.rhs.size
        drift = chain.rows @ rep.x - chain.rhs - chain.v_star
        assert np.abs(drift).max() < config.eps


def pairs(v=(), w=(), lam=(), w_inact=()):
    """An iterate holding only the complementarity pairs."""
    return IterateState(
        x=np.zeros(1),
        v_eq=np.zeros(0),
        v_ineq=-np.array(v, dtype=float),
        w_ineq=np.array(w, dtype=float),
        w_inact=np.array(w_inact, dtype=float),
        lam_inact=np.array(lam, dtype=float),
    )


class TestIdentified:
    """``_undecided`` counts the pairs whose members' ratios between iterates
    do not decide their side.

    ``pairs`` takes -v for a level row, so every member is nonnegative.
    """

    def test_decisive_in_both_directions(self):
        # the level row stays violated (-v keeps 0.95 of itself, w falls to
        # 0.05 of itself); the carried row goes slack (lam falls to 0.02, w
        # keeps 0.97)
        before = pairs(v=[1.0], w=[1.0], lam=[2.0], w_inact=[1.0])
        now = pairs(v=[0.95], w=[0.05], lam=[0.04], w_inact=[0.97])
        assert cascade._undecided(before, now) == 0
        # and the other way round: the level row goes slack, the carried
        # row tight
        now = pairs(v=[0.05], w=[0.95], lam=[1.9], w_inact=[0.02])
        assert cascade._undecided(before, now) == 0

    def test_degenerate_pair_is_not_decisive(self):
        # both members of the level row fall: it is neither side's yet
        before = pairs(v=[1.0, 1.0], w=[1.0, 1.0])
        assert cascade._undecided(before, pairs(v=[0.05, 0.95], w=[0.05, 0.05])) == 1
        assert cascade._undecided(before, pairs(v=[0.05, 0.95], w=[0.95, 0.05])) == 0

    def test_a_member_short_of_either_limit_is_not_decisive(self):
        before = pairs(lam=[1.0], w_inact=[1.0])
        # one ratio near 1, the other only halved
        assert cascade._undecided(before, pairs(lam=[0.95], w_inact=[0.5])) == 1
        # one ratio below DECISIVE, the other off 1 by more than DECISIVE
        assert cascade._undecided(before, pairs(lam=[0.05], w_inact=[1.2])) == 1
        assert cascade._undecided(before, pairs(lam=[0.05], w_inact=[0.8])) == 1
        # a member at 0 has no ratio, and no warning is raised
        assert cascade._undecided(pairs(v=[1.0], w=[0.0]), pairs(v=[0.95], w=[0.0])) == 1

    def test_counts_every_undecided_pair_of_both_blocks(self):
        # two level rows and three carried rows; one level row and two
        # carried rows are decisive
        before = pairs(v=[1.0, 1.0], w=[1.0, 1.0], lam=[1.0] * 3, w_inact=[1.0] * 3)
        now = pairs(
            v=[0.95, 0.5], w=[0.05, 0.5], lam=[0.02, 0.97, 0.6], w_inact=[0.98, 0.01, 0.6]
        )
        assert cascade._undecided(before, now) == 2

    def test_no_pairs_leave_nothing_to_identify(self):
        assert cascade._undecided(pairs(), pairs()) == 0


class TestLoopExits:
    """``newton_loop``'s exits on a scripted sequence of KKT norms.

    Iterate k carries k in ``x``, so the returned iterate names itself,
    and ``splits[k]`` is iterate k's complementarity split; by default it
    changes at every iterate, so only ``eps``, the cap and a non-finite
    norm or step can end the loop. ``raise_at`` makes that step raise
    ``NonFiniteError``. ``undecided[k]`` is the number of pairs that are
    not decisive at iterate k; by default it is 0 at the iterates that
    ``crossovers`` names and 99 elsewhere, so no early active-set step
    runs there. ``crossovers[k]`` is the scripted active-set step from
    iterate k, (converged, off a carried row). ``self.attempts`` lists the
    iterates it ran from with their budgets, and ``self.crossed`` holds
    the loop's crossover result.
    """

    def run(
        self, monkeypatch, norms, eps=1e-12, max_iter=50, splits=None, raise_at=None,
        crossovers=None, undecided=None,
    ):
        config = SolverConfig(eps=eps, max_iter=max_iter)
        ctx = SimpleNamespace(config=config, counters=Counters())
        if splits is None:
            splits = [[k % 2 == 0] for k in range(len(norms))]
        crossovers = crossovers or {}
        if undecided is None:
            undecided = [0 if k in crossovers else 99 for k in range(len(norms))]
        self.attempts = []

        def scripted_crossover(ctx, s, budget=None):
            self.attempts.append((s.x, budget))
            return ctx, SimpleNamespace(x=s.x), crossovers[s.x][0], 0.0, None

        monkeypatch.setattr(cascade, "_undecided", lambda before, s: undecided[s.x])
        monkeypatch.setattr(cascade, "_crossover", scripted_crossover)
        monkeypatch.setattr(cascade, "_off_carried", lambda ctx, x: crossovers[x][1])

        def scripted_step(ctx, s, form):
            ctx.counters.newton_iterations += 1
            if s.x + 1 == raise_at:
                raise NonFiniteError("scripted")
            return SimpleNamespace(x=s.x + 1)

        def scripted_norm(ctx, s, tol):
            return norms[s.x] < tol, norms[s.x]

        monkeypatch.setattr(cascade, "mehrotra_iteration", scripted_step)
        monkeypatch.setattr(cascade, "converged", scripted_norm)
        monkeypatch.setattr(cascade, "_split_seed", lambda s: np.array(splits[s.x]))
        s, conv, norm, self.crossed = newton_loop(ctx, SimpleNamespace(x=0), "normal")
        return conv, norm, ctx.counters.newton_iterations, s.x

    def test_stops_at_its_tolerance(self, monkeypatch):
        # the config's eps ends the loop at the first norm below it
        eps = 1e-9
        norms = [1.0, 10 * eps, eps / 2, 1e-13]
        assert self.run(monkeypatch, norms, eps=eps) == (True, eps / 2, 2, 2)

    def test_settled_split_below_settled_ends_the_loop(self, monkeypatch):
        # the split holds from the start; above SETTLED that ends nothing,
        # and the first iterate below it ends the loop short of eps
        settled = newton.SETTLED
        norms = [1.0, 2 * settled, settled / 2, 1e-13]
        splits = [[True, False]] * 4
        run = self.run(monkeypatch, norms, splits=splits)
        assert run == (True, settled / 2, 2, 2)

    def test_identified_partition_above_settled_hands_over(self, monkeypatch):
        # the split holds from iterate 1; above SETTLED iterate 1's pairs
        # are not all decisive, and at iterate 2 they are: the active-set
        # step from there, with the full budget, converges on the carried
        # rows and ends the loop
        norms = [1.0, 0.5, 0.2, 0.1, 1e-13]
        splits = [[True]] + [[False]] * 4
        run = self.run(monkeypatch, norms, splits=splits, crossovers={2: (True, False)})
        assert run == (True, 0.2, 2, 2)
        assert self.attempts == [(2, None)] and self.crossed[1].x == 2

    def test_rejected_crossover_runs_on(self, monkeypatch):
        # the step from iterate 2 ends sub-converged and the one from
        # iterate 3 off a carried row: the loop goes on to eps
        norms = [1.0, 0.5, 0.2, 0.1, 1e-13]
        splits = [[True]] + [[False]] * 4
        crossovers = {2: (False, False), 3: (True, True)}
        run = self.run(monkeypatch, norms, splits=splits, crossovers=crossovers)
        assert run == (True, 1e-13, 4, 4)
        assert self.attempts == [(2, None), (3, None)] and self.crossed is None

    def test_decisive_pairs_at_a_changing_split_allow_no_change(self, monkeypatch):
        # every pair is decisive at every iterate, but the split changes at
        # every one: the active-set step runs with a budget of no change,
        # and ends the loop where the split's working set is optimal
        norms = [1.0, 0.5, 0.2, 1e-13]
        crossovers = {1: (False, False), 2: (True, False), 3: (True, False)}
        run = self.run(monkeypatch, norms, crossovers=crossovers)
        assert run == (True, 0.2, 2, 2)
        assert self.attempts == [(1, 0), (2, 0)] and self.crossed[1].x == 2

    def test_few_undecided_pairs_try_a_short_active_set_step(self, monkeypatch):
        # after step k the step runs where at most min(2 k, 8) pairs are
        # undecided, with that many changes: iterates 2 (4 of 4), 4 (8 of
        # 8) and 7 (8 of 8), and not iterates 1 (3 of 2), 3 (7 of 6), 5
        # (11), 6 and 8 (9 of 8); every attempt is rejected, and the loop
        # runs on to eps
        norms = [1.0] + [0.5] * 8 + [1e-13]
        undecided = [99, 3, 4, 7, 8, 11, 9, 8, 9, 0]
        crossovers = {k: (False, False) for k in range(10)}
        run = self.run(monkeypatch, norms, crossovers=crossovers, undecided=undecided)
        assert run == (True, 1e-13, 9, 9)
        assert self.attempts == [(2, 4), (4, 8), (7, 8)] and self.crossed is None

    def test_settled_split_with_undecided_pairs_takes_their_budget(self, monkeypatch):
        # the split holds from the start: at iterate 1 two pairs are
        # undecided, within 2 of one step, so the step may make two
        # changes; at iterate 2 none is, and it takes the full budget
        norms = [1.0, 0.5, 0.2, 1e-13]
        splits = [[True]] * 4
        crossovers = {1: (False, False), 2: (True, False)}
        undecided = [99, 2, 0, 99]
        run = self.run(
            monkeypatch, norms, splits=splits, crossovers=crossovers, undecided=undecided
        )
        assert run == (True, 0.2, 2, 2)
        assert self.attempts == [(1, 2), (2, None)] and self.crossed[1].x == 2

    def test_below_settled_the_split_alone_hands_over(self, monkeypatch):
        # below SETTLED a settled split ends the loop whatever the pairs
        # say, and the active-set step runs after the loop, not in it
        norms = [1.0, 0.5, newton.SETTLED / 2, 1e-13]
        splits = [[True]] + [[False]] * 3
        crossovers = {2: (True, False)}
        run = self.run(monkeypatch, norms, splits=splits, crossovers=crossovers)
        assert run == (True, newton.SETTLED / 2, 2, 2)
        assert self.attempts == [] and self.crossed is None

    def test_rejected_crossover_leaves_the_loop_as_it_was(self, monkeypatch):
        # found/scaled.json with ls-ipm: levels 1 and 2 end sub-converged,
        # level 2 at the iteration cap. Each of their early active-set
        # steps, short or with the full budget, ends sub-converged or off a
        # carried row and is rejected. They leave every iterate and each
        # loop's end point and norm bit for bit as they are with the early
        # steps switched off, and only their work is counted. Level 3 ends
        # through an accepted early step at its third iterate; up to there
        # its iterates are those of the loop without early steps
        p, objectives = load("scaled")
        real_step, real_loop = cascade.mehrotra_iteration, cascade.newton_loop
        real_crossover = cascade._crossover

        def solve():
            iterates, attempts, starts, ends = [], [], [], []

            def step(ctx, s, form):
                s = real_step(ctx, s, form)
                arrays = (s.x, s.v_ineq, s.w_ineq, s.w_inact, s.lam_inact)
                iterates.append([a.tobytes() for a in arrays])
                return s

            def loop(ctx, s, form):
                starts.append((len(iterates), len(attempts)))
                out = real_loop(ctx, s, form)
                ends.append((out[0].x.tobytes(), out[1], out[2], out[3] is None))
                return out

            def crossover(ctx, s, budget=None):
                out = real_crossover(ctx, s, budget)
                attempts.append((budget, out[2]))
                return out

            monkeypatch.setattr(cascade, "mehrotra_iteration", step)
            monkeypatch.setattr(cascade, "newton_loop", loop)
            monkeypatch.setattr(cascade, "_crossover", crossover)
            rep = solve_hlsp(p, SolverConfig(method="ls-ipm"))
            # per level: its iterates, and its attempts up to the next level's loop
            bounds = starts + [(len(iterates), len(attempts))]
            levels = [
                (iterates[i:j], attempts[a:b], end)
                for (i, a), (j, b), end in zip(bounds, bounds[1:], ends)
            ]
            return rep, levels

        rep, levels = solve()
        # no pair is ever decided: only the exits below SETTLED, at eps, at
        # the cap or at a non-finite iterate are left
        monkeypatch.setattr(cascade, "_undecided", lambda before, s: math.inf)
        off, off_levels = solve()
        assert [lv.iterations for lv in rep.levels] == [3, 50, 3]
        assert [lv.iterations for lv in off.levels] == [3, 50, 44]
        assert [lv.sub_converged for lv in rep.levels] == [True, True, False]
        # without early steps, one crossover per level after its loop
        off_attempts = [tries for _, tries, _ in off_levels]
        assert off_attempts == [[(None, False)], [(None, False)], [(None, True)]]
        for (its, tries, end), (off_its, _, off_end), lv, lv_off in zip(
            levels[:2], off_levels, rep.levels, off.levels
        ):
            # rejected ones before the loop's end, short ones among them,
            # and the rejected one after it
            assert len(tries) > 1 and not any(ok for _, ok in tries[:-1])
            assert tries[-1] == (None, False)
            assert any(budget is not None for budget, _ in tries)
            assert its == off_its and end == off_end
            assert lv.factorizations > lv_off.factorizations
        its, tries, end = levels[2]
        # the loop ends converged at the accepted attempt, with none after it
        assert tries[-1] == (None, True) and end[1] and not end[3]
        assert len(its) == 3 and its == off_levels[2][0][:3]
        assert np.allclose(rep.objectives, objectives, rtol=0.0, atol=1e-6)
        assert np.allclose(off.objectives, objectives, rtol=0.0, atol=1e-6)

    def test_changing_split_below_settled_runs_on(self, monkeypatch):
        # below SETTLED the split changes at three iterates, then holds
        settled = newton.SETTLED
        norms = [1.0, settled / 2, settled / 4, settled / 8, settled / 16]
        splits = [[True, False], [True, True], [True, False], [False, False], [False, False]]
        run = self.run(monkeypatch, norms, splits=splits)
        assert run == (True, settled / 16, 4, 4)

    def test_split_that_never_settles_runs_to_eps(self, monkeypatch):
        # a barrier level whose split changes at every iterate has no other
        # exit short of eps: it runs past a norm of 1e-6 and stops below eps
        norms = [1.0, 1e-3, 1e-6, 1e-9, 5e-11, 1e-13]
        assert self.run(monkeypatch, norms) == (True, 1e-13, 5, 5)

    def test_level_without_barrier_rows_ignores_the_split(self):
        # a linear level's loop (linear_level's) has no split: below
        # SETTLED only its tolerance ends it
        norms = [1.0, newton.SETTLED / 2, newton.SETTLED / 4, 1e-13]
        counters = Counters()

        def step(k):
            counters.newton_iterations += 1
            return k + 1

        def test(k):
            return norms[k] < 1e-12, norms[k], k

        run = cascade._exit_loop(0, step, test, counters, SolverConfig())
        assert (*run, counters.newton_iterations) == (3, True, 1e-13, 3)

    def test_non_finite_norm_ends_the_loop_at_the_best_iterate(self, monkeypatch):
        norms = [1.0, 1e-6, 5e-11, 2e-10, np.inf, 1e-13]
        assert self.run(monkeypatch, norms) == (False, 5e-11, 4, 2)

    def test_rise_off_the_floor_runs_on(self, monkeypatch):
        # a 12x rise over a best below 100 * eps ends nothing
        norms = [1.0, 1e-6, 5e-11, 2e-10, 6e-10, 1e-13]
        assert self.run(monkeypatch, norms) == (True, 1e-13, 5, 5)

    def test_non_finite_step_ends_the_loop_at_the_best_iterate(self, monkeypatch):
        # the third step raises; it counts as an iteration
        norms = [1.0, 5e-11, 1e-6, 1e-13]
        assert self.run(monkeypatch, norms, raise_at=3) == (False, 5e-11, 3, 1)

    def test_cap_ends_a_flat_tail_at_the_best_iterate(self, monkeypatch):
        norms = [1.0, 1e-6, 5e-11] + [8e-11] * 60
        assert self.run(monkeypatch, norms) == (False, 5e-11, 50, 2)


class TestLinearLevelExits:
    """``linear_level`` keeps ``newton_loop``'s exits on scripted KKT norms.

    Test k reads ``norms[k]``, and every step adds the basis times ones, so
    iterate k of a fresh chain is ``k`` in every component and the returned
    point names itself. ``raise_at`` makes that step's solve raise
    ``NonFiniteError``.
    """

    def run(self, monkeypatch, norms, max_iter=50, raise_at=None):
        n, tests, steps = 3, [], []
        level = lvl(n, [[1.0, 2.0, 0.0]], [1.0], np.zeros((0, n)), [])
        real_rrqr = cascade.rrqr

        def scripted_test(partial, eps, g_r):
            tests.append(partial)
            return norms[len(tests) - 1] < eps, norms[len(tests) - 1]

        def scripted_rrqr(matrix, **kwargs):
            fact = real_rrqr(matrix, **kwargs)

            def solve_basic(rhs):
                steps.append(rhs)
                if len(steps) == raise_at:
                    raise NonFiniteError("scripted")
                return np.ones(fact.ncols)

            fact.solve_basic = solve_basic
            return fact

        monkeypatch.setattr(cascade, "kkt_test", scripted_test)
        monkeypatch.setattr(cascade, "rrqr", scripted_rrqr)
        chain, counters = NullSpaceChain(n), Counters()
        config = SolverConfig(max_iter=max_iter)
        x, conv, norm, rank, r = linear_level(
            chain, level, np.zeros(n), config, counters, "normal"
        )
        assert np.all(x == x[0])
        assert np.array_equal(r, level.equalities.matrix @ x - level.equalities.rhs)
        # the rows extend the chain at the returned point, on one RRQR
        assert rank == 1 and np.array_equal(chain.v_star, r)
        assert counters.factorizations == 1
        return conv, norm, counters.newton_iterations, int(x[0])

    def test_stops_at_its_tolerance(self, monkeypatch):
        norms = [1.0, 1e-11, 5e-13, 1e-14]
        assert self.run(monkeypatch, norms) == (True, 5e-13, 2, 2)

    def test_optimal_start_takes_no_step(self, monkeypatch):
        assert self.run(monkeypatch, [5e-13]) == (True, 5e-13, 0, 0)

    def test_no_step_at_max_iter_zero(self, monkeypatch):
        assert self.run(monkeypatch, [1.0], max_iter=0) == (False, 1.0, 0, 0)

    def test_non_finite_norm_ends_at_the_best_iterate(self, monkeypatch):
        norms = [1.0, 1e-6, 5e-11, 2e-10, np.inf, 1e-13]
        assert self.run(monkeypatch, norms) == (False, 5e-11, 4, 2)

    def test_non_finite_step_ends_at_the_best_iterate(self, monkeypatch):
        # the third step's solve raises; it counts as an iteration
        norms = [1.0, 5e-11, 1e-6, 1e-13]
        assert self.run(monkeypatch, norms, raise_at=3) == (False, 5e-11, 3, 1)

    def test_cap_ends_a_flat_tail_at_the_best_iterate(self, monkeypatch):
        norms = [1.0, 1e-6, 5e-11] + [8e-11] * 60
        assert self.run(monkeypatch, norms) == (False, 5e-11, 50, 2)


# the overflows are the subject of these tests; newton_loop silences them,
# so a RuntimeWarning here is one that leaked
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteSteps:
    @pytest.mark.parametrize("method", METHODS)
    def test_scaled_rows_return_a_report(self, method):
        p = scaled_rows_problem()
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert np.isfinite(rep.x).all()
        if rep.config["method"].endswith("-asm"):
            ref = solve_hlsp(p, SolverConfig(method="nf-ipm"))
            assert np.allclose(rep.objectives, ref.objectives, rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("method", METHODS)
    def test_overflowing_start_residual_returns_a_report(self, method):
        # the interior point's first convergence test overflows on the 1e150
        # row, before any step is taken; the active-set solve tests only
        # the point it ends at
        p = problem_from_dict(
            {
                "n": 2,
                "levels": [
                    {"A_e": [[1e150, 0]], "b_e": [1e150], "A_i": [[1e-150, 1]], "b_i": [0]},
                    {"A_e": [[1, 1]], "b_e": [0], "A_i": [], "b_i": []},
                ],
            }
        )
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert len(rep.levels) == 2 and np.isfinite(rep.x).all()

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    @pytest.mark.parametrize("method", METHODS)
    def test_rows_whose_squared_norm_overflows_keep_their_rank(self, method, scale):
        # rrqr's rank floor squares the rows' norms; past about 1.3e154 that
        # read inf and dropped every pivot, so each level kept x = 0
        p = problem_from_dict(
            {
                "n": 2,
                "levels": [
                    {"A_e": [[scale, 0]], "b_e": [scale], "A_i": [], "b_i": []},
                    {"A_e": [[1, 1]], "b_e": [0], "A_i": [], "b_i": []},
                ],
            }
        )
        rep = solve_hlsp(p, SolverConfig(method=method))
        assert np.array_equal(rep.x, [1.0, -1.0])
        assert [lv.rank_current for lv in rep.levels] == [1, 1]
        assert [lv.kkt_norm for lv in rep.levels] == [0.0, 0.0]

    @pytest.mark.parametrize("form", ["normal", "ls"])
    def test_overflowed_multiplier_ends_level_at_best_iterate(self, monkeypatch, form):
        # the third step starts from infinite multipliers: the ls step's
        # triangular solve rejects them, the normal step yields an Inf/NaN
        # iterate; either way the loop stops and returns a finite iterate
        state = CascadeState.fresh(5)
        rng = np.random.default_rng(0)
        state.carry.append(rng.uniform(-1, 1, (3, 5)), rng.uniform(-2, -1, 3))
        config = SolverConfig()
        level = random_hlsp(3, 5, [(1, 3, 0, "mixed")]).levels[0]
        ctx = build_level_context(state, level, config, Counters())
        s = initial_state(ctx, np.zeros(5))
        real, steps, raised = cascade.mehrotra_iteration, [], []

        def diverging(ctx, s, form):
            steps.append(form)
            if len(steps) == 3:
                s = replace(s, lam_inact=np.full_like(s.lam_inact, np.inf))
            try:
                return real(ctx, s, form)
            except NonFiniteError:
                raised.append(form)
                raise

        monkeypatch.setattr(cascade, "mehrotra_iteration", diverging)
        s, conv, norm, crossed = newton_loop(ctx, s, form)
        assert len(steps) == 3 and raised == ([form] if form == "ls" else [])
        assert not conv and crossed is None
        assert np.isfinite(norm) and norm == converged(ctx, s, config.eps)[1]
        for values in (s.x, s.v_ineq, s.w_ineq, s.w_inact, s.lam_inact):
            assert np.isfinite(values).all()


class TestReportShape:
    def test_report_serializes(self):
        p = random_hlsp(31, 4, [(1, 2, 0, "mixed"), (1, 0, 0, "feasible")])
        rep = solve_hlsp(p, SolverConfig(method="ls-ipm"))
        d = rep.to_dict()
        import json

        encoded = json.dumps(d, sort_keys=True)
        assert "levels" in d and len(d["levels"]) == 2
        assert d["levels"][0]["n_r_before"] == 4
        assert isinstance(json.loads(encoded), dict)
