from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlsp import cascade
from hlsp.cascade import (
    CascadeState,
    InactiveCarry,
    InvalidProblemError,
    asm_level_feasibility,
    build_level_context,
    hybrid_solve,
    newton_loop,
    project_current,
    project_inactive,
    solve_hlsp,
)
from hlsp.config import METHODS, SolverConfig
from hlsp.factorization import NonFiniteError, nullspace_update, rrqr
from hlsp.fileio import problem_from_dict
from hlsp.newton import (
    Counters,
    IterateState,
    converged,
    initial_state,
    recover_equality_dual,
)
from hlsp.oracle import brute_force_cascade, cascade_objectives
from hlsp.problem import ConstraintBlock, HlspProblem, Level, random_hlsp


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
        p = random_hlsp(5, 4, [(1, 3, 0, "mixed")])
        rep = solve_hlsp(p, SolverConfig(method="nf-ipm", max_iter=2))
        assert rep.levels[0].sub_converged
        assert not rep.converged
        assert rep.levels[0].iterations <= 2

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
        s = newton_loop(ctx, initial_state(ctx, np.zeros(2)), config.step_form)[0]
        project_inactive(state, s, config.xi, counters)
        project_current(state, p.levels[0], s, config.xi, counters)
        # satisfied row carried, nothing active
        assert state.carry.m == 1
        assert state.chain.n_r == 2  # no rank consumed
        # now solve level 2 and activate from the carry only if saturated
        ctx2 = build_level_context(state, p.levels[1], config, counters)
        s2 = newton_loop(ctx2, initial_state(ctx2, s.x), config.step_form)[0]
        stages_before = len(state.chain.stages)
        project_inactive(state, s2, config.xi, counters)
        assert len(state.chain.stages) == stages_before  # x2 move ignores x1 >= -1
        assert state.carry.m == 1

    def test_saturated_with_significant_dual_activates(self):
        state = CascadeState.fresh(2)
        state.carry.append(np.array([[1.0, 0.0]]), np.array([1.0]))
        config = SolverConfig()
        counters = Counters()

        class S:
            pass

        s = S()
        s.x = np.array([1.0 + 1e-10, 3.0])
        s.lam_inact = np.array([0.3])
        rank, lam_inact = project_inactive(state, s, config.xi, counters)
        assert rank == 1 and lam_inact.shape == (0,)
        assert np.array_equal(state.chain.rows, [[1.0, 0.0]])
        assert state.carry.m == 0
        # the stored violation is the exact residual at activation time, so
        # the pinned row stays consistent for every later level
        assert abs(state.chain.v_star[0] - 1e-10) < 1e-16

    def test_accidentally_saturated_not_activated(self):
        state = CascadeState.fresh(2)
        state.carry.append(np.array([[1.0, 0.0]]), np.array([1.0]))
        config = SolverConfig()
        counters = Counters()

        class S:
            pass

        s = S()
        s.x = np.array([1.0 + 1e-10, 0.0])
        s.lam_inact = np.array([1e-10])
        rank, lam_inact = project_inactive(state, s, config.xi, counters)
        assert rank == 0 and lam_inact is s.lam_inact
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
        rank, lam_inact = project_inactive(state, s, config.xi, counters)
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

        def recording(state, s, xi, counters):
            out = real(state, s, xi, counters)
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
        s = newton_loop(ctx, initial_state(ctx, np.zeros(1)), config.step_form)[0]
        assert project_inactive(state, s, config.xi, counters)[0] == 0
        assert project_current(state, p.levels[0], s, config.xi, counters) == 1
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
        assert project_current(state, level, s, config.xi, counters) == 2
        assert np.array_equal(state.chain.rows, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert_stacked(state.chain, [1.0, 0.5], [0.0, 0.2 - 0.5])
        # the carried row saturates with a significant dual
        s = SimpleNamespace(
            x=np.array([1.0, 0.2, -1.0, 0.0]),
            lam_inact=np.array([0.3]),
        )
        assert project_inactive(state, s, config.xi, counters)[0] == 1
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
                assert project_current(state, level, s, config.xi, counters) == m
            else:
                # carried rows saturated at x, with significant duals
                b = a @ s.x
                state.carry.append(a, b)
                s.lam_inact = np.ones(m)
                assert project_inactive(state, s, config.xi, counters)[0] == m
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


class TestAsm:
    def test_feasible_start_zero_set_changes(self):
        # equalities pin the solution at a point where every inequality
        # already holds, so the initial solve is the last one
        p = HlspProblem(
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
        rep = hybrid_solve(p, SolverConfig(method="nf-ipm-asm"))
        assert rep.levels[0].asm_iterations == 0
        assert rep.converged
        assert np.allclose(rep.x, [1.0, 1.0], atol=1e-9)

    def test_conflicting_bounds_both_activate(self):
        p = two_sided_conflict()
        rep = hybrid_solve(p, SolverConfig(method="ls-ipm-asm"))
        assert abs(rep.x[0] - 0.5) < 1e-8
        assert rep.levels[0].asm_iterations == 2

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

    @pytest.mark.parametrize("method", ["nf-ipm-asm", "ls-ipm-asm"])
    def test_exhausted_search_hands_level_to_interior_point(self, method):
        # with no search budget every level with inequalities goes to the
        # interior point after the first inner solve
        for seed in range(8):
            p = asm_problem(seed)
            pure = solve_hlsp(p, SolverConfig(method="nf-ipm"))
            rep = solve_hlsp(p, SolverConfig(method=method, asm_max_iter=0))
            assert all(lv.asm_iterations == 0 for lv in rep.levels)
            assert np.allclose(pure.objectives, rep.objectives, atol=1e-6)

    @pytest.mark.parametrize("method", ["nf-ipm-asm", "ls-ipm-asm"])
    def test_every_active_stack_is_factorized(self, method):
        # the empty stack needs none, then one RRQR per non-empty active
        # stack ([x >= 1], then both rows) and one for the projection
        rep = solve_hlsp(two_sided_conflict(), SolverConfig(method=method))
        assert rep.levels[0].fact_shapes == [(1, 1), (2, 1), (2, 1)]

    def test_asm_level_feasibility_direct(self):
        p = two_sided_conflict()
        config = SolverConfig(method="nf-ipm-asm")
        state = CascadeState.fresh(1)
        counters = Counters()
        ctx, s, conv, norm = asm_level_feasibility(
            state, p.levels[0], np.zeros(1), config, counters, ()
        )
        assert conv
        assert ctx.m_eq == 2  # the last inner solve pinned both rows
        assert abs(s.x[0] - 0.5) < 1e-8
        # both rows are pinned at their optimal violations
        assert np.allclose(ctx.a_eq @ s.x - ctx.b_eq, [-0.5, -0.5], atol=1e-8)

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


class TestLinearLevelCost:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize(
        "method,identity",
        [("nf-ipm", True), ("ls-ipm", True), ("classical", False)],
    )
    def test_one_rrqr_one_basic_step_one_extension(
        self, monkeypatch, seed, method, identity
    ):
        # the paper's work per linear level, written out with the same
        # kernels: the solver's x must match it bit for bit after each level
        problem = linear_hierarchy(seed, identity)
        seen = []
        real_loop = cascade.newton_loop

        def recording_loop(ctx, s, form):
            out = real_loop(ctx, s, form)
            seen.append(out[0].x)
            return out

        monkeypatch.setattr(cascade, "newton_loop", recording_loop)
        report = solve_hlsp(problem, SolverConfig(method=method))
        solved = [lv for lv in report.levels if lv.kkt_norm is not None]
        assert len(seen) == len(solved)

        x, basis = np.zeros(problem.n), np.eye(problem.n)
        for level, lv, x_solver in zip(problem.levels, solved, seen):
            a, b = level.equalities.matrix, level.equalities.rhs
            fact = rrqr(a @ basis, scale_rows=a)
            assert lv.iterations in (0, 1)
            assert lv.method_fallback == (method == "classical")
            if lv.iterations:
                x = x + basis @ fact.solve_basic(b - a @ x)
            assert np.array_equal(x_solver, x)
            basis = nullspace_update(basis, fact)
            assert lv.n_r_after == basis.shape[1]
        assert np.array_equal(report.x, x)


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
            if counter is None:  # only the probe goes uncounted
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
            s = newton_loop(ctx, initial_state(ctx, x), config.step_form)[0]
            x = s.x
            project_inactive(state, s, config.xi, counters)
            if state.chain.n_r:
                project_current(state, level, s, config.xi, counters)
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
        # replay the cascade to level 2's final iterate
        state = CascadeState.fresh(p.n)
        counters = Counters()
        ctx = build_level_context(state, p.levels[0], config, counters)
        s = newton_loop(ctx, initial_state(ctx, np.zeros(p.n)), config.step_form)[0]
        project_current(state, p.levels[0], s, config.xi, counters, ctx.stage1)
        ctx = build_level_context(state, p.levels[1], config, counters)
        s = newton_loop(ctx, initial_state(ctx, s.x), config.step_form)[0]
        assert np.array_equal(s.x, rep.x)
        assert ctx.m_act == 2
        assert np.array_equal(rep.last_duals["lam_act"], recover_equality_dual(ctx, s))


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

    In the last inner solve of the ``-asm`` search on level 3 a carried
    multiplier diverges to about 1e208 while its slack falls to 1e-42, and
    the KKT residual overflows.
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


class TestFloorExits:
    """``newton_loop``'s exits on a scripted sequence of KKT norms.

    Iterate k carries k in ``x``, so the returned iterate names itself.
    """

    def run(self, monkeypatch, norms):
        config = SolverConfig()
        ctx = SimpleNamespace(config=config, counters=Counters())

        def scripted_step(ctx, s, form):
            ctx.counters.newton_iterations += 1
            return SimpleNamespace(x=s.x + 1)

        def scripted_norm(ctx, s, eps):
            return norms[s.x] < eps, norms[s.x]

        monkeypatch.setattr(cascade, "mehrotra_iteration", scripted_step)
        monkeypatch.setattr(cascade, "converged", scripted_norm)
        s, conv, norm = newton_loop(ctx, SimpleNamespace(x=0), form="normal")
        return conv, norm, ctx.counters.newton_iterations, s.x

    def test_rise_off_the_floor_ends_the_loop_at_the_best_iterate(self, monkeypatch):
        # best 5e-11 is below 100 * eps; a 4x rise is tolerated, a 12x rise
        # over the best (not over the last norm) ends the loop at once
        norms = [1.0, 1e-6, 5e-11, 2e-10, 6e-10, 1e-13]
        assert self.run(monkeypatch, norms) == (False, 5e-11, 4, 2)

    def test_same_rise_above_the_gate_continues(self, monkeypatch):
        norms = [1.0, 1e-6, 2e-10, 3e-9, 5e-13]
        assert self.run(monkeypatch, norms) == (True, 5e-13, 4, 4)

    def test_patience_still_ends_a_flat_tail(self, monkeypatch):
        norms = [1.0, 1e-6, 5e-11] + [8e-11] * 10
        assert self.run(monkeypatch, norms) == (False, 5e-11, 8, 2)


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
        s, conv, norm = newton_loop(ctx, s, form=form)
        assert len(steps) == 3 and raised == ([form] if form == "ls" else [])
        assert not conv
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
