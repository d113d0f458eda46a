import copy
import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hlsp import cascade
from hlsp.cascade import NullSpaceChain, solve_hlsp
from hlsp.config import SolverConfig
from hlsp import newton
from hlsp.factorization import Cholesky, Rrqr, nullspace_update, rrqr
from hlsp.fileio import problem_from_dict
from hlsp.newton import (
    Counters,
    IterateState,
    LevelContext,
    MethodNotApplicable,
    StepDirection,
    _dual_free_stationarity,
    _step_solver,
    assemble_f_g,
    component_steps,
    converged,
    initial_state,
    line_search,
    mehrotra_iteration,
    recover_equality_dual,
)

from conftest import build_random_level
from test_found import INSTANCES, load
from test_fuzz import SEEDS, fuzz_problem


def transcribed_kkt(ctx, s, lam_act):
    """Independent straight-line transcription of the optimality blocks.

    Block order: stationarity at the active duals ``lam_act``, equality
    consistency, inequality consistency, inequality complementarity,
    active-constraint consistency, inactive-constraint consistency,
    inactive complementarity.
    """
    k1 = (
        ctx.a_eq.T @ s.v_eq
        + ctx.a_ineq.T @ s.v_ineq
        - ctx.a_act.T @ lam_act
        - ctx.a_inact.T @ s.lam_inact
    )
    k2 = ctx.b_eq - ctx.a_eq @ s.x + s.v_eq
    k3 = ctx.b_ineq - ctx.a_ineq @ s.x + s.v_ineq + s.w_ineq
    k4 = s.w_ineq * s.v_ineq
    k5 = ctx.b_act - ctx.a_act @ s.x + ctx.v_act
    k6 = ctx.b_inact - ctx.a_inact @ s.x + s.w_inact
    k7 = s.lam_inact * s.w_inact
    return np.concatenate([k1, k2, k3, k4, k5, k6, k7])


class TestKktResidual:
    """The KKT norm that ``converged`` measures and reports as ``kkt_norm``."""

    def test_consistent_equality_optimum_is_zero(self):
        ctx, s = build_random_level(0, n=4, m_eq=2, m_ineq=0, m_inact=0, m_prior=0)
        x = np.linalg.lstsq(ctx.a_eq, ctx.b_eq, rcond=None)[0]
        s = replace(s, x=x, v_eq=ctx.a_eq @ x - ctx.b_eq)
        conv, norm = converged(ctx, s, 1e-10)
        assert conv and norm < 1e-10

    def test_single_complementarity_block(self):
        ctx, s = build_random_level(1, n=3, m_eq=0, m_ineq=1, m_inact=0, m_prior=0)
        s = replace(s, w_ineq=np.array([1.0]), v_ineq=np.array([-1.0]))
        # blocks after stationarity: k2 (0 rows), k3 (1), then k4
        assert newton._partial_blocks(ctx, s)[2][0] == -1.0
        assert converged(ctx, s, np.inf)[1] >= 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_transcription(self, seed):
        ctx, s = build_random_level(seed, n=5, m_eq=2, m_ineq=2, m_inact=2, m_prior=2)
        lam_act = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
        partial = np.concatenate(newton._partial_blocks(ctx, s))
        ref = transcribed_kkt(ctx, s, lam_act)
        assert np.allclose(partial, ref[ctx.basis.shape[0]:], atol=1e-14)
        # past the early-out the norm is the whole residual's at the walked duals
        _, norm = converged(ctx, s, np.inf)
        assert abs(norm - np.linalg.norm(ref)) < 1e-12 * max(1.0, norm)


class TestAssembleFG:
    def test_empty_sets_give_empty(self):
        ctx, s = build_random_level(3, n=3, m_eq=2, m_ineq=0, m_inact=0, m_prior=0)
        f, g = assemble_f_g(ctx, s, 0.0, 0.0)
        assert f.size == 0 and g.size == 0

    def test_affine_matches_closed_form(self):
        ctx, s = build_random_level(4, n=5, m_eq=1, m_ineq=2, m_inact=3, m_prior=2)
        f, _ = assemble_f_g(ctx, s, 0.0, 0.0)
        expected = s.lam_inact - (s.lam_inact / s.w_inact) * (
            ctx.a_inact @ s.x - ctx.b_inact
        )
        assert np.allclose(f, expected, atol=1e-13)

    def test_corrector_minus_plain_is_cross_term(self):
        ctx, s = build_random_level(5, n=5, m_eq=1, m_ineq=2, m_inact=3, m_prior=2)
        rng = np.random.default_rng(55)
        cross_in = rng.uniform(-0.1, 0.1, ctx.m_inact)
        cross_i = rng.uniform(-0.1, 0.1, ctx.m_ineq)
        smu_i, smu_in = 0.02, 0.03
        f_plain, g_plain = assemble_f_g(ctx, s, smu_i, smu_in)
        f_cor, g_cor = assemble_f_g(ctx, s, smu_i, smu_in, cross=(cross_in, cross_i))
        assert np.allclose(f_cor - f_plain, -cross_in / s.w_inact, atol=1e-13)
        d = s.v_ineq - s.w_ineq
        assert np.allclose(g_cor - g_plain, -cross_i / d, atol=1e-13)


class TestProjectedNormalStep:
    def test_equality_only_single_step_hits_least_squares(self):
        ctx, s = build_random_level(7, n=5, m_eq=3, m_ineq=0, m_inact=0, m_prior=0)
        f, g = assemble_f_g(ctx, s, 0.0, 0.0)
        x_new = s.x + _step_solver(ctx, s, "normal")(f, g).dx
        x_ref = np.linalg.lstsq(ctx.a_eq, ctx.b_eq, rcond=None)[0]
        assert np.allclose(ctx.a_eq @ x_new, ctx.a_eq @ x_ref, atol=1e-10)

    def test_step_confined_to_nullspace(self):
        # prior level fixes the first variable, the step lives on the rest
        n = 2
        chain = NullSpaceChain(n)
        rows = np.array([[1.0, 0.0]])
        fact = rrqr(rows)
        chain.extend(rows, np.array([1.0]), np.zeros(1), fact)
        config = SolverConfig()
        a_eq = np.array([[1.0, 1.0]])
        ctx = LevelContext(
            basis=chain.basis,
            a_eq=a_eq,
            b_eq=np.array([5.0]),
            a_ineq=np.zeros((0, n)),
            b_ineq=np.zeros(0),
            a_act=rows,
            b_act=np.array([1.0]),
            v_act=np.zeros(1),
            a_inact=np.zeros((0, n)),
            b_inact=np.zeros(0),
            proj_eq=a_eq @ chain.basis,
            proj_ineq=np.zeros((0, 1)),
            proj_inact=np.zeros((0, 1)),
            stage1=rrqr(a_eq @ chain.basis),
            stages=tuple(chain.stages),
            counters=Counters(),
            config=config,
        )
        x = np.array([1.0, 0.0])
        s = IterateState(
            x=x,
            v_eq=a_eq @ x - ctx.b_eq,
            v_ineq=np.zeros(0),
            w_ineq=np.zeros(0),
            w_inact=np.zeros(0),
            lam_inact=np.zeros(0),
        )
        dx = _step_solver(ctx, s, "normal")(np.zeros(0), np.zeros(0)).dx
        assert abs(dx[0]) < 1e-12
        assert abs((x + dx)[1] - 4.0) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_reduced_solve(self, seed):
        ctx, s = build_random_level(seed + 10, n=6, m_eq=2, m_ineq=3, m_inact=2, m_prior=2)
        f, g = assemble_f_g(ctx, s, 0.01, 0.02)
        dz = _step_solver(ctx, s, "normal")(f, g).dx[ctx.basis.free]
        wt_i = s.v_ineq / (s.v_ineq - s.w_ineq)
        wt_in = s.lam_inact / s.w_inact
        h = (
            ctx.proj_eq.T @ ctx.proj_eq
            + (ctx.proj_ineq * wt_i[:, None]).T @ ctx.proj_ineq
            + (ctx.proj_inact * wt_in[:, None]).T @ ctx.proj_inact
        )
        rhs = (
            ctx.proj_eq.T @ (ctx.b_eq - ctx.a_eq @ s.x)
            + ctx.proj_ineq.T @ g
            + ctx.proj_inact.T @ f
        )
        dz_ref = np.linalg.solve(h, rhs)
        assert np.allclose(dz, dz_ref, atol=1e-8 * max(1, np.linalg.norm(dz_ref)))

    def test_active_rows_unchanged_by_step(self):
        ctx, s = build_random_level(30, n=6, m_eq=2, m_ineq=2, m_inact=2, m_prior=3)
        f, g = assemble_f_g(ctx, s, 0.0, 0.0)
        dx = _step_solver(ctx, s, "normal")(f, g).dx
        assert np.linalg.norm(ctx.a_act @ dx) < 1e-10 * max(1, np.linalg.norm(dx))


class TestHessianFactor:
    """The normal form factors H by xPOTRF where it has full rank, else by RRQR."""

    def test_well_conditioned_h_takes_cholesky(self):
        ctx, _ = build_random_level(50, n=6, m_eq=2, m_ineq=3, m_inact=2, m_prior=2)
        h = ctx.proj_eq.T @ ctx.proj_eq + ctx.proj_ineq.T @ ctx.proj_ineq
        fact = newton._hessian_factor(ctx, h)
        assert isinstance(fact, Cholesky)
        assert ctx.counters.fact_shapes == [h.shape]
        rhs = np.random.default_rng(50).uniform(-1, 1, len(h))
        ref = rrqr(h, tol=newton.STEP_TOL).solve_basic(rhs)
        assert np.linalg.norm(fact.solve_basic(rhs) - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_failed_pivot_falls_back_to_rrqr_and_is_counted(self):
        ctx, _ = build_random_level(51, n=6, m_eq=2, m_ineq=3, m_inact=2, m_prior=2)
        k = ctx.proj_eq.shape[1]
        # one direction 1e-12 of the others: R_kk^2 is under UNPIVOTED
        h = np.diag(np.r_[np.ones(k - 1), 1e-12])
        fact = newton._hessian_factor(ctx, h)
        assert isinstance(fact, Rrqr) and fact.rank == k
        assert ctx.counters.fact_shapes == [h.shape, h.shape]

    def test_fewer_rows_than_columns_skip_the_attempt(self):
        ctx, _ = build_random_level(52, n=8, m_eq=1, m_ineq=2, m_inact=1, m_prior=0)
        h = np.eye(8)
        assert isinstance(newton._hessian_factor(ctx, h), Rrqr)
        assert ctx.counters.fact_shapes == [h.shape]

    @pytest.mark.parametrize("seed", range(5))
    def test_steps_match_the_rrqr_steps(self, seed, monkeypatch):
        ctx, s = build_random_level(seed + 60, n=6, m_eq=2, m_ineq=3, m_inact=2, m_prior=2)
        f, g = assemble_f_g(ctx, s, 0.01, 0.02)
        factors = []
        factor = newton._hessian_factor

        def spy(c, h):
            factors.append(factor(c, h))
            return factors[-1]

        monkeypatch.setattr(newton, "_hessian_factor", spy)
        dx = _step_solver(ctx, s, "normal")(f, g).dx
        assert isinstance(factors[0], Cholesky)
        monkeypatch.setattr(
            newton, "_hessian_factor", lambda c, h: rrqr(h, tol=newton.STEP_TOL)
        )
        dx_ref = _step_solver(ctx, s, "normal")(f, g).dx
        assert np.linalg.norm(dx - dx_ref) <= 1e-12 * np.linalg.norm(dx_ref)


class TestLsFormStep:
    def test_equality_only_reduces_to_projected_least_squares(self):
        ctx, s = build_random_level(11, n=5, m_eq=3, m_ineq=0, m_inact=0, m_prior=1)
        dz_ls = _step_solver(ctx, s, "ls")(np.zeros(0), np.zeros(0)).dx[ctx.basis.free]
        rhs = ctx.b_eq - ctx.a_eq @ s.x
        dz_ref = np.linalg.lstsq(ctx.proj_eq, rhs, rcond=None)[0]
        assert np.linalg.norm(ctx.proj_eq @ dz_ls - rhs) <= (
            np.linalg.norm(ctx.proj_eq @ dz_ref - rhs) + 1e-10
        )

    def test_unit_weight_row_enters_unscaled(self):
        ctx, s = build_random_level(12, n=4, m_eq=1, m_ineq=0, m_inact=1, m_prior=0)
        s = replace(s, w_inact=np.array([1.0]), lam_inact=np.array([1.0]))
        f, g = assemble_f_g(ctx, s, 0.0, 0.0)
        dz = _step_solver(ctx, s, "ls")(f, g).dx[ctx.basis.free]
        # weight sqrt(lam/w) = 1: the stacked system is [inact; eq] unweighted
        stack = np.vstack([ctx.proj_inact, ctx.proj_eq])
        rhs = np.concatenate([f, ctx.b_eq - ctx.a_eq @ s.x])
        dz_ref = np.linalg.lstsq(stack, rhs, rcond=None)[0]
        res = np.linalg.norm(stack @ dz - rhs)
        res_ref = np.linalg.norm(stack @ dz_ref - rhs)
        assert abs(res - res_ref) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_projected_normal_step(self, seed):
        ctx, s = build_random_level(seed + 40, n=7, m_eq=2, m_ineq=3, m_inact=3, m_prior=2)
        f, g = assemble_f_g(ctx, s, 0.01, 0.005)
        dz_nf = _step_solver(ctx, s, "normal")(f, g).dx[ctx.basis.free]
        dz_ls = _step_solver(ctx, s, "ls")(f, g).dx[ctx.basis.free]
        scale = max(1.0, np.linalg.norm(dz_nf))
        assert np.linalg.norm(dz_nf - dz_ls) < 1e-8 * scale


class TestClassicalStep:
    def test_no_active_rows_single_factorization(self):
        ctx, s = build_random_level(
            13, n=4, m_eq=3, m_ineq=2, m_inact=0, m_prior=0,
            config=SolverConfig(method="classical"),
        )
        f, g = assemble_f_g(ctx, s, 0.0, 0.0)
        before = ctx.counters.factorizations
        _step_solver(ctx, s, "classical")(f, g)
        assert ctx.counters.factorizations - before == 1

    def test_matches_projected_form_on_full_rank_toy(self):
        cfg = SolverConfig(method="classical")
        ctx, s = build_random_level(
            14, n=5, m_eq=4, m_ineq=2, m_inact=2, m_prior=2, config=cfg
        )
        f, g = assemble_f_g(ctx, s, 0.0, 0.0)
        dx_cl = _step_solver(ctx, s, "classical")(f, g).dx
        dx_nf = _step_solver(ctx, s, "normal")(f, g).dx
        assert np.allclose(dx_cl, dx_nf, atol=1e-8 * max(1, np.linalg.norm(dx_nf)))

    def test_dependent_active_rows_leave_the_step_as_it_is(self, monkeypatch):
        # two prior stages of 3 rows, each of rank 2, as eq_chain stacks 9
        # rows of rank 8 per level: the Schur complement is semidefinite
        n, m_act = 6, 6
        ctx, s = build_random_level(
            32, n=n, m_eq=4, m_ineq=2, m_inact=2, m_prior=3, prior_stages=2,
            prior_dependent=1, config=SolverConfig(method="classical"),
        )
        assert ctx.m_act == m_act and np.linalg.matrix_rank(ctx.a_act) == 4
        ranks, kernel = [], newton.pivoted_cholesky

        def pivoted_cholesky(matrix, *args, **kwargs):
            fact = kernel(matrix, *args, **kwargs)
            ranks.append(fact.rank)
            return fact

        monkeypatch.setattr(newton, "pivoted_cholesky", pivoted_cholesky)
        f, g = assemble_f_g(ctx, s, 0.003, 0.004)
        dx_cl = _step_solver(ctx, s, "classical")(f, g).dx
        assert ranks == [4]
        dx_nf = _step_solver(ctx, s, "normal")(f, g).dx
        scale = max(1.0, np.linalg.norm(dx_nf))
        assert np.linalg.norm(dx_cl - dx_nf) <= 1e-8 * scale
        for _ in range(3):
            before = len(ctx.counters.fact_shapes)
            s = mehrotra_iteration(ctx, s, "classical")
            assert ctx.counters.fact_shapes[before:] == [(n, n), (m_act, m_act)]
        assert ranks == [4] * 4

    def test_singular_quadratic_term_rejected(self):
        cfg = SolverConfig(method="classical")
        ctx, s = build_random_level(
            15, n=6, m_eq=1, m_ineq=1, m_inact=0, m_prior=1, config=cfg
        )
        f, g = assemble_f_g(ctx, s, 0.0, 0.0)
        with pytest.raises(MethodNotApplicable):
            _step_solver(ctx, s, "classical")(f, g)


def linearized_residual(ctx, s, d, smu_i, smu_in):
    """Residual of the full linearized optimality system for a step.

    The eliminated forms never produce the active-dual step, so the
    stationarity row is checked inside the null space of the active rows.
    The equality slack follows ``x``, so its step is read off ``dx``.
    """
    dv_eq = ctx.a_eq @ (s.x + d.dx) - ctx.b_eq - s.v_eq
    k2 = ctx.b_eq - ctx.a_eq @ s.x + s.v_eq
    k3 = ctx.b_ineq - ctx.a_ineq @ s.x + s.v_ineq + s.w_ineq
    k4 = s.w_ineq * s.v_ineq + smu_i
    k6 = ctx.b_inact - ctx.a_inact @ s.x + s.w_inact
    k7 = s.lam_inact * s.w_inact - smu_in
    r2 = -ctx.a_eq @ d.dx + dv_eq + k2
    r3 = -ctx.a_ineq @ d.dx + d.dv_ineq + d.dw_ineq + k3
    r4 = s.w_ineq * d.dv_ineq + s.v_ineq * d.dw_ineq + k4
    r5 = -ctx.a_act @ d.dx
    r6 = -ctx.a_inact @ d.dx + d.dw_inact + k6
    r7 = s.w_inact * d.dlam_inact + s.lam_inact * d.dw_inact + k7
    k1 = (
        ctx.a_eq.T @ s.v_eq
        + ctx.a_ineq.T @ s.v_ineq
        - ctx.a_inact.T @ s.lam_inact
    )
    r1 = (
        ctx.a_eq.T @ dv_eq
        + ctx.a_ineq.T @ d.dv_ineq
        - ctx.a_inact.T @ d.dlam_inact
        + k1
    )
    r1_reduced = ctx.basis.T @ r1
    return np.concatenate([r1_reduced, r2, r3, r4, r5, r6, r7])


class TestComponentSteps:
    def test_fixed_point_produces_zero_steps(self):
        ctx, s = build_random_level(16, n=4, m_eq=2, m_ineq=2, m_inact=1, m_prior=0)
        rng = np.random.default_rng(16)
        # build a consistent KKT-satisfying state with matching centering
        x = rng.uniform(-1, 1, 4)
        w_ineq = rng.uniform(0.5, 1.0, 2)
        w_inact = np.maximum(ctx.a_inact @ x - ctx.b_inact, 0.3)
        # make consistency rows exact
        v_ineq = ctx.a_ineq @ x - ctx.b_ineq - w_ineq
        smu_i = float(-(w_ineq * v_ineq)[0])
        # per-row products must equal -smu for k4 to vanish exactly
        v_ineq = -smu_i / w_ineq
        ctx.b_ineq = ctx.a_ineq @ x - v_ineq - w_ineq
        ctx.b_inact = ctx.a_inact @ x - w_inact
        smu_in = float((s.lam_inact * w_inact)[0])
        s = replace(
            s,
            x=x,
            v_eq=ctx.a_eq @ x - ctx.b_eq,
            v_ineq=v_ineq,
            w_ineq=w_ineq,
            w_inact=w_inact,
            lam_inact=smu_in / w_inact,
        )
        f, g = assemble_f_g(ctx, s, smu_i, smu_in)
        d = component_steps(ctx, s, np.zeros_like(s.x), f, g)
        dv_eq = ctx.a_eq @ (s.x + d.dx) - ctx.b_eq - s.v_eq
        for arr in (d.dx, dv_eq, d.dv_ineq, d.dw_ineq, d.dw_inact, d.dlam_inact):
            assert np.linalg.norm(arr) < 1e-10

    def test_equality_only_components(self):
        ctx, s = build_random_level(17, n=4, m_eq=2, m_ineq=0, m_inact=0, m_prior=0)
        f, g = assemble_f_g(ctx, s, 0.0, 0.0)
        d = component_steps(ctx, s, _step_solver(ctx, s, "normal")(f, g).dx, f, g)
        assert d.dv_ineq.size == 0 and d.dw_ineq.size == 0
        assert np.linalg.norm(d.dx) > 0
        # the step moves the equality slack the iterate resets from x
        assert np.linalg.norm(ctx.a_eq @ (s.x + d.dx) - ctx.b_eq - s.v_eq) > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_linearized_system_residual_small(self, seed):
        ctx, s = build_random_level(seed + 60, n=6, m_eq=2, m_ineq=3, m_inact=2, m_prior=2)
        smu_i, smu_in = 0.004, 0.006
        f, g = assemble_f_g(ctx, s, smu_i, smu_in)
        d = component_steps(ctx, s, _step_solver(ctx, s, "normal")(f, g).dx, f, g)
        res = linearized_residual(ctx, s, d, smu_i, smu_in)
        scale = max(1.0, np.linalg.norm(d.dx))
        assert np.linalg.norm(res) < 1e-8 * scale


def per_block_line_search(s, d: StepDirection, tau):
    """Reference: the per-block ratio test that ``line_search`` vectorizes."""
    a_max = np.inf

    def block(val, dval, lower):
        nonlocal a_max
        if val.size == 0:
            return
        if lower:
            mask = dval < 0
        else:
            mask = dval > 0
        if np.any(mask):
            ratios = -val[mask] / dval[mask] if not lower else val[mask] / -dval[mask]
            a_max = min(a_max, float(np.min(ratios)))

    block(s.w_ineq, d.dw_ineq, lower=True)
    block(-s.v_ineq, -d.dv_ineq, lower=True)
    block(s.w_inact, d.dw_inact, lower=True)
    block(s.lam_inact, d.dlam_inact, lower=True)
    if not np.isfinite(a_max):
        return 1.0
    return float(min(1.0, tau * a_max))


def ratio_test_pair(blocks, steps):
    """State and direction from the four nonnegative blocks and their steps.

    Block order is (w_ineq, -v_ineq, w_inact, lam_inact).
    """
    w_ineq, neg_v, w_inact, lam_inact = blocks
    s = IterateState(
        x=np.zeros(1),
        v_eq=np.zeros(0),
        v_ineq=-neg_v,
        w_ineq=w_ineq,
        w_inact=w_inact,
        lam_inact=lam_inact,
    )
    d = StepDirection(
        dx=np.zeros(1),
        dv_ineq=-steps[1],
        dw_ineq=steps[0],
        dw_inact=steps[2],
        dlam_inact=steps[3],
    )
    return s, d


@st.composite
def ratio_tests(draw):
    """Interior states, with empty blocks, nonnegative steps and a NaN step entry.

    Only steps hold a NaN: a solve reaches the ratio test only with finite
    values (``TestRatioTestInputs``).
    """
    sizes = [draw(st.integers(0, 4)), draw(st.integers(0, 4))]
    sizes = [sizes[0], sizes[0], sizes[1], sizes[1]]
    low = 0.0 if draw(st.booleans()) else -1e6
    blocks = [
        draw(hnp.arrays(float, m, elements=st.floats(1e-12, 1e12))) for m in sizes
    ]
    steps = [draw(hnp.arrays(float, m, elements=st.floats(low, 1e6))) for m in sizes]
    filled = [i for i, m in enumerate(sizes) if m]
    if filled and draw(st.booleans()):
        i = draw(st.sampled_from(filled))
        steps[i][draw(st.integers(0, sizes[i] - 1))] = np.nan
    return blocks, steps, draw(st.floats(0.5, 1.0))


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def random_direction(s, rng):
    return StepDirection(
        dx=np.zeros_like(s.x),
        dv_ineq=rng.uniform(-1, 1, s.v_ineq.shape),
        dw_ineq=rng.uniform(-1, 1, s.w_ineq.shape),
        dw_inact=rng.uniform(-1, 1, s.w_inact.shape),
        dlam_inact=rng.uniform(-1, 1, s.lam_inact.shape),
    )


class TestLineSearch:
    @settings(max_examples=300, deadline=None)
    @given(ratio_tests())
    def test_matches_per_block_loop(self, case):
        blocks, steps, tau = case
        s, d = ratio_test_pair(blocks, steps)
        # tiny steps overflow some ratios to inf in both versions
        with np.errstate(over="ignore"):
            assert same_bits(line_search(s, d, tau), per_block_line_search(s, d, tau))

    @pytest.mark.parametrize(
        "blocks, steps, expected",
        [
            # every block empty
            ([np.zeros(0)] * 4, [np.zeros(0)] * 4, 1.0),
            # all steps nonnegative: nothing blocks
            ([np.ones(2), np.ones(2), np.ones(1), np.ones(1)],
             [np.zeros(2), np.ones(2), np.ones(1), np.zeros(1)], 1.0),
            # a NaN step never blocks
            ([np.ones(2), np.ones(2), np.ones(1), np.ones(1)],
             [np.array([np.nan, -2.0]), np.ones(2), np.ones(1), np.ones(1)],
             0.995 * 0.5),
        ],
        ids=["empty", "nonnegative", "nan_step"],
    )
    def test_edge_cases_match_per_block_loop(self, blocks, steps, expected):
        s, d = ratio_test_pair(blocks, steps)
        alpha = line_search(s, d, 0.995)
        assert same_bits(alpha, per_block_line_search(s, d, 0.995))
        assert alpha == expected

    def _direction(self, s, **kw):
        z = lambda a: np.zeros_like(a)
        d = StepDirection(
            dx=np.zeros_like(s.x),
            dv_ineq=kw.get("dv_ineq", z(s.v_ineq)),
            dw_ineq=kw.get("dw_ineq", z(s.w_ineq)),
            dw_inact=kw.get("dw_inact", z(s.w_inact)),
            dlam_inact=kw.get("dlam_inact", z(s.lam_inact)),
        )
        return d

    def test_inward_step_is_full(self):
        ctx, s = build_random_level(18, n=4, m_eq=1, m_ineq=2, m_inact=2, m_prior=0)
        d = self._direction(
            s,
            dv_ineq=-np.ones_like(s.v_ineq),
            dw_ineq=np.ones_like(s.w_ineq),
            dw_inact=np.ones_like(s.w_inact),
            dlam_inact=np.ones_like(s.lam_inact),
        )
        assert line_search(s, d, 0.995) == 1.0

    def test_single_blocking_ratio(self):
        ctx, s = build_random_level(19, n=3, m_eq=0, m_ineq=1, m_inact=0, m_prior=0)
        s = replace(s, w_ineq=np.array([1.0]), v_ineq=np.array([-5.0]))
        d = self._direction(s, dw_ineq=np.array([-2.0]))
        assert abs(line_search(s, d, 0.995) - 0.4975) < 1e-15

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bisection_oracle(self, seed):
        rng = np.random.default_rng(seed + 200)
        ctx, s = build_random_level(seed + 80, n=4, m_eq=1, m_ineq=3, m_inact=2, m_prior=0)
        d = random_direction(s, rng)
        tau = 0.995

        def feasible(a):
            return (
                np.all(s.w_ineq + a * d.dw_ineq >= -1e-14)
                and np.all(s.v_ineq + a * d.dv_ineq <= 1e-14)
                and np.all(s.w_inact + a * d.dw_inact >= -1e-14)
                and np.all(s.lam_inact + a * d.dlam_inact >= -1e-14)
            )

        lo, hi = 0.0, 4.0
        if feasible(hi):
            a_max = hi
        else:
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if feasible(mid):
                    lo = mid
                else:
                    hi = mid
            a_max = lo
        expected = min(1.0, tau * a_max)
        assert abs(line_search(s, d, tau) - expected) < 1e-9


def reference_step_length(s, d, tau):
    """Per-pair transcription of Mehrotra's rule for finite data.

    Every nonnegative entry is listed with its step and its complementarity
    partner, in the stacked order of the ratio test (w_ineq, -v_ineq,
    w_inact, lam_inact), so the first smallest ratio blocks. Returns
    (alpha, a_max, blocking entry, partner, mu(a_max)).
    """
    ineq = [((w, dw), (-v, -dv)) for w, dw, v, dv in zip(s.w_ineq, d.dw_ineq, s.v_ineq, d.dv_ineq)]
    inact = list(zip(zip(s.w_inact, d.dw_inact), zip(s.lam_inact, d.dlam_inact)))
    pairs = ineq + inact
    rows = ineq + [(b, a) for a, b in ineq] + inact + [(b, a) for a, b in inact]
    a_max, block = math.inf, None
    for entry, mate in rows:
        if entry[1] < 0 and entry[0] / -entry[1] < a_max:
            a_max, block = entry[0] / -entry[1], (entry, mate)
    if block is None:
        return 1.0, a_max, None, None, None
    mu = sum((a + a_max * da) * (b + a_max * db) for (a, da), (b, db) in pairs) / len(pairs)
    (a, da), (b, _) = block
    alpha = (a - (1.0 - newton.GAMMA_F) * mu / b) / -da
    cap = min(1.0, tau * a_max)
    return min(cap, max(newton.GAMMA_F * a_max, alpha)), a_max, block[0], block[1], mu


class TestStepLength:
    """Mehrotra's step-length rule of the corrector, ``newton.step_length``."""

    @settings(max_examples=300, deadline=None)
    @given(ratio_tests())
    def test_step_lies_between_floor_and_cap(self, case):
        blocks, steps, tau = case
        s, d = ratio_test_pair(blocks, steps)
        with np.errstate(over="ignore", invalid="ignore"):
            a_max = newton._ratio_test(s, d)[0]
            alpha = newton.step_length(s, d, tau)
        if not math.isfinite(a_max):
            assert alpha == 1.0
            return
        cap = min(1.0, tau * a_max)
        assert min(newton.GAMMA_F * a_max, cap) <= alpha <= cap

    @settings(max_examples=300, deadline=None)
    @given(ratio_tests(), st.floats(0.01, newton.GAMMA_F))
    def test_cap_below_the_floor_is_the_fixed_fraction_rule(self, case, tau):
        blocks, steps, _ = case
        s, d = ratio_test_pair(blocks, steps)
        with np.errstate(over="ignore", invalid="ignore"):
            assert same_bits(newton.step_length(s, d, tau), line_search(s, d, tau))

    def test_worked_example(self):
        # carried rows only: w = (1, 1), lam = (1, 1); w_0 blocks at 1/2, where
        # the products are (0, 1.25^2), so mu = 0.78125 and the target is 0.05 mu
        s, d = ratio_test_pair(
            [np.zeros(0), np.zeros(0), np.ones(2), np.ones(2)],
            [np.zeros(0), np.zeros(0), np.array([-2.0, 0.5]), np.array([0.5, 0.5])],
        )
        alpha = newton.step_length(s, d, 0.999)
        assert abs(alpha - (1.0 - 0.05 * 0.78125) / 2.0) < 1e-15
        assert 0.95 * 0.5 < alpha < 0.999 * 0.5

    def test_interior_step_puts_the_blocking_pair_at_the_target(self):
        tau, interior = 0.999, 0
        for seed in range(40):
            rng = np.random.default_rng(seed + 7100)
            m_ineq, m_inact = int(rng.integers(0, 4)), int(rng.integers(1, 4))
            ctx, s0 = build_random_level(
                seed + 7200, n=4, m_eq=1, m_ineq=m_ineq, m_inact=m_inact, m_prior=0
            )
            s = newton._iterate(ctx, s0.x, s0.v_ineq, s0.w_ineq, s0.w_inact, s0.lam_inact)
            d = random_direction(s, rng)
            alpha = newton.step_length(s, d, tau)
            ref, a_max, block, mate, mu = reference_step_length(s, d, tau)
            assert alpha == pytest.approx(ref, rel=1e-12, abs=0.0)
            if newton.GAMMA_F * a_max < alpha < min(1.0, tau * a_max):
                # the blocking entry, times its partner's present value, is
                # (1 - GAMMA_F) mu(a_max)
                (a, da), (b, _) = block, mate
                target = (1.0 - newton.GAMMA_F) * mu
                assert (a + alpha * da) * b == pytest.approx(target, rel=1e-9)
                interior += 1
        assert interior >= 5, interior

    def test_a_partner_at_zero_takes_the_cap(self):
        # the blocking w_inact's multiplier is 0: no product reaches the target
        s, d = ratio_test_pair(
            [np.zeros(0), np.zeros(0), np.array([1.0, 1.0]), np.array([0.0, 1.0])],
            [np.zeros(0), np.zeros(0), np.array([-2.0, 0.5]), np.array([0.5, 0.5])],
        )
        assert newton.step_length(s, d, 0.999) == 0.999 * 0.5

    @pytest.mark.parametrize("seed", range(6))
    def test_writes_no_iterate_array(self, seed):
        rng = np.random.default_rng(seed + 7300)
        ctx, s0 = build_random_level(seed + 7400, n=4, m_eq=1, m_ineq=3, m_inact=2, m_prior=1)
        s = initial_state(ctx, s0.x)
        d = random_direction(s, rng)
        arrays = iterate_arrays(s)
        arrays += [d.dx, d.dv_ineq, d.dw_ineq, d.dw_inact, d.dlam_inact]
        before = [a.tobytes() for a in arrays]
        newton.step_length(s, d, 0.999)
        assert [a.tobytes() for a in arrays] == before

    def test_config_tau_at_or_below_the_floor_keeps_the_fixed_fraction(self, monkeypatch):
        # every corrector step of a level solved with TAU = 0.5 is min(1, 0.5 a_max)
        monkeypatch.setattr(newton, "TAU", 0.5)
        ctx, s0 = build_random_level(7500, n=5, m_eq=1, m_ineq=3, m_inact=2, m_prior=1)
        s = initial_state(ctx, s0.x)
        rule = newton.step_length
        calls = []

        def checked(state, d, tau):
            alpha = rule(state, d, tau)
            calls.append(tau == 0.5 and same_bits(alpha, line_search(state, d, tau)))
            return alpha

        monkeypatch.setattr(newton, "step_length", checked)
        # an early active-set step would end the level after its first steps
        monkeypatch.setattr(cascade, "_undecided", lambda before, s: math.inf)
        cascade.newton_loop(ctx, s, "normal")
        assert len(calls) >= 5 and all(calls)


# a 1e150 row overflows the first convergence test of level 1
BIG_ROW = {
    "n": 2,
    "levels": [
        {"A_e": [[1e150, 0]], "b_e": [1e150], "A_i": [[1e-150, 1]], "b_i": [0]},
        {"A_e": [[1, 1]], "b_e": [0], "A_i": [], "b_i": []},
    ],
}


class TestRatioTestInputs:
    """A solve hands the ratio test finite values only.

    A solve steps only from ``initial_state``, whose nonnegative blocks are
    all ones, or from an iterate whose KKT norm was finite. Each of
    ``w_ineq``, ``v_ineq``, ``w_inact`` and ``lam_inact`` enters a block of
    that norm, so the loop stops before it steps from a non-finite one, and
    the ratio test needs no rule for a non-finite value.
    """

    def test_every_state_is_finite(self, monkeypatch):
        real, finite = newton._ratio_test, []

        def checked(s, d):
            blocks = (s.w_ineq, s.v_ineq, s.w_inact, s.lam_inact)
            finite.append(all(np.isfinite(b).all() for b in blocks))
            return real(s, d)

        monkeypatch.setattr(newton, "_ratio_test", checked)
        problems = [fuzz_problem(seed) for seed in SEEDS if seed % 3 == 2]
        problems += [load(name)[0] for name in INSTANCES]
        problems.append(problem_from_dict(BIG_ROW))
        for problem in problems:
            for method in ("nf-ipm", "ls-ipm", "classical"):
                solve_hlsp(problem, SolverConfig(method=method))
        assert len(finite) > 1000 and finite.count(False) == 0


class TestMehrotra:
    def test_equality_only_predictor_exact(self):
        # without barrier rows the predictor and the corrector coincide and
        # no ratio test blocks: one full step of the reduced normal
        # equations ends on the least-squares fit. solve_hlsp sends such a
        # level to cascade.linear_level instead (TestLinearLevelCost)
        ctx, s = build_random_level(20, n=5, m_eq=3, m_ineq=0, m_inact=0, m_prior=0)
        s = mehrotra_iteration(ctx, s, "normal")
        assert ctx.counters.newton_iterations == ctx.counters.factorizations == 1
        x_ref = np.linalg.lstsq(ctx.a_eq, ctx.b_eq, rcond=None)[0]
        assert np.allclose(ctx.a_eq @ s.x, ctx.a_eq @ x_ref, atol=1e-10)
        conv, norm = converged(ctx, s, 1e-12)
        assert conv

    @pytest.mark.parametrize("form,count", [("normal", 1), ("ls", 1), ("classical", 2)])
    def test_one_factorization_per_iteration(self, form, count):
        cfg = SolverConfig(method="classical" if form == "classical" else "nf-ipm")
        ctx, s = build_random_level(
            21, n=4, m_eq=3, m_ineq=2, m_inact=2, m_prior=2, config=cfg
        )
        before = ctx.counters.factorizations
        mehrotra_iteration(ctx, s, form)
        assert ctx.counters.factorizations - before == count

    def test_classical_without_active_rows_single_factorization(self):
        cfg = SolverConfig(method="classical")
        ctx, s = build_random_level(
            28, n=4, m_eq=3, m_ineq=2, m_inact=2, m_prior=0, config=cfg
        )
        before = ctx.counters.factorizations
        mehrotra_iteration(ctx, s, "classical")
        assert ctx.counters.factorizations - before == 1

    def test_sign_conditions_hold_after_every_iteration(self):
        ctx, s = build_random_level(22, n=5, m_eq=1, m_ineq=3, m_inact=2, m_prior=1)
        for _ in range(12):
            s = mehrotra_iteration(ctx, s, "normal")
            assert np.all(s.w_ineq >= 0)
            assert np.all(s.v_ineq <= 0)
            assert np.all(s.w_inact >= 0)
            assert np.all(s.lam_inact >= 0)

    def test_one_var_conflicting_bounds(self):
        # level with {x - 1 >= 0, -x >= 0}: optimum splits the conflict
        n = 1
        cfg = SolverConfig()
        chain = NullSpaceChain(n)
        a_ineq = np.array([[1.0], [-1.0]])
        b_ineq = np.array([1.0, 0.0])
        ctx = LevelContext(
            basis=chain.basis,
            a_eq=np.zeros((0, n)),
            b_eq=np.zeros(0),
            a_ineq=a_ineq,
            b_ineq=b_ineq,
            a_act=np.zeros((0, n)),
            b_act=np.zeros(0),
            v_act=np.zeros(0),
            a_inact=np.zeros((0, n)),
            b_inact=np.zeros(0),
            proj_eq=np.zeros((0, 1)),
            proj_ineq=a_ineq,
            proj_inact=np.zeros((0, 1)),
            stage1=rrqr(np.zeros((0, 1))),
            stages=tuple(chain.stages),
            counters=Counters(),
            config=cfg,
        )
        s = initial_state(ctx, np.zeros(1))
        for _ in range(30):
            conv, norm = converged(ctx, s, 1e-12)
            if conv:
                break
            s = mehrotra_iteration(ctx, s, "normal")
        assert conv and norm < 1e-12
        assert abs(s.x[0] - 0.5) < 1e-9
        assert np.allclose(s.v_ineq, [-0.5, -0.5], atol=1e-9)

    def test_zero_step_at_converged_state(self):
        ctx, s = build_random_level(23, n=4, m_eq=1, m_ineq=2, m_inact=1, m_prior=1)
        for _ in range(40):
            conv, _ = converged(ctx, s, 1e-12)
            if conv:
                break
            s = mehrotra_iteration(ctx, s, "normal")
        assert conv
        x = s.x
        s = mehrotra_iteration(ctx, s, "normal")
        assert np.linalg.norm(s.x - x) < 1e-8


class TestDualRecovery:
    def test_identity_prior_reads_off_rhs(self):
        n = 3
        cfg = SolverConfig()
        chain = NullSpaceChain(n)
        rows = np.eye(3)[:2]
        fact = rrqr(rows)
        chain.extend(rows, np.zeros(2), np.zeros(2), fact)
        a_eq = np.array([[0.5, 0.5, 0.5]])
        ctx = LevelContext(
            basis=chain.basis,
            a_eq=a_eq,
            b_eq=np.array([1.0]),
            a_ineq=np.zeros((0, n)),
            b_ineq=np.zeros(0),
            a_act=rows,
            b_act=np.zeros(2),
            v_act=np.zeros(2),
            a_inact=np.zeros((0, n)),
            b_inact=np.zeros(0),
            proj_eq=a_eq @ chain.basis,
            proj_ineq=np.zeros((0, 1)),
            proj_inact=np.zeros((0, 1)),
            stage1=rrqr(a_eq @ chain.basis),
            stages=tuple(chain.stages),
            counters=Counters(),
            config=cfg,
        )
        x = np.array([0.0, 0.0, 2.0])
        s = IterateState(
            x=x,
            v_eq=a_eq @ x - ctx.b_eq,
            v_ineq=np.zeros(0),
            w_ineq=np.zeros(0),
            w_inact=np.zeros(0),
            lam_inact=np.zeros(0),
        )
        lam = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
        rhs = ctx.a_eq.T @ s.v_eq
        assert np.allclose(lam, rhs[:2], atol=1e-12)

    def test_no_priors_empty(self):
        ctx, s = build_random_level(24, n=3, m_eq=1, m_ineq=0, m_inact=0, m_prior=0)
        lam = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
        assert lam.size == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_least_squares_on_consistent_states(self, seed):
        # gradient lies in the active row space, as at an optimum: the
        # current equalities mirror the active rows so v_eq encodes the
        # true multipliers
        ctx, s = build_random_level(
            seed + 100, n=8, m_eq=2, m_ineq=0, m_inact=0, m_prior=2, prior_stages=3
        )
        rng = np.random.default_rng(seed + 17)
        lam_true = rng.uniform(-2, 2, ctx.m_act)
        ctx.a_eq = ctx.a_act.copy()
        ctx.b_eq = np.zeros(ctx.m_act)
        s = replace(s, v_eq=lam_true)
        lam = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
        rhs = ctx.a_eq.T @ s.v_eq
        lam_ref = np.linalg.lstsq(ctx.a_act.T, rhs, rcond=None)[0]
        scale = max(1.0, np.linalg.norm(lam_ref))
        assert np.linalg.norm(lam - lam_ref) < 1e-8 * scale
        assert np.linalg.norm(lam - lam_true) < 1e-8 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_stable_under_consistency_noise(self, seed):
        # the solver invokes the recovery only near optimality, where the
        # gradient sits in the active row space up to the residual scale;
        # small inconsistencies must not get amplified
        ctx, s = build_random_level(
            seed + 140, n=8, m_eq=2, m_ineq=0, m_inact=0, m_prior=2, prior_stages=3
        )
        rng = np.random.default_rng(seed + 31)
        lam_true = rng.uniform(-2, 2, ctx.m_act)
        ctx.a_eq = ctx.a_act.copy()
        ctx.b_eq = np.zeros(ctx.m_act)
        s = replace(s, v_eq=lam_true + rng.normal(size=ctx.m_act) * 1e-10)
        lam = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
        assert np.linalg.norm(lam - lam_true) < 1e-6


def _no_walk(*args):
    raise AssertionError("the convergence test walked the chain")


class TestConverged:
    def test_early_out_skips_dual(self, monkeypatch):
        monkeypatch.setattr(newton, "recover_equality_dual", _no_walk)
        ctx, s = build_random_level(25, n=4, m_eq=1, m_ineq=2, m_inact=1, m_prior=2)
        conv, norm = converged(ctx, s, 1e-12)
        assert not conv
        assert norm > 1e-3

    def test_pass_computes_dual_once(self, monkeypatch):
        # the passing test measures stationarity in the chain basis: no walk
        monkeypatch.setattr(newton, "recover_equality_dual", _no_walk)
        ctx, s = build_random_level(26, n=4, m_eq=2, m_ineq=2, m_inact=1, m_prior=1)
        for _ in range(40):
            conv, _ = converged(ctx, s, 1e-12)
            if conv:
                break
            s = mehrotra_iteration(ctx, s, "normal")
        assert conv

    def test_partial_small_but_stationarity_large(self, monkeypatch):
        # stale primal in the reduced space: consistency rows vanish while
        # the gradient does not
        monkeypatch.setattr(newton, "recover_equality_dual", _no_walk)
        ctx, s = build_random_level(27, n=4, m_eq=2, m_ineq=0, m_inact=0, m_prior=1)
        x = np.linalg.lstsq(ctx.a_act, ctx.b_act + ctx.v_act, rcond=None)[0]
        s = replace(s, x=x, v_eq=ctx.a_eq @ x - ctx.b_eq)
        conv, norm = converged(ctx, s, 1e-12)
        assert not conv
        assert norm > 1e-6

    @pytest.mark.parametrize("eps", [1e-12, np.inf])
    def test_writes_nothing(self, eps):
        # eps = inf takes the full path past the early-out
        ctx, s = build_random_level(29, n=6, m_eq=2, m_ineq=2, m_inact=2, m_prior=2)
        before = copy.deepcopy(s)
        counters = copy.deepcopy(ctx.counters)
        converged(ctx, s, eps)
        for name in vars(before):
            assert np.array_equal(getattr(s, name), getattr(before, name)), name
        assert ctx.counters == counters


def rank_deficient_chain(rng, n, stages):
    """Chain whose stages repeat a row or restate a row of an earlier stage.

    Every stage keeps at least one new row: without an absolute floor, a
    block of rounding noise alone passes the rank test, which is relative
    to the block's own scale.
    """
    chain = NullSpaceChain(n)
    for i in range(stages):
        if chain.n_r == 0:
            break
        m = int(rng.integers(1, 5))
        rows = rng.uniform(-1, 1, (m, n))
        if m > 1 and rng.random() < 0.5:
            rows[-1] = rows[-2] * rng.uniform(0.5, 2.0)
        if m > 1 and chain.stages and rng.random() < 0.5:
            prior = chain.stages[int(rng.integers(len(chain.stages)))].rows
            rows[0] = rng.uniform(-1, 1, prior.shape[0]) @ prior
        fact = rrqr(rows @ chain.basis)
        chain.extend(rows, rng.uniform(-1, 1, m), np.zeros(m), fact)
    return chain


class TestChainExtension:
    def test_extension_is_the_product_with_the_stage_basis(self):
        deficient = 0
        for seed in range(120):
            rng = np.random.default_rng(seed + 4300)
            n = int(rng.integers(3, 11))
            chain = rank_deficient_chain(rng, n, int(rng.integers(1, 5)))
            stages = chain.stages
            deficient += any(st.fact.rank < st.rows.shape[0] for st in stages)
            # the basis each extend left behind
            after = [st.basis_before for st in stages[1:]] + [chain.basis]
            for j, (stage, basis) in enumerate(zip(stages, after)):
                z = nullspace_update(np.eye(stage.fact.ncols), stage.fact)
                dense = np.asarray(stage.basis_before) @ z
                basis = np.asarray(basis)
                assert basis.shape == dense.shape
                assert np.linalg.norm(basis - dense) <= 1e-12 * np.linalg.norm(dense)
                a_act = np.vstack([st.rows for st in stages[: j + 1]])
                bound = 1e-12 * np.linalg.norm(a_act) * np.linalg.norm(basis)
                assert np.linalg.norm(a_act @ basis) <= bound
        assert deficient >= 60


def chains_with_every_stage_kind():
    """``rank_deficient_chain``s, then a rank-0 stage and one that exhausts n_r.

    The rank-0 stage restates active rows, so its projection is rounding
    noise next to their scale and eliminates nothing; the last stage holds
    more random rows than variables remain. Yields every chain in between.
    """
    for seed in range(60):
        rng = np.random.default_rng(seed + 4400)
        n = int(rng.integers(3, 11))
        chain = rank_deficient_chain(rng, n, int(rng.integers(1, 5)))
        if chain.n_r:
            rows = rng.uniform(-1, 1, (2, chain.rows.shape[0])) @ chain.rows
            fact = rrqr(rows @ chain.basis, scale_rows=rows)
            assert fact.rank == 0
            chain.extend(rows, np.zeros(2), np.zeros(2), fact)
        yield rng, chain
        if chain.n_r:
            rows = rng.uniform(-1, 1, (chain.n_r + 1, n))
            fact = rrqr(rows @ chain.basis)
            chain.extend(rows, np.zeros(len(rows)), np.zeros(len(rows)), fact)
            assert chain.n_r == 0
            yield rng, chain


class TestChainBasisFormat:
    """The chain basis stores only its eliminated rows; its products are B's."""

    def test_dense_form_has_unit_rows_at_free_and_e_at_elim(self):
        exhausted = restated = 0
        for _, chain in chains_with_every_stage_kind():
            exhausted += chain.n_r == 0
            restated += any(st.fact.rank == 0 for st in chain.stages)
            for basis in [st.basis_before for st in chain.stages] + [chain.basis]:
                n, n_r = basis.shape
                dense = np.asarray(basis)
                assert dense.shape == (n, n_r) == (basis.free.size + basis.elim.size, n_r)
                assert np.array_equal(np.sort(np.r_[basis.free, basis.elim]), np.arange(n))
                assert np.array_equal(dense[basis.free], np.eye(n_r))
                assert np.array_equal(dense[basis.elim], basis.e)
        # each of the 60 seeds ends exhausted; most chains hold a rank-0 stage
        assert exhausted == 60 and restated >= 60

    def test_products_equal_the_dense_ones(self):
        for rng, chain in chains_with_every_stage_kind():
            for basis in [st.basis_before for st in chain.stages] + [chain.basis]:
                n, n_r = basis.shape
                dense = np.asarray(basis)
                m = rng.uniform(-1, 1, (3, n))
                dz = rng.uniform(-1, 1, n_r)
                dzs = rng.uniform(-1, 1, (n_r, 2))
                v = rng.uniform(-1, 1, n)
                for got, want in [
                    (m @ basis, m @ dense),
                    (basis @ dz, dense @ dz),
                    (basis @ dzs, dense @ dzs),
                    (basis.T @ v, dense.T @ v),
                ]:
                    assert got.shape == want.shape
                    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_identity_returns_its_inputs(self):
        rng = np.random.default_rng(4500)
        chain = NullSpaceChain(5)
        m, dz, v = rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, 5), rng.uniform(-1, 1, 5)
        assert (m @ chain.basis) is m
        assert (chain.basis @ dz) is dz
        assert (chain.basis.T @ v) is v
        assert np.array_equal(np.asarray(chain.basis), np.eye(5))
        # a level-1 context projects nothing
        ctx, _ = build_random_level(4501, n=5, m_prior=0)
        assert ctx.basis.shape == (5, 5) and ctx.proj_eq is ctx.a_eq


class TestChainBasisStationarity:
    def test_projected_norm_equals_walked_stationarity(self):
        deficient = 0
        for seed in range(120):
            rng = np.random.default_rng(seed + 4100)
            n = int(rng.integers(3, 11))
            chain = rank_deficient_chain(rng, n, int(rng.integers(1, 5)))
            deficient += any(st.fact.rank < st.rows.shape[0] for st in chain.stages)
            ctx, s = build_random_level(seed + 4200, n=n, m_prior=0)
            ctx.a_act, ctx.b_act, ctx.v_act = chain.rows, chain.rhs, chain.v_star
            ctx.basis, ctx.stages = chain.basis, tuple(chain.stages)
            s = replace(s, v_eq=rng.uniform(-1, 1, ctx.m_eq))
            r = ctx.a_eq.T @ s.v_eq + ctx.a_ineq.T @ s.v_ineq - ctx.a_inact.T @ s.lam_inact
            lam_act = recover_equality_dual(ctx.stages, _dual_free_stationarity(ctx, s))
            k = transcribed_kkt(ctx, s, lam_act)
            walked = np.linalg.norm(k[:n])
            tol = 1e-12 * max(1.0, np.linalg.norm(r))
            assert abs(np.linalg.norm(ctx.basis.T @ r) - walked) <= tol
            # past the early-out the test adds exactly this norm to the partial one
            _, norm = converged(ctx, s, np.inf)
            assert abs(norm - np.hypot(np.linalg.norm(k[n:]), walked)) <= tol
        assert deficient >= 60


def frame_arrays(frame):
    """Every array a frame holds, by attribute name."""
    return {k: v for k, v in vars(frame).items() if isinstance(v, np.ndarray)}


def fresh_products(ctx, s):
    """Each stored product and weight, evaluated from scratch as the step formulas read."""
    d = s.v_ineq - s.w_ineq
    pivot = np.where(d > -newton.PIVOT_CLAMP, -newton.PIVOT_CLAMP, d)
    return {
        "ax_eq": ctx.a_eq @ s.x,
        "rhs_eq": ctx.b_eq - ctx.a_eq @ s.x,
        "ax_act": ctx.a_act @ s.x,
        "rhs_act": ctx.b_act - ctx.a_act @ s.x,
        "ax_ineq": ctx.a_ineq @ s.x,
        "rhs_ineq": ctx.b_ineq - ctx.a_ineq @ s.x,
        "slack_ineq": ctx.b_ineq - ctx.a_ineq @ s.x + s.w_ineq,
        "neg_axbw": -(ctx.a_ineq @ s.x - ctx.b_ineq - s.w_ineq),
        "w_axbw": s.w_ineq * (ctx.a_ineq @ s.x - ctx.b_ineq - s.w_ineq),
        "pivot": pivot,
        "w_over_pivot": s.w_ineq / pivot,
        "wt_ineq": s.v_ineq / pivot,
        "ax_inact": ctx.a_inact @ s.x,
        "res_inact": ctx.b_inact - ctx.a_inact @ s.x,
        "lam_res": s.lam_inact * (ctx.b_inact - ctx.a_inact @ s.x),
        "wt_inact": s.lam_inact / s.w_inact,
    }


def iterate_arrays(s):
    """The iterate's fields and the arrays of its frame."""
    arrays = [s.x, s.v_eq, s.v_ineq, s.w_ineq, s.w_inact, s.lam_inact]
    return arrays + list(frame_arrays(s.frame).values())


def assert_stored_products_fresh(ctx, s):
    for name, value in fresh_products(ctx, s).items():
        assert np.array_equal(getattr(s.frame, name), value), name
    assert np.array_equal(s.v_eq, ctx.a_eq @ s.x - ctx.b_eq)


# (form, m_eq, m_ineq, m_inact) on n = 5: with and without carried rows;
# the classical levels have n equalities, so their quadratic term is
# nonsingular in exact arithmetic; a rank lost to rounding as the barrier
# weights grow takes solve_hlsp's restart in the normal form
FRAME_LEVELS = [
    ("normal", 1, 3, 0),
    ("normal", 1, 2, 2),
    ("ls", 1, 3, 0),
    ("ls", 1, 2, 2),
    ("classical", 5, 3, 0),
    ("classical", 5, 2, 2),
]


class TestIterateFrame:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("form,m_eq,m_ineq,m_inact", FRAME_LEVELS)
    def test_iterate_arrays_are_never_written_in_place(
        self, monkeypatch, seed, form, m_eq, m_ineq, m_inact
    ):
        # newton_loop keeps an earlier iterate as its best point; every
        # iterate must keep its bits once a step has moved on
        ctx, s0 = build_random_level(
            seed + 5300, n=5, m_eq=m_eq, m_ineq=m_ineq, m_inact=m_inact, m_prior=1
        )
        kept = []

        def keep(state):
            arrays = iterate_arrays(state)
            kept.append((arrays, copy.deepcopy(arrays)))

        def check():
            for arrays, reference in kept:
                for a, b in zip(arrays, reference):
                    assert a.tobytes() == b.tobytes()

        def checked_iteration(ctx, state, form):
            # each iterate is kept as the step returns it, so the next check
            # also covers the convergence test the loop runs in between
            state = mehrotra_iteration(ctx, state, form)
            check()
            keep(state)
            return state

        monkeypatch.setattr(cascade, "mehrotra_iteration", checked_iteration)
        # the settled-split exit and the early active-set steps end some of
        # these levels after one or two steps; without them the loop runs to
        # eps and keeps more iterates
        monkeypatch.setattr(cascade, "SETTLED", 0.0)
        monkeypatch.setattr(cascade, "_undecided", lambda before, s: math.inf)
        start = initial_state(ctx, s0.x)
        keep(start)
        try:
            cascade.newton_loop(ctx, start, form)
        except MethodNotApplicable:
            # the classical quadratic term lost rank numerically: restart the
            # level from the same start in the projected normal form, as
            # solve_hlsp does, while every iterate of the abandoned run is
            # still checked
            assert form == "classical"
            keep(start)
            cascade.newton_loop(ctx, start, "normal")
        check()  # the last convergence test and the best-iterate return
        assert ctx.counters.newton_iterations >= 3
        # one start per run, one iterate per step; a step that raised kept none
        assert len(kept) == ctx.counters.newton_iterations + 1

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("form,m_eq,m_ineq,m_inact", FRAME_LEVELS)
    def test_stored_products_equal_fresh_ones(
        self, monkeypatch, seed, form, m_eq, m_ineq, m_inact
    ):
        ctx, s0 = build_random_level(
            seed + 5400, n=5, m_eq=m_eq, m_ineq=m_ineq, m_inact=m_inact, m_prior=1
        )
        s = initial_state(ctx, s0.x)
        assert_stored_products_fresh(ctx, s)
        step = newton.apply_step
        steps = []

        def checked_step(ctx, state, d, alpha):
            state = step(ctx, state, d, alpha)
            assert_stored_products_fresh(ctx, state)
            steps.append(alpha)
            return state

        monkeypatch.setattr(newton, "apply_step", checked_step)
        for _ in range(4):
            s = mehrotra_iteration(ctx, s, form)
        assert len(steps) == 4

    @pytest.mark.parametrize("last", [0.2, math.inf], ids=["cap", "non-finite"])
    @pytest.mark.parametrize("form,m_eq,m_ineq,m_inact", FRAME_LEVELS)
    def test_exit_returns_best_with_frame(
        self, monkeypatch, form, m_eq, m_ineq, m_inact, last
    ):
        # scripted norms: the third step ends the loop, at the cap of three
        # iterations or on a non-finite norm, and the loop returns the second
        # iterate, its best; every norm is above newton.SETTLED, so a settled
        # split ends nothing, and the early active-set steps, whose test would
        # read the scripted norms too, are switched off: no pair is decided
        ctx, s0 = build_random_level(
            5500, n=5, m_eq=m_eq, m_ineq=m_ineq, m_inact=m_inact, m_prior=1
        )
        ctx.config = replace(ctx.config, max_iter=3)
        s = initial_state(ctx, s0.x)
        norms, seen = iter([1.0, 0.5, 0.1, last]), []

        def scripted(ctx, state, tol):
            seen.append(state.x)
            return False, next(norms)

        monkeypatch.setattr(cascade, "converged", scripted)
        monkeypatch.setattr(cascade, "_undecided", lambda before, s: math.inf)
        s, conv, norm, crossed = cascade.newton_loop(ctx, s, form)
        assert (conv, norm, crossed) == (False, 0.1, None)
        assert ctx.counters.newton_iterations == 3 and s.x is seen[2]
        fresh = vars(newton._Frame(ctx, s))
        assert vars(s.frame).keys() == fresh.keys()
        for name, value in fresh.items():
            assert np.array_equal(getattr(s.frame, name), value), name
        assert np.array_equal(s.v_eq, ctx.a_eq @ s.x - ctx.b_eq)

    @pytest.mark.parametrize("form,m_eq,m_ineq,m_inact", FRAME_LEVELS)
    def test_iterates_are_frozen_and_replace_drops_the_frame(
        self, form, m_eq, m_ineq, m_inact
    ):
        ctx, s0 = build_random_level(
            5600, n=5, m_eq=m_eq, m_ineq=m_ineq, m_inact=m_inact, m_prior=1
        )
        start = initial_state(ctx, s0.x)
        stepped = mehrotra_iteration(ctx, start, form)
        for s in (start, stepped):
            for name in ("x", "v_eq", "lam_inact", "frame"):
                with pytest.raises(FrozenInstanceError):
                    setattr(s, name, getattr(s, name))
        # a state moved by replace has no frame; its products are its own
        moved = replace(start, x=start.x + 0.1)
        frame, fresh = newton._frame(ctx, moved), vars(newton._Frame(ctx, moved))
        assert moved.frame is None and vars(frame).keys() == fresh.keys()
        for name, value in fresh.items():
            assert np.array_equal(getattr(frame, name), value), name
