"""Newton machinery for one priority level.

The level problem couples the current equality and inequality blocks with
the carried inactive constraints of the higher levels, all projected into
the accumulated null-space basis. One Newton iteration factorizes the
system once and reuses the factorization for the affine predictor and the
centered corrector. Equality-constraint duals are recovered lazily, only
when the cheap part of the optimality residual already passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorization import rrqr, staged_rrqr

PIVOT_CLAMP = 1e-30


class MethodNotApplicable(RuntimeError):
    """The classical normal equations need a full-rank quadratic term."""


class SingularWeightError(RuntimeError):
    """Square-root weight turned negative; the line search was breached."""


@dataclass
class Counters:
    """Per-level work counters surfaced in the solve report."""

    newton_iterations: int = 0
    factorizations: int = 0
    dual_evaluations: int = 0
    asm_iterations: int = 0
    fact_shapes: list = field(default_factory=list)

    def count_factorization(self, rows, cols):
        if rows == 0 or cols == 0:
            return
        self.factorizations += 1
        self.fact_shapes.append((int(rows), int(cols)))


@dataclass
class IterateState:
    """Primal iterate with slacks and duals for one level's Newton loop.

    Sign conditions after every accepted step: v_ineq <= 0, w_ineq >= 0,
    w_inact >= 0, lam_inact >= 0. The equality and inequality duals are
    implicit (lam_eq = -v_eq, lam_ineq = -v_ineq); lam_act is filled in
    lazily by the convergence test.
    """

    x: np.ndarray
    v_eq: np.ndarray
    v_ineq: np.ndarray
    w_ineq: np.ndarray
    w_inact: np.ndarray
    lam_inact: np.ndarray
    lam_act: np.ndarray = None


@dataclass
class StepDirection:
    dz: np.ndarray
    dx: np.ndarray
    dv_eq: np.ndarray
    dv_ineq: np.ndarray
    dw_ineq: np.ndarray
    dw_inact: np.ndarray
    dlam_inact: np.ndarray
    dlam_act: np.ndarray = None
    alpha: float = None


@dataclass
class LevelContext:
    """Constant data of one level's Newton loop.

    Projected blocks share the remaining-variable column count. The
    factorization of the projected equality block, ``stage1``, is made on
    first read by ``equality_factorization`` and then reused: by the
    least-squares form, by both projected forms on levels without barrier
    rows and, when the active set turns out to be the equalities alone, by
    the null-space projection. Levels that read none of these make none.
    """

    n: int
    n_r: int
    basis: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ineq: np.ndarray
    b_ineq: np.ndarray
    a_act: np.ndarray
    b_act: np.ndarray
    v_act: np.ndarray
    a_inact: np.ndarray
    b_inact: np.ndarray
    proj_eq: np.ndarray
    proj_ineq: np.ndarray
    proj_inact: np.ndarray
    stage1: object
    chain: object
    counters: Counters
    config: object

    def equality_factorization(self):
        """The counted RRQR of ``proj_eq``, made on first read."""
        if self.stage1 is None:
            self.stage1 = rrqr(self.proj_eq, tol=self.config.rank_tol, counter=self.counters)
        return self.stage1

    @property
    def m_eq(self):
        return self.a_eq.shape[0]

    @property
    def m_ineq(self):
        return self.a_ineq.shape[0]

    @property
    def m_inact(self):
        return self.a_inact.shape[0]

    @property
    def m_act(self):
        return self.a_act.shape[0]


def initial_state(ctx: LevelContext, x):
    """All-ones interior start; the primal is warm-started from the caller."""
    x = np.asarray(x, dtype=float).copy()
    return IterateState(
        x=x,
        v_eq=ctx.a_eq @ x - ctx.b_eq,
        v_ineq=-np.ones(ctx.m_ineq),
        w_ineq=np.ones(ctx.m_ineq),
        w_inact=np.ones(ctx.m_inact),
        lam_inact=np.ones(ctx.m_inact),
        lam_act=np.zeros(ctx.m_act) if ctx.config.step_form == "classical" else None,
    )


def _clamped_pivot(s: IterateState):
    """Diagonal v - w, kept strictly negative through boundary rounding."""
    d = s.v_ineq - s.w_ineq
    return np.where(d > -PIVOT_CLAMP, -PIVOT_CLAMP, d)


def assemble_f_g(ctx, s, sigma_mu_ineq, sigma_mu_inact, mode="plain", affine_products=None):
    """Right-hand-side bundles for the eliminated barrier variables.

    ``affine_products`` carries the elementwise predictor cross terms
    (dlam_aff * dw_aff over the inactive rows, dv_aff * dw_aff over the
    current inequalities) and is required exactly in corrector mode.
    """
    if mode == "corrector" and affine_products is None:
        raise ValueError("corrector mode requires the affine cross products")
    if mode == "affine":
        sigma_mu_ineq = 0.0
        sigma_mu_inact = 0.0
    cross_inact = np.zeros(ctx.m_inact)
    cross_ineq = np.zeros(ctx.m_ineq)
    if mode == "corrector":
        cross_inact, cross_ineq = affine_products

    if ctx.m_inact:
        res = ctx.b_inact - ctx.a_inact @ s.x
        f = s.lam_inact + (s.lam_inact * res + sigma_mu_inact - cross_inact) / s.w_inact
    else:
        f = np.zeros(0)

    if ctx.m_ineq:
        d = _clamped_pivot(s)
        axbw = ctx.a_ineq @ s.x - ctx.b_ineq - s.w_ineq
        g = -axbw - (sigma_mu_ineq + cross_ineq + s.w_ineq * axbw) / d
    else:
        g = np.zeros(0)
    return f, g


def kkt_residual(ctx, s, sigma_mu_ineq, sigma_mu_inact):
    """All seven first-order optimality blocks and their 2-norm.

    Block order: stationarity, equality consistency, inequality
    consistency, inequality complementarity, active-constraint
    consistency, inactive-constraint consistency, inactive
    complementarity.
    """
    if ctx.m_act and s.lam_act is None:
        raise ValueError("stationarity block requested without lam_act")
    blocks = [_stationarity(ctx, s)]
    blocks.extend(_partial_blocks(ctx, s, sigma_mu_ineq, sigma_mu_inact))
    k = np.concatenate(blocks)
    return k, float(np.linalg.norm(k))


def _stationarity(ctx, s):
    k1 = ctx.a_eq.T @ s.v_eq
    if ctx.m_ineq:
        k1 = k1 + ctx.a_ineq.T @ s.v_ineq
    if ctx.m_act:
        k1 = k1 - ctx.a_act.T @ s.lam_act
    if ctx.m_inact:
        k1 = k1 - ctx.a_inact.T @ s.lam_inact
    return k1


def _partial_blocks(ctx, s, sigma_mu_ineq, sigma_mu_inact):
    return [
        ctx.b_eq - ctx.a_eq @ s.x + s.v_eq,
        ctx.b_ineq - ctx.a_ineq @ s.x + s.v_ineq + s.w_ineq,
        s.w_ineq * s.v_ineq + sigma_mu_ineq,
        ctx.b_act - ctx.a_act @ s.x + ctx.v_act,
        ctx.b_inact - ctx.a_inact @ s.x + s.w_inact,
        s.lam_inact * s.w_inact - sigma_mu_inact,
    ]


def _ineq_weight(s):
    """Diagonal of I + (V - W)^-1 W, nonnegative under the sign conditions."""
    return s.v_ineq / _clamped_pivot(s)


def _inact_weight(s):
    return s.lam_inact / s.w_inact


def _sqrt_weights(s):
    """Square roots of the barrier weights that scale the least-squares rows."""
    wt_inact = _inact_weight(s)
    wt_ineq = _ineq_weight(s)
    if np.any(wt_inact < 0) or np.any(wt_ineq < 0):
        raise SingularWeightError(
            "negative square-root weight: line-search sign conditions breached"
        )
    return np.sqrt(wt_inact), np.sqrt(wt_ineq)


def classical_factorize(ctx, s):
    c = ctx.a_eq.T @ ctx.a_eq
    if ctx.m_ineq:
        c = c + (ctx.a_ineq * _ineq_weight(s)[:, None]).T @ ctx.a_ineq
    if ctx.m_inact:
        c = c + (ctx.a_inact * _inact_weight(s)[:, None]).T @ ctx.a_inact
    fact_c = rrqr(c, tol=ctx.config.solve_tol, counter=ctx.counters)
    if fact_c.rank < ctx.n:
        raise MethodNotApplicable(
            f"quadratic term is rank {fact_c.rank} < {ctx.n}; "
            "classical normal equations need it nonsingular"
        )
    fact_m = None
    if ctx.m_act:
        m = ctx.a_act @ fact_c.solve_basic(ctx.a_act.T)
        fact_m = rrqr(m, tol=ctx.config.rank_tol, counter=ctx.counters)
    return fact_c, fact_m


def component_steps(ctx, s, dz, f_vec, g_vec, dx=None):
    """Recover the eliminated variable steps from the reduced step."""
    if dx is None:
        dx = ctx.basis @ dz if ctx.n_r else np.zeros(ctx.n)
    x_new = s.x + dx
    dv_eq = ctx.a_eq @ x_new - ctx.b_eq - s.v_eq
    if ctx.m_ineq:
        d = _clamped_pivot(s)
        adx = ctx.a_ineq @ dx
        dw_ineq = g_vec - (ctx.b_ineq - ctx.a_ineq @ s.x + s.w_ineq) - (s.w_ineq / d) * adx
        dv_ineq = (ctx.a_ineq @ x_new - ctx.b_ineq) - s.v_ineq - s.w_ineq - dw_ineq
    else:
        dw_ineq = np.zeros(0)
        dv_ineq = np.zeros(0)
    if ctx.m_inact:
        dw_inact = ctx.a_inact @ x_new - ctx.b_inact - s.w_inact
        dlam_inact = f_vec - s.lam_inact - _inact_weight(s) * (ctx.a_inact @ dx)
    else:
        dw_inact = np.zeros(0)
        dlam_inact = np.zeros(0)
    return StepDirection(
        dz=dz,
        dx=dx,
        dv_eq=dv_eq,
        dv_ineq=dv_ineq,
        dw_ineq=dw_ineq,
        dw_inact=dw_inact,
        dlam_inact=dlam_inact,
    )


def line_search(s, d: StepDirection, tau):
    """Largest fraction of the step keeping every sign condition valid.

    One ratio test over the four stacked nonnegative blocks (w_ineq,
    -v_ineq, w_inact, lam_inact). A block whose ratios include a NaN sets
    no bound at all.
    """
    blocks = (s.w_ineq, -s.v_ineq, s.w_inact, s.lam_inact)
    val = np.concatenate(blocks)
    dval = np.concatenate([d.dw_ineq, -d.dv_ineq, d.dw_inact, d.dlam_inact])
    mask = dval < 0
    ratios = val[mask] / -dval[mask]
    nan = np.isnan(ratios)
    if nan.any():
        block = np.repeat(np.arange(len(blocks)), [b.size for b in blocks])[mask]
        ratios = ratios[~np.isin(block, block[nan])]
    if ratios.size == 0:
        return 1.0
    a_max = float(np.min(ratios))
    if not np.isfinite(a_max):
        return 1.0
    return float(min(1.0, tau * a_max))


def apply_step(ctx, s, d: StepDirection, alpha):
    s.x = s.x + alpha * d.dx
    if ctx.m_ineq:
        s.v_ineq = s.v_ineq + alpha * d.dv_ineq
        s.w_ineq = s.w_ineq + alpha * d.dw_ineq
    if ctx.m_inact:
        s.w_inact = s.w_inact + alpha * d.dw_inact
        s.lam_inact = s.lam_inact + alpha * d.dlam_inact
    if d.dlam_act is not None and s.lam_act is not None and d.dlam_act.size:
        s.lam_act = s.lam_act + alpha * d.dlam_act
    # keeping the equality slack consistent preserves the feasibility of
    # the reduced system's right-hand side across iterations
    s.v_eq = ctx.a_eq @ s.x - ctx.b_eq


def _centering(mu, mu_aff):
    if mu <= 0.0:
        return 0.0
    sigma = (mu_aff / mu) ** 3
    return float(np.clip(sigma, 0.0, 1.0)) * mu


def mehrotra_iteration(ctx, s, form):
    """One predictor-corrector iteration; factorizes the system once.

    The affine predictor fixes the centering parameters through the cube
    rule, the corrector adds the affine cross products, and only the
    corrector step is applied, scaled by the fraction-to-boundary line
    search. Equality-only levels are linear: the predictor lands on the
    solution and the corrector degenerates to a zero step.
    """
    ctx.counters.newton_iterations += 1
    tau = ctx.config.tau
    equality_only = ctx.m_ineq == 0 and ctx.m_inact == 0
    solve = _step_solver(ctx, s, form)

    if equality_only:
        empty = np.zeros(0)
        d = solve(empty, empty)
        d.alpha = 1.0
        apply_step(ctx, s, d, 1.0)
        return d

    f_aff, g_aff = assemble_f_g(ctx, s, 0.0, 0.0, mode="affine")
    d_aff = solve(f_aff, g_aff)
    alpha_aff = line_search(s, d_aff, 1.0)

    smu_ineq = 0.0
    if ctx.m_ineq:
        mu = float(-s.v_ineq @ s.w_ineq / ctx.m_ineq)
        v_aff = s.v_ineq + alpha_aff * d_aff.dv_ineq
        w_aff = s.w_ineq + alpha_aff * d_aff.dw_ineq
        smu_ineq = _centering(mu, float(-v_aff @ w_aff / ctx.m_ineq))
    smu_inact = 0.0
    if ctx.m_inact:
        mu = float(s.lam_inact @ s.w_inact / ctx.m_inact)
        lam_aff = s.lam_inact + alpha_aff * d_aff.dlam_inact
        w_aff = s.w_inact + alpha_aff * d_aff.dw_inact
        smu_inact = _centering(mu, float(lam_aff @ w_aff / ctx.m_inact))

    products = (
        d_aff.dlam_inact * d_aff.dw_inact,
        d_aff.dv_ineq * d_aff.dw_ineq,
    )
    f_cor, g_cor = assemble_f_g(
        ctx, s, smu_ineq, smu_inact, mode="corrector", affine_products=products
    )
    d = solve(f_cor, g_cor)
    alpha = line_search(s, d, tau)
    d.alpha = alpha
    apply_step(ctx, s, d, alpha)
    return d


def _step_solver(ctx, s, form):
    """Factorize the level's Newton system once in the given step form.

    Returns ``solve(f_vec, g_vec) -> StepDirection``, which reuses the
    factorization for the affine predictor and the centered corrector.
    ``"normal"`` factors the null-space-projected quadratic term, ``"ls"``
    stages the square-root-weighted barrier rows over the retained
    factorization of the projected equality block, and ``"classical"``
    factors the full-space quadratic term and the active-constraint
    product and also returns the active-dual step. On a level without
    barrier rows both projected forms take the basic least-squares step on
    the retained equality factorization, so the level needs no other.
    """
    if form == "classical":
        fact_c, fact_m = classical_factorize(ctx, s)

        def solve(f_vec, g_vec):
            r1 = ctx.a_eq.T @ (ctx.b_eq - ctx.a_eq @ s.x)
            if ctx.m_ineq:
                r1 = r1 + ctx.a_ineq.T @ g_vec
            if ctx.m_inact:
                r1 = r1 + ctx.a_inact.T @ f_vec
            if ctx.m_act:
                r1 = r1 + ctx.a_act.T @ s.lam_act
                r2 = ctx.a_act @ s.x - ctx.b_act - ctx.v_act
                dlam = fact_m.solve_basic(-r2 - ctx.a_act @ fact_c.solve_basic(r1))
                dx = fact_c.solve_basic(r1 + ctx.a_act.T @ dlam)
            else:
                dlam = np.zeros(0)
                dx = fact_c.solve_basic(r1)
            d = component_steps(ctx, s, None, f_vec, g_vec, dx=dx)
            d.dlam_act = dlam
            return d

        return solve
    if form not in ("normal", "ls"):
        raise ValueError(f"unknown step form {form!r}")
    if ctx.n_r == 0:
        solve_dz = lambda f_vec, g_vec: np.zeros(0)
    elif ctx.m_ineq == 0 and ctx.m_inact == 0:
        solve_dz = _equality_solver(ctx, s)
    elif form == "normal":
        solve_dz = _normal_solver(ctx, s)
    else:
        solve_dz = _ls_solver(ctx, s)

    def solve(f_vec, g_vec):
        return component_steps(ctx, s, solve_dz(f_vec, g_vec), f_vec, g_vec)

    return solve


def _equality_solver(ctx, s):
    """Basic least-squares step on the projected equality block's RRQR."""
    stage1 = ctx.equality_factorization()
    rhs_eq = ctx.b_eq - ctx.a_eq @ s.x
    return lambda f_vec, g_vec: stage1.solve_basic(rhs_eq)


def _normal_solver(ctx, s):
    """Factor the reduced quadratic term once, solve for many right sides."""
    h = ctx.proj_eq.T @ ctx.proj_eq
    if ctx.m_ineq:
        h = h + (ctx.proj_ineq * _ineq_weight(s)[:, None]).T @ ctx.proj_ineq
    if ctx.m_inact:
        h = h + (ctx.proj_inact * _inact_weight(s)[:, None]).T @ ctx.proj_inact
    fact = rrqr(h, tol=ctx.config.solve_tol, counter=ctx.counters)
    rhs_eq = ctx.proj_eq.T @ (ctx.b_eq - ctx.a_eq @ s.x)

    def solve(f_vec, g_vec):
        rhs = rhs_eq.copy()
        if ctx.m_ineq:
            rhs += ctx.proj_ineq.T @ g_vec
        if ctx.m_inact:
            rhs += ctx.proj_inact.T @ f_vec
        return fact.solve_basic(rhs)

    return solve


def _ls_solver(ctx, s):
    """Stage the weighted stack once; the rhs changes between solves."""
    rhs_eq_full = ctx.b_eq - ctx.a_eq @ s.x
    sq_inact, sq_ineq = _sqrt_weights(s)
    top = np.vstack(
        [ctx.proj_inact * sq_inact[:, None], ctx.proj_ineq * sq_ineq[:, None]]
    )
    staged = staged_rrqr(
        top,
        ctx.equality_factorization(),
        density_threshold=ctx.config.density_threshold,
        tol=ctx.config.solve_tol,
        counter=ctx.counters,
    )

    def solve(f_vec, g_vec):
        rhs_top = np.concatenate(
            [
                np.divide(
                    f_vec, sq_inact, out=np.zeros_like(f_vec), where=sq_inact > 0
                ),
                np.divide(g_vec, sq_ineq, out=np.zeros_like(g_vec), where=sq_ineq > 0),
            ]
        )
        return staged.solve_basic(rhs_top, rhs_eq_full)

    return solve


def recover_equality_dual(chain, ctx, s):
    """Active-constraint duals from the stationarity block set to zero.

    Walks the null-space chain backwards, reusing each stage's retained
    factorization and subtracting the contributions of the stages already
    resolved.
    """
    rhs = ctx.a_eq.T @ s.v_eq if ctx.m_eq else np.zeros(ctx.n)
    if ctx.m_ineq:
        rhs = rhs + ctx.a_ineq.T @ s.v_ineq
    if ctx.m_inact:
        rhs = rhs - ctx.a_inact.T @ s.lam_inact
    remaining = np.asarray(rhs, dtype=float).reshape(ctx.n).copy()
    parts = []
    for stage in reversed(chain.stages):
        c = stage.basis_before.T @ remaining
        lam_j = stage.fact.solve_transpose_basic(c)
        parts.append(lam_j)
        remaining = remaining - stage.rows.T @ lam_j
    parts.reverse()
    return np.concatenate(parts) if parts else np.zeros(0)


def converged(ctx, s, eps):
    """Lazy optimality test: duals only when the cheap blocks pass.

    Returns (converged, norm); the norm is the partial norm when the
    early-out fires and the full norm otherwise.
    """
    partial = np.concatenate(_partial_blocks(ctx, s, 0.0, 0.0))
    pn = float(np.linalg.norm(partial))
    if pn >= eps:
        return False, pn
    if ctx.m_act:
        s.lam_act = recover_equality_dual(ctx.chain, ctx, s)
        ctx.counters.dual_evaluations += 1
    k1 = _stationarity(ctx, s)
    full = float(np.hypot(pn, np.linalg.norm(k1)))
    return full < eps, full


def ls_form_recommended(m_inact, m_ineq, m_eq, n_r):
    """Operation-count crossover between the two reduced step forms.

    The least-squares form is cheaper while the stacked row count, with
    the equality rows counted twice, stays below ``2 n_r``.
    """
    return m_inact + m_ineq + 2 * m_eq < 2 * n_r
