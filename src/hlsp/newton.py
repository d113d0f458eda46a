"""Newton machinery for one priority level.

The level problem couples the current equality and inequality blocks with
the carried inactive constraints of the higher levels, all projected into
the accumulated null-space basis. One Newton iteration factorizes the
system once and reuses the factorization for the affine predictor and the
centered corrector. No iterate carries the active-constraint duals: the
chain basis annihilates every active row, so the projected steps never
see them and the convergence test measures stationarity in that basis.
The classical step solves for the new active duals afresh in every solve
and reads no earlier ones. Only the reported duals are recovered, by one
walk over the chain stages (``recover_equality_dual``) from the last
solved level's dual-free stationarity, which ``solve_hlsp`` makes at most
once per solve.

Iterates are values. A step returns a new ``IterateState`` and writes no
field of the old one. The products ``A @ x`` and the barrier weights of an
iterate are computed once, when ``_iterate`` makes it, into its ``_Frame``.
The convergence test and the predictor and corrector of the next iteration
all read them there. ``dataclasses.replace`` gives a state without a frame,
whose products ``_frame`` computes when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from .factorization import cholesky, pivoted_cholesky, rrqr, staged_rrqr

PIVOT_CLAMP = 1e-30
# rank cut of the per-iteration step factorizations, relative to their scale
STEP_TOL = 1e-15
# the corrector steps at least this share of the ratio test's bound, and
# leaves its blocking pair at 1 - GAMMA_F of the full step's mean product
GAMMA_F = 0.95
# the corrector steps at most this share of the ratio test's bound
TAU = 0.999
# a level with barrier rows leaves the Newton loop for the active-set step
# that finishes it at the first iterate below this KKT norm whose
# complementarity split is the previous iterate's
SETTLED = 1e-3


class MethodNotApplicable(RuntimeError):
    """The classical step's quadratic term has no Cholesky factor."""


class SingularWeightError(RuntimeError):
    """Square-root weight turned negative; the line search was breached."""


@dataclass
class Counters:
    """Per-level work counters surfaced in the solve report."""

    newton_iterations: int = 0
    factorizations: int = 0
    asm_iterations: int = 0
    fact_shapes: list = field(default_factory=list)

    def count_factorization(self, rows, cols):
        if rows == 0 or cols == 0:
            return
        self.factorizations += 1
        self.fact_shapes.append((int(rows), int(cols)))


@dataclass(frozen=True)
class IterateState:
    """Primal iterate with slacks and duals for one level's Newton loop.

    Sign conditions after every accepted step: v_ineq <= 0, w_ineq >= 0,
    w_inact >= 0, lam_inact >= 0. The equality and inequality duals are
    implicit (lam_eq = -v_eq, lam_ineq = -v_ineq). No step reads the
    active-constraint duals, so the iterate holds none.

    An iterate is a value: it is frozen, and no code writes its arrays in
    place. A step returns a new iterate, built by ``_iterate`` with its
    ``frame``, the products of the iterate. ``dataclasses.replace`` gives a
    state without a frame.
    """

    x: np.ndarray
    v_eq: np.ndarray
    v_ineq: np.ndarray
    w_ineq: np.ndarray
    w_inact: np.ndarray
    lam_inact: np.ndarray
    frame: object = field(init=False, default=None, repr=False, compare=False)


@dataclass
class StepDirection:
    dx: np.ndarray
    dv_ineq: np.ndarray
    dw_ineq: np.ndarray
    dw_inact: np.ndarray
    dlam_inact: np.ndarray


@dataclass
class LevelContext:
    """Constant data of one level's Newton loop and active-set step.

    ``basis`` is the chain's ``ChainBasis`` B when the level starts, which
    stores only the rows of the eliminated variables; its shape is (n,
    n_r) for n variables. ``proj_eq``,
    ``proj_ineq`` and ``proj_inact`` are the blocks times B, and they share
    its remaining-variable column count n_r. ``stages`` are the chain
    stages in force when the context was built; their rows stack into
    ``a_act``, and they are the stages ``recover_equality_dual`` walks for
    the level. Two caches start empty. The factorization of the projected
    equality block, ``stage1``, is made on first read by
    ``equality_factorization`` and then reused: by the least-squares form
    and, as the objective rows' factorization of a working set without
    pinned rows, by the active-set step and the null-space projection after
    it. ``eq_gram``, the constant term ``proj_eq.T @ proj_eq`` of the
    reduced quadratic term, is made on the normal form's first read.
    Levels that read neither make neither.
    """

    basis: object
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
    stages: tuple
    counters: Counters
    config: object
    stage1: object = None
    eq_gram: np.ndarray = None

    def equality_factorization(self):
        """The counted RRQR of ``proj_eq``, made on first read.

        Its rank is judged against the scale of the unprojected rows too,
        so equalities that restate active rows project to rank 0.
        """
        if self.stage1 is None:
            self.stage1 = rrqr(
                self.proj_eq, counter=self.counters, scale_rows=self.a_eq
            )
        return self.stage1

    def _equality_gram(self):
        if self.eq_gram is None:
            self.eq_gram = self.proj_eq.T @ self.proj_eq
        return self.eq_gram

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
    return _iterate(
        ctx,
        np.asarray(x, dtype=float).copy(),
        v_ineq=-np.ones(ctx.m_ineq),
        w_ineq=np.ones(ctx.m_ineq),
        w_inact=np.ones(ctx.m_inact),
        lam_inact=np.ones(ctx.m_inact),
    )


def boundary_state(ctx, x, lam_inact):
    """The barrier-free iterate at ``x`` of an active-set level solve.

    Each inequality residual ``r`` splits into ``v = min(r, 0)`` and
    ``w = max(r, 0)``, the carried slacks are the carried residuals, and
    ``lam_inact`` holds the carried multipliers. A tight row's slack can be
    zero, and then its barrier weight ``lam_inact / w_inact`` in the frame
    is not finite; the convergence test reads no barrier weight.
    """
    r = ctx.a_ineq @ x - ctx.b_ineq
    w_inact = ctx.a_inact @ x - ctx.b_inact
    with np.errstate(divide="ignore", invalid="ignore"):
        return _iterate(
            ctx, x, np.minimum(r, 0.0), np.maximum(r, 0.0), w_inact, lam_inact
        )


def _iterate(ctx, x, v_ineq, w_ineq, w_inact, lam_inact):
    """The iterate at these values, with its equality slack and frame."""
    # keeping the equality slack consistent preserves the feasibility of
    # the reduced system's right-hand side across iterations
    ax_eq = ctx.a_eq @ x
    s = IterateState(x, ax_eq - ctx.b_eq, v_ineq, w_ineq, w_inact, lam_inact)
    object.__setattr__(s, "frame", _Frame(ctx, s, ax_eq))
    return s


_EMPTY = np.zeros(0)
_EMPTY.flags.writeable = False


class _Frame:
    """Products and barrier weights of one iterate, each computed once.

    Every expression keeps the operand order of the formula it stands in
    for, so results are the bits a fresh evaluation gives. The blocks a
    level lacks keep the empty class defaults.
    """

    ax_act = rhs_act = _EMPTY
    ax_ineq = rhs_ineq = slack_ineq = neg_axbw = w_axbw = neg_v_ineq = _EMPTY
    pivot = w_over_pivot = wt_ineq = _EMPTY
    ax_inact = res_inact = lam_res = wt_inact = _EMPTY

    def __init__(self, ctx, s, ax_eq=None):
        self.ax_eq = ctx.a_eq @ s.x if ax_eq is None else ax_eq
        self.rhs_eq = ctx.b_eq - self.ax_eq
        if ctx.m_act:
            self.ax_act = ctx.a_act @ s.x
            self.rhs_act = ctx.b_act - self.ax_act
        if ctx.m_ineq:
            v, w = s.v_ineq, s.w_ineq
            self.ax_ineq = ctx.a_ineq @ s.x
            self.rhs_ineq = ctx.b_ineq - self.ax_ineq
            self.slack_ineq = self.rhs_ineq + w
            axbw = self.ax_ineq - ctx.b_ineq - w
            self.neg_axbw = -axbw
            self.w_axbw = w * axbw
            self.neg_v_ineq = -v
            # diagonal v - w, kept strictly negative through boundary rounding
            self.pivot = np.minimum(v - w, -PIVOT_CLAMP)
            self.w_over_pivot = w / self.pivot
            # diagonal of I + (V - W)^-1 W, nonnegative under the sign conditions
            self.wt_ineq = v / self.pivot
        if ctx.m_inact:
            self.ax_inact = ctx.a_inact @ s.x
            self.res_inact = ctx.b_inact - self.ax_inact
            self.lam_res = s.lam_inact * self.res_inact
            self.wt_inact = s.lam_inact / s.w_inact


def _frame(ctx, s):
    """The iterate's frame; a state without one gets its products fresh."""
    return _Frame(ctx, s) if s.frame is None else s.frame


def assemble_f_g(ctx, s, smu_ineq, smu_inact, cross=None):
    """Right-hand-side bundles for the eliminated barrier variables.

    ``cross`` carries the corrector's elementwise predictor cross terms
    (dlam_aff * dw_aff over the inactive rows, dv_aff * dw_aff over the
    current inequalities); the affine predictor passes none and zero
    centering.
    """
    cross_inact, cross_ineq = (0.0, 0.0) if cross is None else cross
    fr = _frame(ctx, s)
    if ctx.m_inact:
        f = s.lam_inact + (fr.lam_res + smu_inact - cross_inact) / s.w_inact
    else:
        f = np.zeros(0)
    if ctx.m_ineq:
        g = fr.neg_axbw - (smu_ineq + cross_ineq + fr.w_axbw) / fr.pivot
    else:
        g = np.zeros(0)
    return f, g


def _dual_free_stationarity(ctx, s):
    """The stationarity block without its active-row term."""
    r = ctx.a_eq.T @ s.v_eq
    if ctx.m_ineq:
        r = r + ctx.a_ineq.T @ s.v_ineq
    if ctx.m_inact:
        r = r - ctx.a_inact.T @ s.lam_inact
    return r


def _partial_blocks(ctx, s):
    """The six blocks after stationarity; empty ones are left out."""
    fr = _frame(ctx, s)
    blocks = [fr.rhs_eq + s.v_eq]
    if ctx.m_ineq:
        blocks.append(fr.rhs_ineq + s.v_ineq + s.w_ineq)
        blocks.append(s.w_ineq * s.v_ineq)
    if ctx.m_act:
        blocks.append(fr.rhs_act + ctx.v_act)
    if ctx.m_inact:
        blocks.append(fr.res_inact + s.w_inact)
        blocks.append(s.lam_inact * s.w_inact)
    return blocks


def _norm(v):
    """2-norm of a real vector, as ``np.linalg.norm`` computes it."""
    return math.sqrt(v.dot(v))


def _sqrt_weights(fr):
    """Square roots of the barrier weights that scale the least-squares rows."""
    if (fr.wt_inact < 0).any() or (fr.wt_ineq < 0).any():
        raise SingularWeightError(
            "negative square-root weight: line-search sign conditions breached"
        )
    return np.sqrt(fr.wt_inact), np.sqrt(fr.wt_ineq)


def component_steps(ctx, s, dx, f_vec, g_vec):
    """The step direction from the full-space step ``dx`` of any form.

    The slack and multiplier steps that the forms eliminate are recovered
    from ``dx`` and the right-hand sides ``f_vec`` and ``g_vec``.
    """
    fr = _frame(ctx, s)
    x_new = s.x + dx
    if ctx.m_ineq:
        adx = ctx.a_ineq @ dx
        dw_ineq = g_vec - fr.slack_ineq - fr.w_over_pivot * adx
        dv_ineq = (ctx.a_ineq @ x_new - ctx.b_ineq) - s.v_ineq - s.w_ineq - dw_ineq
    else:
        dw_ineq = np.zeros(0)
        dv_ineq = np.zeros(0)
    if ctx.m_inact:
        dw_inact = ctx.a_inact @ x_new - ctx.b_inact - s.w_inact
        dlam_inact = f_vec - s.lam_inact - fr.wt_inact * (ctx.a_inact @ dx)
    else:
        dw_inact = np.zeros(0)
        dlam_inact = np.zeros(0)
    return StepDirection(
        dx=dx,
        dv_ineq=dv_ineq,
        dw_ineq=dw_ineq,
        dw_inact=dw_inact,
        dlam_inact=dlam_inact,
    )


def _ratio_test(s, d: StepDirection):
    """The fraction-to-boundary ratio test and its blocking entry.

    One ratio test over the four stacked nonnegative blocks (w_ineq,
    -v_ineq, w_inact, lam_inact). Only an entry whose step is negative can
    block, so a NaN step entry never does. The values are finite: a solve
    steps only from ``initial_state`` or from an iterate whose KKT norm,
    which every one of the four blocks enters, was finite. Returns
    ``(a_max, k, val, dval)``: the largest step keeping every entry
    nonnegative, the stacked index of the entry that blocks it (None when
    none does), and the stacked values and steps.
    """
    val = np.concatenate((s.w_ineq, -s.v_ineq, s.w_inact, s.lam_inact))
    dval = np.concatenate((d.dw_ineq, -d.dv_ineq, d.dw_inact, d.dlam_inact))
    idx = (dval < 0).nonzero()[0]
    ratios = val[idx] / -dval[idx]
    if ratios.size == 0:
        return math.inf, None, val, dval
    j = int(ratios.argmin())
    return float(ratios[j]), int(idx[j]), val, dval


def line_search(s, d: StepDirection, tau):
    """Largest fraction of the step keeping every sign condition valid.

    ``tau`` times the ratio test's bound, capped at a full step; a step
    that no entry blocks is taken in full.
    """
    a_max = _ratio_test(s, d)[0]
    if not math.isfinite(a_max):
        return 1.0
    return float(min(1.0, tau * a_max))


def step_length(s, d: StepDirection, tau):
    """Mehrotra's step-length heuristic for the corrector (SIAM J. Optim. 1992).

    The ratio test gives the bound a_max and its blocking entry. The step
    stops where the blocking entry, times the present value of its
    complementarity partner, equals ``(1 - GAMMA_F)`` times mu(a_max), the
    mean complementarity product at the full step a_max, and is clamped
    to ``[GAMMA_F * a_max, min(1, tau * a_max)]``. So ``tau`` (``TAU`` in
    a solve) is the cap, and with ``tau <= GAMMA_F`` the step is
    ``line_search``'s ``min(1, tau * a_max)``. A target that is not finite,
    or a partner at zero, leaves the cap.
    """
    a_max, k, val, dval = _ratio_test(s, d)
    if not math.isfinite(a_max):
        return 1.0
    cap = min(1.0, tau * a_max)
    floor = GAMMA_F * a_max
    if floor >= cap:
        return float(cap)
    m_ineq, m_inact = s.w_ineq.size, s.w_inact.size
    split = 2 * m_ineq
    full = val + a_max * dval
    total = 0.0
    if m_ineq:
        total += full[:m_ineq].dot(full[m_ineq:split])
    if m_inact:
        total += full[split:split + m_inact].dot(full[split + m_inact:])
    mu = float(total) / (m_ineq + m_inact)
    # the partner is the same row of the other block of the pair
    if k < split:
        partner = k + m_ineq if k < m_ineq else k - m_ineq
    else:
        partner = k + m_inact if k < split + m_inact else k - m_inact
    mate = float(val[partner])
    if not mate > 0.0:
        return float(cap)
    alpha = (float(val[k]) - (1.0 - GAMMA_F) * mu / mate) / -float(dval[k])
    if not math.isfinite(alpha):
        return float(cap)
    return float(min(cap, max(floor, alpha)))


def apply_step(ctx, s, d: StepDirection, alpha):
    """The new iterate ``alpha`` along ``d`` from ``s``."""
    return _iterate(
        ctx,
        s.x + alpha * d.dx,
        s.v_ineq + alpha * d.dv_ineq,
        s.w_ineq + alpha * d.dw_ineq,
        s.w_inact + alpha * d.dw_inact,
        s.lam_inact + alpha * d.dlam_inact,
    )


def _centering(mu, mu_aff):
    if mu <= 0.0:
        return 0.0
    sigma = (mu_aff / mu) ** 3
    # the clip of np.clip: NaN and -0.0 pass through
    return min(max(sigma, 0.0), 1.0) * mu


def mehrotra_iteration(ctx, s, form):
    """One predictor-corrector iteration; factorizes the system once.

    Returns the new iterate. The affine predictor fixes the centering
    parameters through the cube rule, the corrector adds the affine cross
    products, and only the corrector step is applied, at the length
    ``step_length`` picks. A level without barrier rows is linear and one
    full step solves it. ``solve_hlsp`` sends such a level here only in the
    classical form; in the projected forms ``cascade.linear_level`` takes
    its basic steps without an iterate.
    """
    ctx.counters.newton_iterations += 1
    solve = _step_solver(ctx, s, form)

    if ctx.m_ineq == 0 and ctx.m_inact == 0:
        return apply_step(ctx, s, solve(_EMPTY, _EMPTY), 1.0)

    f_aff, g_aff = assemble_f_g(ctx, s, 0.0, 0.0)
    d_aff = solve(f_aff, g_aff)
    alpha_aff = line_search(s, d_aff, 1.0)

    smu_ineq = 0.0
    if ctx.m_ineq:
        mu = float(_frame(ctx, s).neg_v_ineq @ s.w_ineq / ctx.m_ineq)
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
    f_cor, g_cor = assemble_f_g(ctx, s, smu_ineq, smu_inact, cross=products)
    d = solve(f_cor, g_cor)
    return apply_step(ctx, s, d, step_length(s, d, TAU))


def _step_solver(ctx, s, form):
    """Factorize the level's Newton system once in the given step form.

    Returns ``solve(f_vec, g_vec) -> StepDirection``, which reuses the
    factorization for the affine predictor and the centered corrector.
    Every form's solver returns the full-space step ``dx``; the projected
    forms map their reduced step through the chain basis.
    """
    solve_step = _SOLVERS[form](ctx, _frame(ctx, s))
    return lambda f, g: component_steps(ctx, s, solve_step(f, g), f, g)


def _normal_solver(ctx, fr):
    """Factor the reduced quadratic term once, solve for many right sides."""
    h = ctx._equality_gram()
    if ctx.m_ineq:
        h = h + (ctx.proj_ineq * fr.wt_ineq[:, None]).T @ ctx.proj_ineq
    if ctx.m_inact:
        h = h + (ctx.proj_inact * fr.wt_inact[:, None]).T @ ctx.proj_inact
    fact = rrqr(h, tol=STEP_TOL, counter=ctx.counters)
    rhs_eq = ctx.proj_eq.T @ fr.rhs_eq

    def solve(f_vec, g_vec):
        rhs = rhs_eq
        if ctx.m_ineq:
            rhs = rhs + ctx.proj_ineq.T @ g_vec
        if ctx.m_inact:
            rhs = rhs + ctx.proj_inact.T @ f_vec
        return ctx.basis @ fact.solve_basic(rhs)

    return solve


def _ls_solver(ctx, fr):
    """Stage the weighted stack once; the rhs changes between solves."""
    sq_inact, sq_ineq = _sqrt_weights(fr)
    top = np.vstack(
        [ctx.proj_inact * sq_inact[:, None], ctx.proj_ineq * sq_ineq[:, None]]
    )
    staged = staged_rrqr(
        top, ctx.equality_factorization(), tol=STEP_TOL, counter=ctx.counters
    )
    m_inact = ctx.m_inact
    live_inact, live_ineq = sq_inact > 0, sq_ineq > 0

    def solve(f_vec, g_vec):
        # rows of zero weight take a zero right-hand side
        rhs_top = np.zeros(len(top))
        np.divide(f_vec, sq_inact, out=rhs_top[:m_inact], where=live_inact)
        np.divide(g_vec, sq_ineq, out=rhs_top[m_inact:], where=live_ineq)
        return ctx.basis @ staged.solve_basic(rhs_top, fr.rhs_eq)

    return solve


def _classical_solver(ctx, fr):
    """Factor the full-space quadratic term and the Schur complement once.

    The range-space step of Nocedal & Wright (2006, section 16.2): the
    quadratic term C = U^T U by Cholesky, whose breakdown or tiny pivot
    raises ``MethodNotApplicable``, and with W = U^-T A_act^T the Schur
    complement M = W^T W = A_act C^-1 A_act^T by pivoted Cholesky. The
    solve finds the new active duals from ``M lam = -r2 - W^T U^-T r1``
    and steps by ``U^-1 (U^-T r1 + W lam) = C^-1 (r1 + A_act^T lam)``.
    Dependent active rows leave M semidefinite; their duals are set to 0,
    which leaves ``A_act^T lam``, and so the step, as it is.
    """
    c = ctx.a_eq.T @ ctx.a_eq
    if ctx.m_ineq:
        c = c + (ctx.a_ineq * fr.wt_ineq[:, None]).T @ ctx.a_ineq
    if ctx.m_inact:
        c = c + (ctx.a_inact * fr.wt_inact[:, None]).T @ ctx.a_inact
    try:
        fact_c = cholesky(c, tol=STEP_TOL, counter=ctx.counters)
    except LinAlgError as exc:
        raise MethodNotApplicable(
            f"quadratic term has no Cholesky factor ({exc}); "
            "classical normal equations need it nonsingular"
        ) from None
    if ctx.m_act:
        w = fact_c.forward(ctx.a_act.T)
        fact_m = pivoted_cholesky(w.T @ w, counter=ctx.counters)
        neg_r2 = -(fr.ax_act - ctx.b_act - ctx.v_act)
    r1_eq = ctx.a_eq.T @ fr.rhs_eq

    def solve(f_vec, g_vec):
        r1 = r1_eq
        if ctx.m_ineq:
            r1 = r1 + ctx.a_ineq.T @ g_vec
        if ctx.m_inact:
            r1 = r1 + ctx.a_inact.T @ f_vec
        t = fact_c.forward(r1)
        if ctx.m_act:
            t = t + w @ fact_m.solve_basic(neg_r2 - w.T @ t)
        return fact_c.back(t)

    return solve


# each step form's solver builder; every solver returns the full-space dx
_SOLVERS = {"normal": _normal_solver, "ls": _ls_solver, "classical": _classical_solver}


def recover_equality_dual(stages, r):
    """Active-constraint duals from the stationarity block set to zero.

    ``r`` is a level's dual-free stationarity ``A_eq^T v_eq + A_ineq^T
    v_ineq - A_inact^T lam_inact`` (``A_eq^T v_eq`` alone on a linear
    level), and ``stages`` the chain stages in force at that level. Walks
    the stages backwards, reusing each stage's retained factorization and
    subtracting the contributions of the stages already resolved. Each
    stage's basic solve zeroes the pivot components of the remainder, so
    the stationarity left at these duals has the norm of ``basis.T @ r``,
    the quantity ``converged`` measures.
    """
    remaining = r
    parts = []
    for stage in reversed(stages):
        c = stage.basis_before.T @ remaining
        lam_j = stage.fact.solve_transpose_basic(c)
        parts.append(lam_j)
        remaining = remaining - stage.rows.T @ lam_j
    parts.reverse()
    return np.concatenate(parts) if parts else np.zeros(0)


def converged(ctx, s, eps):
    """Optimality test with stationarity measured in the chain basis.

    The basis annihilates every active row, so the projected stationarity
    ``g_r = basis.T @ r`` of the dual-free block r needs no active dual; its
    norm is that of the stationarity block at ``recover_equality_dual``'s
    duals. Returns ``kkt_test``'s (converged, norm). Reads only.
    """
    partial = np.concatenate(_partial_blocks(ctx, s))
    return kkt_test(partial, eps, lambda: ctx.basis.T @ _dual_free_stationarity(ctx, s))


def kkt_test(partial, eps, g_r):
    """The KKT verdict on the stacked partial blocks and the stationarity.

    ``g_r()`` returns the projected stationarity; it is called only when
    the partial norm is below ``eps``. Returns (converged, norm); the norm
    is the partial norm when the early-out fires and ``hypot(partial,
    |g_r|)`` otherwise.
    """
    pn = _norm(partial)
    if pn >= eps:
        return False, pn
    full = float(np.hypot(pn, _norm(g_r())))
    return full < eps, full
