"""Hierarchy driver: cascades one Newton solve per priority level.

After a level converges, carried inactive constraints that are saturated
with a significant dual move into a virtual priority level, and the
level's own equalities plus its violated inequalities are pinned at their
optimal violations. Both activations extend the null-space chain, so every
later level sees fewer free variables. The hybrid variant searches each
level's active set explicitly while the carried constraints stay enforced
through the barrier.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .config import SolverConfig
from .factorization import Rrqr, nullspace_basis, rrqr
from .newton import (
    Counters,
    IterateState,
    LevelContext,
    MethodNotApplicable,
    converged,
    initial_state,
    mehrotra_iteration,
)
from .problem import (
    ConstraintBlock,
    HlspProblem,
    Level,
    bound_row_flags,
    tag_bound_rows,
    validate_problem,
)


class InvalidProblemError(ValueError):
    pass


@dataclass
class Stage:
    """One activated row set with its retained factorization."""

    kind: str  # "real" | "virtual"
    level: int
    rows: np.ndarray
    rhs: np.ndarray
    v_star: np.ndarray
    fact: Rrqr
    basis_before: np.ndarray
    rank: int


class NullSpaceChain:
    """Accumulated null-space basis of all activated constraint rows."""

    def __init__(self, n):
        self.n = n
        self.basis = np.eye(n)
        self.stages = []

    @property
    def n_r(self):
        return self.basis.shape[1]

    @property
    def total_rank(self):
        return sum(stage.rank for stage in self.stages)

    def extend(self, kind, level, rows, rhs, v_star, fact):
        z = nullspace_basis(fact)
        stage = Stage(
            kind=kind,
            level=level,
            rows=rows,
            rhs=rhs,
            v_star=v_star,
            fact=fact,
            basis_before=self.basis,
            rank=fact.rank,
        )
        self.stages.append(stage)
        self.basis = self.basis @ z
        return stage

    def active_stack(self):
        if not self.stages:
            return np.zeros((0, self.n)), np.zeros(0), np.zeros(0)
        rows = np.vstack([st.rows for st in self.stages])
        rhs = np.concatenate([st.rhs for st in self.stages])
        v_star = np.concatenate([st.v_star for st in self.stages])
        return rows, rhs, v_star


class InactiveCarry:
    """Inequality rows carried forward as feasibility constraints.

    Bound rows, recognised from the matrix by ``bound_row_flags``, are
    deduplicated per (variable, side); the tighter right-hand side wins.
    """

    def __init__(self, n):
        self.n = n
        self.matrix = np.zeros((0, n))
        self.rhs = np.zeros(0)

    @property
    def m(self):
        return self.matrix.shape[0]

    def _bound_key(self, row):
        j = int(np.nonzero(row)[0][0])
        return j, 1.0 if row[j] > 0 else -1.0

    def remove(self, mask):
        keep = ~mask
        self.matrix = self.matrix[keep]
        self.rhs = self.rhs[keep]

    def append(self, rows, rhs):
        if rows.shape[0] == 0:
            return
        index = {}
        for i in np.flatnonzero(bound_row_flags(self.matrix)):
            index[self._bound_key(self.matrix[i])] = i
        add_rows, add_rhs = [], []
        rhs_new = self.rhs.copy()
        for row, b, flag in zip(rows, rhs, bound_row_flags(rows)):
            if flag:
                key = self._bound_key(row)
                if key in index:
                    i = index[key]
                    if i < self.m:
                        rhs_new[i] = max(rhs_new[i], b)
                    else:
                        j = i - self.m
                        add_rhs[j] = max(add_rhs[j], b)
                    continue
                index[key] = self.m + len(add_rows)
            add_rows.append(row)
            add_rhs.append(b)
        self.rhs = rhs_new
        if add_rows:
            self.matrix = np.vstack([self.matrix, np.array(add_rows)])
            self.rhs = np.concatenate([self.rhs, np.array(add_rhs)])


@dataclass
class CascadeState:
    chain: NullSpaceChain
    carry: InactiveCarry

    @classmethod
    def fresh(cls, n):
        return cls(chain=NullSpaceChain(n), carry=InactiveCarry(n))


@dataclass
class LevelReport:
    level: int
    m_eq: int
    m_ineq: int
    m_inact: int
    n_r_before: int
    n_r_after: int
    rank_virtual: int
    rank_current: int
    iterations: int
    factorizations: int
    dual_evaluations: int
    asm_iterations: int
    kkt_norm: float
    sub_converged: bool
    method_fallback: bool
    v_star_norm: float
    objective: float
    fact_shapes: list
    wall_time_s: float


@dataclass
class SolveReport:
    method: str
    config: dict
    x: np.ndarray
    converged: bool
    levels: list
    last_duals: dict
    wall_time_s: float

    @property
    def objectives(self):
        return [lv.objective for lv in self.levels]

    def to_dict(self):
        return {
            "method": self.method,
            "config": self.config,
            "converged": bool(self.converged),
            "x": [float(v) for v in self.x],
            "objectives": [float(o) for o in self.objectives],
            "levels": [asdict(lv) for lv in self.levels],
            "last_duals": {
                k: [float(v) for v in vals] for k, vals in self.last_duals.items()
            },
            "wall_time_s": self.wall_time_s,
        }


def build_level_context(state: CascadeState, level, config, counters):
    basis = state.chain.basis
    a_eq = level.equalities.matrix
    a_ineq = level.inequalities.matrix
    a_act, b_act, v_act = state.chain.active_stack()
    return LevelContext(
        n=state.chain.n,
        n_r=state.chain.n_r,
        basis=basis,
        a_eq=a_eq,
        b_eq=level.equalities.rhs,
        a_ineq=a_ineq,
        b_ineq=level.inequalities.rhs,
        a_act=a_act,
        b_act=b_act,
        v_act=v_act,
        a_inact=state.carry.matrix,
        b_inact=state.carry.rhs,
        proj_eq=a_eq @ basis,
        proj_ineq=a_ineq @ basis,
        proj_inact=state.carry.matrix @ basis,
        stage1=None,
        chain=state.chain,
        counters=counters,
        config=config,
    )


def _snapshot(s):
    return (
        s.x.copy(),
        s.v_eq.copy(),
        s.v_ineq.copy(),
        s.w_ineq.copy(),
        s.w_inact.copy(),
        s.lam_inact.copy(),
        None if s.lam_act is None else s.lam_act.copy(),
    )


def _restore(s, snap):
    s.x, s.v_eq, s.v_ineq, s.w_ineq, s.w_inact, s.lam_inact, s.lam_act = snap


def _level_form(ctx):
    """Step form for the level; classical needs a nonsingular quadratic term.

    The term's rank equals the rank of the stacked level and carried rows
    (the barrier weights are positive diagonals), so applicability is
    structural and probed once; a rank lost to rounding inside the Newton
    loop is caught by ``solve_hlsp``. Returns (form, fell_back).
    """
    cfg = ctx.config
    if cfg.step_form != "classical":
        return cfg.step_form, False
    stacked = np.vstack([ctx.a_eq, ctx.a_ineq, ctx.a_inact])
    if rrqr(stacked, tol=cfg.rank_tol).rank < ctx.n:
        return "normal", True
    return "classical", False


def newton_loop(ctx, s, form=None):
    """Run the level to optimality; returns (converged, kkt_norm).

    Levels without barrier rows have a linear optimality system and are
    solved in a single iteration without a prior convergence test. The
    iteration cap applies per call, so active-set re-solves get a fresh
    budget. The best iterate seen is kept; when the residual stops
    improving near the numerical floor the loop exits and restores it.
    """
    cfg = ctx.config
    if form is None:
        form = _level_form(ctx)[0]
    if ctx.m_ineq == 0 and ctx.m_inact == 0:
        if ctx.m_eq > 0 and ctx.n_r > 0:
            mehrotra_iteration(ctx, s, form)
        return converged(ctx, s, cfg.eps)
    start = ctx.counters.newton_iterations
    conv, norm = converged(ctx, s, cfg.eps)
    best_norm, best = norm, _snapshot(s)
    stalled = 0
    while not conv and ctx.counters.newton_iterations - start < cfg.max_iter:
        mehrotra_iteration(ctx, s, form)
        conv, norm = converged(ctx, s, cfg.eps)
        if norm < best_norm:
            best_norm, best = norm, _snapshot(s)
            stalled = 0
        else:
            # early phases converge non-monotonically; only treat repeated
            # non-improvement as floor-bouncing once the residual is tiny
            stalled += 1
            if stalled >= 6 and best_norm < 1e-8:
                break
    if not conv and best_norm < norm:
        _restore(s, best)
        norm = best_norm
    return conv, norm


def project_inactive(state: CascadeState, s: IterateState, xi, level, counters, rank_tol):
    """Move saturated, dual-active carried rows into a virtual level.

    Saturation is judged on explicitly recomputed slacks; rows that are
    merely saturated without a significant multiplier stay carried. The
    remaining carried slacks are recomputed from the primal.
    """
    carry = state.carry
    if carry.m == 0:
        return 0
    w_explicit = carry.matrix @ s.x - carry.rhs
    mask = (w_explicit < xi) & (s.lam_inact > xi)
    rank_gained = 0
    if np.any(mask):
        rows = carry.matrix[mask].copy()
        rhs = carry.rhs[mask].copy()
        v_star = rows @ s.x - rhs
        fact = rrqr(rows @ state.chain.basis, tol=rank_tol, counter=counters)
        state.chain.extend("virtual", level, rows, rhs, v_star, fact)
        rank_gained = fact.rank
        carry.remove(mask)
        s.w_inact = s.w_inact[~mask]
        s.lam_inact = s.lam_inact[~mask]
    if carry.m:
        s.w_inact = carry.matrix @ s.x - carry.rhs
    return rank_gained


def project_current(
    state: CascadeState,
    level,
    s: IterateState,
    xi,
    level_index,
    counters,
    rank_tol,
    retained=None,
):
    """Pin the level's active set and carry its satisfied inequalities.

    The active set holds every equality row plus the inequalities violated
    beyond the activation threshold, stored with their optimal violations.
    ``retained`` is the factorization of the projected equality block in
    the current basis, when the caller has one; it is reused when nothing
    but the equalities activates.
    """
    a_eq = level.equalities.matrix
    a_ineq = level.inequalities.matrix
    r_eq = a_eq @ s.x - level.equalities.rhs
    r_ineq = a_ineq @ s.x - level.inequalities.rhs
    viol = r_ineq < -xi
    act_rows = np.vstack([a_eq, a_ineq[viol]])
    act_rhs = np.concatenate([level.equalities.rhs, level.inequalities.rhs[viol]])
    v_star = np.concatenate([r_eq, r_ineq[viol]])
    rank_gained = 0
    if act_rows.shape[0]:
        if retained is not None and not np.any(viol):
            fact = retained
        else:
            fact = rrqr(act_rows @ state.chain.basis, tol=rank_tol, counter=counters)
        state.chain.extend("real", level_index, act_rows, act_rhs, v_star, fact)
        rank_gained = fact.rank
    keep = ~viol
    state.carry.append(a_ineq[keep].copy(), level.inequalities.rhs[keep].copy())
    return rank_gained


def _level_objective(level, x):
    v_eq = level.equalities.matrix @ x - level.equalities.rhs
    v_ineq = np.minimum(level.inequalities.matrix @ x - level.inequalities.rhs, 0.0)
    sq = float(v_eq @ v_eq + v_ineq @ v_ineq)
    return 0.5 * sq, float(np.sqrt(sq))


def _trivial_report(level_index, level, x, n_r):
    objective, v_norm = _level_objective(level, x)
    return LevelReport(
        level=level_index,
        m_eq=level.equalities.m,
        m_ineq=level.inequalities.m,
        m_inact=0,
        n_r_before=n_r,
        n_r_after=n_r,
        rank_virtual=0,
        rank_current=0,
        iterations=0,
        factorizations=0,
        dual_evaluations=0,
        asm_iterations=0,
        kkt_norm=None,
        sub_converged=False,
        method_fallback=False,
        v_star_norm=v_norm,
        objective=objective,
        fact_shapes=[],
        wall_time_s=0.0,
    )


def solve_hlsp(problem: HlspProblem, config: SolverConfig = None):
    """Resolve the hierarchy level by level with the configured method.

    The single entry point for every method: the ``-asm`` methods run the
    active-set search on levels with inequalities, the others the
    interior point alone.
    """
    config = config if config is not None else SolverConfig()
    violations = validate_problem(problem)
    if violations:
        raise InvalidProblemError("; ".join(violations))
    problem = tag_bound_rows(problem)
    n = problem.n
    t_start = time.perf_counter()
    x = (
        np.asarray(config.warm_start_x, dtype=float).copy()
        if config.warm_start_x is not None
        else np.zeros(n)
    )
    state = CascadeState.fresh(n)
    level_reports = []
    last_duals = {}
    all_converged = True
    exhausted = False

    for idx, level in enumerate(problem.levels, start=1):
        if exhausted:
            level_reports.append(_trivial_report(idx, level, x, state.chain.n_r))
            continue
        t0 = time.perf_counter()
        counters = Counters()
        n_r_before = state.chain.n_r
        m_inact_seen = state.carry.m
        warm_set = _warm_set_for(config, idx)

        fell_back = False
        conv, retained = None, None
        if config.uses_asm and level.inequalities.m > 0:
            s, conv, norm = asm_level_feasibility(
                state, level, x, config, counters, warm_set
            )
            x = s.x
        if conv is None:
            # the interior point, also for a level whose active-set search
            # cycled or ran out, started from the search's last primal
            ctx = build_level_context(state, level, config, counters)
            s = initial_state(ctx, x)
            form, fell_back = _level_form(ctx)
            try:
                conv, norm = newton_loop(ctx, s, form=form)
            except MethodNotApplicable:
                # barrier weights can still make the quadratic term lose
                # rank numerically; restart the level in the projected form
                s = initial_state(ctx, x)
                conv, norm = newton_loop(ctx, s, form="normal")
                fell_back = True
            retained = ctx.stage1
        x = s.x
        sub = not conv
        all_converged = all_converged and conv

        rank_virtual = project_inactive(
            state, s, config.xi, idx, counters, config.rank_tol
        )
        if rank_virtual:
            retained = None  # the basis moved
        rank_current = 0
        if state.chain.total_rank < n:
            rank_current = project_current(
                state,
                level,
                s,
                config.xi,
                idx,
                counters,
                config.rank_tol,
                retained=retained,
            )
        objective, v_norm = _level_objective(level, x)
        level_reports.append(
            LevelReport(
                level=idx,
                m_eq=level.equalities.m,
                m_ineq=level.inequalities.m,
                m_inact=m_inact_seen,
                n_r_before=n_r_before,
                n_r_after=state.chain.n_r,
                rank_virtual=rank_virtual,
                rank_current=rank_current,
                iterations=counters.newton_iterations,
                factorizations=counters.factorizations,
                dual_evaluations=counters.dual_evaluations,
                asm_iterations=counters.asm_iterations,
                kkt_norm=norm,
                sub_converged=sub,
                method_fallback=fell_back,
                v_star_norm=v_norm,
                objective=objective,
                fact_shapes=counters.fact_shapes,
                wall_time_s=time.perf_counter() - t0,
            )
        )
        last_duals = {
            "lam_act": s.lam_act if s.lam_act is not None else np.zeros(0),
            "lam_inact": s.lam_inact,
        }
        if state.chain.total_rank >= n:
            exhausted = True

    return SolveReport(
        method=config.method,
        config=config.to_dict(),
        x=x,
        converged=all_converged,
        levels=level_reports,
        last_duals=last_duals,
        wall_time_s=time.perf_counter() - t_start,
    )


def _warm_set_for(config, level_index):
    sets = config.warm_active_sets
    if not sets:
        return ()
    if isinstance(sets, dict):
        return tuple(sets.get(level_index, ()))
    if level_index - 1 < len(sets):
        return tuple(sets[level_index - 1])
    return ()


def hybrid_solve(problem: HlspProblem, config: SolverConfig = None):
    """``solve_hlsp`` restricted to the active-set (``-asm``) methods."""
    if config is None:
        config = SolverConfig(method="nf-ipm-asm")
    if not config.uses_asm:
        raise ValueError(f"hybrid_solve needs an -asm method, got {config.method!r}")
    return solve_hlsp(problem, config)


def asm_level_feasibility(state, level, x, config, counters, warm_set=()):
    """Active-set search for one level's feasible or optimal infeasible point.

    Inequalities of the level enter the objective only while active: each
    inner Newton solve takes the equalities plus the active rows as its
    equality block, so ``build_level_context`` refactorizes the active stack
    after every add and every remove. The carried constraints of the higher
    levels stay enforced through the barrier inside every inner solve.
    Returns (s, conv, norm). A repeated active set or an exhausted iteration
    budget ends the search with ``conv`` None and its last primal in
    ``s.x``, from which ``solve_hlsp`` runs the interior point on the level.
    """
    eq, ineq = level.equalities, level.inequalities
    active = [int(j) for j in warm_set if 0 <= int(j) < ineq.m]
    seen_sets = {frozenset(active)}
    no_rows = ConstraintBlock.empty(state.chain.n)
    while True:
        pinned = Level(
            equalities=ConstraintBlock(
                np.vstack([eq.matrix, ineq.matrix[active]]),
                np.concatenate([eq.rhs, ineq.rhs[active]]),
            ),
            inequalities=no_rows,
        )
        ctx = build_level_context(state, pinned, config, counters)
        # interior restart per solve: warm-starting the barrier variables
        # from a previous boundary point jams the line search
        s = initial_state(ctx, x)
        conv, norm = newton_loop(ctx, s)
        x = s.x

        if counters.asm_iterations >= config.asm_max_iter:
            return s, None, norm
        residuals = ineq.matrix @ x - ineq.rhs
        inactive_rows = [j for j in range(ineq.m) if j not in active]
        violated = [j for j in inactive_rows if residuals[j] < -config.xi]
        satisfied = [j for j in active if residuals[j] >= config.xi]
        if violated:
            active.append(min(violated, key=lambda r: (residuals[r], r)))
        elif satisfied:
            # a positive residual on an active row means the row would be
            # satisfied without being pinned: drop the most over-satisfied
            active.remove(max(satisfied, key=lambda r: (residuals[r], -r)))
        else:
            break
        counters.asm_iterations += 1
        key = frozenset(active)
        if key in seen_sets:
            return s, None, norm
        seen_sets.add(key)

    # hand the explicit slack split to the projection step
    s.v_ineq = np.minimum(residuals, 0.0)
    s.w_ineq = np.maximum(residuals, 0.0)
    return s, conv, norm
