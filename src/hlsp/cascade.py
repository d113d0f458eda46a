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

import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import SolverConfig
from .factorization import NonFiniteError, Rrqr, nullspace_update, rrqr
from .newton import (
    Counters,
    IterateState,
    LevelContext,
    MethodNotApplicable,
    converged,
    initial_state,
    mehrotra_iteration,
    recover_equality_dual,
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


class NullSpaceChain:
    """Accumulated null-space basis of all activated constraint rows.

    ``rows``, ``rhs`` and ``v_star`` stack the activated rows of every
    stage in order. ``extend`` replaces them and the basis, never writing
    in place, so a level context may hold them. Each stage removes exactly
    its rank from the basis columns, so the rank consumed is ``n - n_r``.
    """

    def __init__(self, n):
        self.n = n
        self.basis = np.eye(n)
        self.stages = []
        self.rows = np.zeros((0, n))
        self.rhs = np.zeros(0)
        self.v_star = np.zeros(0)

    @property
    def n_r(self):
        return self.basis.shape[1]

    def extend(self, kind, level, rows, rhs, v_star, fact):
        """Append a stage; the basis moves into the null space of ``fact``."""
        stage = Stage(
            kind=kind,
            level=level,
            rows=rows,
            rhs=rhs,
            v_star=v_star,
            fact=fact,
            basis_before=self.basis,
        )
        self.stages.append(stage)
        self.basis = nullspace_update(self.basis, fact)
        self.rows = np.vstack([self.rows, rows])
        self.rhs = np.concatenate([self.rhs, rhs])
        self.v_star = np.concatenate([self.v_star, v_star])
        return stage


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
    """One level's outcome; the defaults describe a level left unsolved."""

    level: int
    m_eq: int
    m_ineq: int
    n_r_before: int
    n_r_after: int
    v_star_norm: float
    objective: float
    m_inact: int = 0
    rank_virtual: int = 0
    rank_current: int = 0
    iterations: int = 0
    factorizations: int = 0
    dual_evaluations: int = 0
    asm_iterations: int = 0
    kkt_norm: float = None
    sub_converged: bool = False
    method_fallback: bool = False
    fact_shapes: list = field(default_factory=list)
    wall_time_s: float = 0.0


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
    chain = state.chain
    basis = chain.basis
    a_eq = level.equalities.matrix
    a_ineq = level.inequalities.matrix
    return LevelContext(
        n=chain.n,
        n_r=chain.n_r,
        basis=basis,
        a_eq=a_eq,
        b_eq=level.equalities.rhs,
        a_ineq=a_ineq,
        b_ineq=level.inequalities.rhs,
        a_act=chain.rows,
        b_act=chain.rhs,
        v_act=chain.v_star,
        a_inact=state.carry.matrix,
        b_inact=state.carry.rhs,
        proj_eq=a_eq @ basis,
        proj_ineq=a_ineq @ basis,
        proj_inact=state.carry.matrix @ basis,
        stage1=None,
        stages=tuple(chain.stages),
        counters=counters,
        config=config,
    )


def _snapshot(s):
    # iterate arrays are replaced, never written in place: references suffice
    return (s.x, s.v_eq, s.v_ineq, s.w_ineq, s.w_inact, s.lam_inact, s.lam_act, s.frame)


def _restore(s, snap):
    s.x, s.v_eq, s.v_ineq, s.w_ineq, s.w_inact, s.lam_inact, s.lam_act, s.frame = snap


def _level_form(ctx):
    """Step form for the level; classical needs a nonsingular quadratic term.

    The term's rank equals the rank of the stacked level and carried rows
    (the barrier weights are positive diagonals), so applicability is
    structural and probed once; a rank lost to rounding inside the Newton
    loop is caught by ``solve_hlsp``. A level without rows of its own or
    carried ones has nothing to factorize and is not probed; one with
    fewer rows than variables is singular without a probe. Returns
    (form, fell_back).
    """
    cfg = ctx.config
    m = ctx.m_eq + ctx.m_ineq + ctx.m_inact
    if cfg.step_form != "classical" or m == 0:
        return cfg.step_form, False
    if m < ctx.n or rrqr(np.vstack([ctx.a_eq, ctx.a_ineq, ctx.a_inact])).rank < ctx.n:
        return "normal", True
    return "classical", False


def newton_loop(ctx, s, form=None):
    """Run the level to optimality; returns (converged, kkt_norm).

    Every iteration is followed by the dual-free convergence test, and the
    loop tests once before its first step. Levels without barrier rows have
    a linear optimality system: unless the start is already optimal, they
    fail the first test, take one step and pass the second. The iteration
    cap applies per call, so active-set re-solves get a fresh budget. The
    best iterate seen is kept; when the residual stops improving near the
    numerical floor the loop exits and restores it. It does the same when
    a diverging barrier variable overflows the step or the residual to an
    Inf or a NaN, and the level ends unconverged.
    """
    cfg = ctx.config
    if form is None:
        form = _level_form(ctx)[0]
    start = ctx.counters.newton_iterations
    conv, norm = converged(ctx, s, cfg.eps)
    best_norm, best = norm, _snapshot(s)
    stalled = 0
    while not conv and ctx.counters.newton_iterations - start < cfg.max_iter:
        try:
            mehrotra_iteration(ctx, s, form)
            conv, norm = converged(ctx, s, cfg.eps)
        except NonFiniteError:
            conv, norm = False, math.inf
        if not math.isfinite(norm):
            # the best iterate is finite; a NaN would compare as no worse
            norm = math.inf
            break
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


def _activate(chain, kind, level, rows, rhs, v_star, counters, retained=None):
    """Extend the chain by the activated ``rows``; returns the rank they add.

    ``retained`` is the factorization of the rows projected into the
    current basis, when the caller has one. Otherwise they are projected
    and factorized here, their rank judged against the scale of the
    unprojected rows too.
    """
    if rows.shape[0] == 0:
        return 0
    fact = retained
    if fact is None:
        fact = rrqr(rows @ chain.basis, counter=counters, scale_rows=rows)
    chain.extend(kind, level, rows, rhs, v_star, fact)
    return fact.rank


def project_inactive(state: CascadeState, s: IterateState, xi, level, counters):
    """Move saturated, dual-active carried rows into a virtual level.

    Saturation is judged on explicitly recomputed slacks; rows that are
    merely saturated without a significant multiplier stay carried.
    """
    carry = state.carry
    mask = (carry.matrix @ s.x - carry.rhs < xi) & (s.lam_inact > xi)
    if not mask.any():
        return 0
    rows, rhs = carry.matrix[mask], carry.rhs[mask]
    carry.remove(mask)
    s.lam_inact = s.lam_inact[~mask]
    v_star = rows @ s.x - rhs
    return _activate(state.chain, "virtual", level, rows, rhs, v_star, counters)


def project_current(
    state: CascadeState, level, s: IterateState, xi, index, counters, retained=None
):
    """Pin the level's active set and carry its satisfied inequalities.

    The active set holds every equality row plus the inequalities violated
    beyond the activation threshold, stored with their optimal violations.
    ``retained`` is the factorization of the projected equality block in
    the current basis, when the caller has one; it is reused when nothing
    but the equalities activates.
    """
    eq, ineq = level.equalities, level.inequalities
    r_ineq = ineq.matrix @ s.x - ineq.rhs
    viol = r_ineq < -xi
    rows = np.vstack([eq.matrix, ineq.matrix[viol]])
    rhs = np.concatenate([eq.rhs, ineq.rhs[viol]])
    v_star = np.concatenate([eq.matrix @ s.x - eq.rhs, r_ineq[viol]])
    retained = None if viol.any() else retained
    rank = _activate(state.chain, "real", index, rows, rhs, v_star, counters, retained)
    state.carry.append(ineq.matrix[~viol], ineq.rhs[~viol])
    return rank


def _level_objective(level, x):
    v_eq = level.equalities.matrix @ x - level.equalities.rhs
    v_ineq = np.minimum(level.inequalities.matrix @ x - level.inequalities.rhs, 0.0)
    sq = float(v_eq @ v_eq + v_ineq @ v_ineq)
    return 0.5 * sq, float(np.sqrt(sq))


def solve_hlsp(problem: HlspProblem, config: SolverConfig = None):
    """Resolve the hierarchy level by level with the configured method.

    The single entry point for every method: the ``-asm`` methods run the
    active-set search on levels with inequalities, the others the
    interior point alone. The active-constraint duals in ``last_duals``
    take one chain walk, made after the cascade for the last level solved
    and counted in that level's ``dual_evaluations``.
    """
    config = config if config is not None else SolverConfig()
    violations = validate_problem(problem)
    if violations:
        raise InvalidProblemError("; ".join(violations))
    problem = tag_bound_rows(problem)
    n = problem.n
    t_start = time.perf_counter()
    x = _warm_start_x(config, n)
    warm_sets = _warm_active_sets(config, problem.levels)
    state = CascadeState.fresh(n)
    level_reports = []
    all_converged = True

    for idx, level in enumerate(problem.levels, start=1):
        if state.chain.n_r == 0:
            # the chain is exhausted: no variable is left to solve for
            objective, v_norm = _level_objective(level, x)
            level_reports.append(
                LevelReport(
                    level=idx,
                    m_eq=level.equalities.m,
                    m_ineq=level.inequalities.m,
                    n_r_before=0,
                    n_r_after=0,
                    v_star_norm=v_norm,
                    objective=objective,
                )
            )
            continue
        t0 = time.perf_counter()
        counters = Counters()
        n_r_before = state.chain.n_r
        m_inact_seen = state.carry.m

        fell_back = False
        conv, retained = None, None
        if config.uses_asm and level.inequalities.m > 0:
            ctx, s, conv, norm = asm_level_feasibility(
                state, level, x, config, counters, warm_sets.get(idx, ())
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
        # the projection trims the carried rows of s; the walk needs them
        final = replace(s)

        rank_virtual = project_inactive(state, s, config.xi, idx, counters)
        if rank_virtual:
            retained = None  # the basis moved
        rank_current = 0
        if state.chain.n_r:
            rank_current = project_current(
                state, level, s, config.xi, idx, counters, retained=retained
            )
        objective, v_norm = _level_objective(level, x)
        report = LevelReport(
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
            asm_iterations=counters.asm_iterations,
            kkt_norm=norm,
            sub_converged=sub,
            method_fallback=fell_back,
            v_star_norm=v_norm,
            objective=objective,
            fact_shapes=counters.fact_shapes,
            wall_time_s=time.perf_counter() - t0,
        )
        level_reports.append(report)

    # ctx, final, report and s still hold the last solved level: the
    # trivial levels after an exhausted chain reassign none of them
    lam_act = np.zeros(0)
    if ctx.m_act:
        lam_act = recover_equality_dual(ctx, final)
        report.dual_evaluations += 1
    return SolveReport(
        method=config.method,
        config=config.to_dict(),
        x=x,
        converged=all_converged,
        levels=level_reports,
        last_duals={"lam_act": lam_act, "lam_inact": s.lam_inact},
        wall_time_s=time.perf_counter() - t_start,
    )


def _warm_start_x(config, n):
    if config.warm_start_x is None:
        return np.zeros(n)
    try:
        x = np.array(config.warm_start_x, dtype=float)
        valid = x.shape == (n,) and np.isfinite(x).all()
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise ValueError(f"warm_start_x must be a finite vector of length {n}")
    return x


def _warm_active_sets(config, levels):
    """``config.warm_active_sets``, each row checked against its level."""
    sets = config.warm_active_sets or {}
    for idx, rows in sets.items():
        m = levels[idx - 1].inequalities.m if idx <= len(levels) else 0
        bad = [int(j) for j in rows if not 0 <= j < m]
        if bad or idx > len(levels):
            raise ValueError(
                f"warm_active_sets level {idx} of {len(levels)}: rows {bad} "
                f"outside its inequality rows [0, {m})"
            )
    return sets


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
    Returns (ctx, s, conv, norm) of the last inner solve. A repeated active
    set or an exhausted iteration budget ends the search with ``conv`` None
    and its last primal in ``s.x``, from which ``solve_hlsp`` runs the
    interior point on the level.
    """
    eq, ineq = level.equalities, level.inequalities
    active = [int(j) for j in warm_set]
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
            return ctx, s, None, norm
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
            return ctx, s, conv, norm
        counters.asm_iterations += 1
        key = frozenset(active)
        if key in seen_sets:
            return ctx, s, None, norm
        seen_sets.add(key)
