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
from dataclasses import asdict, dataclass, field

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

    rows: np.ndarray
    fact: Rrqr
    basis_before: np.ndarray


class NullSpaceChain:
    """Accumulated null-space basis of all activated constraint rows.

    ``rows``, ``rhs`` and ``v_star`` stack the activated rows of every
    stage in order; ``rows`` is a view of a buffer that ``extend`` fills
    and doubles. It writes no filled row, so a level context may hold them.
    Each stage removes exactly its rank from the basis columns, so the rank
    consumed is ``n - n_r``.
    """

    def __init__(self, n):
        self.n = n
        self.basis = np.eye(n)
        self.stages = []
        self.rows = np.zeros((0, n))
        self.rhs = np.zeros(0)
        self.v_star = np.zeros(0)
        self._rows = self.rows

    @property
    def n_r(self):
        return self.basis.shape[1]

    def extend(self, rows, rhs, v_star, fact):
        """Append a stage; the basis moves into the null space of ``fact``."""
        self.stages.append(Stage(rows=rows, fact=fact, basis_before=self.basis))
        self.basis = nullspace_update(self.basis, fact)
        filled, end = self.rhs.size, self.rhs.size + rows.shape[0]
        if end > len(self._rows):
            # a copy of the filled rows; held views keep the old buffer
            self._rows = np.resize(self.rows, (max(end, 2 * filled), self.n))
        self._rows[filled:end] = rows
        self.rows = self._rows[:end]
        self.rhs = np.concatenate([self.rhs, rhs])
        self.v_star = np.concatenate([self.v_star, v_star])


class InactiveCarry:
    """Inequality rows carried forward as feasibility constraints.

    Bound rows, recognised from the matrix by ``bound_row_flags``, are
    deduplicated per (variable, side): the first row keeps its place and
    takes the tightest right-hand side.
    """

    def __init__(self, n):
        self.matrix = np.zeros((0, n))
        self.rhs = np.zeros(0)

    @property
    def m(self):
        return self.matrix.shape[0]

    def remove(self, mask):
        keep = ~mask
        self.matrix = self.matrix[keep]
        self.rhs = self.rhs[keep]

    def append(self, rows, rhs):
        if rows.shape[0] == 0:
            return
        matrix = np.vstack([self.matrix, rows])
        rhs = np.concatenate([self.rhs, rhs])
        keep = np.ones(rhs.size, dtype=bool)
        first = {}
        for i in np.flatnonzero(bound_row_flags(matrix)):
            j = int(np.flatnonzero(matrix[i])[0])
            k = first.setdefault((j, matrix[i, j] > 0), i)
            if k != i:
                rhs[k] = max(rhs[k], rhs[i])
                keep[i] = False
        self.matrix, self.rhs = matrix[keep], rhs[keep]


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


def newton_loop(ctx, s, form):
    """Run the level to optimality from ``s``; returns (s, converged, kkt_norm).

    Every iteration is followed by the dual-free convergence test, and the
    loop tests once before its first step. Levels without barrier rows have
    a linear optimality system: unless the start is already optimal, they
    fail the first test, take one step and pass the second. Every step is
    taken in ``form``, the step form of ``mehrotra_iteration``. The iteration
    cap applies per call, so active-set re-solves get a fresh budget. A step
    returns a new iterate and leaves the old one as it was, so the loop
    keeps the best iterate seen as it is. It exits and returns that iterate
    in two ways near the numerical floor: when the residual has not improved
    for six iterations, or, once the best norm is below ``100 * eps``, at once
    when a step throws the norm above ten times the best (a level thrown
    off the rounding floor so far almost never converges afterwards). It
    does the same when a diverging barrier variable overflows the step or
    the residual to an Inf or a NaN, and the level ends unconverged; those
    overflows are expected and raise no floating-point warning.
    """
    cfg = ctx.config
    start = ctx.counters.newton_iterations
    conv, norm = converged(ctx, s, cfg.eps)
    best_norm, best = norm, s
    stalled = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while not conv and ctx.counters.newton_iterations - start < cfg.max_iter:
            try:
                s = mehrotra_iteration(ctx, s, form)
                conv, norm = converged(ctx, s, cfg.eps)
            except NonFiniteError:
                conv, norm = False, math.inf
            if not math.isfinite(norm):
                # the best iterate is finite; a NaN would compare as no worse
                norm = math.inf
                break
            if norm < best_norm:
                best_norm, best = norm, s
                stalled = 0
            elif best_norm < 100 * cfg.eps and norm > 10 * best_norm:
                break
            else:
                # early phases converge non-monotonically; only treat repeated
                # non-improvement as floor-bouncing once the residual is tiny
                stalled += 1
                if stalled >= 6 and best_norm < 1e-8:
                    break
    if not conv and best_norm < norm:
        s, norm = best, best_norm
    return s, conv, norm


def _activate(chain, rows, rhs, v_star, counters, retained=None):
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
    chain.extend(rows, rhs, v_star, fact)
    return fact.rank


def project_inactive(state: CascadeState, s: IterateState, xi, counters):
    """Move saturated, dual-active carried rows into a virtual level.

    Saturation is judged on explicitly recomputed slacks; rows that are
    merely saturated without a significant multiplier stay carried.
    Returns the rank the moved rows add and the multipliers of ``s`` for
    the rows still carried.
    """
    carry = state.carry
    if carry.m == 0:
        return 0, s.lam_inact
    mask = (carry.matrix @ s.x - carry.rhs < xi) & (s.lam_inact > xi)
    if not mask.any():
        return 0, s.lam_inact
    rows, rhs = carry.matrix[mask], carry.rhs[mask]
    carry.remove(mask)
    v_star = rows @ s.x - rhs
    return _activate(state.chain, rows, rhs, v_star, counters), s.lam_inact[~mask]


def project_current(state, level, s, xi, counters, retained=None, residuals=None):
    """Pin the level's active set and carry its satisfied inequalities.

    The active set holds every equality row plus the inequalities violated
    beyond the activation threshold, stored with their optimal violations.
    ``retained`` is the factorization of the projected equality block in
    the current basis, when the caller has one; it is reused when nothing
    but the equalities activates. ``residuals`` are the level's
    ``_residuals`` at ``s.x``, when the caller has them.
    """
    eq, ineq = level.equalities, level.inequalities
    r_eq, r_ineq = _residuals(level, s.x) if residuals is None else residuals
    # C order, as the stack below returns it, so the products keep their bits
    rows, rhs, v_star = np.ascontiguousarray(eq.matrix), eq.rhs, r_eq
    if ineq.m:
        viol = r_ineq < -xi
        if viol.any():
            rows = np.vstack([eq.matrix, ineq.matrix[viol]])
            rhs = np.concatenate([eq.rhs, ineq.rhs[viol]])
            v_star = np.concatenate([r_eq, r_ineq[viol]])
            retained = None
        state.carry.append(ineq.matrix[~viol], ineq.rhs[~viol])
    return _activate(state.chain, rows, rhs, v_star, counters, retained)


def _residuals(level, x):
    """``A x - b`` of the level's blocks; an empty block's is its empty rhs."""
    eq, ineq = level.equalities, level.inequalities
    return eq.matrix @ x - eq.rhs, ineq.matrix @ x - ineq.rhs if ineq.m else ineq.rhs


def _level_objective(r_eq, r_ineq):
    v_ineq = np.minimum(r_ineq, 0.0)
    sq = float(r_eq @ r_eq + v_ineq @ v_ineq)
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
            objective, v_norm = _level_objective(*_residuals(level, x))
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
            start = initial_state(ctx, x)
            form, fell_back = _level_form(ctx)
            try:
                s, conv, norm = newton_loop(ctx, start, form=form)
            except MethodNotApplicable:
                # barrier weights can still make the quadratic term lose
                # rank numerically; restart the level in the projected form
                s, conv, norm = newton_loop(ctx, start, form="normal")
                fell_back = True
            retained = ctx.stage1
        x = s.x
        sub = not conv
        all_converged = all_converged and conv
        residuals = _residuals(level, x)

        rank_virtual, lam_inact = project_inactive(state, s, config.xi, counters)
        if rank_virtual:
            retained = None  # the basis moved
        rank_current = 0
        if state.chain.n_r:
            rank_current = project_current(
                state, level, s, config.xi, counters, retained, residuals
            )
        objective, v_norm = _level_objective(*residuals)
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

    # ctx, report, s and lam_inact still hold the last solved level: the
    # trivial levels after an exhausted chain reassign none of them
    lam_act = np.zeros(0)
    if ctx.m_act:
        lam_act = recover_equality_dual(ctx, s)
        report.dual_evaluations += 1
    return SolveReport(
        method=config.method,
        config=config.to_dict(),
        x=x,
        converged=all_converged,
        levels=level_reports,
        last_duals={"lam_act": lam_act, "lam_inact": lam_inact},
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
        s, conv, norm = newton_loop(ctx, initial_state(ctx, x), config.step_form)
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
