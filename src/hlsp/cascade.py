"""Hierarchy driver: cascades one solve per priority level.

After a level converges, carried inactive constraints that are saturated
with a significant dual move into a virtual priority level, and the
level's own equalities plus its violated inequalities are pinned at their
optimal violations. Both activations extend the null-space chain, so every
later level sees fewer free variables. A barrier-free primal active-set
method, one equality-constrained least-squares step in the chain basis per
working set with the carried constraints held as hard rows, solves every
level of the ``-asm`` methods. It also finishes every level with barrier
rows of the interior-point methods (crossover): their Newton loop runs such
a level until the iterate's complementarity split has settled below a KKT
norm of ``SETTLED``, and the active-set method takes over from that point,
with the working set that the pairs split off, so the level ends on a
checked active set. Earlier, where few of the pairs are still undecided,
the active-set method is tried from the iterate with a budget of as many
working-set changes, and the level ends there where it converges.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial

import numpy as np

from .config import SolverConfig
from .factorization import ChainBasis, NonFiniteError, Rrqr, nullspace_update, rrqr
from .newton import (
    DECISIVE,
    GUESS_CAP,
    GUESS_PER_STEP,
    SETTLED,
    Counters,
    LevelContext,
    MethodNotApplicable,
    _dual_free_stationarity,
    _range_space,
    boundary_state,
    converged,
    initial_state,
    kkt_test,
    mehrotra_iteration,
    recover_equality_dual,
)
from .problem import (
    HlspProblem,
    bound_row_flags,
    tag_bound_rows,
    validate_problem,
)

# working-set changes one active-set call may make by default: this many,
# and as many again per hundred rows the level can move (its inequality and
# carried rows)
ASM_MAX_ITER = 200
# a row blocks an active-set step only when the step lowers its residual by
# more than this share of |row| (|x| + |step|); a smaller fall is rounding
FALL_TOL = 1e-13
# activation threshold: a level row violated beyond it is pinned, and a
# carried row within it of its bound, with a multiplier above it, is active
XI = 1e-8


class InvalidProblemError(ValueError):
    pass


@dataclass
class Stage:
    """One activated row set with its retained factorization."""

    rows: np.ndarray
    fact: Rrqr
    basis_before: ChainBasis


class NullSpaceChain:
    """Accumulated null-space basis of all activated constraint rows.

    ``basis`` is a ``ChainBasis``: each stage eliminates as many variables
    as its rank, so the rank consumed is ``n - n_r``, and the basis stores
    only the eliminated variables' rows. ``rows``, ``rhs`` and ``v_star``
    stack the activated rows of every stage in order; ``rows`` is a view of
    a buffer that ``extend`` fills and doubles. It writes no filled row, so
    a level context may hold them.
    """

    def __init__(self, n):
        self.n = n
        self.basis = ChainBasis.identity(n)
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
        self.basis = self.basis.extended(fact)
        filled, end = self.rhs.size, self.rhs.size + rows.shape[0]
        if end > len(self._rows):
            # a copy of the filled rows; held views keep the old buffer
            self._rows = np.empty((max(end, 2 * filled), self.n))
            self._rows[:filled] = self.rows
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
        stages=tuple(chain.stages),
        counters=counters,
        config=config,
    )


def _level_form(config, m, n):
    """Step form for a level of ``m`` level and carried rows in ``n`` variables.

    Classical needs a nonsingular quadratic term, whose rank is at most
    ``m``. So a level with fewer rows than variables takes the projected
    normal form at once, and one without rows has nothing to factorize and
    keeps its form. Every other level starts classical, and the first
    Cholesky factorization of its quadratic term is the applicability test:
    a breakdown or a pivot at rounding level raises ``MethodNotApplicable``,
    and ``_in_form`` restarts the level in the normal form. Returns
    (form, fell_back).
    """
    if config.step_form == "classical" and 0 < m < n:
        return "normal", True
    return config.step_form, False


def _exit_loop(point, step, test, counters, config, hand_over=None):
    """Iterate one level from ``point`` to the first of its exits.

    ``test(point)`` returns (converged, norm, tested): the verdict, the KKT
    norm and the point with what the test computed at it. The test runs
    before the first step and after every step; ``step`` receives tested
    points, and the loop keeps and returns them. ``step(point)`` returns
    the next point, leaving the old one as it was, and counts its
    iteration in ``counters``, also when it raises ``NonFiniteError``.
    With ``hand_over``, the loop also ends converged after the first step
    whose ``hand_over(previous point, point, norm)`` is true. It ends
    unconverged after ``max_iter`` steps, or at a step that raises
    ``NonFiniteError`` or gives a norm that is not finite, and then returns
    the best point seen. Those overflows, and one in the start's test, are
    expected and raise no floating-point warning. Returns (point,
    converged, norm).
    """
    start = counters.newton_iterations
    with np.errstate(over="ignore", invalid="ignore"):
        conv, norm, point = test(point)
        best_norm, best = norm, point
        while not conv and counters.newton_iterations - start < config.max_iter:
            before = point
            try:
                point = step(point)
                conv, norm, point = test(point)
            except NonFiniteError:
                conv, norm = False, math.inf
            if not math.isfinite(norm):
                # the best point is finite; a NaN would compare as no worse
                norm = math.inf
                break
            if norm < best_norm:
                best_norm, best = norm, point
            conv = conv or bool(hand_over and hand_over(before, point, norm))
    if not conv and best_norm < norm:
        point, norm = best, best_norm
    return point, conv, norm


def newton_loop(ctx, s, form):
    """Run a level with barrier rows from ``s`` to a KKT norm below ``eps``.

    Returns (s, converged, kkt_norm, crossed). The steps are
    ``mehrotra_iteration``'s in ``form``, the test is ``converged`` at
    ``eps``, and the exits are ``_exit_loop``'s: the test before the first
    step, the iteration cap and the best iterate at a non-finite one. The
    loop also hands the level over, converged, at the first iterate whose
    complementarity split (``_split_seed``) is the previous iterate's and
    whose norm is below ``SETTLED``: the partition guess the active-set
    step starts from has settled. At any other iterate after the k-th step
    it counts the pairs that are not decisive from the previous iterate
    (``_undecided``), u, and tries the active-set step there at once
    (``_crossover``): with the full budget at a settled split with u = 0,
    and with a budget of u changes where u <= min(``GUESS_PER_STEP`` k,
    ``GUESS_CAP``). Its result is ``crossed``, and the loop ends, only where
    that step converges at ``eps`` on the carried rows; otherwise the loop
    goes on from the iterate as it was, and the attempt's work stays
    counted. ``crossed`` is None at every other exit. A level without
    barrier rows is ``linear_level``'s.
    """
    cfg, crossed, split, steps = ctx.config, None, _split_seed(s), 0

    def hand_over(before, s, norm):
        nonlocal crossed, split, steps
        steps += 1
        held, split = split, _split_seed(s)
        settled = np.array_equal(split, held)
        if settled and norm < SETTLED:
            return True
        undecided = _undecided(before, s)
        if settled and not undecided:
            budget = None
        elif undecided <= min(GUESS_PER_STEP * steps, GUESS_CAP):
            budget = undecided
        else:
            return False
        out = _crossover(ctx, s, budget)
        if out[2] and not _off_carried(out[0], out[1].x):
            crossed = out
        return crossed is not None

    s, conv, norm = _exit_loop(
        s,
        lambda s: mehrotra_iteration(ctx, s, form),
        lambda s: (*converged(ctx, s, cfg.eps), s),
        ctx.counters,
        cfg,
        hand_over,
    )
    return s, conv, norm, crossed


def linear_level(chain, level, x, config, counters, form):
    """Solve a level without barrier rows; extend the chain by its rows.

    The level's optimality system is linear, and one Newton step in
    ``form`` solves it. In a projected form that is the basic step ``x + B
    dz``: ``dz`` solves ``A_eq B dz = b_eq - A_eq x`` in the least-squares
    sense on one counted RRQR of ``A_eq B``, with B the chain basis. In the
    classical form it is ``x + C^-1 (r1 + A_act^T lam)``, the range-space
    step (``newton._range_space``) with ``C = A_eq^T A_eq``, ``r1 = A_eq^T
    (b_eq - A_eq x)`` and the chain's rows active, factorized afresh at
    every step as a Newton iteration would; it raises
    ``MethodNotApplicable`` where C has no Cholesky factor. The test is
    ``kkt_test`` at ``eps`` on the blocks ``converged`` forms, and the
    exits are ``_exit_loop``'s, as in ``newton_loop``: an optimal start
    takes no step. The level's rows then extend the chain at their
    residual, on the basic step's RRQR where one was made.

    Returns (x, conv, norm, rank, r): the level's point, its verdict and
    KKT norm, the rank its rows add and their residual at ``x``, which is
    also its ``v_eq``.
    """
    a, b = level.equalities.matrix, level.equalities.rhs
    basis, act, act_rhs, act_v = chain.basis, chain.rows, chain.rhs, chain.v_star
    fact = None

    def test(x):
        # the frame's products and converged's blocks, in their order
        ax, ax_act = a @ x, act @ x
        r, rhs = ax - b, b - ax
        blocks = [rhs + r]
        if act_rhs.size:
            blocks.append((act_rhs - ax_act) + act_v)
        conv, norm = kkt_test(
            np.concatenate(blocks), config.eps, lambda: basis.T @ (a.T @ r)
        )
        return conv, norm, (x, r, rhs, ax_act)

    def step(point):
        nonlocal fact
        x, _, rhs, ax_act = point
        counters.newton_iterations += 1
        if form == "classical":
            solve = _range_space(a.T @ a, act, ax_act, act_rhs, act_v, counters)
            return x + solve(a.T @ rhs)
        if fact is None:
            fact = rrqr(a @ basis, counter=counters, scale_rows=a)
        return x + basis @ fact.solve_basic(rhs)

    (x, r, _, _), conv, norm = _exit_loop(x, step, test, counters, config)
    # C order, as project_current stores a level's rows
    rank = _activate(chain, np.ascontiguousarray(a), b, r, counters, fact)
    return x, conv, norm, rank, r


def _in_form(run, form, fell_back):
    """``run(form)``, restarted in the normal form where classical fails.

    A classical level whose quadratic term has no Cholesky factor, at its
    first step or a later one, raises ``MethodNotApplicable``; ``run``
    then starts over, from the level's start, in the projected normal
    form. The counters keep the abandoned work. Returns (``run``'s result,
    fell_back), the second true also after a restart.
    """
    try:
        return run(form), fell_back
    except MethodNotApplicable:
        return run("normal"), True


def _onto_chain(ctx, x):
    """``x`` moved onto the pinned rows of the context's chain stages.

    One forward walk over the stages, the mirror of
    ``recover_equality_dual``: each stage's retained factorization gives
    the basic step that puts its rows at ``rhs + v_star``, taken in the
    basis before the stage, which the earlier stages' rows annihilate. So
    no stage undoes an earlier one, and no factorization is made.
    """
    end = 0
    for st in ctx.stages:
        start, end = end, end + st.rows.shape[0]
        target = ctx.b_act[start:end] + ctx.v_act[start:end]
        x = x + st.basis_before @ st.fact.solve_basic(target - st.rows @ x)
    return x


def _activate(chain, rows, rhs, v_star, counters, fact=None):
    """Extend the chain by the activated ``rows``; returns the rank they add.

    ``fact`` is the factorization of the rows projected into the current
    basis, when the caller has one. Otherwise they are projected and
    factorized here, their rank judged against the scale of the
    unprojected rows too.
    """
    if rows.shape[0] == 0:
        return 0
    if fact is None:
        fact = rrqr(rows @ chain.basis, counter=counters, scale_rows=rows)
    chain.extend(rows, rhs, v_star, fact)
    return fact.rank


def project_inactive(state: CascadeState, x, lam_inact, counters, retained=None):
    """Move saturated, dual-active carried rows into a virtual level.

    ``x`` is the level's point and ``lam_inact`` the carried rows'
    multipliers there. Saturation is judged on explicitly recomputed
    slacks; rows that are merely saturated without a significant
    multiplier stay carried. ``retained`` is a pair (mask, fact) when the
    caller has one: ``fact`` factorizes the carried rows of ``mask``
    projected into the current basis, and it is reused when those are the
    rows that move. Returns the rank the moved rows add and the
    multipliers of the rows still carried.
    """
    carry = state.carry
    if carry.m == 0:
        return 0, lam_inact
    mask = (carry.matrix @ x - carry.rhs < XI) & (lam_inact > XI)
    if not mask.any():
        return 0, lam_inact
    rows, rhs = carry.matrix[mask], carry.rhs[mask]
    carry.remove(mask)
    v_star = rows @ x - rhs
    fact = retained[1] if retained and np.array_equal(mask, retained[0]) else None
    return _activate(state.chain, rows, rhs, v_star, counters, fact), lam_inact[~mask]


def project_current(state, level, residuals, counters, retained=None):
    """Pin the level's active set and carry its satisfied inequalities.

    ``residuals`` are the level's ``_residuals`` at its point. The active
    set holds every equality row plus the inequalities violated beyond the
    activation threshold, stored with their optimal violations.
    ``retained`` is a pair (rows, fact) when the caller has one: ``fact``
    factorizes ``rows`` projected into the current basis, and it is reused
    when those are the rows that activate.
    """
    eq, ineq = level.equalities, level.inequalities
    r_eq, r_ineq = residuals
    # C order, as the stack below returns it, so the products keep their bits
    rows, rhs, v_star = np.ascontiguousarray(eq.matrix), eq.rhs, r_eq
    if ineq.m:
        viol = r_ineq < -XI
        if viol.any():
            rows = np.vstack([eq.matrix, ineq.matrix[viol]])
            rhs = np.concatenate([eq.rhs, ineq.rhs[viol]])
            v_star = np.concatenate([r_eq, r_ineq[viol]])
        state.carry.append(ineq.matrix[~viol], ineq.rhs[~viol])
    fact = retained[1] if retained and np.array_equal(rows, retained[0]) else None
    return _activate(state.chain, rows, rhs, v_star, counters, fact)


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

    The single entry point for every method. Every level of the ``-asm``
    methods, and every level with barrier rows (its own inequalities or
    carried rows) of the others, ends with the result of one
    ``asm_level_feasibility`` call with its full budget; only the start
    and the first working set differ. The ``-asm`` methods, which both run
    the same level solve and no Newton iteration, start from the inherited
    ``x`` with the working set its residual signs give
    (``_residual_seed``). The interior-point methods first run
    ``newton_loop`` until the complementarity split has settled below
    ``SETTLED``, to ``eps``, to the iteration cap or to a non-finite
    iterate. The active-set step then starts from the loop's point walked
    back onto the chain's pinned rows (``_onto_chain``), seeded by the
    iterate's complementarity pairs (``_split_seed``): ``_crossover``. A
    loop that handed over early, at an iterate with few undecided pairs,
    has run it already, possibly on a budget of as many changes, and
    returns its converged result, which the level keeps; the attempts it
    rejected before count in the level's report. Its convergence test at
    ``eps`` decides ``sub_converged``, and its working-set changes
    count as ``asm_iterations``. Its step assumes a start on the carried
    rows, and the correction onto a guessed tight row can leave one: where
    an interior-point crossover ends violating a carried row by more than
    ``XI`` that the level's start holds, the same call runs once more from
    the start, seeded as the ``-asm`` methods seed it, and both solves
    count. The level then ends in ``project_inactive`` and
    ``project_current`` at its point. Every level without barrier rows
    outside the ``-asm`` methods is ``linear_level``'s, in the level's step
    form: basic steps on one RRQR, or classical's range-space steps, with
    no context or iterate, and one ending that pins the level's rows at
    their residual. A ``classical`` level whose quadratic term has no
    Cholesky factor, at its first step or a later one, restarts from its
    start in the projected normal form (``_in_form``) and reports
    ``method_fallback``; its counters keep the abandoned iterations and
    factorizations. Every solved level records its walk: the chain stages
    in force and its dual-free stationarity, ``A_eq^T r_eq`` on a linear
    level. The active-constraint duals in ``last_duals`` are the last
    solved level's walk (``recover_equality_dual``), taken once after the
    cascade and counted in that level's ``dual_evaluations``.
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

        m_barrier = level.inequalities.m + m_inact_seen
        form, fell_back = _level_form(config, level.equalities.m + m_barrier, n)
        if m_barrier or config.uses_asm:
            level_ctx = build_level_context(state, level, config, counters)
            if config.uses_asm:
                work = _residual_seed(level_ctx, x, warm_sets.get(idx, ()))
                out = asm_level_feasibility(level_ctx, x, work)
            else:
                run = partial(newton_loop, level_ctx, initial_state(level_ctx, x))
                (s, _, _, crossed), fell_back = _in_form(run, form, fell_back)
                out = crossed or _crossover(level_ctx, s)
                if _off_carried(out[0], out[1].x) and not _off_carried(level_ctx, x):
                    # the guessed working set moved x off carried rows that
                    # the level's start holds, and no later step repairs
                    # that: solve the level from its start as -asm does
                    out = asm_level_feasibility(level_ctx, x, _residual_seed(level_ctx, x))
            ctx, s, conv, norm, held = out
            x = s.x
            residuals = _residuals(level, x)
            tight, current = held
            stages = len(state.chain.stages)
            rank_virtual, lam_inact = project_inactive(state, x, s.lam_inact, counters, tight)
            moved = None
            if len(state.chain.stages) > stages:
                moved = state.chain.stages[-1].fact
            if moved is not tight[1]:
                # the objective rows' RRQR was made in the basis that the
                # tight rows' RRQR leaves, and the chain's basis is now another
                current = None
            rank_current = 0
            if state.chain.n_r:
                rank_current = project_current(state, level, residuals, counters, current)
            walk = ctx.stages, partial(_dual_free_stationarity, ctx, s)
        else:
            stages = tuple(state.chain.stages)
            run = partial(linear_level, state.chain, level, x, config, counters)
            (x, conv, norm, rank_current, r_eq), fell_back = _in_form(run, form, fell_back)
            residuals = (r_eq, level.inequalities.rhs)
            rank_virtual, lam_inact = 0, np.zeros(0)
            # the stationarity A_eq^T v_eq at v_eq = r_eq, evaluated only by
            # the walk after the cascade
            walk = stages, partial(np.matmul, level.equalities.matrix.T, r_eq)
        all_converged = all_converged and conv
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
            sub_converged=not conv,
            method_fallback=fell_back,
            v_star_norm=v_norm,
            objective=objective,
            fact_shapes=counters.fact_shapes,
            wall_time_s=time.perf_counter() - t0,
        )
        level_reports.append(report)

    # report, lam_inact and walk still hold the last solved level: the
    # trivial levels after an exhausted chain reassign none of them
    lam_act = np.zeros(0)
    stages, stationarity = walk
    if stages:
        lam_act = recover_equality_dual(stages, stationarity())
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


def _residual_seed(ctx, x, warm_set=()):
    """An ``-asm`` level's first working set, from the signs at ``x``.

    The level rows violated at ``x``, the carried rows within ``XI`` of
    their bound and the level rows of ``warm_set``.
    """
    work = np.concatenate(
        [ctx.a_ineq @ x - ctx.b_ineq < 0.0, ctx.a_inact @ x - ctx.b_inact < XI]
    )
    work[np.asarray(warm_set, dtype=int)] = True
    return work


def _off_carried(ctx, x):
    """Whether ``x`` violates a carried row of ``ctx`` by more than ``XI``."""
    return bool((ctx.a_inact @ x - ctx.b_inact < -XI).any())


def _crossover(ctx, s, budget=None):
    """The active-set step that finishes a barrier level from iterate ``s``.

    It starts from ``s.x`` walked back onto the chain's pinned rows (the
    step moves x in the chain basis only), with the working set that the
    iterate's complementarity pairs split off, and at most ``budget``
    working-set changes where one is given. Returns
    ``asm_level_feasibility``'s result.
    """
    return asm_level_feasibility(ctx, _onto_chain(ctx, s.x), _split_seed(s), budget)


def _undecided(before, s):
    """How many complementarity pairs are not decisive from ``before`` to ``s``.

    The pairs are (-v, w) for a level row and (lam, w) for a carried row.
    Each member's ratio to its value at ``before`` tends to 1 on its own
    side of the optimal partition and to 0 on the other (El-Bakry, Tapia &
    Zhang, *SIAM Review*, 1994). A pair is decisive when one ratio is
    within ``DECISIVE`` of 1 and the other below ``DECISIVE``; at 0 the
    iterate has identified the partition, also on a level without pairs.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.concatenate([s.v_ineq / before.v_ineq, s.lam_inact / before.lam_inact])
        b = np.concatenate([s.w_ineq / before.w_ineq, s.w_inact / before.w_inact])
    near_a, near_b = np.abs(a - 1.0) < DECISIVE, np.abs(b - 1.0) < DECISIVE
    decisive = (near_a & (b < DECISIVE)) | (near_b & (a < DECISIVE))
    return int(np.count_nonzero(~decisive))


def _split_seed(s):
    """The crossover's first working set, from the iterate's pairs.

    A level row is pinned where its violation outweighs its slack,
    ``-v > w``, and a carried row is held tight where its multiplier
    outweighs its slack, ``lam > w``: the interior point's guess of the
    optimal partition (Mehrotra & Ye, *Math. Programming*, 1993), which
    its residual signs give only near the optimum.
    """
    return np.concatenate([-s.v_ineq > s.w_ineq, s.lam_inact > s.w_inact])


def asm_level_feasibility(ctx, x, work, budget=None):
    """Barrier-free primal active-set solve of one level from ``x``.

    ``ctx`` is the level's context, which the caller built: a solve by an
    ``-asm`` method starts from the inherited ``x``, and the crossover of
    the interior-point methods from the Newton loop's hand-over point,
    reusing the factorizations the loop cached on ``ctx``. The working set
    holds level inequality rows pinned at their violation, which join the
    equalities as objective rows, and carried rows held tight. ``work``
    is the first one, a boolean mask over the level's inequality rows and
    then its carried rows: ``_residual_seed`` for an ``-asm`` method,
    ``_split_seed`` for the crossover. Each
    working set takes one equality-constrained least-squares step in the
    chain basis (``_working_set_step``). The ratio test over the rows
    outside the set stops the step at the first row it would violate, and
    that row joins the set. A full step ends at the set's minimizer, where
    the multipliers decide: ``-r`` for a pinned row, the transposed solve
    for a tight one. The most negative leaves the set, and none negative
    ends the level (Nocedal & Wright, *Numerical Optimization*, 2006,
    Alg. 16.3). From the first working set that repeats, the lowest-index
    negative row leaves instead (Bland's rule). Every join and leave is
    one ``asm_iterations``. The call may make ``budget`` of them, by
    default ``ASM_MAX_ITER`` and as many again per hundred level and
    carried rows; a call that needs one more ends at its last point, which
    is feasible, sub-converged.

    Returns (ctx, s, conv, norm, held). ``ctx`` is the level's context with
    the final pinned rows moved into its equality block, ``s`` the
    ``boundary_state`` at the last point and ``conv`` and ``norm`` the
    convergence test there. No Newton iteration runs. ``held`` is the last
    step's pair of RRQRs for the projections to reuse: (tight, fact), the
    final set's tight mask over the carried rows with their RRQR in the
    chain basis (None without any), and (rows, fact), the objective rows
    with their RRQR in the basis that the tight rows leave.
    """
    config, counters = ctx.config, ctx.counters
    m = ctx.m_ineq
    rows = np.vstack([ctx.a_ineq, ctx.a_inact])
    rhs = np.concatenate([ctx.b_ineq, ctx.b_inact])
    norms = np.linalg.norm(rows, axis=1)
    work = np.array(work, dtype=bool)
    if budget is None:
        budget = ASM_MAX_ITER * (100 + rhs.size) // 100
    end = counters.asm_iterations + budget
    seen, bland, spent = set(), False, False
    while True:
        key = work.tobytes()
        bland = bland or key in seen
        seen.add(key)
        x, p, (a, b, proj, a_fact), fact = _working_set_step(ctx, x, work[:m], work[m:])
        res = rows @ x - rhs
        ap = rows @ p
        scale = np.linalg.norm(x) + np.linalg.norm(p)
        falls = np.flatnonzero(~work & (ap < -FALL_TOL * scale * norms))
        ratios = np.maximum(res[falls], 0.0) / -ap[falls]
        alpha = min(1.0, float(ratios.min(initial=1.0)))
        x = x + alpha * p
        res = rows @ x - rhs
        lam = np.where(work, -res, 0.0)
        if fact is not None:
            lam[m:][work[m:]] = fact.solve_transpose_basic(proj.T @ (a @ x - b))
        if alpha < 1.0:
            change = int(falls[ratios.argmin()])
        else:
            leave = np.flatnonzero(work & (lam < -config.eps))
            if leave.size == 0:
                break
            change = int(leave[0] if bland else leave[lam[leave].argmin()])
        if counters.asm_iterations >= end:
            spent = True
            break
        work[change] = not work[change]
        counters.asm_iterations += 1

    pin = work[:m]
    if pin.any():
        keep = ~pin
        ctx = replace(
            ctx,
            a_eq=a,
            b_eq=b,
            proj_eq=proj,
            a_ineq=ctx.a_ineq[keep],
            b_ineq=ctx.b_ineq[keep],
            proj_ineq=ctx.proj_ineq[keep],
            stage1=None,
            eq_gram=None,
        )
    s = boundary_state(ctx, x, np.maximum(lam[m:], 0.0))
    conv, norm = converged(ctx, s, config.eps)
    return ctx, s, conv and not spent, norm, ((work[m:], fact), (a, a_fact))


def _working_set_step(ctx, x, pin, tight):
    """One working set's equality-constrained least-squares step from ``x``.

    The objective rows are the level's equalities and its ``pin`` rows. An
    RRQR of the ``tight`` carried rows in the chain basis gives a
    correction that puts them at their right-hand side and the null space
    the step keeps; an RRQR of the objective rows in that null space gives
    the basic least-squares step. Without tight rows the null space is the
    chain basis, and without pinned rows the objective's RRQR is the
    context's equality factorization. Returns (x, p, (a, b, proj, a_fact),
    fact): the corrected start, the step, the objective rows with their
    right-hand side, their projection into the chain basis and their RRQR
    in the null space of the tight rows, and the tight rows' RRQR (None
    without any).
    """
    a, b, proj = ctx.a_eq, ctx.b_eq, ctx.proj_eq
    if pin.any():
        a = np.vstack([a, ctx.a_ineq[pin]])
        b = np.concatenate([b, ctx.b_ineq[pin]])
        proj = np.vstack([proj, ctx.proj_ineq[pin]])
    if not tight.any():
        fact = ctx.equality_factorization() if a is ctx.a_eq else rrqr(
            proj, counter=ctx.counters, scale_rows=a
        )
        return x, ctx.basis @ fact.solve_basic(b - a @ x), (a, b, proj, fact), None
    c = ctx.a_inact[tight]
    fact = rrqr(ctx.proj_inact[tight], counter=ctx.counters, scale_rows=c)
    x = x + ctx.basis @ fact.solve_basic(ctx.b_inact[tight] - c @ x)
    free = rrqr(nullspace_update(proj, fact), counter=ctx.counters, scale_rows=a)
    p = ctx.basis.extended(fact) @ free.solve_basic(b - a @ x)
    return x, p, (a, b, proj, free), fact
