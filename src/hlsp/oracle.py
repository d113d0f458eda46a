"""Independent brute-force reference solvers.

These deliberately share no code with the solver: subproblems go through
pseudo-inverses on explicitly reduced systems and null spaces come from
the SVD. The cascade oracle enumerates, per level, every candidate set of
violated inequalities together with every candidate set of tight carried
rows, scores each feasible candidate by the true piecewise objective and
keeps the best. Exponential cost is accepted and guarded by a budget.
"""

from __future__ import annotations

import itertools

import numpy as np

from .problem import HlspProblem

PINV_CUTOFF = 1e-10
FEAS_TOL = 1e-9
# random points tried around each level's optimum, and their generator's seed
VERIFY_SAMPLES = 100
VERIFY_SEED = 0


class OracleBudgetExceeded(RuntimeError):
    pass


class OracleInconclusive(RuntimeError):
    """The enumeration cannot vouch for an answer.

    No candidate of some level passed the feasibility checks, or sampling
    found a better point than the best candidate. Rows whose norms span
    many decades within one pinned system can do this: the
    pseudo-inverse's relative cutoff then drops the small rows.
    """


def _null_space(a):
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    u, sv, vh = np.linalg.svd(a)
    if sv.size:
        rank = int(np.sum(sv > PINV_CUTOFF * sv[0]))
    else:
        rank = 0
    return vh[rank:].T


def _misses(a, b, x):
    """True when ``a x = b`` misses by more than FEAS_TOL relative to ``b``."""
    return np.linalg.norm(a @ x - b) > FEAS_TOL * max(1.0, np.linalg.norm(b))


def _constrained_lsq(a_obj, b_obj, a_pin, b_pin):
    """min ||a_obj x - b_obj|| s.t. a_pin x = b_pin, via pinv on the reduced system.

    Returns None when the pinned system is inconsistent.
    """
    n = a_obj.shape[1] if a_obj.size else a_pin.shape[1]
    if a_pin.shape[0]:
        x_p = np.linalg.pinv(a_pin, rcond=PINV_CUTOFF) @ b_pin
        if _misses(a_pin, b_pin, x_p):
            return None
        basis = _null_space(a_pin)
    else:
        x_p = np.zeros(n)
        basis = np.eye(n)
    if a_obj.shape[0] and basis.shape[1]:
        reduced = a_obj @ basis
        rhs = b_obj - a_obj @ x_p
        x = x_p + basis @ (np.linalg.pinv(reduced, rcond=PINV_CUTOFF) @ rhs)
        if a_pin.shape[0] and _misses(a_pin, b_pin, x):
            # a row the pins annihilate projects to rounding noise of its
            # own norm; next to much smaller rows the relative cut keeps
            # that noise, and the long step along it breaks the pins. Cut
            # relative to the largest objective row too.
            row_max = np.linalg.norm(a_obj, axis=1).max()
            rcond = PINV_CUTOFF * max(1.0, row_max / np.linalg.norm(reduced, 2))
            x = x_p + basis @ (np.linalg.pinv(reduced, rcond=rcond) @ rhs)
        return x
    return x_p


def _below(a, b, x):
    """Rows with ``a x - b`` below FEAS_TOL times the rounding scale of ``a @ x``.

    The scale is ``|a| @ |x|``, at least 1: a row of large norm that a
    point holds exactly still leaves a residual of about eps times it.
    """
    return a @ x - b < -FEAS_TOL * np.maximum(1.0, np.abs(a) @ np.abs(x))


def _true_objective(level, x):
    v_eq = level.equalities.matrix @ x - level.equalities.rhs
    v_ineq = np.minimum(level.inequalities.matrix @ x - level.inequalities.rhs, 0.0)
    return 0.5 * float(v_eq @ v_eq + v_ineq @ v_ineq)


def _tight_subsets(total, max_size):
    for size in range(min(total, max_size) + 1):
        yield from itertools.combinations(range(total), size)


def brute_force_cascade(problem: HlspProblem):
    """Lexicographic reference solution by exhaustive signature enumeration.

    Per level, each subset of the level's inequalities is a candidate
    violated set and each subset of the remaining inequality rows (the
    level's satisfied rows plus every carried row) a candidate tight set.
    Candidates must satisfy all pinned and carried constraints; the best
    true objective wins. Equalities and violated rows are then pinned at
    their optimal violations and the rest is carried.

    Returns (x_star, per-level violation vectors [v_eq, v_ineq]).
    """
    n = problem.n
    total_rows = sum(
        lv.equalities.m + lv.inequalities.m for lv in problem.levels
    )
    if n > 8 or total_rows > 24:
        raise OracleBudgetExceeded(
            f"instance too large for the oracle (n={n}, rows={total_rows})"
        )
    rng = np.random.default_rng(VERIFY_SEED)

    pinned_a = np.zeros((0, n))
    pinned_b = np.zeros(0)
    hard_a = np.zeros((0, n))
    hard_b = np.zeros(0)
    x_star = np.zeros(n)
    violations = []

    for level in problem.levels:
        a_eq, b_eq = level.equalities.matrix, level.equalities.rhs
        a_i, b_i = level.inequalities.matrix, level.inequalities.rhs
        m_i = a_i.shape[0]

        best = (np.inf, None)
        for violated in itertools.chain.from_iterable(
            itertools.combinations(range(m_i), size) for size in range(m_i + 1)
        ):
            violated = list(violated)
            rest = [j for j in range(m_i) if j not in violated]
            tight_pool_a = np.vstack([a_i[rest], hard_a])
            tight_pool_b = np.concatenate([b_i[rest], hard_b])
            a_obj = np.vstack([a_eq, a_i[violated]])
            b_obj = np.concatenate([b_eq, b_i[violated]])
            for tight in _tight_subsets(tight_pool_a.shape[0], n):
                a_pin = np.vstack([pinned_a, tight_pool_a[list(tight)]])
                b_pin = np.concatenate([pinned_b, tight_pool_b[list(tight)]])
                x = _constrained_lsq(a_obj, b_obj, a_pin, b_pin)
                if x is None:
                    continue
                if pinned_a.shape[0] and _misses(pinned_a, pinned_b, x):
                    continue
                if _below(hard_a, hard_b, x).any():
                    continue
                obj = _true_objective(level, x)
                if obj < best[0] - 1e-15:
                    best = (obj, x)
        if best[1] is None:
            raise OracleInconclusive("oracle found no feasible candidate")
        x_star = best[1]

        v_eq = a_eq @ x_star - b_eq
        r_i = a_i @ x_star - b_i
        v_i = np.minimum(r_i, 0.0)
        violations.append(np.concatenate([v_eq, v_i]))

        if n > 4:
            _verify_by_sampling(
                level, x_star, best[0], pinned_a, pinned_b, hard_a, hard_b, rng
            )

        pin_rows = r_i < -FEAS_TOL
        pinned_a = np.vstack([pinned_a, a_eq, a_i[pin_rows]])
        pinned_b = np.concatenate([pinned_b, b_eq + v_eq, b_i[pin_rows] + r_i[pin_rows]])
        hard_a = np.vstack([hard_a, a_i[~pin_rows]])
        hard_b = np.concatenate([hard_b, b_i[~pin_rows]])

    return x_star, violations


def _verify_by_sampling(level, x_star, obj, pinned_a, pinned_b, hard_a, hard_b, rng):
    """Rejection-sampling soundness check around the claimed optimum."""
    n = x_star.shape[0]
    basis = _null_space(pinned_a)
    if basis.shape[1] == 0:
        return
    for _ in range(VERIFY_SAMPLES):
        step = basis @ rng.normal(size=basis.shape[1]) * rng.uniform(0.01, 2.0)
        x = x_star + step
        if hard_a.shape[0] and np.min(hard_a @ x - hard_b) < 0.0:
            continue
        if _true_objective(level, x) < obj - 1e-7:
            raise OracleInconclusive(
                "sampling found a better feasible point than the oracle"
            )


def cascade_objectives(problem: HlspProblem, violations):
    return [0.5 * float(v @ v) for v in violations]


def lexicographic_lsq_equality(problem: HlspProblem):
    """Equality-only reference via sequential orthonormal null-space solves."""
    for idx, level in enumerate(problem.levels, start=1):
        if level.inequalities.m:
            raise ValueError(f"level {idx} has inequalities; equality-only oracle")
    n = problem.n
    x = np.zeros(n)
    basis = np.eye(n)
    for level in problem.levels:
        a, b = level.equalities.matrix, level.equalities.rhs
        if basis.shape[1] == 0:
            break
        if a.shape[0] == 0:
            continue
        reduced = a @ basis
        y = np.linalg.lstsq(reduced, b - a @ x, rcond=None)[0]
        x = x + basis @ y
        basis = basis @ _null_space(reduced)
    return x
