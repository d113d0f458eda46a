"""The scaled-fuzz family: random stacks, every third one badly scaled.

Seed s draws its shape from ``default_rng(10_000 + s)``: n in 2-30 and
1-4 levels of (m_e in 0-6, m_i in 0-2n, rank deficiency 0-1, a mode), the
data from ``random_hlsp(s, n, specs)``. A shape that ``random_hlsp``
refuses is skipped, which leaves 217 of seeds 0-299. On seeds with
``s % 3 == 2`` each level's inequality rows and right-hand sides are
scaled by ``10 ** uniform(-4, 4)`` per row. Every method must return
finite objectives on every problem (a leaked ``RuntimeWarning`` fails the
suite). Where the rows are not scaled, every method must agree with
``nf-ipm-asm``; where they are, which levels end sub-converged depends on
rounding. On every seed, no lower level may undo a higher one: each
level's objective at the final ``x`` must not exceed the one its report
holds.
"""

import numpy as np
import pytest

from hlsp.cascade import _level_objective, _residuals, solve_hlsp
from hlsp.config import SolverConfig
from hlsp.problem import ConstraintBlock, HlspProblem, Level, random_hlsp

MODES = ("feasible", "mixed", "infeasible")
IPM_METHODS = ("nf-ipm", "ls-ipm", "classical")
REFERENCE = "nf-ipm-asm"
# relative to the larger objective, and absolute below 1
OBJECTIVE_RTOL = 1e-6


def fuzz_problem(seed):
    """The family's problem for ``seed``, or None where its shape is refused."""
    rng = np.random.default_rng(10_000 + seed)
    n = int(rng.integers(2, 31))
    specs = [
        (
            int(rng.integers(0, 7)),
            int(rng.integers(0, 2 * n + 1)),
            int(rng.integers(0, 2)),
            MODES[rng.integers(0, 3)],
        )
        for _ in range(rng.integers(1, 5))
    ]
    try:
        problem = random_hlsp(seed, n, specs)
    except ValueError:
        return None
    if seed % 3 != 2:
        return problem
    levels = []
    for level in problem.levels:
        ineq = level.inequalities
        scale = 10.0 ** rng.uniform(-4, 4, ineq.m)
        scaled = ConstraintBlock(ineq.matrix * scale[:, None], ineq.rhs * scale)
        levels.append(Level(level.equalities, scaled))
    return HlspProblem(n=n, levels=tuple(levels))


SEEDS = [seed for seed in range(300) if fuzz_problem(seed) is not None]


def test_family_size():
    assert len(SEEDS) == 217
    assert sum(seed % 3 != 2 for seed in SEEDS) == 140


@pytest.mark.parametrize("seed", SEEDS)
def test_every_method_solves_the_problem(seed):
    problem = fuzz_problem(seed)
    ref = solve_hlsp(problem, SolverConfig(method=REFERENCE)).objectives
    assert np.isfinite(ref).all()
    for method in IPM_METHODS:
        objectives = solve_hlsp(problem, SolverConfig(method=method)).objectives
        assert np.isfinite(objectives).all(), method
        if seed % 3 == 2:
            continue
        for level, (got, want) in enumerate(zip(objectives, ref), start=1):
            scale = max(1.0, abs(got), abs(want))
            assert abs(got - want) <= OBJECTIVE_RTOL * scale, (method, level, got, want)


@pytest.mark.parametrize("method", (REFERENCE, *IPM_METHODS))
@pytest.mark.parametrize("seed", SEEDS)
def test_no_level_undoes_a_higher_one(seed, method):
    problem = fuzz_problem(seed)
    rep = solve_hlsp(problem, SolverConfig(method=method))
    for level, lv in zip(problem.levels, rep.levels):
        at_x = _level_objective(*_residuals(level, rep.x))[0]
        scale = max(1.0, abs(lv.objective))
        assert at_x - lv.objective <= OBJECTIVE_RTOL * scale, (lv.level, lv.objective, at_x)
