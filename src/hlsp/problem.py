"""Problem data model, validation and synthetic problem generation.

A problem is an ordered stack of priority levels over n shared variables.
Each level carries an equality block (A x - b = v) and an inequality block
with the convention A x - b >= 0 for feasibility. A block is its matrix
and right-hand side alone: bound rows (exactly one nonzero, of magnitude
one) are recognised from the matrix by ``bound_row_flags`` where the
cascade merges them; two-sided bounds are two rows. Instances are
immutable after construction and safe to share across solver instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .factorization import rrqr


def bound_row_flags(matrix):
    """True per row iff the row has exactly one nonzero of magnitude 1."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        return np.zeros(matrix.shape[0], dtype=bool)
    nnz = np.count_nonzero(matrix, axis=1)
    maxabs = np.max(np.abs(matrix), axis=1, initial=0.0)
    return (nnz == 1) & (maxabs == 1.0)


def _lock(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ConstraintBlock:
    """One m x n constraint block with its right-hand side."""

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        matrix = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if matrix.size == 0:
            matrix = matrix.reshape(0, matrix.shape[1] if matrix.ndim == 2 else 0)
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        object.__setattr__(self, "matrix", _lock(matrix))
        object.__setattr__(self, "rhs", _lock(rhs))

    @classmethod
    def empty(cls, n):
        return cls(np.zeros((0, n)), np.zeros(0))

    @property
    def m(self):
        return self.matrix.shape[0]

    @property
    def ncols(self):
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Level:
    """One priority level: an equality block and an inequality block."""

    equalities: ConstraintBlock
    inequalities: ConstraintBlock


@dataclass(frozen=True)
class HlspProblem:
    """Ordered priority levels over n shared variables (levels 1..p)."""

    n: int
    levels: tuple
    witness_x0: np.ndarray = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.witness_x0 is not None:
            object.__setattr__(self, "witness_x0", _lock(self.witness_x0))

    @property
    def p(self):
        return len(self.levels)


def validate_problem(problem: HlspProblem):
    """Check every type invariant; returns a list of violations (empty = ok)."""
    violations = []
    if problem.p < 1:
        violations.append("problem has no levels (p >= 1 required)")
    if problem.n < 1:
        violations.append(f"variable count {problem.n} < 1")
    for idx, level in enumerate(problem.levels, start=1):
        for name, block in (("equality", level.equalities), ("inequality", level.inequalities)):
            if block.ncols != problem.n:
                violations.append(
                    f"column count mismatch at level {idx}: {name} block has "
                    f"{block.ncols} columns, expected {problem.n}"
                )
            if block.rhs.shape[0] != block.m:
                violations.append(
                    f"rhs length mismatch at level {idx}: {name} block has "
                    f"{block.m} rows but rhs length {block.rhs.shape[0]}"
                )
            if not (np.isfinite(block.matrix).all() and np.isfinite(block.rhs).all()):
                violations.append(
                    f"non-finite entry at level {idx}: {name} block holds NaN or Inf"
                )
    return violations


def tag_bound_rows(problem: HlspProblem):
    """Return ``problem`` unchanged.

    Bound rows need no tag: the inactive carry recognises them from the
    matrix with ``bound_row_flags``. The pass stays only because the
    benchmark's per-layer metrics time it; ROADMAP item 1 drops that span
    and frees the function for deletion.
    """
    return problem


FEASIBILITY_MODES = ("feasible", "infeasible", "mixed")


def _rank_deficient_block(rng, m, n, deficiency):
    """Random m x n block of rank m - deficiency (verified)."""
    base = m - deficiency
    a = np.zeros((m, n))
    if base > 0:
        a[:base] = rng.uniform(-1.0, 1.0, (base, n))
    for r in range(base, m):
        coeffs = rng.uniform(-1.0, 1.0, base) if base > 0 else np.zeros(0)
        a[r] = coeffs @ a[:base] if base > 0 else 0.0
    got = rrqr(a).rank
    if got != base:
        raise RuntimeError(f"generator produced rank {got}, wanted {base}")
    return a


def random_hlsp(seed, n, level_specs):
    """Deterministic random problem from per-level (m_e, m_i, rank_deficiency, mode).

    Feasible levels are built around a shared witness point that satisfies
    their inequalities strictly; infeasible levels contain contradictory
    inequality row pairs so no point satisfies them; mixed levels violate
    roughly half their rows at the witness without a guarantee either way.
    """
    if n < 1:
        raise ValueError(f"variable count {n} < 1")
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-1.0, 1.0, n)
    levels = []
    for spec_idx, spec in enumerate(level_specs, start=1):
        m_e, m_i, deficiency, mode = spec
        if m_e < 0 or m_i < 0:
            raise ValueError(f"level {spec_idx}: negative row count")
        if deficiency < 0 or deficiency > min(m_e, n):
            raise ValueError(
                f"level {spec_idx}: rank_deficiency {deficiency} outside "
                f"[0, min(m_e, n)] = [0, {min(m_e, n)}]"
            )
        if m_e - deficiency > n:
            raise ValueError(
                f"level {spec_idx}: target rank {m_e - deficiency} exceeds n={n}"
            )
        if mode not in FEASIBILITY_MODES:
            raise ValueError(f"level {spec_idx}: unknown feasibility mode {mode!r}")

        a_e = _rank_deficient_block(rng, m_e, n, deficiency)
        b_e = rng.uniform(-1.0, 1.0, m_e)

        a_i = rng.uniform(-1.0, 1.0, (m_i, n))
        b_i = np.zeros(m_i)
        if mode == "feasible":
            margins = rng.uniform(0.1, 1.0, m_i)
            b_i = a_i @ x0 - margins
        elif mode == "infeasible":
            if m_i < 2:
                raise ValueError(
                    f"level {spec_idx}: infeasible mode needs at least 2 "
                    f"inequality rows"
                )
            for pair in range(m_i // 2):
                r = 2 * pair
                row = rng.uniform(-1.0, 1.0, n)
                gap = rng.uniform(0.5, 1.5)
                a_i[r] = row
                a_i[r + 1] = -row
                beta = row @ x0
                b_i[r] = beta
                b_i[r + 1] = -beta + gap
            if m_i % 2 == 1:
                b_i[m_i - 1] = a_i[m_i - 1] @ x0 - rng.uniform(0.1, 1.0)
        else:
            margins = rng.uniform(0.1, 1.0, m_i)
            flips = rng.uniform(size=m_i) < 0.5
            b_i = a_i @ x0 + np.where(flips, margins, -margins)

        levels.append(
            Level(
                equalities=ConstraintBlock(a_e.reshape(m_e, n), b_e),
                inequalities=ConstraintBlock(a_i.reshape(m_i, n), b_i),
            )
        )
    return HlspProblem(n=n, levels=tuple(levels), witness_x0=x0)
