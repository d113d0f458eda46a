"""Hierarchical least-squares programs solved by a null-space interior point.

A problem is a stack of prioritized least-squares levels under linear
equality and inequality constraints. Levels are resolved in order, each
in the null space of everything already decided, so lower levels cannot
disturb higher ones. A level with inequality or carried rows runs a
primal-dual interior-point Newton loop, and a primal active-set step
finishes it on a checked active set; the ``-asm`` methods run that step
alone, on every level. A level of equalities only is otherwise linear: a
basic least-squares step on one rank-revealing QR solves it, or
``classical``'s range-space step where that method keeps its own form.
Each solved level pins its active rows, which extend the null-space
chain for the levels below.
"""

from .cascade import (
    CascadeState,
    InvalidProblemError,
    LevelReport,
    NullSpaceChain,
    SolveReport,
    hybrid_solve,
    solve_hlsp,
)
from .config import SolverConfig
from .fileio import ProblemFormatError, load_problem, save_problem
from .newton import MethodNotApplicable
from .oracle import (
    OracleBudgetExceeded,
    brute_force_cascade,
    cascade_objectives,
    lexicographic_lsq_equality,
)
from .problem import (
    ConstraintBlock,
    HlspProblem,
    Level,
    random_hlsp,
    tag_bound_rows,
    validate_problem,
)

__version__ = "0.1.0"

__all__ = [
    "CascadeState",
    "ConstraintBlock",
    "HlspProblem",
    "InvalidProblemError",
    "Level",
    "LevelReport",
    "MethodNotApplicable",
    "NullSpaceChain",
    "OracleBudgetExceeded",
    "ProblemFormatError",
    "SolveReport",
    "SolverConfig",
    "brute_force_cascade",
    "cascade_objectives",
    "hybrid_solve",
    "lexicographic_lsq_equality",
    "load_problem",
    "random_hlsp",
    "save_problem",
    "solve_hlsp",
    "tag_bound_rows",
    "validate_problem",
]
