"""The FOUND corpus: instances CHANGES.md records as solved wrongly.

Each ``found/*.json`` holds a problem and its ``brute_force_cascade``
objectives. A method that still misses one carries an xfail naming its
FOUND line; a strict one turns a fix into an XPASS, so the fix is seen.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hlsp.cascade import solve_hlsp
from hlsp.config import METHODS, SolverConfig
from hlsp.fileio import problem_from_dict
from hlsp.oracle import brute_force_cascade, cascade_objectives

CORPUS = Path(__file__).parent / "found"
# carried_pair: small_oracle seed 613 problem 55, whose level 2 has only the
# carried pair of level 1 as barrier rows; degenerate_vertex: ten rows
# through one point of R^4, a third of them doubled, as level 1, and three
# identity equalities with two mixed rows as level 2 (seed 7 of the
# degenerate-vertex family in CHANGES.md); three_carried_two_free:
# small_oracle seed 811 problem 142, whose level 3 carries three rows of
# level 2 into two free directions; the crossover's guessed working set
# holds all three tight and leaves two violated, so the interior-point
# methods solve that level again from its start; stalled_barrier:
# small_oracle seed 101 problem 62, whose level 2 ls-ipm runs to the
# iteration cap at KKT norms of 1.4 to 12, where an active-set step from an
# iterate whose pairs all look decisive ends sub-converged off the oracle;
# null_direction_drift: small_oracle seed 973 problem 197, whose level 1
# ls-ipm drifted to x of 5e15 along a null direction of its rows and missed
# the oracle by 1.64; huge_least_squares_step: small_oracle seed 0 problem
# 12, whose level 2 ls-ipm took a step of norm 5e16 and ran to the
# iteration cap. Both levels hold an inequality row and its negation
INSTANCES = (
    "row_and_multiple",
    "conflicting_pair",
    "scaled",
    "carried_pair",
    "degenerate_vertex",
    "three_carried_two_free",
    "stalled_barrier",
    "null_direction_drift",
    "huge_least_squares_step",
)
OBJECTIVE_TOL = 1e-6

SCALED_LEVEL_1 = "FOUND: on scaled.json nf-ipm's level-1 point is not optimal"

# (instance, method) -> (strict, reason)
MISSES = {
    ("scaled", "nf-ipm"): (True, SCALED_LEVEL_1),
    # classical falls back to the normal form on every level here
    ("scaled", "classical"): (True, SCALED_LEVEL_1),
    # the active-set solve misses level 1 by the same 0.015
    ("scaled", "nf-ipm-asm"): (True, SCALED_LEVEL_1),
    ("scaled", "ls-ipm-asm"): (True, SCALED_LEVEL_1),
}


def load(name):
    data = json.loads((CORPUS / f"{name}.json").read_text())
    return problem_from_dict(data["problem"]), data["objectives"]


def cases():
    for name in INSTANCES:
        for method in METHODS:
            miss = MISSES.get((name, method))
            marks = () if miss is None else pytest.mark.xfail(
                raises=AssertionError, strict=miss[0], reason=miss[1]
            )
            yield pytest.param(name, method, marks=marks, id=f"{name}-{method}")


@pytest.mark.parametrize("name", INSTANCES)
def test_stored_objectives_are_the_oracle(name):
    problem, objectives = load(name)
    expected = cascade_objectives(problem, brute_force_cascade(problem)[1])
    assert np.allclose(objectives, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name,method", cases())
def test_method_matches_the_oracle(name, method):
    problem, objectives = load(name)
    rep = solve_hlsp(problem, SolverConfig(method=method))
    assert np.allclose(rep.objectives, objectives, rtol=0.0, atol=OBJECTIVE_TOL)
