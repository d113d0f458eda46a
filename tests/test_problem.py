import itertools

import numpy as np
import pytest
import scipy.linalg

from hlsp.cascade import InvalidProblemError, solve_hlsp
from hlsp.config import METHODS, SolverConfig
from hlsp.fileio import (
    ProblemFormatError,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)
from hlsp.problem import (
    ConstraintBlock,
    HlspProblem,
    Level,
    bound_row_flags,
    random_hlsp,
    tag_bound_rows,
    validate_problem,
)


def make_problem(n, blocks):
    levels = []
    for a_e, b_e, a_i, b_i in blocks:
        levels.append(
            Level(
                equalities=ConstraintBlock(np.array(a_e).reshape(-1, n), b_e),
                inequalities=ConstraintBlock(np.array(a_i).reshape(-1, n), b_i),
            )
        )
    return HlspProblem(n=n, levels=tuple(levels))


class TestValidate:
    def test_minimal_problem_ok(self):
        p = make_problem(1, [([[1.0]], [1.0], np.zeros((0, 1)), [])])
        assert validate_problem(p) == []

    def test_column_mismatch_reported(self):
        level = Level(
            equalities=ConstraintBlock(np.zeros((2, 3)), np.zeros(2)),
            inequalities=ConstraintBlock(np.zeros((2, 4)), np.zeros(2)),
        )
        p = HlspProblem(n=3, levels=(level,))
        msgs = validate_problem(p)
        assert any("column count mismatch at level 1" in m for m in msgs)

    @pytest.mark.parametrize(
        "block,ncols",
        [(ConstraintBlock([], []), 0), (ConstraintBlock(np.zeros((0, 3)), []), 3)],
    )
    @pytest.mark.parametrize("method", METHODS)
    def test_empty_block_column_mismatch_reported(self, block, ncols, method):
        level = Level(ConstraintBlock(np.eye(2), np.ones(2)), inequalities=block)
        p = HlspProblem(n=2, levels=(level,))
        assert validate_problem(p) == [
            f"column count mismatch at level 1: inequality block has {ncols} "
            "columns, expected 2"
        ]
        with pytest.raises(InvalidProblemError, match="column count mismatch"):
            solve_hlsp(p, SolverConfig(method=method))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["A_e", "b_e", "A_i", "b_i"])
    def test_non_finite_entry_reported(self, where, bad):
        blocks = {"A_e": [[1.0, 0.0]], "b_e": [1.0], "A_i": [[0.0, 1.0]], "b_i": [0.0]}
        if where.startswith("A"):
            blocks[where] = [[bad, 1.0]]
        else:
            blocks[where] = [bad]
        p = make_problem(2, [tuple(blocks[k] for k in ("A_e", "b_e", "A_i", "b_i"))])
        name = "equality" if where.endswith("e") else "inequality"
        msgs = validate_problem(p)
        assert msgs == [f"non-finite entry at level 1: {name} block holds NaN or Inf"]
        with pytest.raises(InvalidProblemError):
            solve_hlsp(p)


class TestBoundTagging:
    @pytest.mark.parametrize(
        "row,expected",
        [
            ([0.0, -1.0, 0.0], True),
            ([1.0, 1.0, 0.0], False),
            ([0.0, 0.5, 0.0], False),
            ([0.0, 1.0, 0.0], True),
            ([0.0, 0.0, 0.0], False),
        ],
    )
    def test_detection(self, row, expected):
        assert bound_row_flags(np.array([row]))[0] == expected

    def test_tagging_is_idempotent(self):
        p = random_hlsp(4, 5, [(2, 3, 0, "mixed")])
        assert tag_bound_rows(p) is p

    def test_blocks_are_immutable(self):
        p = random_hlsp(4, 3, [(1, 1, 0, "feasible")])
        with pytest.raises(ValueError):
            p.levels[0].equalities.matrix[0, 0] = 5.0


def feasible_point_2d(a, b, radius=50.0):
    """Vertex enumeration plus grid search for A x - b >= 0 in two variables."""
    candidates = []
    m = a.shape[0]
    for i, j in itertools.combinations(range(m), 2):
        mat = np.array([a[i], a[j]])
        if abs(np.linalg.det(mat)) < 1e-12:
            continue
        candidates.append(np.linalg.solve(mat, np.array([b[i], b[j]])))
    grid = np.linspace(-radius, radius, 41)
    candidates.extend(np.array([u, v]) for u in grid for v in grid)
    for x in candidates:
        if np.all(a @ x - b >= -1e-9):
            return x
    return None


class TestGenerator:
    def test_deterministic_for_seed(self):
        p1 = random_hlsp(7, 4, [(2, 0, 0, "feasible")])
        p2 = random_hlsp(7, 4, [(2, 0, 0, "feasible")])
        assert np.array_equal(
            p1.levels[0].equalities.matrix, p2.levels[0].equalities.matrix
        )
        assert np.array_equal(p1.levels[0].equalities.rhs, p2.levels[0].equalities.rhs)

    def test_rank_deficiency_via_independent_rrqr(self):
        p = random_hlsp(1, 6, [(3, 0, 1, "feasible")])
        a = p.levels[0].equalities.matrix
        r = scipy.linalg.qr(a, mode="r", pivoting=True)[0]
        diag = np.abs(np.diag(r))
        rank = int(np.sum(diag > 1e-10 * diag.max()))
        assert rank == 2

    def test_infeasible_mode_has_no_feasible_point(self):
        p = random_hlsp(1, 2, [(0, 2, 0, "infeasible")])
        a = p.levels[0].inequalities.matrix
        b = p.levels[0].inequalities.rhs
        assert feasible_point_2d(a, b) is None

    def test_feasible_witness_strict(self):
        p = random_hlsp(11, 5, [(1, 3, 0, "feasible"), (0, 2, 0, "feasible")])
        x0 = p.witness_x0
        for level in p.levels:
            a, b = level.inequalities.matrix, level.inequalities.rhs
            if a.shape[0]:
                assert np.all(a @ x0 - b > 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_problems_validate(self, seed):
        specs = [(2, 2, 1, "mixed"), (1, 2, 0, "feasible"), (0, 2, 0, "infeasible")]
        p = random_hlsp(seed, 5, specs)
        assert validate_problem(p) == []

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            random_hlsp(0, 3, [(2, 0, 3, "feasible")])
        with pytest.raises(ValueError):
            random_hlsp(0, 3, [(1, 0, 0, "nonsense")])
        with pytest.raises(ValueError):
            random_hlsp(0, 2, [(0, 1, 0, "infeasible")])
        with pytest.raises(ValueError):
            random_hlsp(0, 2, [(-1, 0, 0, "feasible")])


class TestFileRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        p = random_hlsp(9, 4, [(2, 3, 1, "mixed"), (1, 1, 0, "feasible")])
        path = tmp_path / "problem.json"
        save_problem(p, path)
        q = load_problem(path)
        assert q.n == p.n and q.p == p.p
        for lp, lq in zip(p.levels, q.levels):
            assert np.array_equal(lp.equalities.matrix, lq.equalities.matrix)
            assert np.array_equal(lp.equalities.rhs, lq.equalities.rhs)
            assert np.array_equal(lp.inequalities.matrix, lq.inequalities.matrix)
            assert np.array_equal(lp.inequalities.rhs, lq.inequalities.rhs)

    def test_unknown_field_rejected(self):
        data = problem_to_dict(random_hlsp(2, 2, [(1, 0, 0, "feasible")]))
        data["extra"] = 1
        with pytest.raises(ProblemFormatError):
            problem_from_dict(data)

    def test_unknown_level_field_rejected(self):
        data = problem_to_dict(random_hlsp(2, 2, [(1, 0, 0, "feasible")]))
        data["levels"][0]["A_x"] = []
        with pytest.raises(ProblemFormatError):
            problem_from_dict(data)

    def test_shape_errors_rejected(self):
        data = {"n": 2, "levels": [{"A_e": [[1.0]], "b_e": [0.0], "A_i": [], "b_i": []}]}
        with pytest.raises(ProblemFormatError):
            problem_from_dict(data)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(ProblemFormatError):
            load_problem(path)
