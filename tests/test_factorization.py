import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hlsp.factorization import (
    _trsolve,
    nullspace_basis,
    nullspace_update,
    rrqr,
    staged_rrqr,
)


def reference_rank(a, tol=1e-10):
    """Independent rank check through scipy's pivoted QR."""
    if min(a.shape) == 0:
        return 0
    r = scipy.linalg.qr(a, mode="r", pivoting=True)[0]
    diag = np.abs(np.diag(r))
    scale = np.max(np.linalg.norm(a, axis=0))
    if scale == 0:
        return 0
    return int(np.sum(diag > tol * scale))


class TestRrqr:
    def test_explicit_rank_one(self):
        f = rrqr(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert f.rank == 1
        assert abs(abs(f.r[0, 0]) - 1.0) < 1e-14
        assert list(f.perm) == [0, 1]

    def test_proportional_rows(self):
        f = rrqr(np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert f.rank == 1

    def test_known_rank_product(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (5, 2)) @ rng.uniform(-1, 1, (2, 8))
        f = rrqr(a)
        assert f.rank == 2
        err = np.linalg.norm(f.reconstruct() - a)
        assert err < 1e-10 * np.linalg.norm(a)

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6), (5, 5), (1, 7), (7, 1)])
    def test_reconstruction_random(self, shape):
        rng = np.random.default_rng(shape[0] * 17 + shape[1])
        a = rng.uniform(-1, 1, shape)
        f = rrqr(a)
        assert f.rank == reference_rank(a)
        assert np.linalg.norm(f.reconstruct() - a) < 1e-10 * np.linalg.norm(a)

    def test_empty_inputs(self):
        assert rrqr(np.zeros((0, 3))).rank == 0
        assert rrqr(np.zeros((3, 0))).rank == 0
        assert rrqr(np.zeros((3, 3))).rank == 0

    def test_absolute_floor_rejects_noise(self):
        # relative to its own scale a block of rounding noise is full rank
        a = 1e-17 * np.random.default_rng(17).uniform(-1, 1, (2, 4))
        assert rrqr(a).rank == 2
        # against the scale of unit rows the floor is 1e-10
        unit_rows = np.eye(2, 4)
        assert rrqr(a, scale_rows=unit_rows).rank == 0
        assert rrqr(1e10 * a, scale_rows=unit_rows).rank == 2

    def test_tiny_scale_rank(self):
        # squared entries underflow; the rank scale must not
        assert rrqr(np.full((5, 6), 1e-200)).rank == 1

    def test_diagonal_dominance_of_pivots(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(-1, 1, (8, 6))
        a[:, 3] = 1e-13 * a[:, 0]
        f = rrqr(a)
        diag = np.abs(np.diag(f.r))
        assert np.all(diag > f.tol * np.max(diag) - 1e-300)


class TestNullspaceBasis:
    def test_coordinate_nullspace(self):
        f = rrqr(np.array([[1.0, 0.0, 0.0]]))
        z = nullspace_basis(f)
        assert z.shape == (3, 2)
        expected = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(z, expected)

    def test_full_rank_empty_nullspace(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (3, 3))
        z = nullspace_basis(rrqr(a))
        assert z.shape == (3, 0)

    def test_random_wide(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(-1, 1, (2, 5))
        f = rrqr(a)
        z = nullspace_basis(f)
        assert z.shape == (5, 3)
        assert np.linalg.norm(a @ z) < 1e-10 * np.linalg.norm(a) * np.linalg.norm(z)
        assert reference_rank(z) == 3

    def test_identity_block_structure(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, (3, 7))
        f = rrqr(a)
        z = nullspace_basis(f)
        block = z[f.perm[f.rank :], :]
        assert np.array_equal(block, np.eye(7 - f.rank))


class TestNullspaceUpdate:
    @pytest.mark.parametrize("rank", [0, 2, 4])
    def test_equals_product_with_formed_basis(self, rank):
        rng = np.random.default_rng(rank + 40)
        basis = rng.uniform(-1, 1, (6, 4))
        f = rrqr(rng.uniform(-1, 1, (5, rank)) @ rng.uniform(-1, 1, (rank, 4)))
        assert f.rank == rank
        out = nullspace_update(basis, f)
        dense = basis @ nullspace_basis(f)
        assert out.shape == (6, 4 - rank)
        assert np.allclose(out, dense, rtol=0, atol=1e-14)


class TestBasicSolution:
    def test_square_full_rank(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, 4)
        x = rrqr(a).solve_basic(b)
        assert np.linalg.norm(a @ x - b) < 1e-10

    def test_basic_solution_has_zero_free_component(self):
        f = rrqr(np.array([[1.0, 1.0]]))
        x = f.solve_basic(np.array([2.0]))
        assert np.count_nonzero(x) == 1
        assert abs(x.sum() - 2.0) < 1e-12

    def test_overdetermined_matches_normal_equations(self):
        rng = np.random.default_rng(15)
        a = rng.uniform(-1, 1, (6, 3))
        b = rng.uniform(-1, 1, 6)
        x = rrqr(a).solve_basic(b)
        x_ref = np.linalg.solve(a.T @ a, a.T @ b)
        res = np.linalg.norm(a @ x - b)
        res_ref = np.linalg.norm(a @ x_ref - b)
        assert abs(res - res_ref) < 1e-8 * max(res_ref, 1.0)

    def test_solve_transpose_basic(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(-1, 1, (3, 5))
        f = rrqr(a)
        lam_true = rng.uniform(-1, 1, 3)
        c = a.T @ lam_true
        lam = f.solve_transpose_basic(c)
        assert np.allclose(a.T @ lam, c, atol=1e-10)


def eliminate_column(col):
    """Zero col[1:] against col[0] as stage 2 of a staged factorization."""
    col = np.asarray(col, dtype=float)
    return staged_rrqr(col[1:, None], rrqr(col[:1, None]))


class TestSparseColumnElimination:
    def test_boundary_is_householder(self):
        # a half-dense column takes the one reflector path
        staged = eliminate_column(np.array([1.0, 1.0, 0.0, 1.0, 0.0, 0.0]))
        assert (staged.givens_columns, staged.householder_columns) == (0, 1)

    def test_fully_dense_is_householder(self):
        staged = eliminate_column(np.ones(5))
        assert (staged.givens_columns, staged.householder_columns) == (0, 1)

    def test_both_paths_zero_the_column(self):
        # a dense and a bound-like sparse column take the same reflector
        rng = np.random.default_rng(19)
        sparse = np.zeros(6)
        sparse[0], sparse[3] = 2.0, -1.0
        for col in (rng.uniform(-1, 1, 6), sparse):
            staged = eliminate_column(col)
            out = staged.stage23.apply_transpose(
                np.concatenate([staged.stage1.r[:, 0], col[1:]])
            )
            assert np.linalg.norm(out[1:]) < 1e-12
            assert abs(abs(out[0]) - np.linalg.norm(col)) < 1e-12


def dense_ls_residual(stack, rhs):
    x = np.linalg.lstsq(stack, rhs, rcond=None)[0]
    return np.linalg.norm(stack @ x - rhs)


class TestStagedRrqr:
    def test_empty_top_block_matches_stage1(self):
        rng = np.random.default_rng(23)
        a = rng.uniform(-1, 1, (4, 6))
        s1 = rrqr(a)
        staged = staged_rrqr(np.zeros((0, 6)), s1)
        rhs = rng.uniform(-1, 1, 4)
        x_staged = staged.solve_basic(np.zeros(0), rhs)
        x_direct = s1.solve_basic(rhs)
        assert np.allclose(x_staged, x_direct, atol=1e-12)

    def test_identity_bottom_matches_dense(self):
        a = np.eye(3)
        b = np.array([[1.0, 1.0, 1.0]])
        staged = staged_rrqr(b, rrqr(a))
        rhs_top = np.array([3.0])
        rhs_bottom = np.zeros(3)
        x = staged.solve_basic(rhs_top, rhs_bottom)
        stack = np.vstack([b, a])
        x_ref = np.linalg.lstsq(stack, np.concatenate([rhs_top, rhs_bottom]), rcond=None)[0]
        assert np.allclose(x, x_ref, atol=1e-10)

    def test_random_residual_agreement(self):
        rng = np.random.default_rng(25)
        b = rng.uniform(-1, 1, (4, 6))
        a = rng.uniform(-1, 1, (2, 6))
        staged = staged_rrqr(b, rrqr(a))
        rhs_top = rng.uniform(-1, 1, 4)
        rhs_bottom = rng.uniform(-1, 1, 2)
        x = staged.solve_basic(rhs_top, rhs_bottom)
        stack = np.vstack([b, a])
        rhs = np.concatenate([rhs_top, rhs_bottom])
        res = np.linalg.norm(stack @ x - rhs)
        res_ref = dense_ls_residual(stack, rhs)
        assert abs(res - res_ref) < 1e-8 * max(1.0, res_ref)

    @pytest.mark.parametrize("seed", range(20))
    def test_residual_agreement_sweep(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = rng.integers(1, 13)
        m_a = rng.integers(0, n + 3)
        m_b = rng.integers(0, 9)
        a = rng.uniform(-1, 1, (m_a, n))
        b = rng.uniform(-1, 1, (m_b, n))
        if seed % 3 == 0 and m_b >= 2:
            # bound-like sparse rows, as the barrier rows of bounds
            b[: m_b // 2] = 0.0
            for i in range(m_b // 2):
                b[i, rng.integers(0, n)] = rng.choice([-1.0, 1.0])
        staged = staged_rrqr(b, rrqr(a))
        rhs = rng.uniform(-1, 1, m_a + m_b)
        x = staged.solve_basic(rhs[:m_b], rhs[m_b:])
        stack = np.vstack([b, a])
        res = np.linalg.norm(stack @ x - rhs)
        res_ref = dense_ls_residual(stack, rhs)
        assert abs(res - res_ref) < 1e-8 * max(1.0, res_ref)

    def test_householder_used_for_dense_columns(self):
        rng = np.random.default_rng(27)
        a = rng.uniform(-1, 1, (2, 4))
        b = rng.uniform(-1, 1, (5, 4))
        staged = staged_rrqr(b, rrqr(a))
        assert staged.householder_columns > 0
        assert staged.givens_columns == 0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            staged_rrqr(np.zeros((2, 5)), rrqr(np.zeros((2, 4))))

    def test_givens_vs_householder_solutions_match(self):
        rng = np.random.default_rng(29)
        a = rng.uniform(-1, 1, (3, 8))
        b = np.zeros((10, 8))
        for i in range(10):
            b[i, rng.integers(0, 8)] = rng.choice([-1.0, 1.0])
        rhs = rng.uniform(-1, 1, 13)
        stack = np.vstack([b, a])
        x_sparse = staged_rrqr(b, rrqr(a)).solve_basic(rhs[:10], rhs[10:])
        x_dense = rrqr(stack).solve_basic(rhs)
        r_sparse = np.linalg.norm(stack @ x_sparse - rhs)
        r_dense = np.linalg.norm(stack @ x_dense - rhs)
        assert abs(r_sparse - r_dense) < 1e-10 * max(1.0, r_dense)


PROPERTY = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)
entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)


def matrices(min_rows=0, min_cols=0):
    shape = st.tuples(st.integers(min_rows, 9), st.integers(min_cols, 9))
    return hnp.arrays(float, shape, elements=entries)


def separated_rank_product(seed, m, k, rank):
    """m x k product U @ V of exact rank with singular values in [1, 2]."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((m, rank)))[0]
    v = np.linalg.qr(rng.standard_normal((k, rank)))[0]
    return (u * rng.uniform(1.0, 2.0, rank)) @ v.T


def bound_rows(rng, m, n):
    """Rows with a single +-1 entry, as the bound rows of a level."""
    b = np.zeros((m, n))
    b[np.arange(m), rng.integers(0, n, m)] = rng.choice([-1.0, 1.0], m)
    return b


def assert_lstsq_residual(staged, b, a, rng):
    m_b = b.shape[0]
    rhs = rng.uniform(-1, 1, m_b + a.shape[0])
    x = staged.solve_basic(rhs[:m_b], rhs[m_b:])
    stack = np.vstack([b, a])
    res_ref = dense_ls_residual(stack, rhs)
    assert abs(np.linalg.norm(stack @ x - rhs) - res_ref) < 1e-8 * max(1.0, res_ref)


def safe_norm(x):
    """Frobenius norm that does not underflow on tiny entries."""
    s = float(np.max(np.abs(x), initial=0.0))
    return s * float(np.linalg.norm(x / s)) if s else 0.0


class TestKernelProperties:
    @PROPERTY
    @given(matrices())
    def test_rrqr_reconstructs(self, a):
        f = rrqr(a)
        assert safe_norm(f.reconstruct() - a) <= 1e-8 * safe_norm(a)

    @PROPERTY
    @given(seeds, st.integers(1, 12), st.integers(1, 12), st.data())
    def test_rank_of_separated_product(self, seed, m, k, data):
        rank = data.draw(st.integers(0, min(m, k)))
        assert rrqr(separated_rank_product(seed, m, k, rank)).rank == rank

    @PROPERTY
    @given(matrices())
    def test_nullspace_basis_annihilates(self, a):
        f = rrqr(a)
        z = nullspace_basis(f)
        assert z.shape[1] == a.shape[1] - f.rank
        bound = 1e-8 * safe_norm(a) * max(1.0, safe_norm(z))
        assert safe_norm(a @ z) <= bound

    @PROPERTY
    @given(seeds, st.integers(2, 10), st.integers(1, 8), st.integers(3, 12), st.integers(0, 3))
    def test_ortho_transform_round_trip(self, seed, n, m_a, m_b, ncols):
        # stages 2 and 3 over bound rows: one reflector block each, on the
        # whole stack and on the rows below the stage-1 factor
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (m_a, n))
        q = staged_rrqr(bound_rows(rng, m_b, n), rrqr(a)).stage23
        for b in (rng.uniform(-1, 1, q.m), rng.uniform(-1, 1, (q.m, ncols))):
            assert np.allclose(q.apply(q.apply_transpose(b)), b, atol=1e-12)
            assert np.allclose(q.apply_transpose(q.apply(b)), b, atol=1e-12)

    @PROPERTY
    @given(seeds, st.integers(1, 10), st.integers(0, 8), st.integers(1, 8))
    def test_staged_dense_stack_matches_lstsq(self, seed, n, m_a, m_b):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (m_a, n))
        b = rng.uniform(-1, 1, (m_b, n))
        staged = staged_rrqr(b, rrqr(a))
        assert staged.givens_columns == 0
        assert_lstsq_residual(staged, b, a, rng)

    @PROPERTY
    @given(seeds, st.integers(1, 10), st.integers(0, 8), st.integers(3, 12))
    def test_staged_bound_rows_match_lstsq(self, seed, n, m_a, m_b):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1, 1, (m_a, n))
        b = bound_rows(rng, m_b, n)
        staged = staged_rrqr(b, rrqr(a))
        assert_lstsq_residual(staged, b, a, rng)

    @PROPERTY
    @given(seeds, st.integers(4, 8), st.integers(4, 12))
    def test_staged_dense_then_sparse_columns_match_lstsq(self, seed, n, m_b):
        rng = np.random.default_rng(seed)
        # bound rows behind a dense first column, over a diagonal A: however
        # sparse the columns, stage 2 is one xGEQRF block and stage 3 one
        # xGEQP3 block
        a = np.diag(np.arange(n, 0, -1.0))
        b = bound_rows(rng, m_b, n)
        b[:, 0] = rng.uniform(0.5, 1.0, m_b)
        staged = staged_rrqr(b, rrqr(a))
        assert len(staged.stage23.ops) <= 2
        assert all(isinstance(rows, slice) for rows, _, _ in staged.stage23.ops)
        assert_lstsq_residual(staged, b, a, rng)


class TestTriangularSolve:
    """The direct xTRTRS call against ``scipy.linalg.solve_triangular``."""

    @staticmethod
    def triangle(k, order, seed=0):
        rng = np.random.default_rng(seed)
        r = np.triu(rng.uniform(-1, 1, (k, k))) + 3.0 * np.eye(k)
        return np.asarray(r, order=order)

    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rhs_shape", [(6,), (6, 1), (6, 4), (6, 0)])
    def test_bit_identical_to_scipy(self, trans, order, rhs_shape):
        r = self.triangle(6, order)
        b = np.random.default_rng(1).uniform(-1, 1, rhs_shape)
        got = _trsolve(r, b, trans=trans)
        want = scipy.linalg.solve_triangular(r, b, trans=trans)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_strided_views_bit_identical(self):
        # neither C- nor F-contiguous: a slice of a larger factor
        r = self.triangle(8, "C")[::2, ::2]
        b = np.arange(4.0)
        for trans in ("N", "T"):
            want = scipy.linalg.solve_triangular(r, b, trans=trans)
            assert _trsolve(r, b, trans=trans).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["r", "b"])
    def test_non_finite_input_raises(self, bad, where):
        r = self.triangle(4, "C")
        b = np.ones(4)
        if where == "r":
            r[1, 2] = bad
        else:
            b[1] = bad
        with pytest.raises(ValueError):
            _trsolve(r, b)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_zero_pivot_raises(self, order, trans):
        r = self.triangle(4, "C")
        r[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
            _trsolve(np.asarray(r, order=order), np.ones(4), trans=trans)
