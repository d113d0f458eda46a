"""Rank-revealing QR and Cholesky kernels, and null-space bases.

Q factors are never formed explicitly. They are kept as a sequence of
LAPACK compact-reflector blocks, the ``(v, tau)`` output of xGEQRF or
xGEQP3 that one xORMQR call applies. Plain RRQR is xGEQP3, the BLAS-3
column-pivoted QR of Quintana-Orti, Sun & Bischof (1998). The staged
factorization reuses a constant bottom block that was factorized once and
only refactorizes the rows stacked on top of it, in at most two LAPACK
calls: one xGEQRF of the stack's leading columns, all of them where it has
no more columns than rows and else those the retained factor already
pivoted, then, unless that shows full column rank beyond doubt, one
xGEQP3 of the trailing block it leaves. The Cholesky kernels
factor symmetric matrices: xPOTRF a positive definite one, such as the
reduced Hessian of a full-rank normal-form step or the range-space
step's quadratic term, and xPSTRF, the pivoted Cholesky of Higham (2002,
ch. 10), a semidefinite one up to its numerical rank. Both unpivoted
kernels keep a factor only where every squared pivot is above a share of
the largest diagonal entry of ``H = R^T R`` (``UNPIVOTED`` for a Newton
step), so a normal-form H and its least-squares stack pass the same test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgeqp3, dgeqrf, dormqr, dpotrf, dpstrf, dtrtrs

DEFAULT_RANK_TOL = 1e-10
# an unpivoted factor of a Newton step is kept only where every squared
# pivot R_jj^2 is above this share of the largest squared column norm of
# the stack, the largest diagonal entry of H = R^T R
UNPIVOTED = 1e-10
# LAPACK block size assumed when sizing work arrays
_NB = 32


class NonFiniteError(ValueError):
    """A triangular solve met an Inf or a NaN, in the factor or the right side."""


class OrthoTransform:
    """Product of orthogonal row operations on m rows.

    Operations are compact-reflector blocks ``(rows, v, tau)``, each acting
    on the contiguous row range that the slice ``rows`` selects, stored in
    application order for Q^T. Applying Q runs them backwards.
    """

    def __init__(self, m):
        self.m = m
        self.ops = []

    def add_reflectors(self, rows, v, tau):
        self.ops.append((rows, v, tau))

    def _run(self, b, trans):
        b = np.asarray(b, dtype=float)
        out = np.array(b[:, None] if b.ndim == 1 else b, order="F")
        for rows, v, tau in self.ops if trans == "T" else reversed(self.ops):
            out[rows] = _ormqr(trans, v, tau, out[rows])
        return out[:, 0] if b.ndim == 1 else out

    def apply_transpose(self, b):
        """Return Q^T b for a vector or matrix with m rows."""
        return self._run(b, "T")

    def apply(self, b):
        """Return Q b for a vector or matrix with m rows."""
        return self._run(b, "N")


def _ormqr(trans, v, tau, c):
    """Q^T c (``trans`` "T") or Q c for the compact reflectors (v, tau)."""
    lwork = _NB * max(1, c.shape[1])
    return dormqr("L", trans, v, tau, c, lwork, overwrite_c=1)[0]


def _trsolve(r, b, trans="N"):
    """R x = b (``trans`` "N") or R^T x = b for upper-triangular R (xTRTRS).

    The LAPACK call and its C/F-order branch are those of
    ``scipy.linalg.solve_triangular``, so results are bit-identical, without
    its validation layer, which costs more than the solve at these sizes.
    Its errors are kept: a ValueError on NaN/Inf (``NonFiniteError``, so
    the Newton loop can tell it from others), LinAlgError on a zero pivot.
    """
    # np.isfinite(r).all() and np.isfinite(b).all(), without ndarray.all's dispatch
    finite = np.count_nonzero(np.isfinite(r)) + np.count_nonzero(np.isfinite(b))
    if finite < r.size + b.size:
        raise NonFiniteError("array must not contain infs or NaNs")
    t = int(trans == "T")
    if r.flags.f_contiguous:
        x, info = dtrtrs(r, b, lower=0, trans=t)
    else:
        x, info = dtrtrs(r.T, b, lower=1, trans=1 - t)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


@functools.lru_cache(maxsize=64)
def _below_diagonal(rows, cols):
    """Read-only mask of the entries below the main diagonal."""
    mask = np.tri(rows, cols, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _zero_below_diagonal(a):
    """Zero the strict lower triangle of ``a`` in place; ``np.triu``'s values."""
    rows, cols = a.shape
    if rows > 1 and cols > 0:
        a[_below_diagonal(rows, cols)] = 0.0
    return a


def _geqp3(a, tol, floor=0.0):
    """Column-pivoted QR of a nonempty matrix with rank detection.

    Returns (qr, 0-based perm, tau, rank). ``rank`` counts the leading
    |R_jj| above both ``tol * |R_00|`` and the absolute ``floor``; |R_00| is
    the largest column norm, which LAPACK computes without the underflow of
    squaring tiny entries.
    """
    k = a.shape[1]
    qr, jpvt, tau, _, _ = dgeqp3(a, lwork=2 * k + (k + 1) * _NB)
    above = np.abs(qr.diagonal()) > max(tol * float(abs(qr[0, 0])), floor)
    rank = int(above.size if above.all() else np.argmin(above))
    return qr, np.subtract(jpvt, 1, dtype=int), tau, rank


@dataclass
class Rrqr:
    """Column-pivoted QR with rank detection.

    A @ P = Q @ [[R, T], [0, 0]]. ``perm`` holds the pivot order: column j
    of A @ P is A[:, perm[j]]. ``rank`` counts the diagonal entries of R
    that survived the relative tolerance against the largest initial
    column norm and the absolute floor.
    """

    q: OrthoTransform
    r: np.ndarray
    t: np.ndarray
    perm: np.ndarray
    rank: int
    shape: tuple

    @property
    def ncols(self):
        return self.shape[1]

    @functools.cached_property
    def r_inv_t(self):
        """``R^-1 T``, the pivot columns' weights on the free ones; solved once."""
        if not self.t.size:
            return np.zeros(self.t.shape)
        return _trsolve(self.r, self.t)

    def reconstruct(self):
        m, k = self.shape
        block = np.zeros((m, k))
        block[: self.rank, : self.rank] = self.r
        block[: self.rank, self.rank :] = self.t
        out = np.empty((m, k))
        out[:, self.perm] = self.q.apply(block)
        return out

    def solve_basic(self, rhs):
        """Basic least-squares solution: permuted free variables at zero.

        Accepts a vector or a matrix of stacked right-hand sides.
        """
        m, k = self.shape
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != m:
            raise ValueError(f"rhs length {rhs.shape[0]} != row count {m}")
        x = np.zeros((k,) + rhs.shape[1:])
        if self.rank > 0:
            c = self.q.apply_transpose(rhs)[: self.rank]
            x[self.perm[: self.rank]] = _trsolve(self.r, c)
        return x

    def solve_transpose_basic(self, c):
        """Basic solution of (A P)^T-shaped system A^T lam = c.

        Forward-substitutes R^T over the leading ``rank`` permuted
        components of c; the orthogonal complement of the row space is
        left at zero.
        """
        lam = np.zeros(self.shape[0])
        if self.rank == 0:
            return lam
        c1 = np.asarray(c, dtype=float)[self.perm[: self.rank]]
        lam[: self.rank] = _trsolve(self.r, c1, trans="T")
        return self.q.apply(lam)


def rrqr(matrix, tol=DEFAULT_RANK_TOL, counter=None, scale_rows=None):
    """Column-pivoted QR (LAPACK xGEQP3) with rank detection.

    Rank is the number of leading pivots |R_jj| above ``tol`` times the
    largest initial column norm. A block projected into a null-space basis
    passes its unprojected rows as ``scale_rows``, and its pivots must then
    also exceed the floor ``tol`` times the largest row norm of those rows:
    relative to its own scale, a block of rounding noise would count as
    full rank. Where the squared row norms overflow, the floor is taken on
    the rows scaled by their largest entry, so huge rows keep their rank.
    Empty inputs yield rank 0.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, k = a.shape
    q = OrthoTransform(m)
    if m == 0 or k == 0:
        return Rrqr(q, np.zeros((0, 0)), np.zeros((0, k)), np.arange(k), 0, (m, k))
    floor = 0.0
    if scale_rows is not None:
        # the largest row norm, as np.linalg.norm(axis=1) computes each; the
        # square root is monotonic, so it may follow the max
        with np.errstate(over="ignore"):
            sq = np.add.reduce(scale_rows * scale_rows, axis=1)
        big, sq = 1.0, np.maximum.reduce(sq, initial=0.0)
        if not math.isfinite(sq):
            # the squares overflow (norms above about 1.3e154): square the
            # rows scaled by their largest entry instead
            big = np.max(np.abs(scale_rows))
            sq = np.maximum.reduce(np.add.reduce((scale_rows / big) ** 2, axis=1))
        floor = tol * big * np.sqrt(sq)
    qr, perm, tau, rank = _geqp3(a, tol, floor)
    q.add_reflectors(slice(0, m), qr[:, : tau.size], tau)
    # C order, as np.triu returned it: _trsolve's LAPACK call follows the layout
    r = _zero_below_diagonal(np.array(qr[:rank, :rank], order="C"))
    if counter is not None:
        counter.count_factorization(m, k)
    return Rrqr(q, r, qr[:rank, rank:].copy(), perm, rank, (m, k))


def _full_rank(pivots, top, tol):
    """Every squared pivot is above ``tol * top``; never so at an Inf or a NaN."""
    least = float(np.min(np.abs(pivots)))
    return least * least > tol * top


@dataclass
class Cholesky:
    """Cholesky factor ``A[p][:, p] = R^T R`` over the pivot rows ``p`` of A.

    ``pivots`` is ``slice(None)`` for an unpivoted factor of full rank;
    a pivoted factor of rank r lists the r rows it kept, in pivot order.
    """

    r: np.ndarray
    pivots: object
    shape: tuple

    @property
    def rank(self):
        return self.r.shape[0]

    def forward(self, b):
        """``R^-T b[p]`` for a vector or a matrix with one row per row of A."""
        return _trsolve(self.r, np.asarray(b, dtype=float)[self.pivots], trans="T")

    def back(self, y):
        """The x with ``x[p] = R^-1 y`` and every other component 0."""
        x = np.zeros((self.shape[0],) + np.shape(y)[1:])
        x[self.pivots] = _trsolve(self.r, y)
        return x

    def solve_basic(self, rhs):
        """Basic solution of ``A x = rhs``: the non-pivot components at zero."""
        if not self.rank:
            return np.zeros(np.shape(rhs))
        return self.back(self.forward(rhs))


def cholesky(matrix, tol=DEFAULT_RANK_TOL, counter=None):
    """Cholesky factor of a symmetric positive definite matrix (LAPACK xPOTRF).

    Reads the upper triangle. Raises ``LinAlgError`` when the factorization
    breaks down, or a pivot ``R_jj^2`` is not above ``tol`` times the
    largest diagonal entry, which an Inf or a NaN on the diagonal never is.
    The factorization is counted before that is decided.
    """
    a = np.asarray(matrix, dtype=float)
    k = a.shape[0]
    c, info = dpotrf(a, lower=0, clean=1)
    if counter is not None:
        counter.count_factorization(k, k)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    if info > 0 or not _full_rank(c.diagonal(), float(np.max(a.diagonal())), tol):
        raise LinAlgError(
            f"not positive definite to {tol:g} of the largest diagonal entry"
        )
    return Cholesky(c, slice(None), (k, k))


def pivoted_cholesky(matrix, tol=DEFAULT_RANK_TOL, counter=None):
    """Pivoted Cholesky of a symmetric semidefinite matrix (LAPACK xPSTRF).

    Reads the upper triangle. The factorization stops at the first pivot
    at or below ``tol`` times the largest diagonal entry. The rows it
    leaves are dependent on the pivot rows to that tolerance, and the
    basic solve sets their components to zero. A diagonal that is not
    finite raises ``NonFiniteError``, as a triangular solve on it would.
    """
    a = np.asarray(matrix, dtype=float)
    k = a.shape[0]
    top = float(np.max(a.diagonal()))
    if not np.isfinite(top):
        raise NonFiniteError("array must not contain infs or NaNs")
    c, piv, rank, info = dpstrf(a, tol=tol * top, lower=0)
    if counter is not None:
        counter.count_factorization(k, k)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpstrf")
    r = _zero_below_diagonal(c[:rank, :rank].copy())
    return Cholesky(r, np.subtract(piv[:rank], 1, dtype=int), (k, k))


def nullspace_update(basis, f: Rrqr):
    """``basis @ Z`` for the null-space basis Z = P [[-R^-1 T], [I]] of ``f``.

    For a dense ``basis``, such as a block already projected into the chain
    basis; the chain basis itself extends by ``ChainBasis.extended``. Z is
    never formed: the identity block selects the free columns of
    ``basis``, and only its ``rank`` pivot columns are multiplied, by
    R^-1 T. For an m x k ``basis`` this costs m r (k - r) flops instead of
    the m k (k - r) of the dense product.
    """
    r = f.rank
    out = basis[:, f.perm[r:]]
    if r > 0 and out.shape[1] > 0:
        out = out - basis[:, f.perm[:r]] @ f.r_inv_t
    return out


class ChainBasis:
    """The n x n_r null-space basis B of a chain, in elimination form.

    Each chain stage eliminates ``rank`` variables and writes them as
    affine functions of the free ones: its RRQR's basis is the paper's
    Z = P [[-R^-1 T], [I]], direct elimination (Björck, *Numerical Methods
    for Least Squares Problems*, SIAM 1996, §5.1). So B has a unit row per
    free variable, ``B[free[j], j] = 1``, and only the rows of the
    eliminated variables, ``B[elim] = E``, are stored; every other entry is
    0. ``order`` lists the variables as ``[elim, free]``. The products
    ``M @ B``, ``B @ dz`` and ``B.T @ v`` read E and the index arrays, and
    no dense B is formed (``np.asarray`` forms one). While B is the
    identity, each product returns its operand itself. A basis is a value:
    ``extended`` returns a new one.
    """

    # ndarray @ ChainBasis calls __rmatmul__ instead of converting it
    __array_ufunc__ = None

    def __init__(self, order, e):
        n_e = e.shape[0]
        self.order, self.e = order, e
        self.elim, self.free = order[:n_e], order[n_e:]
        self.shape = (order.size, order.size - n_e)
        self._eye = not n_e and np.array_equal(order, np.arange(order.size))

    @classmethod
    def identity(cls, n):
        return cls(np.arange(n), np.zeros((0, n)))

    def __rmatmul__(self, m):
        """``M @ B``: the free columns of M plus its eliminated ones times E."""
        if self._eye:
            return m
        n_e = self.elim.size
        g = m.take(self.order, axis=-1)
        if not n_e:
            return g
        out = g[..., :n_e] @ self.e
        out += g[..., n_e:]
        return out

    def __matmul__(self, dz):
        """``B @ dz`` for a vector or a matrix of n_r rows."""
        if self._eye:
            return dz
        out = np.empty((self.shape[0],) + np.shape(dz)[1:])
        out[self.free] = dz
        out[self.elim] = self.e @ dz
        return out

    @property
    def T(self):
        return _TransposedBasis(self)

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape)
        dense[self.free, np.arange(self.shape[1])] = 1.0
        dense[self.elim] = self.e
        return dense if dtype is None else dense.astype(dtype)

    def extended(self, f: Rrqr):
        """``B Z`` for the null-space basis Z of ``f``, an RRQR of ``M @ B``.

        Z's pivot variables ``piv`` are eliminated, at ``-R^-1 T`` times the
        kept ones ``keep``: E' = [E[:, keep] - E[:, piv] R^-1 T; -R^-1 T],
        ``elim' = [elim, free[piv]]`` and ``free' = free[keep]``.
        """
        e = nullspace_update(self.e, f)
        # a rank-0 stage adds no row, and E keeps the layout its products round by
        if f.rank:
            e = np.concatenate((e, -f.r_inv_t))
        return ChainBasis(np.concatenate((self.elim, self.free[f.perm])), e)


class _TransposedBasis:
    """``B.T`` of a ``ChainBasis``, for the product ``B.T @ v``."""

    __array_ufunc__ = None

    def __init__(self, basis):
        self.basis = basis

    def __matmul__(self, v):
        b = self.basis
        if b._eye:
            return v
        if not b.elim.size:
            return v[b.free]
        out = b.e.T @ v[b.elim]
        out += v[b.free]
        return out


@dataclass
class StagedFactorization:
    """Staged RRQR of a stack [B; A] over a prefactorized A.

    Stage 1 is the retained factorization A P1 = Q1 [R1 T1; 0 0] of the
    constant block. What follows it factorizes S = [R1 T1; B P1]: one
    xGEQRF of S's leading columns, all of them where S is tall and the
    first r1 where it is short, then, unless that shows full column rank,
    one xGEQP3 of the block below and right of R1. ``stage23`` holds the
    reflectors of both, ``triangular`` the square upper factor of order
    ``rank``, and ``col_order`` the column order of P1 with the xGEQP3's
    pivots.
    """

    stage1: Rrqr
    stage23: OrthoTransform
    triangular: np.ndarray
    col_order: np.ndarray
    rank: int
    shape: tuple
    # read by the benchmark's column-share metric; no Givens path exists
    givens_columns: int = 0
    householder_columns: int = 0

    def solve_basic(self, rhs_top, rhs_bottom):
        """Basic LS solution of [B; A] x = [rhs_top; rhs_bottom]."""
        rhs_bottom = np.asarray(rhs_bottom, dtype=float)
        rhs_top = np.asarray(rhs_top, dtype=float)
        c_a = self.stage1.q.apply_transpose(rhs_bottom) if rhs_bottom.size else rhs_bottom
        stacked = np.concatenate([c_a[: self.stage1.rank], rhs_top])
        d = self.stage23.apply_transpose(stacked) if stacked.size else stacked
        x = np.zeros(self.shape[1])
        if self.rank > 0:
            x[self.col_order[: self.rank]] = _trsolve(self.triangular, d[: self.rank])
        return x


def staged_rrqr(b_block, stage1: Rrqr, tol=DEFAULT_RANK_TOL, counter=None):
    """Factorize the stack [B; A] reusing the retained RRQR of A.

    ``b_block`` rows sit on top of the already factorized constant block,
    so the stack S = [R1 T1; B P1] has m = r1 + m_b rows and k columns.
    One unpivoted xGEQRF triangularizes S's first c columns: c = k where S
    is tall (k <= m), else c = r1, and xORMQR applies its reflectors to the
    trailing columns. Where c < k, or where some R_jj^2 is not above
    ``UNPIVOTED`` times S's largest squared column norm, one column-pivoted
    xGEQP3 of ``S[r1:, r1:]`` as the xGEQRF left it decides the rank, by
    ``tol`` against its largest column norm: the trailing block of a short
    stack, the trailing triangle of R on a tall one (Chan, *Linear Algebra
    Appl.* 88/89, 1987). Each call counts one factorization.
    """
    b = np.asarray(b_block, dtype=float)
    if b.ndim != 2:
        raise ValueError("expected a 2-d B block")
    m_b, k = b.shape
    if k != stage1.ncols:
        raise ValueError(
            f"B has {k} columns but the constant block was factorized with "
            f"{stage1.ncols}"
        )
    r1 = stage1.rank
    # rows 0..r1-1 hold the triangular stage-1 factor, rows r1.. hold B
    work = np.zeros((r1 + m_b, k))
    work[:r1, :r1] = stage1.r
    work[:r1, r1:] = stage1.t
    work[r1:] = b[:, stage1.perm]
    ops = OrthoTransform(r1 + m_b)
    pi, rank3 = np.arange(k - r1), 0

    if m_b and k:
        c = k if k <= r1 + m_b else r1
        if c == k:
            with np.errstate(over="ignore"):
                top = float(np.max(np.add.reduce(work * work, axis=0)))
        if c:
            qr, tau, _, _ = dgeqrf(work[:, :c])
            ops.add_reflectors(slice(0, None), qr, tau)
            if c < k:
                work[:, c:] = _ormqr("T", qr, tau, work[:, c:])
            work[:, :c] = qr
            _zero_below_diagonal(work[:, :c])
        rank3 = k - r1
        if rank3 and not (c == k and _full_rank(work.diagonal(), top, UNPIVOTED)):
            qr, pi, tau, rank3 = _geqp3(work[r1:, r1:], tol)
            ops.add_reflectors(slice(r1, None), qr[:, : tau.size], tau)
            work[:r1, r1:] = work[:r1, r1:][:, pi]
            work[r1:, r1:] = qr
            _zero_below_diagonal(work[r1:, r1:])

    rank = r1 + rank3
    col_order = np.concatenate([stage1.perm[:r1], stage1.perm[r1:][pi]]).astype(int)
    if counter is not None:
        counter.count_factorization(m_b, k)
    return StagedFactorization(
        stage1=stage1,
        stage23=ops,
        triangular=work[:rank, :rank].copy(),
        col_order=col_order,
        rank=rank,
        shape=(m_b + stage1.shape[0], k),
        # a reflector per pivot column, but none for a pivot on the last row
        householder_columns=r1 + min(rank3, m_b - 1) if m_b else 0,
    )
