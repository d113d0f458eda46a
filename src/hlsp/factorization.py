"""Rank-revealing QR kernels and null-space bases.

Q factors are never formed explicitly. They are kept as a sequence of
LAPACK compact-reflector blocks, the ``(v, tau)`` output of xGEQRF or
xGEQP3 that one xORMQR call applies. Plain RRQR is xGEQP3, the BLAS-3
column-pivoted QR of Quintana-Orti, Sun & Bischof (1998). The staged
factorization reuses a constant bottom block that was factorized once and
only refactorizes the rows stacked on top of it, in two LAPACK calls: one
xGEQRF of the columns the retained factor already pivoted, then one xGEQP3
of the block that remains.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgeqp3, dgeqrf, dormqr, dtrtrs

DEFAULT_RANK_TOL = 1e-10
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
    if not (np.isfinite(r).all() and np.isfinite(b).all()):
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
    above = np.abs(np.diagonal(qr)) > max(tol * float(abs(qr[0, 0])), floor)
    rank = int(above.size if above.all() else np.argmin(above))
    return qr, (jpvt - 1).astype(int), tau, rank


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
    tol: float
    shape: tuple

    @property
    def ncols(self):
        return self.shape[1]

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
    full rank. Empty inputs yield rank 0.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, k = a.shape
    q = OrthoTransform(m)
    qr, perm, rank = np.zeros((0, k)), np.arange(k), 0
    if m > 0 and k > 0:
        floor = 0.0
        if scale_rows is not None:
            floor = tol * np.linalg.norm(scale_rows, axis=1).max(initial=0.0)
        qr, perm, tau, rank = _geqp3(a, tol, floor)
        q.add_reflectors(slice(0, m), qr[:, : tau.size], tau)
    if counter is not None:
        counter.count_factorization(m, k)
    return Rrqr(
        q=q,
        # C order, as np.triu returned it: _trsolve's LAPACK call follows the layout
        r=_zero_below_diagonal(np.array(qr[:rank, :rank], order="C")),
        t=qr[:rank, rank:].copy(),
        perm=perm,
        rank=rank,
        tol=tol,
        shape=(m, k),
    )


def nullspace_update(basis, f: Rrqr):
    """``basis @ Z`` for the null-space basis Z = P [[-R^-1 T], [I]] of ``f``.

    Z is never formed: the identity block selects the free columns of
    ``basis``, and only its ``rank`` pivot columns are multiplied, by
    R^-1 T. For an n x k ``basis`` this costs n r (k - r) flops instead of
    the n k (k - r) of the dense product.
    """
    r = f.rank
    out = basis[:, f.perm[r:]]
    if r > 0 and out.shape[1] > 0:
        out = out - basis[:, f.perm[:r]] @ _trsolve(f.r, f.t)
    return out


def nullspace_basis(f: Rrqr):
    """Non-orthogonal null-space basis Z = P [[-R^-1 T], [I]].

    A @ Z vanishes to factorization accuracy and the identity block makes
    the columns structurally independent. Full-rank input yields a k x 0
    matrix.
    """
    return nullspace_update(np.eye(f.ncols), f)


@dataclass
class StagedFactorization:
    """Three-stage RRQR of a stack [B; A] over a prefactorized A.

    Stage 1 is the retained factorization A P1 = Q1 [R1 T1; 0 0] of the
    constant block. Stage 2 is one xGEQRF of the first r1 columns of
    [R1 T1; B P1], over all r1 + m_b rows; stage 3 is one xGEQP3 of the
    bottom-right block that stage 2 leaves. ``stage23`` holds the
    reflectors of both, ``triangular`` the combined (r1 + r3) square upper
    factor, and ``col_order`` the column order of P1 with stage 3's pivots.
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

    ``b_block`` rows sit on top of the already factorized constant block.
    Stage 2 triangularizes the first r1 columns of [R1 T1; B P1] with one
    xGEQRF and applies its reflectors to the trailing columns with xORMQR;
    stage 3 is one column-pivoted xGEQP3 of the bottom-right block, with
    rank decided by ``tol`` against its largest column norm.
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

    if m_b and r1:
        qr, tau, _, _ = dgeqrf(work[:, :r1])
        ops.add_reflectors(slice(0, None), qr, tau)
        work[:, r1:] = _ormqr("T", qr, tau, work[:, r1:])
        work[:, :r1] = qr
        _zero_below_diagonal(work[:, :r1])
    if m_b and k > r1:
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
        # stage 2 reflects r1 columns; a stage-3 pivot on the last row has none
        householder_columns=r1 + min(rank3, m_b - 1) if m_b else 0,
    )
