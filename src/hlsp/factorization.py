"""Rank-revealing QR kernels and null-space bases.

Q factors are never formed explicitly. They are kept as a sequence of
LAPACK compact-reflector blocks, the ``(v, tau)`` output of xGEQRF or
xGEQP3 that one xORMQR call applies, and of Givens rotations. Plain RRQR is
xGEQP3, the BLAS-3 column-pivoted QR of Quintana-Orti, Sun & Bischof
(1998). The staged factorization reuses a constant bottom block that was
factorized once and only refactorizes the rows stacked on top of it: a
column whose density is below a threshold is eliminated by Givens
rotations that touch only its nonzeros, and once the remaining columns are
dense they go to LAPACK as one block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgeqp3, dgeqrf, dormqr, dtrtrs

DEFAULT_RANK_TOL = 1e-10
DEFAULT_DENSITY_THRESHOLD = 0.4
# LAPACK block size assumed when sizing work arrays
_NB = 32


class OrthoTransform:
    """Product of orthogonal row operations on m rows.

    Operations are stored in application order for Q^T: reflector blocks
    ``("h", rows, v, tau)`` acting on the rows that ``rows`` (a slice or
    an index array) selects, and Givens rotations ``("g", i, k, c, s)``.
    Applying Q runs them backwards, each one transposed.
    """

    def __init__(self, m):
        self.m = m
        self.ops = []

    def add_reflectors(self, rows, v, tau):
        self.ops.append(("h", rows, v, tau))

    def add_givens(self, i, k, c, s):
        self.ops.append(("g", i, k, c, s))

    def _run(self, b, trans):
        b = np.asarray(b, dtype=float)
        out = np.array(b[:, None] if b.ndim == 1 else b, order="F")
        ops, sign = (self.ops, 1.0) if trans == "T" else (reversed(self.ops), -1.0)
        for op in ops:
            if op[0] == "h":
                _, rows, v, tau = op
                out[rows] = _ormqr(trans, v, tau, out[rows])
            else:
                _, i, k, c, s = op
                s = sign * s
                bi = out[i].copy()
                out[i] = c * bi - s * out[k]
                out[k] = s * bi + c * out[k]
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
    Its errors are kept: ValueError on NaN/Inf, LinAlgError on a zero pivot.
    """
    if not (np.isfinite(r).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
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


def _all_dense(block, threshold):
    """Every column's share of nonzero entries is at least ``threshold``."""
    return bool(np.all(np.count_nonzero(block, axis=0) / block.shape[0] >= threshold))


def _givens_pair(a, b):
    """Rotation (c, s, r) with [c -s; s c] @ [a, b] = [r, 0]."""
    r = np.hypot(a, b)
    if r == 0.0:
        return 1.0, 0.0, 0.0
    return a / r, -b / r, r


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
        full = self.q.apply(block)
        out = np.empty_like(full)
        out[:, self.perm] = full
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
        if self.rank == 0:
            return x
        c = self.q.apply_transpose(rhs)[: self.rank]
        y = _trsolve(self.r, c)
        x[self.perm[: self.rank]] = y
        return x

    def solve_transpose_basic(self, c):
        """Basic solution of (A P)^T-shaped system A^T lam = c.

        Forward-substitutes R^T over the leading ``rank`` permuted
        components of c; the orthogonal complement of the row space is
        left at zero.
        """
        m, _ = self.shape
        lam = np.zeros(m)
        if self.rank == 0:
            return lam
        c = np.asarray(c, dtype=float)
        c1 = c[self.perm[: self.rank]]
        y = _trsolve(self.r, c1, trans="T")
        padded = np.zeros(m)
        padded[: self.rank] = y
        return self.q.apply(padded)


def rrqr(matrix, tol=DEFAULT_RANK_TOL, counter=None, floor=0.0):
    """Column-pivoted QR (LAPACK xGEQP3) with rank detection.

    Rank is the number of leading pivots |R_jj| above ``tol`` times the
    largest initial column norm and above the absolute ``floor``. A block
    projected into a null-space basis is judged against the scale of its
    unprojected rows through ``floor``: relative to its own scale, a block
    of rounding noise would count as full rank. Empty inputs yield rank 0.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    m, k = a.shape
    q = OrthoTransform(m)
    qr, perm, rank = np.zeros((0, k)), np.arange(k), 0
    if m > 0 and k > 0:
        qr, perm, tau, rank = _geqp3(a, tol, floor)
        q.add_reflectors(slice(0, m), qr[:, : tau.size], tau)
    if counter is not None:
        counter.count_factorization(m, k)
    return Rrqr(
        q=q,
        r=np.triu(qr[:rank, :rank]),
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

    Stage 1 is the retained factorization of the constant block A. Stage 2
    eliminates B against the triangular stage-1 factor column by column,
    skipping the structural zeros below the diagonal; stage 3 is a
    column-pivoted RRQR of the remaining block. Columns are eliminated by
    Givens rotations while their tracked density stays below the
    threshold.
    """

    stage1: Rrqr
    stage23: OrthoTransform
    triangular: np.ndarray  # combined (r1 + r3) x (r1 + r3) upper block
    free_block: np.ndarray  # columns beyond the combined rank
    col_order: np.ndarray
    rank: int
    shape: tuple
    givens_columns: int = 0
    householder_columns: int = 0

    def solve_basic(self, rhs_top, rhs_bottom):
        """Basic LS solution of [B; A] x = [rhs_top; rhs_bottom]."""
        r1 = self.stage1.rank
        k = self.shape[1]
        rhs_bottom = np.asarray(rhs_bottom, dtype=float)
        rhs_top = np.asarray(rhs_top, dtype=float)
        c_a = self.stage1.q.apply_transpose(rhs_bottom) if rhs_bottom.size else rhs_bottom
        stacked = np.concatenate([c_a[:r1], rhs_top])
        d = self.stage23.apply_transpose(stacked) if stacked.size else stacked
        x = np.zeros(k)
        if self.rank > 0:
            y = _trsolve(self.triangular, d[: self.rank])
            x[self.col_order[: self.rank]] = y
        return x


def staged_rrqr(
    b_block,
    stage1: Rrqr,
    density_threshold=DEFAULT_DENSITY_THRESHOLD,
    tol=DEFAULT_RANK_TOL,
    counter=None,
):
    """Factorize the stack [B; A] reusing the retained RRQR of A.

    ``b_block`` rows sit on top of the already factorized constant block.
    Per-column density (nonzeros over rows still to eliminate) picks the
    Givens path below the threshold and a Householder reflection at or
    above it. Fill-in only adds nonzeros, so once every remaining column
    of a stage is dense they are eliminated together by one blocked LAPACK
    QR: xGEQRF in stage 2, the pivoted xGEQP3 in stage 3.
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
    if m_b:
        work[r1:, :] = b[:, stage1.perm]
    ops = OrthoTransform(r1 + m_b)
    givens_cols = 0
    householder_cols = 0

    def reflect(rows, lo, hi):
        """QR of work[rows, lo:hi], applied to the trailing columns."""
        qr, tau, _, _ = dgeqrf(work[rows, lo:hi])
        ops.add_reflectors(rows, qr, tau)
        work[rows, hi:] = _ormqr("T", qr, tau, work[rows, hi:])
        work[rows, lo:hi] = np.triu(qr)

    def eliminate(pivot, col, lo):
        """Zero work[lo:, col] against work[pivot, col] in place."""
        nonlocal givens_cols, householder_cols
        sub = work[lo:, col]
        nnz = int(np.count_nonzero(sub))
        if nnz == 0:
            return
        density = nnz / sub.shape[0]
        if density < density_threshold:
            givens_cols += 1
            for off in np.nonzero(sub)[0]:
                i = lo + off
                c, s, r = _givens_pair(work[pivot, col], work[i, col])
                ops.add_givens(pivot, i, c, s)
                rowp = work[pivot, col:].copy()
                rowi = work[i, col:]
                work[pivot, col:] = c * rowp - s * rowi
                work[i, col:] = s * rowp + c * rowi
                work[pivot, col] = r
                work[i, col] = 0.0
        else:
            householder_cols += 1
            reflect(np.r_[pivot, lo : r1 + m_b], col, col + 1)

    # stage 2: per column, only the B rows below the triangular pivot carry
    # nonzeros, so the structural zeros of the stage-1 factor are skipped
    if m_b:
        for j in range(r1):
            if _all_dense(work[r1:, j:r1], density_threshold):
                householder_cols += r1 - j
                reflect(slice(j, None), j, r1)
                break
            eliminate(j, j, r1)

    # stage 3: column-pivoted elimination of the remaining bottom-right block
    pi = np.arange(k - r1)
    rank3 = 0
    if m_b and k > r1:
        if _all_dense(work[r1:, r1:], density_threshold):
            qr, pi, tau, rank3 = _geqp3(work[r1:, r1:], tol)
            ops.add_reflectors(slice(r1, None), qr[:, : tau.size], tau)
            work[:r1, r1:] = work[:r1, r1:][:, pi]
            work[r1:, r1:] = np.triu(qr)
            householder_cols += min(rank3, m_b - 1)
        else:
            scale3 = float(np.max(np.linalg.norm(work[r1:, r1:], axis=0)))
            for j in range(min(m_b, k - r1)):
                col = r1 + j
                row = r1 + j
                norms = np.linalg.norm(work[row:, col:], axis=0)
                p = int(np.argmax(norms))
                if norms[p] <= tol * scale3 or scale3 == 0.0:
                    break
                if p != 0:
                    work[:, [col, col + p]] = work[:, [col + p, col]]
                    pi[[j, j + p]] = pi[[j + p, j]]
                eliminate(row, col, row + 1)
                rank3 += 1

    rank = r1 + rank3
    col_order = np.concatenate([stage1.perm[:r1], stage1.perm[r1:][pi]]).astype(int)
    if counter is not None:
        counter.count_factorization(m_b, k)
    return StagedFactorization(
        stage1=stage1,
        stage23=ops,
        triangular=work[:rank, :rank].copy(),
        free_block=work[:rank, rank:].copy(),
        col_order=col_order,
        rank=rank,
        shape=(m_b + stage1.shape[0], k),
        givens_columns=givens_cols,
        householder_columns=householder_cols,
    )
