"""Data-driven h2 objective and gradients from one-step snapshot data.

The paper closes the cross-gramian equations over coefficients computed
from dual (adjoint) snapshots reconstructed from the data.  With
``Theta = [X1 U1]^+ X2 = [Theta_x; Theta_u]`` and [X1 U1] of full column
rank, they are the least-squares model ``A_ls = Theta_x^T`` (the S
equation's coefficient is its transpose) and ``B_ls = Theta_u^T``, the
fit the DMDc start also makes (Proctor, Brunton & Kutz, SIAM J. Appl.
Dyn. Syst. 15 (2016)).  ``DualData`` is that model, the ``LtiSystem``
``(A_ls, B_ls, I)``, and the objective and gradient are the model-based
ones against it (``sysmodel.Evaluation``), on exact full-rank data those
of the system.  The fit streams ``[X1 U1 X2]`` into one triangle, which it
hands to ``dataio.check_assumptions`` for the rank report; the DMDc start
takes the same triangle of its snapshots and the same fit.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dataio import AssumptionReport, DataEnsemble, check_assumptions
from .errors import NumericalOverflow, RankDeficientData
from .matequ import _triangle, significant, solve_discrete_sylvester
from .sysmodel import (GramianSet, GradientTriple, LtiSystem, Rom, assemble_gradients,
                       require_separation)

__all__ = [
    "DualData",
    "data_gradients",
    "reconstruct_dual",
    "reconstruct_dual_known_input",
    "rom_gramians",
    "solve_R",
    "solve_S",
    "solve_SB",
]

# snapshot rows _snapshot_triangle reduces at a time, in whole trajectories
# or one-step rows; a block of 2n + m = 202 columns (n = 100) is 3.3 MB
_SNAPSHOT_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class DualData(LtiSystem):
    """The least-squares model ``(A_ls, B_ls, I)`` the dual reconstruction
    identifies, factored once here, because every gradient step reuses the
    factor.

    A               A_ls; coefficient of the R equation, and transposed of
                    the S equation
    B               B_ls; ``B^T S`` is the input-side term SB
    C               I, set here and not an argument: the data observe the
                    full state, which ``solve_S`` assumes
    report          the rank check of the ensemble the reconstruction ran
    data_residual   relative least-squares residual of the one-step model,
                    ``||X2 - fit||_F / ||X2||_F``: near 0 on exact data, it
                    grows with noise and with entries that no linear model
                    explains
    """

    C: np.ndarray = field(init=False, repr=False)
    report: AssumptionReport
    data_residual: float

    def __post_init__(self):
        # A and B are the float arrays of the fit, checked once here; C is I
        _require_finite("the dual reconstruction", self.A, self.B)
        self._set(self.A, self.B, np.eye(self.A.shape[0]))
        _require_finite("the Schur factor of A_ls", self.schur.T, self.schur.Z)


def _norm(M: np.ndarray) -> float:
    """Frobenius norm through BLAS ``nrm2``, which scales its sum of squares,
    so no finite snapshot overflows it."""
    return float(scipy.linalg.norm(M.ravel(), check_finite=False))


def _require_finite(label: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalOverflow(f"{label} overflowed: the snapshot data span "
                                "beyond the floating-point range")


# an overflow in the reconstruction is reported by its finiteness checks as
# NumericalOverflow, not as a floating-point warning
_OVERFLOW_CHECKED = np.errstate(over="ignore", invalid="ignore")


def _snapshot_triangle(pieces: Iterable[tuple[np.ndarray, ...]], *,
                       whole: bool) -> np.ndarray:
    """The triangle R of the snapshot matrix ``S = Q R`` whose rows
    ``pieces`` hold, S never formed whole.

    A piece is a tuple of column blocks of shape (count, steps, width), its
    count * steps rows of S side by side: ``init_dmdc`` passes trajectory
    blocks ``(states[:, :-1], inputs, states[:, 1:])``, the reconstructions
    the ensemble as one piece of one-step rows ``(X1, U1, Y)``.  ``pieces``
    is read once, in order, and is not empty.  Its rows are taken a block of
    whole counts at a time (about ``_SNAPSHOT_BLOCK_ROWS`` rows), and each
    block is reduced together with the triangle of the blocks before it:
    ``_triangle`` of ``[R; block]`` (LAPACK ``dgeqrt``) is the next R.  This
    is the sequential TSQR of Demmel, Grigori, Hoemmen & Langou (SIAM J.
    Sci. Comput. 34 (2012)); the final R satisfies ``R^T R = S^T S``, so it
    is S's triangle up to an orthogonal change of its rows, which no fit or
    singular value read off R sees.  The pieces are copied into one reused
    Fortran-ordered buffer through (count, steps, width) views of its column
    blocks, so the working set is one piece, one row block and R, and the
    row blocks do not depend on how the rows are split into pieces.  A
    ``whole`` set of one block is one ``_triangle`` of exactly S.
    """
    pieces = iter(pieces)
    piece = next(pieces)
    count, steps = piece[0].shape[:2]
    edges = list(itertools.accumulate((block.shape[2] for block in piece), initial=0))
    width = edges[-1]
    # whole counts per row block; a whole set of one block is S alone, with
    # no room for a triangle above it
    per_block = max(1, _SNAPSHOT_BLOCK_ROWS // steps)
    if whole and count <= per_block:
        per_block, room = count, count * steps
    else:
        room = width + per_block * steps
    buf = np.empty(room * width)

    def block_matrix(rows):
        # the Fortran-ordered (rows, width) matrix at the buffer's start
        return buf[:rows * width].reshape((rows, width), order="F")

    # S holds R's rows and then room for per_block counts, `filled` of them
    # written
    R, S, filled = np.empty((0, width)), block_matrix(per_block * steps), 0
    while piece is not None:
        while len(piece[0]):
            if filled == per_block:
                R = _triangle(S)
                S, filled = block_matrix(len(R) + per_block * steps), 0
                S[:len(R)] = R
            take = min(per_block - filled, len(piece[0]))
            rows = S[len(R) + filled * steps:len(R) + (filled + take) * steps]
            # by index, so that no loop name holds a column block after its
            # piece goes; splitting the rows of a column block into
            # (take, steps) is a view
            for j in range(len(piece)):
                cols = rows[:, edges[j]:edges[j + 1]]
                cols.reshape(take, steps, cols.shape[1])[...] = piece[j][:take]
            piece, filled = [block[take:] for block in piece], filled + take
        # let this piece go before the next one is drawn
        del piece
        piece = next(pieces, None)
    if filled < per_block:
        # the last block is partial: move each column up to the layout of
        # its own row count (column 0 is in place, and no column reaches
        # the source of a later one)
        full, S = S, block_matrix(len(R) + filled * steps)
        for j in range(1, width):
            S[:, j] = full[:len(S), j]
    return _triangle(S)


def _triangle_fit(R: np.ndarray, k: int, y: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The min-norm fit ``Y ~ Z[:, :k] Theta`` from the triangle R of
    ``[Z Y] = Q R``, Y in R's columns from ``y`` on.

    When ``R[:k, :k]`` has full rank, read off its singular values s by
    ``significant``, Theta is the triangular solve ``R[:k, :k] Theta =
    R[:k, y:]`` and the residual is Y's part in R's rows below k.  Otherwise
    Theta is solved on the SVD of ``R[:k, :k]``, cut by ``significant``, and
    the residual also holds Y's part along the cut directions.  Returns
    ``(Theta, s, ||Y - Z[:, :k] Theta||_F)``.
    """
    Rk, Ry = R[:k, :k], R[:k, y:]
    s = np.linalg.svd(Rk, compute_uv=False)
    if np.count_nonzero(significant(s)) == k:
        theta, cut = scipy.linalg.solve_triangular(Rk, Ry, check_finite=False), 0.0
    else:
        U, s, Vt = np.linalg.svd(Rk, full_matrices=False)
        keep = significant(s)
        theta = Vt[keep].T @ ((U[:, keep].T @ Ry) / s[keep, None])
        cut = _norm(U[:, ~keep].T @ Ry)
    return theta, s, math.hypot(cut, _norm(R[k:, y:]))


def _least_squares(ens: DataEnsemble, Y: np.ndarray,
                   k: int) -> tuple[np.ndarray, AssumptionReport, float]:
    """The fit of Y on ``[X1 U1][:, :k]`` (``_triangle_fit``) from the
    triangle R of ``[X1 U1 Y]``, with the data residual relative to
    ``||X2||_F``.  The rank check reads the singular values of [X1 U1], X1
    and U1 off the same R (``check_assumptions``), reusing the fit's of
    ``R[:k, :k]``; no SVD is taken of a matrix with N rows.  Returns
    ``(Theta, report, data_residual)``.
    """
    n, m = ens.n, ens.m
    R = _snapshot_triangle([(ens.X1[:, None], ens.U1[:, None], Y[:, None])], whole=True)
    _require_finite("the triangle of the snapshot data", R)
    theta, s, resid = _triangle_fit(R, k, n + m)
    scale = _norm(ens.X2)
    return (theta, check_assumptions(ens, R, (k, s)),
            resid / scale if scale else (math.inf if resid else 0.0))


@_OVERFLOW_CHECKED
def reconstruct_dual(ens: DataEnsemble, *, force: bool = False) -> DualData:
    """The model the paper's dual coefficients form, from data with unknown
    system matrices: ``A_ls = Theta_x^T`` and ``B_ls = Theta_u^T`` of the
    fit of X2 on [X1 U1].

    Requires rank [X1 U1] = n + m, which gives rank X1 = n and rank U1 = m
    at the same relative tolerance (a column block's singular values
    interlace the whole's); forced, rank-deficient data give the min-norm
    model.  Snapshots whose range overflows the triangle, the fit or the
    Schur factor of A_ls raise ``NumericalOverflow``.
    """
    n = ens.n
    theta, report, residual = _least_squares(ens, ens.X2, n + ens.m)
    if not report.b1_holds and not force:
        raise RankDeficientData(
            f"need rank [X1 U1] = {n + ens.m}, got {report.rank_X1U1}")
    return DualData(theta[:n].T, theta[n:].T, report, residual)


@_OVERFLOW_CHECKED
def reconstruct_dual_known_input(ens: DataEnsemble, B, *, force: bool = False) -> DualData:
    """Dual reconstruction when the input matrix B is known: the fit of
    ``X2 - U1 B^T`` on X1 alone, ``A_ls = Theta_x^T`` and ``B_ls = B``, which
    needs only rank X1 = n (N >= n).
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape != (ens.n, ens.m):
        raise ValueError(f"B must have shape {(ens.n, ens.m)}, got {B.shape}")
    theta, report, residual = _least_squares(ens, ens.X2 - ens.U1 @ B.T, ens.n)
    if not report.b2_holds and not force:
        raise RankDeficientData(
            f"need rank X1 = {ens.n}, got {report.rank_X1}")
    return DualData(theta.T, B.copy(), report, residual)


def solve_R(dual: DualData, rom: Rom) -> np.ndarray:
    """Cross term R from data: ``A_ls R Ahat^T + B_ls Bhat^T = R``."""
    require_separation(dual.schur, rom.schur.eigvals)
    return solve_discrete_sylvester(dual.A, rom.Ahat.T, dual.B @ rom.Bhat.T)


def solve_S(dual: DualData, rom: Rom) -> np.ndarray:
    """Cross term S from data: ``A_ls^T S Ahat - Chat = S``."""
    if rom.p != dual.n:
        raise ValueError("rom must observe the full state (Chat with n rows)")
    require_separation(dual.schur, rom.schur.eigvals)
    return solve_discrete_sylvester(dual.A.T, rom.Ahat, -rom.Chat)


def solve_SB(dual: DualData, S: np.ndarray) -> np.ndarray:
    """Input-side contraction ``SB = B_ls^T S``, the paper's ``B^T S``."""
    return dual.B.T @ S


def rom_gramians(rom: Rom) -> tuple[np.ndarray, np.ndarray]:
    """Reduced controllability and observability gramians (P, Q)."""
    return rom.P, rom.Q


def data_gradients(dual: DualData, rom: Rom, grams: GramianSet) -> GradientTriple:
    """Gradient triple assembled from data-driven gramian solutions: the
    model-based assembly against the identified model ``dual``."""
    return assemble_gradients(rom, dual.A, dual.B, dual.C, grams)
