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

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dataio import AssumptionReport, DataEnsemble, check_assumptions
from .errors import NumericalOverflow, RankDeficientData
from .matequ import _rows_triangle, significant, solve_discrete_sylvester
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

logger = logging.getLogger(__name__)


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
        self._set(self.A, self.B, np.eye(self.A.shape[0]), identity_output=True)
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


def _least_squares(ens: DataEnsemble, successor: Callable[[slice], np.ndarray],
                   k: int) -> tuple[np.ndarray, AssumptionReport, float]:
    """The fit of Y on ``[X1 U1][:, :k]`` (``_triangle_fit``) from the
    triangle R of ``[X1 U1 Y]``, with the data residual relative to
    ``||X2||_F``.  ``successor(rows)`` forms Y's rows in slice ``rows``, one
    row block at a time (``_rows_triangle``).  The rank check reads the
    singular values of [X1 U1], X1 and U1 off the same R
    (``check_assumptions``), reusing the fit's of ``R[:k, :k]``; no SVD is
    taken of a matrix with N rows.  Returns ``(Theta, report,
    data_residual)``.
    """
    n, m = ens.n, ens.m
    R = _rows_triangle(ens.N, lambda rows: (ens.X1[rows], ens.U1[rows], successor(rows)))
    _require_finite("the triangle of the snapshot data", R)
    theta, s, resid = _triangle_fit(R, k, n + m)
    scale = _norm(ens.X2)
    return (theta, check_assumptions(ens, R, (k, s)),
            resid / scale if scale else (math.inf if resid else 0.0))


def _gate(report: AssumptionReport, holds: bool, need: str, force: bool) -> None:
    """Unless ``holds``, raise RankDeficientData naming the rank ``need`` and
    the report's three ranks, or with ``force`` log that text as a warning."""
    if not holds:
        text = (f"need {need}; the data have rank [X1 U1] = {report.rank_X1U1}, "
                f"rank X1 = {report.rank_X1}, rank U1 = {report.rank_U1}")
        if not force:
            raise RankDeficientData(text)
        logger.warning("%s", text)


@_OVERFLOW_CHECKED
def reconstruct_dual(ens: DataEnsemble, *, force: bool = False) -> DualData:
    """The model the paper's dual coefficients form, from data with unknown
    system matrices: ``A_ls = Theta_x^T`` and ``B_ls = Theta_u^T`` of the
    fit of X2 on [X1 U1].

    Requires rank [X1 U1] = n + m, which gives rank X1 = n and rank U1 = m
    at the same relative tolerance (a column block's singular values
    interlace the whole's); other data raise ``RankDeficientData`` or, forced,
    warn and give the min-norm model.  Snapshots whose range overflows the
    triangle, the fit or the Schur factor of A_ls raise ``NumericalOverflow``.
    """
    n = ens.n
    theta, report, residual = _least_squares(ens, lambda rows: ens.X2[rows], n + ens.m)
    _gate(report, report.b1_holds, f"rank [X1 U1] = {n + ens.m}", force)
    return DualData(theta[:n].T, theta[n:].T, report, residual)


@_OVERFLOW_CHECKED
def reconstruct_dual_known_input(ens: DataEnsemble, B, *, force: bool = False) -> DualData:
    """Dual reconstruction when the input matrix B is known: the fit of
    ``X2 - U1 B^T`` on X1 alone, ``A_ls = Theta_x^T`` and ``B_ls = B``, which
    needs only rank X1 = n (N >= n).  ``X2 - U1 B^T`` is formed a row block
    at a time, as the triangle takes it.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape != (ens.n, ens.m):
        raise ValueError(f"B must have shape {(ens.n, ens.m)}, got {B.shape}")
    theta, report, residual = _least_squares(
        ens, lambda rows: ens.X2[rows] - ens.U1[rows] @ B.T, ens.n)
    _gate(report, report.b2_holds, f"rank X1 = {ens.n}", force)
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
