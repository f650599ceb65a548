"""Data-driven h2 objective and gradients from one-step snapshot data.

The paper closes the cross-gramian equations over coefficients computed
from dual (adjoint) snapshots reconstructed from the data.  With
``Theta = [X1 U1]^+ X2 = [Theta_x; Theta_u]`` and [X1 U1] of full column
rank, they are the least-squares model ``MR = Theta_x^T = A_ls`` (the S
equation's coefficient is its transpose) and ``GB = Theta_u^T = B_ls``,
the fit the DMDc start also makes (Proctor, Brunton & Kutz, SIAM J. Appl.
Dyn. Syst. 15 (2016)).  ``DualData.system`` is that model as an
``LtiSystem``, and the objective and gradient are the model-based ones
against it (``sysmodel.Evaluation``, re-exported here), on exact full-rank
data those of the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dataio import AssumptionReport, DataEnsemble, check_assumptions
from .errors import NumericalOverflow, RankDeficientData
from .matequ import RANK_TOL, _triangle, from_schur, solve_schur, solve_stein, to_schur
from .sysmodel import (Evaluation, GramianSet, GradientTriple, LtiSystem, Rom,
                       assemble_gradients, objective_f, require_separation)

__all__ = [
    "DualData",
    "Evaluation",
    "GramianSet",
    "GradientTriple",
    "data_gradients",
    "data_gradients_B_known",
    "data_gradients_from_ensemble",
    "objective_f",
    "reconstruct_dual",
    "reconstruct_dual_known_input",
    "rom_gramians",
    "solve_gramians",
    "solve_R",
    "solve_S",
    "solve_SB",
]


@dataclass(frozen=True)
class DualData:
    """The least-squares model the dual reconstruction identifies.

    MR      (n, n)  A_ls; coefficient of the R equation, and transposed of
                    the S equation
    GB      (n, m)  B_ls; ``GB^T S`` is the input-side term SB
    report          the rank check of the ensemble the reconstruction ran
    data_residual   relative least-squares residual of the one-step model,
                    ``||X2 - fit||_F / ||X2||_F``: near 0 on exact data, it
                    grows with noise and with entries that no linear model
                    explains
    system          the identified model ``(MR, GB, I)``, factored here
                    once, because every gradient step reuses the factor
    """

    MR: np.ndarray
    GB: np.ndarray
    report: AssumptionReport
    data_residual: float
    system: LtiSystem = field(init=False, repr=False)

    def __post_init__(self):
        _require_finite("the dual reconstruction", self.MR, self.GB)
        system = LtiSystem.with_identity_output(self.MR, self.GB)
        _require_finite("the Schur factor of MR", system.schur.T, system.schur.Z)
        object.__setattr__(self, "system", system)

    @property
    def n(self) -> int:
        return self.MR.shape[0]


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


def _least_squares(ens: DataEnsemble, Y: np.ndarray,
                   k: int) -> tuple[np.ndarray, AssumptionReport, float]:
    """The min-norm fit ``Y ~ [X1 U1][:, :k] Theta``, from the triangle R
    of ``[X1 U1 Y] = Q R``.

    Theta is solved on the SVD of ``R[:k, :k]``, cut at ``RANK_TOL``; the
    residual is Y's part along the cut directions and in R's rows below k,
    relative to ``||X2||_F``.  The singular values of [X1 U1], X1 and U1
    are those of ``R[:n+m, :n+m]``, ``R[:n, :n]`` and ``R[:n+m, n:n+m]``.
    No SVD is taken of a matrix with N rows.  Returns
    ``(Theta, report, data_residual)``.
    """
    n, m = ens.n, ens.m
    S = np.empty((ens.N, 2 * n + m), order="F")
    S[:, :n], S[:, n:n + m], S[:, n + m:] = ens.X1, ens.U1, Y
    R = _triangle(S)
    _require_finite("the triangle of the snapshot data", R)
    U, s, Vt = np.linalg.svd(R[:k, :k], full_matrices=False)
    keep = s > RANK_TOL * s[0]
    Ry = R[:k, n + m:]
    theta = Vt[keep].T @ ((U[:, keep].T @ Ry) / s[keep, None])
    resid = math.hypot(_norm(U[:, ~keep].T @ Ry), _norm(R[k:, n + m:]))
    scale = _norm(ens.X2)
    sv = [s if (j0, j1) == (0, k) else np.linalg.svd(R[:j1, j0:j1], compute_uv=False)
          for j0, j1 in ((0, n + m), (0, n), (n, n + m))]
    return (theta, check_assumptions(ens, sv),
            resid / scale if scale else (math.inf if resid else 0.0))


@_OVERFLOW_CHECKED
def reconstruct_dual(ens: DataEnsemble, *, force: bool = False) -> DualData:
    """The paper's dual coefficients from data with unknown system matrices:
    ``MR = Theta_x^T`` and ``GB = Theta_u^T`` of the fit of X2 on [X1 U1].

    Requires rank [X1 U1] = n + m, which gives rank X1 = n and rank U1 = m
    at the same relative tolerance (a column block's singular values
    interlace the whole's); forced, rank-deficient data give the min-norm
    model.  Snapshots whose range overflows the triangle, the fit or the
    Schur factor of MR raise ``NumericalOverflow``.
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
    ``X2 - U1 B^T`` on X1 alone, ``MR = Theta_x^T`` and ``GB = B``, which
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
    """Cross term R from data: ``MR R Ahat^T + GB Bhat^T = R``."""
    fm, fn = dual.system.schur, rom.schur.transposed()
    require_separation(fm, fn.eigvals)
    return from_schur(fm, fn, solve_schur(fm, fn, to_schur(fm, fn, dual.GB @ rom.Bhat.T)))


def solve_S(dual: DualData, rom: Rom) -> np.ndarray:
    """Cross term S from data: ``MR^T S Ahat - Chat = S``."""
    if rom.p != dual.n:
        raise ValueError("rom must observe the full state (Chat with n rows)")
    fm, fa = dual.system.schur.transposed(), rom.schur
    require_separation(fm, fa.eigvals)
    return from_schur(fm, fa, solve_schur(fm, fa, to_schur(fm, fa, -rom.Chat)))


def solve_SB(dual: DualData, S: np.ndarray) -> np.ndarray:
    """Input-side contraction ``SB = GB^T S``, the paper's ``B^T S``."""
    return dual.GB.T @ S


def rom_gramians(rom: Rom) -> tuple[np.ndarray, np.ndarray]:
    """Reduced controllability and observability gramians (P, Q)."""
    P = solve_stein(rom.Ahat, rom.Bhat @ rom.Bhat.T, a_schur=rom.schur)
    Q = solve_stein(rom.Ahat.T, rom.Chat.T @ rom.Chat, a_schur=rom.schur.transposed())
    return P, Q


def solve_gramians(dual: DualData, rom: Rom) -> GramianSet:
    """Every solve one data-driven gradient evaluation needs."""
    return Evaluation(dual.system, rom).gramians()


def data_gradients(dual: DualData, rom: Rom, grams: GramianSet) -> GradientTriple:
    """Gradient triple assembled from data-driven gramian solutions: the
    model-based assembly against the identified model (MR, GB, I)."""
    return assemble_gradients(rom, dual.MR, dual.GB, dual.system.C, grams)


def data_gradients_from_ensemble(ens: DataEnsemble, rom: Rom, *,
                                 force: bool = False) -> GradientTriple:
    """Full data-driven gradient pipeline with unknown system matrices."""
    dual = reconstruct_dual(ens, force=force)
    return data_gradients(dual, rom, solve_gramians(dual, rom))


def data_gradients_B_known(ens: DataEnsemble, B, rom: Rom, *,
                           force: bool = False) -> GradientTriple:
    """Gradient pipeline for known input matrix B.

    GB is B itself, so only X1 needs full column rank; otherwise the
    pipeline is identical to the unknown-B route and agrees with it
    whenever both are applicable.
    """
    dual = reconstruct_dual_known_input(ens, B, force=force)
    return data_gradients(dual, rom, solve_gramians(dual, rom))
