"""Data-driven h2 objective and gradients from one-step snapshot data.

The adjoint (dual) state sequence initialized at the sampled states can be
reconstructed from the snapshots alone by one joint least-squares solve.
The cross-gramian equations then close over data-computable coefficients,
which makes the exact objective gradients available without access to the
system matrices.  On exact full-rank data the result coincides with the
model-based gradients of :mod:`.sysmodel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dataio import RANK_TOL, AssumptionReport, DataEnsemble, check_assumptions
from .errors import (AssumptionViolated, NumericalOverflow, RankDeficientData,
                     SingularAhat)
from .matequ import (EIG_FLOOR, UNIQUE_TOL, SchurFactor, from_schur, pseudoinverse_svd,
                     solve_schur, solve_stein, stein_schur, to_schur)
from .sysmodel import GradientTriple, Rom, schur_sweeps

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

# minimum distance between data-coefficient spectra and reciprocal rom poles
SEPARATION_TOL = 1e-10


@dataclass(frozen=True)
class DualData:
    """Reconstructed dual quantities and cached solve coefficients.

    Z2      (N, n)  second dual snapshot block
    ZB1     (m, N)  B^T applied to the first dual snapshots
    UB1     (N, n)  U1 B^T, the input block mapped through B
    MR      (n, n)  pinv(X1) @ Z2, coefficient of the R equation
    MS      (n, n)  pinv(X1) @ (X2 - UB1), coefficient of the S equation
    GB      (n, m)  pinv(X1) @ ZB1^T, input coefficient of the R equation
    sb_map  (m, n)  map from S to SB: B^T when B is known, else
                    pinv(U1) @ UB1; None when rank U1 < m
    report          the rank check of the ensemble the reconstruction ran
    data_residual   relative least-squares residual of the one-step model
                    the reconstruction fits, ``||X2 - fit||_F / ||X2||_F``:
                    near 0 on exact data, it grows with noise and with
                    entries that no linear model explains

    The Schur factors of MR and MS are computed once here, because every
    gradient step reuses them, and so is ``gb_schur = ZM^H GB`` (n, m), GB
    in the Schur coordinates of MR (``MR = ZM TM ZM^H``), from which the
    right-hand side of the R sweep of every ``Evaluation`` follows at
    O(n m r) cost.  MS is MR^T whenever rank X1 = n: with
    ``Theta = pinv([X1 U1]) X2 = [Theta_x; Theta_u]`` and ``pinv(X1) X1 = I``,
    ``MR = pinv(X1) X1 Theta_x^T = Theta_x^T`` and
    ``UB1 = X2 - X1 Theta_x``, so ``MS = Theta_x``, to rounding, at any noise
    level; the known-input route sets ``MR = MS^T`` outright.  The factor
    of MR, transposed, then serves the S equation, and MS is factored on
    its own only for a forced reconstruction from rank-deficient X1, where
    ``MS = pinv(X1) X1 Theta_x`` and ``MR^T = Theta_x pinv(X1) X1`` differ.
    """

    Z2: np.ndarray
    ZB1: np.ndarray
    UB1: np.ndarray
    MR: np.ndarray
    MS: np.ndarray
    GB: np.ndarray
    sb_map: np.ndarray | None
    report: AssumptionReport
    data_residual: float
    mr_schur: SchurFactor = field(init=False, repr=False)
    ms_schur: SchurFactor = field(init=False, repr=False)
    gb_schur: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # finite snapshots of too wide a range overflow in the products of
        # the reconstruction or in the factorizations of MR and MS
        _require_finite("the dual reconstruction", self.Z2, self.ZB1, self.UB1,
                        self.MR, self.MS, self.GB)
        mr_schur = SchurFactor.of(self.MR)
        # MS is MR^T on full-rank X1, and exactly so when B is known
        ms_is_mr_t = self.report.b2_holds or np.array_equal(self.MS, self.MR.T)
        ms_schur = mr_schur.transposed() if ms_is_mr_t else SchurFactor.of(self.MS)
        object.__setattr__(self, "mr_schur", mr_schur)
        object.__setattr__(self, "ms_schur", ms_schur)
        _require_finite("the Schur factors of MR and MS", self.mr_schur.T,
                        self.mr_schur.Z, self.ms_schur.T, self.ms_schur.Z)
        object.__setattr__(self, "gb_schur", self.mr_schur.ZH @ self.GB)

    @property
    def n(self) -> int:
        return self.MR.shape[0]


def _relative_residual(X2: np.ndarray, fit: np.ndarray) -> float:
    """``||X2 - fit||_F / ||X2||_F``; 0 for an exact fit, inf for a nonzero
    fit of X2 = 0.  BLAS ``nrm2`` scales its sum of squares, so no finite
    snapshot overflows it."""
    resid, scale = (float(scipy.linalg.norm(M.ravel(), check_finite=False))
                    for M in (X2 - fit, X2))
    return resid / scale if scale else (math.inf if resid else 0.0)


def _require_finite(label: str, *arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalOverflow(f"{label} overflowed: the snapshot data span "
                                "beyond the floating-point range")


# an overflow in the reconstruction is reported by DualData's finiteness
# check as NumericalOverflow, not as a floating-point warning
_OVERFLOW_CHECKED = np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class GramianSet:
    """Per-iterate solutions feeding the gradient assembly.

    P, Q are the reduced gramians; R, S the data-driven cross terms;
    SB the input-side contraction of S.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray
    SB: np.ndarray


@_OVERFLOW_CHECKED
def reconstruct_dual(ens: DataEnsemble, *, force: bool = False) -> DualData:
    """Recover the dual snapshots from data with unknown system matrices.

    Solves the joint least-squares system
    ``[X1 U1] [Z2^T; ZB1] = X2 X1^T`` and then
    ``X1 UB1^T = X1 X2^T - Z2 X1^T``.  Requires the stacked block
    [X1 U1] and X1 themselves to have full column rank.  Every product is
    taken with the pseudoinverse first, so no N x N matrix is formed.
    One SVD per block yields both its pseudoinverse and its rank.
    ``Theta = pinv([X1 U1]) X2`` is the least-squares fit of
    ``X2 ~ [X1 U1] Theta`` whose relative residual is ``data_residual``.
    Finite snapshots whose range overflows the products or the Schur
    factors of MR and MS raise ``NumericalOverflow``.
    """
    joint_pinv, sv_joint = pseudoinverse_svd(np.hstack([ens.X1, ens.U1]), RANK_TOL)
    theta = joint_pinv @ ens.X2
    del joint_pinv  # (n + m) x N; freed here, the next SVD does not raise the peak
    stacked = theta @ ens.X1.T
    x1_pinv, sv_x1 = pseudoinverse_svd(ens.X1, RANK_TOL)
    u1_pinv, sv_u1 = pseudoinverse_svd(ens.U1, RANK_TOL)
    report = check_assumptions(ens, (sv_joint, sv_x1, sv_u1))
    if not (report.b1_holds and report.b2_holds) and not force:
        raise RankDeficientData(
            f"need rank [X1 U1] = {ens.n + ens.m} and rank X1 = {ens.n}, got "
            f"{report.rank_X1U1} and {report.rank_X1}")
    n = ens.n
    Z2 = stacked[:n].T
    ZB1 = stacked[n:]
    MR = x1_pinv @ Z2
    UB1 = ((x1_pinv @ ens.X1) @ ens.X2.T - MR @ ens.X1.T).T
    MS = x1_pinv @ (ens.X2 - UB1)
    GB = x1_pinv @ ZB1.T
    sb_map = u1_pinv @ UB1 if report.b3_holds else None
    residual = _relative_residual(ens.X2, ens.X1 @ theta[:n] + ens.U1 @ theta[n:])
    return DualData(Z2, ZB1, UB1, MR, MS, GB, sb_map, report, residual)


@_OVERFLOW_CHECKED
def reconstruct_dual_known_input(ens: DataEnsemble, B, *, force: bool = False) -> DualData:
    """Dual reconstruction when the input matrix B is known.

    ``UB1 = U1 B^T`` is then available directly, which drops the joint
    rank requirement down to full column rank of X1 alone (N >= n).
    ``data_residual`` is that of the fit ``X2 ~ X1 MS + UB1``.  One SVD of
    X1 yields both its pseudoinverse and its rank.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if B.shape != (ens.n, ens.m):
        raise ValueError(f"B must have shape {(ens.n, ens.m)}, got {B.shape}")
    x1_pinv, sv_x1 = pseudoinverse_svd(ens.X1, RANK_TOL)
    report = check_assumptions(ens, (None, sv_x1, None))
    if not report.b2_holds and not force:
        raise RankDeficientData(
            f"need rank X1 = {ens.n}, got {report.rank_X1}")
    UB1 = ens.U1 @ B.T
    ZB1 = B.T @ ens.X1.T
    MS = x1_pinv @ (ens.X2 - UB1)
    MR = MS.T
    Z2 = ens.X1 @ MS
    return DualData(Z2, ZB1, UB1, MR, MS, B.copy(), B.T.copy(), report,
                    _relative_residual(ens.X2, Z2 + UB1))


def _require_separation(coef: SchurFactor, lam: np.ndarray, label: str) -> None:
    """Require eig(coef) * eig(Ahat) != 1, the condition for a unique R or S.

    One product ``mu lam`` over the coefficient spectrum ``mu`` and the rom
    poles ``lam`` gives the moduli ``|1 - mu lam|``, which are the pivots of
    the sweep.  Each must be at least ``SEPARATION_TOL |lam|``, that is,
    ``mu`` lies that far from the reciprocal pole ``1 / lam`` (a zero pole
    has none), and at least ``UNIQUE_TOL``, the uniqueness floor of
    ``solve_discrete_sylvester``.  The sweeps of R and S check nothing
    further.
    """
    gaps = np.abs(1.0 - coef.eigvals[:, None] * lam)
    mods = np.abs(lam)
    if (gaps < np.maximum(SEPARATION_TOL * mods, UNIQUE_TOL)).any():
        nonzero = mods > 0.0
        sep = (gaps[:, nonzero] / mods[nonzero]).min(initial=np.inf)
        raise AssumptionViolated(
            f"{label} spectrum within {sep:.3e} of a reciprocal rom pole "
            f"(tolerance {SEPARATION_TOL:g})")


def solve_R(dual: DualData, rom: Rom) -> np.ndarray:
    """Cross term R from data: ``MR R Ahat^T + GB Bhat^T = R``."""
    fm, fn = dual.mr_schur, rom.schur.transposed()
    _require_separation(fm, fn.eigvals, "MR")
    return from_schur(fm, fn, solve_schur(fm, fn, to_schur(fm, fn, dual.GB @ rom.Bhat.T)))


def solve_S(dual: DualData, rom: Rom) -> np.ndarray:
    """Cross term S from data: ``MS S Ahat - Chat = S``."""
    if rom.p != dual.n:
        raise ValueError("rom must observe the full state (Chat with n rows)")
    fm, fa = dual.ms_schur, rom.schur
    _require_separation(fm, fa.eigvals, "MS")
    return from_schur(fm, fa, solve_schur(fm, fa, to_schur(fm, fa, -rom.Chat)))


def solve_SB(dual: DualData, S: np.ndarray) -> np.ndarray:
    """Input-side contraction SB, the least-squares solution of ``U1 SB = UB1 S``."""
    if dual.sb_map is None:
        raise RankDeficientData("need full column rank U1 to recover SB")
    return dual.sb_map @ S


def rom_gramians(rom: Rom) -> tuple[np.ndarray, np.ndarray]:
    """Reduced controllability and observability gramians (P, Q)."""
    P = solve_stein(rom.Ahat, rom.Bhat @ rom.Bhat.T, a_schur=rom.schur)
    Q = solve_stein(rom.Ahat.T, rom.Chat.T @ rom.Chat, a_schur=rom.schur.transposed())
    return P, Q


def objective_f(rom: Rom, P: np.ndarray, R: np.ndarray) -> float:
    """Reduced part of the squared h2 error: tr(Chat P Chat^T) - 2 tr(R Chat^T).

    The omitted full-order gramian term is constant in the rom, so this,
    at the closed-form Chat of ``Evaluation``, is the quantity the descent
    monitors; it may be negative.
    """
    return float(np.sum((rom.Chat @ P) * rom.Chat) - 2.0 * np.sum(R * rom.Chat))


def _times_psd_pinv(R: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``R P^+`` for a symmetric positive semidefinite P, through ``eigh``.

    Eigenvalues up to ``RANK_TOL`` times the largest are treated as zero,
    so ``P = 0`` gives ``R P^+ = 0``.  R is taken into P's eigenbasis
    before the division, so ``1 / w_min`` scales R's component along its
    eigenvector alone; a formed ``P^+`` would spread that entry's rounding
    into every direction.
    """
    w, V = np.linalg.eigh(P)
    keep = w > RANK_TOL * np.abs(w).max(initial=0.0)
    Vk = V[:, keep]
    return ((R @ Vk) / w[keep]) @ Vk.T


class Evaluation:
    """The data-driven objective at one rom and at its projection.

    P and R depend on (Ahat, Bhat) alone, so one sweep of each serves both
    the rom as given and the projected rom ``(Ahat, Bhat, chat_star)``.
    The objective ``f = tr(Chat P Chat^T) - 2 tr(R Chat^T)`` is a convex
    quadratic in Chat, minimized by ``chat_star = R P^+``, where the
    gradient block ``gC = 2 (Chat P - R)`` vanishes; there it takes the
    value ``phi = -tr(R P^+ R^T) = -<chat_star, R>``, the objective the
    descent minimizes over (Ahat, Bhat) (variable projection, Golub &
    Pereyra, SIAM J. Numer. Anal. 10 (1973) 413-432).  ``P^+`` is the
    min-norm inverse of ``_times_psd_pinv``, so ``Bhat = 0`` gives
    ``chat_star = 0``.

    Each evaluation back-transforms P and R (O(n^2 r), as the R sweep) and
    sets ``chat_star``, ``f`` (``objective_f`` at the rom as given) and
    ``phi`` at O(n r^2).  ``phi`` is ``objective_f`` at ``projected`` rather
    than its shortcut ``-<chat_star, R>``, so a rom whose Chat already is
    its ``chat_star`` has ``f == phi`` to the bit.  ``projected`` reuses
    the factor of Ahat.  The guards are those of
    ``solve_stein`` and ``solve_R``: stability (``NotStable``) and the
    separation of MR from the reciprocal poles (``AssumptionViolated``).
    """

    def __init__(self, dual: DualData, rom: Rom):
        fm, fn = dual.mr_schur, rom.schur.transposed()
        _require_separation(fm, fn.eigvals, "MR")
        Yp, Yr = schur_sweeps(rom, fn, fm, dual.gb_schur)
        P = from_schur(rom.schur, fn, Yp)
        self.P = 0.5 * (P + P.T)
        self.R = from_schur(fm, fn, Yr)
        self.chat_star = _times_psd_pinv(self.R, self.P)
        self.projected = rom.with_output(self.chat_star)
        self.phi = objective_f(self.projected, self.P, self.R)
        self.f = objective_f(rom, self.P, self.R)
        self.rom = rom
        self._dual = dual

    def gramians(self, *, projected: bool = False) -> GramianSet:
        """Every solve one data-driven gradient evaluation needs.

        At the rom as given, or at ``projected``; P and R are this
        evaluation's, and only Q and S are solved.  Q solves the Stein
        equation of Ahat^T, whose factor is ``fn`` and whose transposed
        factor is ``rom.schur``; it is symmetrized as ``solve_stein`` does.
        """
        rom = self.projected if projected else self.rom
        fa = rom.schur
        fn = fa.transposed()
        C = rom.Chat
        Q = from_schur(fn, fa, stein_schur(fn, fa, to_schur(fn, fa, C.T @ C)))
        S = solve_S(self._dual, rom)
        return GramianSet(self.P, 0.5 * (Q + Q.T), self.R, S, solve_SB(self._dual, S))


def solve_gramians(dual: DualData, rom: Rom) -> GramianSet:
    """Every solve one data-driven gradient evaluation needs."""
    return Evaluation(dual, rom).gramians()


def data_gradients(rom: Rom, grams: GramianSet) -> GradientTriple:
    """Gradient triple assembled from data-driven gramian solutions.

    The full-order product S^T A R is replaced by the data-computable
    ``(S^T R - SB^T Bhat^T) Ahat^{-T}``, which requires Ahat to be
    invertible.
    """
    if np.abs(rom.schur.eigvals).min(initial=np.inf) < EIG_FLOOR:
        raise SingularAhat(f"Ahat has an eigenvalue with modulus below {EIG_FLOOR:g}")
    P, Q, R, S, SB = grams.P, grams.Q, grams.R, grams.S, grams.SB
    cross = S.T @ R - SB.T @ rom.Bhat.T
    # cross @ inv(Ahat).T without forming the inverse
    cross = np.linalg.solve(rom.Ahat, cross.T).T
    gA = 2.0 * (Q @ rom.Ahat @ P + cross)
    gB = 2.0 * (SB.T + Q @ rom.Bhat)
    gC = 2.0 * (rom.Chat @ P - R)
    return GradientTriple(gA, gB, gC)


def data_gradients_from_ensemble(ens: DataEnsemble, rom: Rom, *,
                                 force: bool = False) -> GradientTriple:
    """Full data-driven gradient pipeline with unknown system matrices."""
    dual = reconstruct_dual(ens, force=force)
    return data_gradients(rom, solve_gramians(dual, rom))


def data_gradients_B_known(ens: DataEnsemble, B, rom: Rom, *,
                           force: bool = False) -> GradientTriple:
    """Gradient pipeline for known input matrix B.

    UB1 and SB come directly from B, so only X1 needs full column rank;
    otherwise the pipeline is identical to the unknown-B route and agrees
    with it whenever both are applicable.
    """
    dual = reconstruct_dual_known_input(ens, B, force=force)
    return data_gradients(rom, solve_gramians(dual, rom))
