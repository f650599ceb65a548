"""Gradient descent on the data-driven h2 objective, over (Ahat, Bhat).

The objective ``f = tr(Chat P Chat^T) - 2 tr(R Chat^T)`` is a convex
quadratic in Chat, and neither P nor R depends on Chat, so for given
(Ahat, Bhat) its minimizer ``Chat* = R P^+`` is solved in closed form and
the descent runs on the projected objective ``phi(Ahat, Bhat) = f`` at
Chat* (variable projection; Golub & Pereyra, SIAM J. Numer. Anal. 10
(1973) 413-432).  By the envelope theorem the gradient of phi is the
paper's ``(gA, gB)`` at Chat*, whose ``gC`` vanishes to rounding, so each
iterate is the projected rom (Ahat, Bhat, Chat*) and the descent direction
``-[gA gB]`` moves only Ahat and Bhat.

Each iteration assembles the data-driven gradients there and backtracks the
step along ``-[gA gB]`` until phi decreases by the Armijo margin while the
candidate stays inside the stability annulus.  The first trial step of the
first iteration is ``alpha0``; every later iteration opens at the short
Barzilai-Borwein step ``<s, y> / <y, y>`` (Barzilai & Borwein, IMA J.
Numer. Anal. 8 (1988) 141-148), where ``s`` is the last accepted move and
``y`` the change of the direction over it.  The step fits the curvature
along the last move, so most iterations accept their first trial; it is
not capped at ``alpha0``.  Where
``<s, y> <= 0`` there is no curvature to fit, and the search opens at
``min(alpha0, alpha_prev / rho)``, one expansion of the step accepted
last.  Backtracking stays monotone, so phi never rises.

A trial step factors its Ahat once (the spectral bounds read the
eigenvalues off that factor) and evaluates phi with ``Evaluation`` against
``dual``, the identified model, which the reconstruction factored once:
the P and R equations are solved in Schur coordinates and back-transformed,
and phi is f at ``Chat* = R P^+``; a trial whose P or R overflows is
rejected.  The start is evaluated as a trial is; its ``f`` as given is
``initial_f``.  The descent then starts from the same transfer function in
input-normal coordinates, where P is the identity, so that ``Chat*`` and
the gradient at it do not scale rounding in R by cond(P), which reaches
1e7 for random single-input roms.  The accepted
trial's ``Evaluation`` becomes the next iterate: its gradient reuses P and
R and solves only Q and S at the projected rom, so every iterate has one
value of phi and one solve of each equation.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .dataio import DataEnsemble, IterRecord
from .ddgrad import DualData, data_gradients, reconstruct_dual
from .errors import AssumptionViolated, NotStable, NumericalOverflow
from .sysmodel import Evaluation, H2ErrorEvaluator, LtiSystem, Rom

__all__ = [
    "OptimParams",
    "OptimResult",
    "StopReason",
    "run",
]

logger = logging.getLogger(__name__)

# errors that merely disqualify a trial step during backtracking
_CANDIDATE_ERRORS = (AssumptionViolated, NotStable, NumericalOverflow)


class StopReason(enum.Enum):
    """Why a descent ended; a start it cannot descend from raises instead."""

    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    BACKTRACK_EXHAUSTED = "backtrack_exhausted"


@dataclass(frozen=True)
class OptimParams:
    """Line-search and termination parameters.

    alpha0 : first trial step of the first iteration; caps the fallback
             first trial ``min(alpha0, alpha_prev / rho)`` of a later
             iteration whose last move showed no positive curvature
    c      : Armijo decrease coefficient
    rho    : backtracking shrink factor
    tol    : stop once D, the squared norm of the gradient ``(gA, gB)`` of
             the projected objective, falls below this
    """

    alpha0: float = 1.0
    c: float = 1e-4
    rho: float = 0.5
    tol: float = 1e-3
    max_iters: int = 500
    max_backtracks: int = 60

    def __post_init__(self):
        for name in ("alpha0", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha0 <= 0 or not (0 < self.c < 1) or not (0 < self.rho < 1):
            raise ValueError("need alpha0 > 0 and c, rho in (0, 1)")
        if self.tol <= 0 or self.max_iters < 1 or self.max_backtracks < 1:
            raise ValueError("need tol > 0 and positive iteration bounds")


@dataclass(frozen=True)
class OptimResult:
    rom: Rom
    history: tuple[IterRecord, ...]
    stop_reason: StopReason
    initial_f: float
    initial_rel_h2_error: float | None = None


def _input_normal(rom: Rom, P: np.ndarray) -> Rom:
    """``rom`` in the coordinates where its gramian P is the identity.

    With ``P = L L^T`` the similarity ``x -> L^{-1} x`` gives ``(L^{-1}
    Ahat L, L^{-1} Bhat, Chat L)``, the same transfer function, so f, phi
    and the h2 error keep their values.  ``Chat* = R P^+`` is then ``R``,
    and rounding in R reaches the gradient of phi unscaled by cond(P).
    Where P is not numerically positive definite (``Bhat = 0``, say) there
    are no such coordinates, and ``rom`` itself is returned.
    """
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        return rom
    return Rom(solve_triangular(L, rom.Ahat @ L, lower=True),
               solve_triangular(L, rom.Bhat, lower=True), rom.Chat @ L)


# a trial that overflows is rejected by its non-finite phi, an iterate by
# its non-finite D, so an overflow is a decision here, not a warning
@np.errstate(over="ignore", invalid="ignore")
def run(ens: DataEnsemble, init: Rom, params: OptimParams = OptimParams(), *,
        oracle: LtiSystem | None = None,
        dual: DualData | None = None) -> OptimResult:
    """Descend the projected data-driven h2 objective starting from ``init``.

    Parameters
    ----------
    ens : snapshot ensemble driving the gradients
    init : starting reduced model; must lie inside the stability annulus,
        with its reciprocal poles separated from the spectrum of
        ``dual`` and of ``oracle``
    oracle : optional full-order system used solely to log the true
        relative h2 error per iterate
    dual : the identified model of ``ens``, for instance
        ``reconstruct_dual_known_input(ens, B)`` when the input matrix B is
        known; by default ``reconstruct_dual(ens)`` is used

    Returns
    -------
    OptimResult with the last recorded rom (``init`` when no row was
    recorded), the iteration history, and the stop reason.  Recorded roms
    are projected: their Chat is the closed-form Chat* of their (Ahat,
    Bhat).  They are in the coordinates the descent ran in, which begin
    as the input-normal coordinates of ``init`` (its own where its
    gramian P is not positive definite).  The objective column of the
    history is phi, non-increasing; ``initial_f`` and
    ``initial_rel_h2_error`` are those of ``init`` as given, before its
    Chat is projected.  Recorded iterates always satisfy
    the stability annulus.  A start whose P or R overflows and a descent
    direction whose squared norm overflows raise ``NumericalOverflow``
    (a trial that overflows is rejected), and data whose identified model
    ``dual`` (A_ls) is not stable raise ``NotStable`` before the
    start is evaluated.  A start outside the annulus or without that
    separation raises ``AssumptionViolated`` before the first iteration.
    """
    if not init.satisfies_spectral_bounds():
        raise AssumptionViolated(
            "initial rom eigenvalues must lie strictly inside the annulus (0, 1)")
    if dual is None:
        dual = reconstruct_dual(ens)
    # f is the h2 error against (A_ls, B_ls, I), which an unstable A_ls lacks
    if not dual.is_stable():
        raise NotStable(f"the identified model A_ls has spectral radius "
                        f"{dual.spectral_radius():.4g} "
                        f"(data residual {dual.data_residual:.3g})")

    evaluator = H2ErrorEvaluator(oracle) if oracle is not None else None

    def rel_error(rom: Rom) -> float | None:
        return evaluator.relative_error(rom) if evaluator is not None else None

    # the start is evaluated as a trial is, then put in input-normal
    # coordinates; every later iterate is the trial that accepted it.  phi,
    # the same there but for rounding, keeps its value at init, which is f's
    # where init is projected already, so the objective never rises from
    # initial_f
    current = Evaluation(dual, init)
    initial_f, initial_rel = current.f, rel_error(init)
    phi = current.phi
    start = _input_normal(init, current.P)
    if start is not init:
        current = Evaluation(dual, start)

    history: list[IterRecord] = []
    rom = init
    d_prev = None
    stop = StopReason.MAX_ITERS

    for it in range(1, params.max_iters + 1):
        iterate = current.projected
        g = data_gradients(dual, iterate, current.gramians(projected=True))
        d = -np.hstack([g.gA, g.gB])
        D = float(np.sum(d * d))
        # a non-finite D would fail every Armijo test; it is a failure of
        # the data's range, not of the step
        if not math.isfinite(D):
            raise NumericalOverflow(
                f"iteration {it}: the squared norm of the descent direction "
                f"(largest entry {np.abs(d).max():.3e}) overflowed: the snapshot "
                "data span beyond the floating-point range")
        logger.debug("iter %d: f=%.6e D=%.3e", it, phi, D)

        if D < params.tol:
            rom = iterate
            history.append(IterRecord(it, phi, D, 0.0, 0, rel_error(rom), True))
            stop = StopReason.CONVERGED
            break

        accepted = None
        if d_prev is None:
            alpha = params.alpha0
        else:
            # alpha and d_prev still hold the last accepted step and its
            # direction: s = alpha d_prev moved the model, y = d_prev - d is
            # the change of the gradient over that move
            y = d_prev - d
            sy = alpha * float(np.sum(d_prev * y))
            alpha = sy / float(np.sum(y * y)) if sy > 0 else min(
                params.alpha0, alpha / params.rho)
        d_prev = d
        for bt in range(params.max_backtracks):
            cand = iterate.stepped(g, alpha)
            if cand.satisfies_spectral_bounds():
                try:
                    trial = Evaluation(dual, cand)
                    if (np.isfinite(trial.phi)
                            and trial.phi <= phi - params.c * alpha * D):
                        accepted = (trial, alpha, bt)
                        break
                except _CANDIDATE_ERRORS:
                    pass
            alpha *= params.rho
        if accepted is None:
            stop = StopReason.BACKTRACK_EXHAUSTED
            break

        current, alpha, bt = accepted
        phi = current.phi
        rom = current.projected
        history.append(IterRecord(it, phi, D, alpha, bt, rel_error(rom), True))

    return OptimResult(rom=rom, history=tuple(history), stop_reason=stop,
                       initial_f=float(initial_f),
                       initial_rel_h2_error=initial_rel)
