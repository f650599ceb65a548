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
step along ``-[gA gB]`` by ``rho`` until phi decreases by the Armijo margin
while the candidate stays inside the stability annulus.  A search opens at
the short Barzilai-Borwein step ``<s, y> / <y, y>`` (Barzilai & Borwein, IMA
J. Numer. Anal. 8 (1988) 141-148), where ``s`` is the last accepted move and
``y`` the change of the direction over it.  The step fits the curvature
along the last move, so most iterations accept their first trial; it is not
capped at ``alpha0``.  The first iteration has no move to fit, and where
``<s, y> <= 0`` there is no curvature to fit; those searches open blind, at
``alpha0 rho^k`` for the least k that puts the step at or below the Armijo
bound of the variable-projection Gauss-Newton model (Kaufman, BIT 15 (1975)
49-57), ``(1 - c) D / d^T M d`` (``Evaluation.curvature``); the steps above
it are those the model says fail.  Phi never rises.

A trial step factors its Ahat once (the spectral bounds read the
eigenvalues off that factor) and evaluates phi with ``Evaluation`` against
``dual``, the identified model, which the reconstruction factored once:
the P and R equations are solved in Schur coordinates and back-transformed,
and phi is f at ``Chat* = R P^+``; a trial whose step, P or R overflows
is rejected.  The start is evaluated as a trial is; its ``f`` as given is
``initial_f``.  The descent then starts from the same transfer function in
input-normal coordinates, where P is the identity, so that ``Chat*`` and
the gradient at it do not scale rounding in R by cond(P), which reaches
1e7 for random single-input roms.  The accepted
trial's ``Evaluation`` becomes the next iterate: its gradient reuses P and
R and solves only Q and S at the projected rom, so every iterate has one
value of phi and one solve of each equation; a blind search adds one r x r
Stein sweep, for its curvature.
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
from .sysmodel import Evaluation, H2ErrorEvaluator, LtiSystem, Rom, require_shared_io

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

    alpha0         : blind opening, of the first iteration's search and of
                     any whose last move showed no positive curvature; it
                     is tried at itself times the least power of rho that
                     puts it at or below the Gauss-Newton model's Armijo
                     bound
    c              : Armijo decrease coefficient
    rho            : backtracking shrink factor; every failed trial is
                     followed by the step times rho
    tol            : stop once D, the squared norm of the gradient ``(gA,
                     gB)`` of the projected objective, falls below this
    max_iters      : iterations, each one line search, before the descent
                     stops with ``MAX_ITERS``
    max_backtracks : trials of one iteration's search before the descent
                     stops with ``BACKTRACK_EXHAUSTED``
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


def _model_opening(params: OptimParams, D: float, curvature: float) -> float:
    """``alpha0 rho^k`` for the least k >= 0 that puts the step at or below
    the Gauss-Newton model's Armijo bound ``(1 - c) D / curvature``.

    Along ``d = -[gA gB]`` with ``D = |d|^2`` and curvature ``d^T M d``
    (``Evaluation.curvature``), the model ``phi - alpha D + alpha^2 d^T M d``
    meets the Armijo line ``phi - c alpha D`` at that bound, so the blind
    steps above it are the trials the model says fail.  k is solved in
    closed form, so a rho near 1 costs no loop.  Without a positive, finite
    curvature and bound there is no bound, and k = 0.
    """
    top = params.alpha0
    bound = (1.0 - params.c) * D / curvature if 0.0 < curvature < math.inf else math.inf
    if not 0.0 < bound < top:
        return top
    rho = params.rho
    k = max(1, math.ceil(math.log(bound / top) / math.log(rho)))
    # the logarithms round; the powers settle k
    if top * rho ** k > bound:
        k += 1
    elif k > 1 and top * rho ** (k - 1) <= bound:
        k -= 1
    return top * rho ** k


def _armijo_trial(dual: DualData, iterate: Rom, g, alpha: float,
                  ceiling: float) -> Evaluation | None:
    """The evaluation of the step ``alpha`` from ``iterate`` along ``-g``
    when it stays inside the stability annulus and its phi is finite and at
    most ``ceiling``; None otherwise."""
    try:
        cand = iterate.stepped(g, alpha)
        if not cand.satisfies_spectral_bounds():
            return None
        trial = Evaluation(dual, cand)
        return trial if np.isfinite(trial.phi) and trial.phi <= ceiling else None
    except _CANDIDATE_ERRORS:
        return None


# a trial that overflows is rejected by its non-finite phi, an iterate by
# its non-finite D, so an overflow is a decision here, not a warning
@np.errstate(over="ignore", invalid="ignore")
def run(ens: DataEnsemble | None, init: Rom, params: OptimParams = OptimParams(), *,
        oracle: LtiSystem | None = None,
        dual: DualData | None = None) -> OptimResult:
    """Descend the projected data-driven h2 objective starting from ``init``.

    Parameters
    ----------
    ens : snapshot ensemble, read only to identify ``dual`` when none is
        given; None when ``dual`` is
    init : starting reduced model; must lie inside the stability annulus,
        with its reciprocal poles separated from the spectrum of
        ``dual`` and of ``oracle``
    oracle : optional full-order system used solely to log the true
        relative h2 error per iterate
    dual : the identified model the gradients are taken against, for
        instance ``reconstruct_dual_known_input(ens, B)`` when the input
        matrix B is known; by default ``reconstruct_dual(ens)``.  The
        descent reads the data only through it, so a caller that passes it
        need not hold the snapshots

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
    (a trial that overflows is rejected).  Before the start is evaluated,
    data whose identified model ``dual`` (A_ls) is not stable raise
    ``NotStable``, and a start whose inputs or outputs are not those of
    ``dual`` raises ``ValueError``.  A start outside the annulus or
    without that separation raises ``AssumptionViolated`` before the first
    iteration.
    """
    if not init.satisfies_spectral_bounds():
        raise AssumptionViolated(
            "initial rom eigenvalues must lie strictly inside the annulus (0, 1)")
    if dual is None:
        if ens is None:
            raise ValueError("run needs the snapshot ensemble or its identified model dual")
        dual = reconstruct_dual(ens)
    require_shared_io(dual, init)
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

        sy = -math.inf
        if d_prev is not None:
            # alpha and d_prev still hold the last accepted step and its
            # direction: s = alpha d_prev moved the model, y = d_prev - d is
            # the change of the gradient over that move
            y = d_prev - d
            sy = alpha * float(np.sum(d_prev * y))
        d_prev = d
        # without a positive curvature along the last move the search opens
        # blind, at alpha0 shortened to the Gauss-Newton model's bound
        alpha = (sy / float(np.sum(y * y)) if sy > 0
                 else _model_opening(params, D, current.curvature(-g.gA, -g.gB)))
        for trials in range(1, params.max_backtracks + 1):
            trial = _armijo_trial(dual, iterate, g, alpha, phi - params.c * alpha * D)
            if trial is not None:
                break
            alpha *= params.rho
        else:
            stop = StopReason.BACKTRACK_EXHAUSTED
            break

        current, phi = trial, trial.phi
        rom = current.projected
        history.append(IterRecord(it, phi, D, alpha, trials - 1, rel_error(rom), True))

    return OptimResult(rom=rom, history=tuple(history), stop_reason=stop,
                       initial_f=float(initial_f),
                       initial_rel_h2_error=initial_rel)
