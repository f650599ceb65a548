"""Gradient descent on the data-driven h2 objective.

Each iteration assembles the data-driven gradients, stacks them into one
descent direction, and backtracks the step until the objective decreases
by the Armijo margin while the candidate stays inside the stability
annulus.  The first trial step of the first iteration is ``alpha0``; every
later iteration opens at the short Barzilai-Borwein step
``<s, y> / <y, y>`` (Barzilai & Borwein, IMA J. Numer. Anal. 8 (1988)
141-148), where ``s`` is the last accepted move and ``y`` the change of the
stacked direction over it.  The step fits the curvature along the last
move, so most iterations accept their first trial; it is not capped at
``alpha0``.  Where ``<s, y> <= 0`` there is no curvature to fit, and the
search opens at ``min(alpha0, alpha_prev / rho)``, one expansion of the
step accepted last.  Backtracking stays monotone, so ``f`` never rises.

A trial step factors its Ahat once (the spectral bounds read the
eigenvalues off that factor) and evaluates the objective with
``Evaluation``: the P and R equations are solved in Schur coordinates and
the objective is read off the solutions as inner products.  The start is
evaluated as a trial is, and the accepted trial's ``Evaluation`` becomes
the next iterate: its gradient back-transforms the kept P and R and solves
only Q and S, so every iterate has one value of f and one solve of each
equation.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from .dataio import DataEnsemble, IterRecord
from .ddgrad import DualData, Evaluation, data_gradients, reconstruct_dual
from .errors import AssumptionViolated, NotStable
from .sysmodel import GradientTriple, H2ErrorEvaluator, LtiSystem, Rom

__all__ = [
    "OptimParams",
    "OptimResult",
    "StopReason",
    "run",
    "stack_direction",
]

logger = logging.getLogger(__name__)

# errors that merely disqualify a trial step during backtracking
_CANDIDATE_ERRORS = (AssumptionViolated, NotStable)


class StopReason(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    ASSUMPTION_VIOLATED = "assumption_violated"
    BACKTRACK_EXHAUSTED = "backtrack_exhausted"


@dataclass(frozen=True)
class OptimParams:
    """Line-search and termination parameters.

    alpha0 : first trial step of the first iteration; caps the fallback
             first trial ``min(alpha0, alpha_prev / rho)`` of a later
             iteration whose last move showed no positive curvature
    c      : Armijo decrease coefficient
    rho    : backtracking shrink factor
    tol    : stop once the squared direction norm D falls below this
    """

    alpha0: float = 1.0
    c: float = 1e-4
    rho: float = 0.5
    tol: float = 1e-3
    max_iters: int = 500
    max_backtracks: int = 60

    def __post_init__(self):
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


def stack_direction(g: GradientTriple) -> np.ndarray:
    """Negative gradients stacked into one (n + r) x (r + m) block matrix."""
    r, m = g.gA.shape[0], g.gB.shape[1]
    n = g.gC.shape[0]
    d = np.zeros((n + r, r + m))
    d[:r, :r] = -g.gA
    d[:r, r:] = -g.gB
    d[r:, :r] = -g.gC
    return d


def _record(history, sink, rec: IterRecord) -> None:
    history.append(rec)
    if sink is not None:
        sink(rec)


def run(ens: DataEnsemble, init: Rom, params: OptimParams = OptimParams(), *,
        oracle: LtiSystem | None = None, sink=None,
        dual: DualData | None = None) -> OptimResult:
    """Descend the data-driven h2 objective starting from ``init``.

    Parameters
    ----------
    ens : snapshot ensemble driving the gradients
    init : starting reduced model; must lie inside the stability annulus
    oracle : optional full-order system used solely to log the true
        relative h2 error per iterate
    sink : optional callable receiving each IterRecord as it is produced
    dual : an already reconstructed DualData, for instance
        ``reconstruct_dual_known_input(ens, B)`` when the input matrix B is
        known; by default ``reconstruct_dual(ens)`` is used

    Returns
    -------
    OptimResult with the last accepted rom, the iteration history, and
    the stop reason.  Accepted iterates always satisfy the stability
    annulus; the objective column of the history is non-increasing.
    """
    if not init.satisfies_spectral_bounds():
        raise AssumptionViolated(
            "initial rom eigenvalues must lie strictly inside the annulus (0, 1)")
    if dual is None:
        dual = reconstruct_dual(ens)

    evaluator = H2ErrorEvaluator(oracle) if oracle is not None else None

    def rel_error(rom: Rom) -> float | None:
        return evaluator.relative_error(rom) if evaluator is not None else None

    history: list[IterRecord] = []
    rom = init
    initial_f = np.nan
    initial_rel = None
    stop = StopReason.MAX_ITERS

    for it in range(1, params.max_iters + 1):
        try:
            if it == 1:
                # the start is evaluated as a trial is; every later iterate
                # is the trial that accepted it
                current = Evaluation(dual, rom)
            g = data_gradients(rom, current.gramians())
        except AssumptionViolated:
            stop = StopReason.ASSUMPTION_VIOLATED
            break

        d = stack_direction(g)
        D = float(np.sum(d * d))
        if it == 1:
            initial_f = current.f
            initial_rel = rel_error(rom)
        logger.debug("iter %d: f=%.6e D=%.3e", it, current.f, D)

        if D < params.tol:
            _record(history, sink, IterRecord(it, current.f, D, 0.0, 0,
                                              rel_error(rom), True))
            stop = StopReason.CONVERGED
            break

        accepted = None
        if it == 1:
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
            cand = rom.stepped(g, alpha)
            if cand.satisfies_spectral_bounds():
                try:
                    trial = Evaluation(dual, cand)
                    if np.isfinite(trial.f) and trial.f <= current.f - params.c * alpha * D:
                        accepted = (trial, alpha, bt)
                        break
                except _CANDIDATE_ERRORS:
                    pass
            alpha *= params.rho
        if accepted is None:
            stop = StopReason.BACKTRACK_EXHAUSTED
            break

        current, alpha, bt = accepted
        rom = current.rom
        _record(history, sink, IterRecord(it, current.f, D, alpha, bt,
                                          rel_error(rom), True))

    return OptimResult(rom=rom, history=tuple(history), stop_reason=stop,
                       initial_f=float(initial_f),
                       initial_rel_h2_error=initial_rel)
