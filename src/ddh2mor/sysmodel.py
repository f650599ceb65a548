"""Discrete-time LTI systems, h2 norms and errors, and gradient oracles.

Systems follow the recursion ``x_{k+1} = A x_k + B u_k`` with output
``y_k = C x_k``.  A reduced model ``Rom`` and the model the data identify,
``ddgrad.DualData``, are each an ``LtiSystem``: they share the validation,
the cached Schur factor and the spectral reads, so every function that
takes a system takes either as well.  The h2 norm is evaluated through the
controllability gramian.  ``Evaluation`` is the one evaluation of a rom
against a model: the descent runs it against the identified model and
``H2ErrorEvaluator`` against a known system, each on the model's cached
Schur factor.  The model-based objective gradients provide the reference
implementation against which the data-driven path is verified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import AssumptionViolated, GenerationFailed, NumericalOverflow, SingularShift
from .matequ import (EIG_CEIL_MARGIN, EIG_FLOOR, UNIQUE_TOL, SchurFactor, from_schur,
                     significant, solve_discrete_sylvester, solve_schur, solve_stein,
                     stein_schur, to_schur)

__all__ = [
    "ErrorGramians",
    "Evaluation",
    "GramianSet",
    "GradientTriple",
    "H2ErrorEvaluator",
    "LtiSystem",
    "Rom",
    "SyntheticSpec",
    "assemble_gradients",
    "error_gramians",
    "generate_synthetic",
    "h2_error",
    "h2_norm",
    "markov_parameters",
    "model_based_gradients",
    "objective_f",
    "require_separation",
    "require_shared_io",
    "transfer_eval",
]


def _matrix(value, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True)
class LtiSystem:
    """System (A, B, C) with ``y = C x``, full order or reduced.

    ``schur`` factors A on first use; every evaluation and spectral check
    against this system reuses that one factor, and so do its gramians
    ``P`` and ``Q``, one Stein sweep each, solved on first use and kept.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self._set(_matrix(self.A, "A"), _matrix(self.B, "B"), _matrix(self.C, "C"))

    def _set(self, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> None:
        """Store arrays that ``_matrix`` has checked, once their shapes agree."""
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError("A must be square")
        if B.shape[0] != n:
            raise ValueError("B must have as many rows as A")
        if C.shape[1] != n:
            raise ValueError("C must have as many columns as A")
        for name, M in (("A", A), ("B", B), ("C", C)):
            M.flags.writeable = False
            object.__setattr__(self, name, M)

    @staticmethod
    def with_identity_output(A, B) -> "LtiSystem":
        """The system ``(A, B, I)``; A and B are checked once, I not at all."""
        A = _matrix(A, "A")
        out = object.__new__(LtiSystem)
        out._set(A, _matrix(B, "B"), np.eye(A.shape[0]))
        return out

    def with_output(self, C) -> "LtiSystem":
        """This system with the output map ``C``, sharing the factor of A and,
        once solved, the gramian P, which depends on A and B alone.  Only C
        is checked: A and B are this system's, checked already.  A rom stays
        a ``Rom``; any other system, the identified model among them, gives
        a plain ``LtiSystem``, so no copy lacks the fields of its class."""
        out = object.__new__(Rom if isinstance(self, Rom) else LtiSystem)
        out._set(self.A, self.B, _matrix(C, "C"))
        # a cached_property lives in the instance dict, frozen or not
        vars(out)["schur"] = self.schur
        if "P" in vars(self):
            vars(out)["P"] = self.P
        return out

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @cached_property
    def schur(self) -> SchurFactor:
        return SchurFactor.of(self.A)

    @cached_property
    def b_schur(self) -> np.ndarray:
        """``Z^H B`` for ``A = Z T Z^H``."""
        return self.schur.ZH @ self.B

    @cached_property
    def P(self) -> np.ndarray:
        """Controllability gramian, ``A P A^T + B B^T = P``, symmetrized; the
        right-hand side is ``(Zn^T B)(Z^H B)^T`` for Zn the Schur vectors of A^T."""
        fa, fn = self.schur, self.schur.transposed()
        P = from_schur(fa, fn, stein_schur(fa, fn, (fn.Z.T @ self.B) @ self.b_schur.T))
        return 0.5 * (P + P.T)

    @cached_property
    def Q(self) -> np.ndarray:
        """Observability gramian, ``A^T Q A + C^T C = Q``, symmetrized."""
        fa, fn = self.schur, self.schur.transposed()
        Q = from_schur(fn, fa, stein_schur(fn, fa, to_schur(fn, fa, self.C.T @ self.C)))
        return 0.5 * (Q + Q.T)

    def eig_moduli(self) -> np.ndarray:
        return np.abs(self.schur.eigvals)

    def spectral_radius(self) -> float:
        return float(self.eig_moduli().max(initial=0.0))

    def is_stable(self) -> bool:
        return self.spectral_radius() < 1.0 - EIG_CEIL_MARGIN


@dataclass(frozen=True)
class Rom(LtiSystem):
    """Reduced-order model: an ``LtiSystem`` of order r, whose matrices the
    descent also reads as (Ahat, Bhat, Chat)."""

    @property
    def Ahat(self) -> np.ndarray:
        return self.A

    @property
    def Bhat(self) -> np.ndarray:
        return self.B

    @property
    def Chat(self) -> np.ndarray:
        return self.C

    @property
    def r(self) -> int:
        return self.n

    def satisfies_spectral_bounds(self) -> bool:
        """All eigenvalue moduli strictly inside the stability annulus."""
        mods = self.eig_moduli()
        return bool(np.all(mods > EIG_FLOOR) and np.all(mods < 1.0 - EIG_CEIL_MARGIN))

    def stepped(self, gradients: "GradientTriple", step: float) -> "Rom":
        """Gradient-descent update with the given step size."""
        return Rom(self.A - step * gradients.gA,
                   self.B - step * gradients.gB,
                   self.C - step * gradients.gC)


@dataclass(frozen=True)
class GradientTriple:
    """Objective gradients with respect to (Ahat, Bhat, Chat)."""

    gA: np.ndarray
    gB: np.ndarray
    gC: np.ndarray


@dataclass(frozen=True)
class GramianSet:
    """Per-iterate solutions feeding the gradient assembly.

    P, Q are the reduced gramians; R, S the cross terms against the model.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class ErrorGramians(GramianSet):
    """Blocks of the error-system gramians: the ``GramianSet`` of the rom
    against the system, and SigmaC / SigmaO, the full-order controllability
    / observability gramians.
    """

    SigmaC: np.ndarray
    SigmaO: np.ndarray


def transfer_eval(sys: LtiSystem, z: complex) -> np.ndarray:
    """Evaluate the transfer function ``C (zI - A)^{-1} B`` at a point z."""
    F = z * np.eye(sys.n) - sys.A
    lu, piv = scipy.linalg.lu_factor(F, check_finite=False)
    diag = np.abs(np.diag(lu))
    if not np.all(np.isfinite(diag)) or diag.min(initial=np.inf) < 1e-14 * max(1.0, diag.max(initial=0.0)):
        raise SingularShift(f"evaluation point {z} is numerically a pole")
    return sys.C @ scipy.linalg.lu_solve((lu, piv), sys.B.astype(complex), check_finite=False)


def markov_parameters(sys: LtiSystem, count: int) -> np.ndarray:
    """Impulse-response samples ``C A^{k-1} B`` for k = 1..count."""
    out = np.empty((count, sys.p, sys.m))
    ak_b = sys.B
    for k in range(count):
        out[k] = sys.C @ ak_b
        ak_b = sys.A @ ak_b
    return out


def h2_norm(sys: LtiSystem) -> float:
    """h2 norm from the controllability gramian: sqrt(tr(C P C^T))."""
    return float(np.sqrt(max(np.trace(sys.C @ sys.P @ sys.C.T), 0.0)))


def require_shared_io(sys: LtiSystem, rom: Rom) -> None:
    """Raise ValueError unless ``rom`` has the inputs and outputs of ``sys``."""
    if rom.p != sys.p or rom.m != sys.m:
        raise ValueError("system and rom must share input/output dimensions")


def h2_error(sys: LtiSystem, rom: Rom) -> float:
    """h2 norm of the difference system, via its controllability gramian."""
    require_shared_io(sys, rom)
    Ae = scipy.linalg.block_diag(sys.A, rom.A)
    Be = np.vstack([sys.B, rom.B])
    Ce = np.hstack([sys.C, -rom.C])
    Ec = solve_stein(Ae, Be @ Be.T)
    return float(np.sqrt(max(np.trace(Ce @ Ec @ Ce.T), 0.0)))


def error_gramians(sys: LtiSystem, rom: Rom) -> ErrorGramians:
    """Solve the individual block equations of the error-system gramians."""
    A, B, C = sys.A, sys.B, sys.C
    Ah, Bh, Ch = rom.A, rom.B, rom.C
    return ErrorGramians(
        SigmaC=solve_stein(A, B @ B.T),
        SigmaO=solve_stein(A.T, C.T @ C),
        P=solve_stein(Ah, Bh @ Bh.T),
        Q=solve_stein(Ah.T, Ch.T @ Ch),
        R=solve_discrete_sylvester(A, Ah.T, B @ Bh.T),
        S=solve_discrete_sylvester(A.T, Ah, -C.T @ Ch),
    )


def assemble_gradients(rom: Rom, A: np.ndarray, B: np.ndarray, C: np.ndarray,
                       g) -> GradientTriple:
    """Gradients of the squared h2 error of ``rom`` against a model (A, B, C),
    from the gramians P, Q and cross terms R, S in ``g``; the model-based
    and the data-driven gradients are both this assembly."""
    gA = 2.0 * (g.Q @ rom.A @ g.P + g.S.T @ A @ g.R)
    gB = 2.0 * (g.S.T @ B + g.Q @ rom.B)
    gC = 2.0 * (rom.C @ g.P - C @ g.R)
    return GradientTriple(gA, gB, gC)


def model_based_gradients(sys: LtiSystem, rom: Rom) -> GradientTriple:
    """Objective gradients computed from the full-order model.

    Uses the gramian blocks P, Q and the cross terms R, S; this is the
    reference the data-driven route must reproduce on exact data.
    """
    return assemble_gradients(rom, sys.A, sys.B, sys.C, error_gramians(sys, rom))


# minimum distance between a model's spectrum and reciprocal rom poles
SEPARATION_TOL = 1e-10


def require_separation(coef: SchurFactor, lam: np.ndarray) -> None:
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
            f"model spectrum within {sep:.3e} of a reciprocal rom pole "
            f"(tolerance {SEPARATION_TOL:g})")


def objective_f(rom: Rom, P: np.ndarray, CR: np.ndarray) -> float:
    """Reduced part of the squared h2 error: tr(Chat P Chat^T) - 2 tr(C R Chat^T).

    The omitted full-order gramian term is constant in the rom, so this,
    at the closed-form Chat of ``Evaluation``, is the quantity the descent
    monitors; it may be negative.  ``CR`` is the product C R.
    """
    return _objective(rom.C, P, CR)


def _objective(Chat: np.ndarray, P: np.ndarray, CR: np.ndarray) -> float:
    # the sum methods reduce as np.sum does, without its dispatch
    return float(((Chat @ P) * Chat).sum() - 2.0 * (CR * Chat).sum())


def _times_psd_pinv(R: np.ndarray, P: np.ndarray) -> np.ndarray:
    """``R P^+`` for a symmetric positive semidefinite P, through ``eigh``.

    Eigenvalues up to ``RANK_TOL`` times the largest are treated as zero
    (``significant``), so ``P = 0`` gives ``R P^+ = 0``.  R is taken into P's eigenbasis
    before the division, so ``1 / w_min`` scales R's component along its
    eigenvector alone; a formed ``P^+`` would spread that entry's rounding
    into every direction.
    """
    w, V = np.linalg.eigh(P)
    keep = significant(w)
    Vk = V[:, keep]
    return ((R @ Vk) / w[keep]) @ Vk.T


class Evaluation:
    """The h2 objective of one rom against a model (A, B, C), and at its projection.

    The squared error is ``tr(C Sigma_c C^T) + f`` with
    ``f = tr(Chat P Chat^T) - 2 tr(C R Chat^T)``.  P and R depend on
    (Ahat, Bhat) alone, so one sweep of each serves both the rom as given
    and the projected rom ``(Ahat, Bhat, chat_star)``: f is a convex
    quadratic in Chat, minimized by ``chat_star = C R P^+``, where the
    gradient block ``gC = 2 (Chat P - C R)`` vanishes, and its value there,
    ``phi``, is the objective the descent minimizes over (Ahat, Bhat)
    (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973)
    413-432).  ``P^+`` is the min-norm inverse of ``_times_psd_pinv``, so
    ``Bhat = 0`` gives ``chat_star = 0``.

    The descent evaluates against the identified model ``DualData`` and
    ``H2ErrorEvaluator`` against a known system.  P is ``rom.P``, so the
    oracle's evaluation of an iterate reuses the descent's.  Each
    evaluation sweeps and back-transforms R (O(n^2 r)) and sets ``f``;
    ``chat_star``, ``phi`` and ``projected`` (which reuses the factor of
    Ahat and P) follow on first use.  ``phi`` is ``objective_f`` at
    ``projected``, so a rom whose Chat already is its ``chat_star`` has
    ``f == phi`` to the bit.  The guards are stability (``NotStable``),
    the separation of A from the reciprocal rom poles
    (``AssumptionViolated``) and finite P and R (``NumericalOverflow``).
    """

    # an overflow is reported by the finiteness check, not as a warning
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, model: LtiSystem, rom: LtiSystem):
        fm, fn = model.schur, rom.schur.transposed()
        require_separation(fm, fn.eigvals)
        # R in Schur coordinates, (Zm^H R Zn)^T for A = Zm Tm Zm^H and Zn the
        # Schur vectors of Ahat^T; rom.P raises NotStable unless Ahat is stable
        self.P = rom.P
        self.R = from_schur(fm, fn, solve_schur(fm, fn, (fn.Z.T @ rom.B) @ model.b_schur.T))
        if not (np.isfinite(self.P).all() and np.isfinite(self.R).all()):
            raise NumericalOverflow("the gramian P or the cross term R of the rom "
                                    "overflowed the floating-point range")
        self.CR = model.C @ self.R
        self.f = objective_f(rom, self.P, self.CR)
        self.rom = rom
        self.model = model

    @cached_property
    def chat_star(self) -> np.ndarray:
        return _times_psd_pinv(self.CR, self.P)

    @cached_property
    def projected(self) -> LtiSystem:
        return self.rom.with_output(self.chat_star)

    @cached_property
    def phi(self) -> float:
        return _objective(self.chat_star, self.P, self.CR)

    def gramians(self, *, projected: bool = False) -> GramianSet:
        """Every solve one gradient evaluation needs.

        At the rom as given, or at ``projected``; P and R are this
        evaluation's, Q is that rom's ``Q``, and only S is swept here:
        ``A^T S Ahat - C^T Chat = S``, on spectra already checked.
        """
        rom = self.projected if projected else self.rom
        fa, fs = rom.schur, self.model.schur.transposed()
        W = -self.model.C.T @ rom.C
        S = from_schur(fs, fa, solve_schur(fs, fa, to_schur(fs, fa, W)))
        return GramianSet(self.P, rom.Q, self.R, S)


class H2ErrorEvaluator:
    """Repeated h2-error evaluations against one fixed full-order system.

    Computes the full-order gramian term once, from the system's gramian
    ``sys.P``; each call adds the reduced and cross terms, the ``f`` of one
    ``Evaluation``, which reads the rom's P where the descent solved it.
    """

    def __init__(self, sys: LtiSystem):
        self._sys = sys
        self._trace_full = float(np.trace(sys.C @ sys.P @ sys.C.T))
        self._h2 = float(np.sqrt(max(self._trace_full, 0.0)))

    @property
    def h2_norm(self) -> float:
        return self._h2

    def error(self, rom: LtiSystem) -> float:
        require_shared_io(self._sys, rom)
        f = Evaluation(self._sys, rom).f
        return float(np.sqrt(max(self._trace_full + f, 0.0)))

    def relative_error(self, rom: LtiSystem) -> float:
        return self.error(rom) / self._h2


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the synthetic benchmark generator."""

    n: int
    m: int
    h: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be finite and positive, got {self.h}")


def _expm_integral(gen: np.ndarray, eah: np.ndarray) -> np.ndarray:
    """Integral of expm(gen * t) over [0, h], given ``eah = expm(gen * h)``:
    ``gen^{-1} (eah - I)``.

    The one caller's generator ``(J - R) Q``, J skew and R, Q >= 0.1 I, has
    smallest singular value at least 0.01: for a unit x, ``|(J - R) x| >=
    |x^T (J - R) x| = x^T R x >= 0.1``, and Q's is at least 0.1.
    """
    return np.linalg.solve(gen, eah - np.eye(gen.shape[0]))


def generate_synthetic(spec: SyntheticSpec) -> LtiSystem:
    """Random stable benchmark system with identity output.

    A continuous-time generator ``(J - R) Q`` with skew-symmetric J and
    positive-definite R, Q is discretized exactly with step h: the state
    matrix is its exponential and the input matrix is the matching
    exponential integral applied to a Gaussian draw.
    """
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m
    for _ in range(10):
        G = rng.standard_normal((n, n))
        J = 0.5 * (G - G.T)
        G = rng.standard_normal((n, n))
        R = G @ G.T + 0.1 * np.eye(n)
        G = rng.standard_normal((n, n))
        Q = G @ G.T + 0.1 * np.eye(n)
        gen = (J - R) @ Q
        A = scipy.linalg.expm(gen * spec.h)
        B = _expm_integral(gen, A) @ rng.standard_normal((n, m))
        sys = LtiSystem.with_identity_output(A, B)
        if sys.is_stable():
            return sys
    raise GenerationFailed("no stable draw in 10 attempts")
