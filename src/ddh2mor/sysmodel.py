"""Discrete-time LTI systems, h2 norms and errors, and gradient oracles.

Systems follow the recursion ``x_{k+1} = A x_k + B u_k`` with output
``y_k = C x_k``.  The h2 norm is evaluated through the controllability
gramian.  ``Evaluation`` is the one evaluation of a rom against a model: the
descent runs it against the identified model of the data and
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
from .matequ import (EIG_CEIL_MARGIN, EIG_FLOOR, RANK_TOL, UNIQUE_TOL, SchurFactor,
                     from_schur, solve_discrete_sylvester, solve_schur, solve_stein,
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
    "simulate",
    "transfer_eval",
]


def _matrix(value, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    return M


@dataclass(frozen=True)
class LtiSystem:
    """Full-order system (A, B, C) with ``y = C x``.

    ``schur`` factors A on first use; every evaluation and spectral check
    against this system reuses that one factor.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _matrix(self.A, "A")
        B = _matrix(self.B, "B")
        C = _matrix(self.C, "C")
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

    @classmethod
    def with_identity_output(cls, A, B) -> "LtiSystem":
        A = _matrix(A, "A")
        return cls(A, B, np.eye(A.shape[0]))

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
    def identity_output(self) -> bool:
        """Whether C is the identity, so that ``C X`` is X itself."""
        return self.p == self.n and np.array_equal(self.C, np.eye(self.n))

    def spectral_radius(self) -> float:
        return float(np.abs(self.schur.eigvals).max(initial=0.0))

    def is_stable(self) -> bool:
        return self.spectral_radius() < 1.0 - EIG_CEIL_MARGIN


@dataclass(frozen=True)
class Rom:
    """Reduced-order model (Ahat, Bhat, Chat).

    ``schur`` factors Ahat on first use; every solve and spectral check on
    this rom reuses that one factor.
    """

    Ahat: np.ndarray
    Bhat: np.ndarray
    Chat: np.ndarray

    def __post_init__(self):
        Ahat = _matrix(self.Ahat, "Ahat")
        Bhat = _matrix(self.Bhat, "Bhat")
        Chat = _matrix(self.Chat, "Chat")
        r = Ahat.shape[0]
        if Ahat.shape != (r, r):
            raise ValueError("Ahat must be square")
        if Bhat.shape[0] != r:
            raise ValueError("Bhat must have as many rows as Ahat")
        if Chat.shape[1] != r:
            raise ValueError("Chat must have as many columns as Ahat")
        for name, M in (("Ahat", Ahat), ("Bhat", Bhat), ("Chat", Chat)):
            M.flags.writeable = False
            object.__setattr__(self, name, M)

    @property
    def r(self) -> int:
        return self.Ahat.shape[0]

    @property
    def m(self) -> int:
        return self.Bhat.shape[1]

    @property
    def p(self) -> int:
        return self.Chat.shape[0]

    @cached_property
    def schur(self) -> SchurFactor:
        return SchurFactor.of(self.Ahat)

    def eig_moduli(self) -> np.ndarray:
        return np.abs(self.schur.eigvals)

    def satisfies_spectral_bounds(self) -> bool:
        """All eigenvalue moduli strictly inside the stability annulus."""
        mods = self.eig_moduli()
        return bool(np.all(mods > EIG_FLOOR) and np.all(mods < 1.0 - EIG_CEIL_MARGIN))

    def as_system(self) -> LtiSystem:
        return LtiSystem(self.Ahat, self.Bhat, self.Chat)

    def with_output(self, Chat) -> "Rom":
        """This rom with the output map ``Chat``, sharing the factor of Ahat."""
        out = Rom(self.Ahat, self.Bhat, Chat)
        # a cached_property lives in the instance dict, frozen or not
        vars(out)["schur"] = self.schur
        return out

    def stepped(self, gradients: "GradientTriple", step: float) -> "Rom":
        """Gradient-descent update with the given step size."""
        return Rom(self.Ahat - step * gradients.gA,
                   self.Bhat - step * gradients.gB,
                   self.Chat - step * gradients.gC)


@dataclass(frozen=True)
class GradientTriple:
    """Objective gradients with respect to (Ahat, Bhat, Chat)."""

    gA: np.ndarray
    gB: np.ndarray
    gC: np.ndarray


@dataclass(frozen=True)
class ErrorGramians:
    """Blocks of the error-system gramians.

    SigmaC / SigmaO are the full-order controllability / observability
    gramians, P / Q their reduced-order counterparts, and R / S the
    cross terms coupling the two models.
    """

    SigmaC: np.ndarray
    SigmaO: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray


def _abc(sys_like) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(sys_like, Rom):
        return sys_like.Ahat, sys_like.Bhat, sys_like.Chat
    return sys_like.A, sys_like.B, sys_like.C


def transfer_eval(sys_like, z: complex) -> np.ndarray:
    """Evaluate the transfer function ``C (zI - A)^{-1} B`` at a point z."""
    A, B, C = _abc(sys_like)
    F = z * np.eye(A.shape[0]) - A
    lu, piv = scipy.linalg.lu_factor(F, check_finite=False)
    diag = np.abs(np.diag(lu))
    if not np.all(np.isfinite(diag)) or diag.min(initial=np.inf) < 1e-14 * max(1.0, diag.max(initial=0.0)):
        raise SingularShift(f"evaluation point {z} is numerically a pole")
    return C @ scipy.linalg.lu_solve((lu, piv), B.astype(complex), check_finite=False)


def simulate(sys: LtiSystem, x0, inputs) -> np.ndarray:
    """Run the state recursion; returns ``len(inputs) + 1`` states, x0 first."""
    x0 = np.asarray(x0, dtype=float).reshape(sys.n)
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.size and inputs.shape[1] != sys.m:
        raise ValueError(f"inputs must have {sys.m} columns")
    states = np.empty((inputs.shape[0] + 1, sys.n))
    states[0] = x0
    for k, u in enumerate(inputs):
        states[k + 1] = sys.A @ states[k] + sys.B @ u
    return states


def markov_parameters(sys_like, count: int) -> np.ndarray:
    """Impulse-response samples ``C A^{k-1} B`` for k = 1..count."""
    A, B, C = _abc(sys_like)
    out = np.empty((count, C.shape[0], B.shape[1]))
    ak_b = B
    for k in range(count):
        out[k] = C @ ak_b
        ak_b = A @ ak_b
    return out


def h2_norm(sys_like) -> float:
    """h2 norm from the controllability gramian: sqrt(tr(C Sigma_c C^T))."""
    A, B, C = _abc(sys_like)
    sigma_c = solve_stein(A, B @ B.T)
    return float(np.sqrt(max(np.trace(C @ sigma_c @ C.T), 0.0)))


def require_shared_io(sys: LtiSystem, rom: Rom) -> None:
    """Raise ValueError unless ``rom`` has the inputs and outputs of ``sys``."""
    if rom.p != sys.p or rom.m != sys.m:
        raise ValueError("system and rom must share input/output dimensions")


def h2_error(sys: LtiSystem, rom: Rom) -> float:
    """h2 norm of the difference system, via its controllability gramian."""
    require_shared_io(sys, rom)
    Ae = scipy.linalg.block_diag(sys.A, rom.Ahat)
    Be = np.vstack([sys.B, rom.Bhat])
    Ce = np.hstack([sys.C, -rom.Chat])
    Ec = solve_stein(Ae, Be @ Be.T)
    return float(np.sqrt(max(np.trace(Ce @ Ec @ Ce.T), 0.0)))


def error_gramians(sys: LtiSystem, rom: Rom) -> ErrorGramians:
    """Solve the individual block equations of the error-system gramians."""
    A, B, C = sys.A, sys.B, sys.C
    Ah, Bh, Ch = rom.Ahat, rom.Bhat, rom.Chat
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
    gA = 2.0 * (g.Q @ rom.Ahat @ g.P + g.S.T @ A @ g.R)
    gB = 2.0 * (g.S.T @ B + g.Q @ rom.Bhat)
    gC = 2.0 * (rom.Chat @ g.P - C @ g.R)
    return GradientTriple(gA, gB, gC)


def model_based_gradients(sys: LtiSystem, rom: Rom) -> GradientTriple:
    """Objective gradients computed from the full-order model.

    Uses the gramian blocks P, Q and the cross terms R, S; this is the
    reference the data-driven route must reproduce on exact data.
    """
    return assemble_gradients(rom, sys.A, sys.B, sys.C, error_gramians(sys, rom))


@dataclass(frozen=True)
class GramianSet:
    """Per-iterate solutions feeding the gradient assembly.

    P, Q are the reduced gramians; R, S the cross terms against the model.
    """

    P: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    S: np.ndarray


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
    monitors; it may be negative.  ``CR`` is the product C R, which is R
    for a model that observes its full state.
    """
    return _objective(rom.Chat, P, CR)


def _objective(Chat: np.ndarray, P: np.ndarray, CR: np.ndarray) -> float:
    # the sum methods reduce as np.sum does, without its dispatch
    return float(((Chat @ P) * Chat).sum() - 2.0 * (CR * Chat).sum())


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

    The descent evaluates against ``DualData.system`` and
    ``H2ErrorEvaluator`` against a known system.  Each evaluation
    back-transforms P and R (O(n^2 r), as the R sweep) and sets ``f``;
    ``chat_star``, ``phi`` and ``projected`` (which reuses the factor of
    Ahat) follow on first use.  ``phi`` is ``objective_f`` at
    ``projected``, so a rom whose Chat already is its ``chat_star`` has
    ``f == phi`` to the bit.  The guards are stability (``NotStable``),
    the separation of A from the reciprocal rom poles
    (``AssumptionViolated``) and finite P and R (``NumericalOverflow``).
    """

    # an overflow is reported by the finiteness check, not as a warning
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, model: LtiSystem, rom: Rom):
        fa, fm = rom.schur, model.schur
        fn = fa.transposed()
        require_separation(fm, fn.eigvals)
        # P and R in Schur coordinates, (Za^H P Zn)^T and (Zm^H R Zn)^T for
        # Ahat = Za Ta Za^H, A = Zm Tm Zm^H and Zn the Schur vectors of Ahat^T;
        # the P sweep raises NotStable unless Ahat is stable
        Bn = fn.Z.T @ rom.Bhat
        Yp = stein_schur(fa, fn, Bn @ (fa.ZH @ rom.Bhat).T)
        Yr = solve_schur(fm, fn, Bn @ model.b_schur.T)
        P = from_schur(fa, fn, Yp)
        self.P = 0.5 * (P + P.T)
        self.R = from_schur(fm, fn, Yr)
        if not (np.isfinite(self.P).all() and np.isfinite(self.R).all()):
            raise NumericalOverflow("the gramian P or the cross term R of the rom "
                                    "overflowed the floating-point range")
        self.CR = self.R if model.identity_output else model.C @ self.R
        self.f = objective_f(rom, self.P, self.CR)
        self.rom = rom
        self.model = model

    @cached_property
    def chat_star(self) -> np.ndarray:
        return _times_psd_pinv(self.CR, self.P)

    @cached_property
    def projected(self) -> Rom:
        return self.rom.with_output(self.chat_star)

    @cached_property
    def phi(self) -> float:
        return _objective(self.chat_star, self.P, self.CR)

    def gramians(self, *, projected: bool = False) -> GramianSet:
        """Every solve one gradient evaluation needs.

        At the rom as given, or at ``projected``; P and R are this
        evaluation's, and only Q and S are solved.  Q solves the Stein
        equation of Ahat^T, whose factor is ``fn`` and whose transposed
        factor is ``rom.schur``; it is symmetrized as ``solve_stein`` does.
        S solves ``A^T S Ahat - C^T Chat = S``, on spectra already checked.
        """
        rom = self.projected if projected else self.rom
        fa = rom.schur
        fn = fa.transposed()
        C = rom.Chat
        Q = from_schur(fn, fa, stein_schur(fn, fa, to_schur(fn, fa, C.T @ C)))
        fs = self.model.schur.transposed()
        W = -C if self.model.identity_output else -self.model.C.T @ C
        S = from_schur(fs, fa, solve_schur(fs, fa, to_schur(fs, fa, W)))
        return GramianSet(self.P, 0.5 * (Q + Q.T), self.R, S)


class H2ErrorEvaluator:
    """Repeated h2-error evaluations against one fixed full-order system.

    Computes the full-order gramian term once, on the system's cached Schur
    factor; each call adds the reduced and cross terms, the ``f`` of one
    ``Evaluation``.
    """

    def __init__(self, sys: LtiSystem):
        self._sys = sys
        sigma_c = solve_stein(sys.A, sys.B @ sys.B.T, a_schur=sys.schur)
        self._trace_full = float(np.trace(sys.C @ sigma_c @ sys.C.T))
        self._h2 = float(np.sqrt(max(self._trace_full, 0.0)))

    @property
    def system(self) -> LtiSystem:
        return self._sys

    @property
    def h2_norm(self) -> float:
        return self._h2

    def error(self, rom: Rom) -> float:
        require_shared_io(self._sys, rom)
        f = Evaluation(self._sys, rom).f
        return float(np.sqrt(max(self._trace_full + f, 0.0)))

    def relative_error(self, rom: Rom) -> float:
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
        if not self.h > 0:
            raise ValueError("h must be positive")


def _expm_integral(gen: np.ndarray, h: float) -> np.ndarray:
    """Integral of expm(gen * t) over [0, h]."""
    n = gen.shape[0]
    eah = scipy.linalg.expm(gen * h)
    try:
        sv = np.linalg.svd(gen, compute_uv=False)
        if sv[-1] > 1e-12 * max(1.0, sv[0]):
            return np.linalg.solve(gen, eah - np.eye(n))
    except np.linalg.LinAlgError:
        pass
    # series fallback for (numerically) singular generators:
    # h * sum_k (gen h)^k / (k+1)!
    total = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ (gen * h) / (k + 1)
        total = total + term
        if np.abs(term).max() < 1e-16 * max(1.0, np.abs(total).max()):
            break
    return h * total


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
        B = _expm_integral(gen, spec.h) @ rng.standard_normal((n, m))
        sys = LtiSystem.with_identity_output(A, B)
        if sys.spectral_radius() < 1.0:
            return sys
    raise GenerationFailed("no stable draw in 10 attempts")
