"""Dense solvers for the matrix equations used throughout the package.

Both the Stein equation ``A X A^T + W = X`` and the discrete Sylvester
equation ``M X N + W = X`` are solved by the Bartels-Stewart approach:
reduce the coefficients to real Schur form and back-substitute over the
quasi-triangular block structure.  Small Kronecker systems (at most
``2 k x 2 k``) appear only per diagonal block, so the overall cost stays
cubic in the matrix sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NotStable, NoUniqueSolution, SingularSystem

__all__ = [
    "PencilReport",
    "SchurFactor",
    "pencil_diagnostics",
    "pseudoinverse",
    "solve_discrete_sylvester",
    "solve_stein",
    "spectral_radius",
]

# pivot magnitudes below this abort the back-substitution
_PIVOT_TOL = 1e-14
# Stein coefficients need a spectral radius below 1 - _STABILITY_TOL
_STABILITY_TOL = 1e-12
# fixed fourth probe shift for pencil regularity, kept constant so that
# repeated runs on identical inputs give identical diagnostics
_PROBE_SHIFT = 0.7390851332151607


def _as_square(A, name: str) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def spectral_radius(A) -> float:
    """Largest eigenvalue modulus of a square matrix."""
    A = _as_square(A, "A")
    if A.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(A))))


def pseudoinverse(A, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rcond`` times the largest one are treated as
    zero, which makes the result well defined for rank-deficient input.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return np.linalg.pinv(A, rcond=rcond)


@dataclass(frozen=True)
class PencilReport:
    """Diagnostics for a matrix pencil (A, B).

    is_regular      det(A - z B) is not identically zero
    spectra         finite generalized eigenvalues of the pencil
    min_separation  smallest distance between ``spectra`` and a reference
                    spectrum (inf when either set is empty)
    """

    is_regular: bool
    spectra: tuple[complex, ...]
    min_separation: float


def _nonsingular(M: np.ndarray) -> bool:
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0:
        return False
    return sv[-1] > 1e-12 * max(1.0, sv[0])


def pencil_diagnostics(A, B, other_spectrum=()) -> PencilReport:
    """Probe regularity of the pencil (A, B) and its spectral separation.

    Regularity is certified by the first nonsingular probe ``A + t B``
    with t in {0, 1, -1} and one fixed extra shift.  For a regular pencil
    the finite generalized eigenvalues are returned together with their
    minimum distance to ``other_spectrum``.
    """
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    if A.shape != B.shape:
        raise ValueError("pencil matrices must have matching shapes")

    regular = any(_nonsingular(A + t * B) for t in (0.0, 1.0, -1.0, _PROBE_SHIFT))
    if not regular:
        return PencilReport(False, (), float("inf"))

    w = scipy.linalg.eigvals(A, B)
    finite = w[np.isfinite(w)]
    return PencilReport(True, tuple(finite), spectral_separation(finite, other_spectrum))


def spectral_separation(spectrum, other) -> float:
    """Smallest pairwise distance between two point sets in the complex plane."""
    spectrum = np.asarray(spectrum, dtype=complex).ravel()
    other = np.asarray(other, dtype=complex).ravel()
    if spectrum.size == 0 or other.size == 0:
        return float("inf")
    return float(np.min(np.abs(spectrum[:, None] - other[None, :])))


def schur_eigvals(T) -> np.ndarray:
    """Eigenvalues of a real quasi-upper-triangular matrix.

    They are read off its diagonal: a 1x1 block is a real eigenvalue and
    a 2x2 block (flagged by a nonzero subdiagonal entry) a pair.
    """
    T = np.asarray(T, dtype=float)
    lam = np.diagonal(T).astype(complex)
    j = np.flatnonzero(np.diagonal(T, -1))
    a, b, c, d = T[j, j], T[j, j + 1], T[j + 1, j], T[j + 1, j + 1]
    mean = 0.5 * (a + d)
    root = np.sqrt((0.5 * (a - d)) ** 2 + b * c + 0j)
    lam[j], lam[j + 1] = mean + root, mean - root
    return lam


@dataclass(frozen=True)
class SchurFactor:
    """Real Schur form ``M = Z T Z^T`` and the eigenvalues of M.

    Factor a matrix once with ``SchurFactor.of(M)`` and pass the result to
    every solve and spectral check that uses M.
    """

    T: np.ndarray
    Z: np.ndarray
    eigvals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "eigvals", schur_eigvals(self.T))

    @classmethod
    def of(cls, M) -> "SchurFactor":
        return cls(*scipy.linalg.schur(_as_square(M, "M"), output="real"))

    def transposed(self) -> "SchurFactor":
        """The factor of M^T, without a new factorization."""
        # flipping rows and columns turns the lower quasi-triangular T^T back
        # into an upper quasi-triangular matrix with the same diagonal blocks
        return SchurFactor(np.ascontiguousarray(self.T.T[::-1, ::-1]),
                           np.ascontiguousarray(self.Z[:, ::-1]))


def solve_discrete_sylvester(M, N, W, *, unique_tol: float = 1e-12,
                             m_schur=None, n_schur=None) -> np.ndarray:
    """Solve ``M X N + W = X`` for X.

    Parameters
    ----------
    M : (k, k) array
    N : (r, r) array
    W : (k, r) array
    unique_tol : float
        A unique solution requires eig(M) * eig(N) != 1; products within
        this tolerance of 1 raise ``NoUniqueSolution``.
    m_schur, n_schur : optional SchurFactor
        Precomputed factors of M and N.  Passing them skips the reduction
        step and the eigenvalue computation, which pays off when the same
        coefficient is used across many solves.

    Returns
    -------
    (k, r) array
    """
    M = _as_square(M, "M")
    N = _as_square(N, "N")
    W = np.atleast_2d(np.asarray(W, dtype=float))
    k, r = M.shape[0], N.shape[0]
    if W.shape != (k, r):
        raise ValueError(f"W must have shape {(k, r)}, got {W.shape}")

    fm = m_schur if m_schur is not None else SchurFactor.of(M)
    fn = n_schur if n_schur is not None else SchurFactor.of(N)
    if k and r and np.min(np.abs(np.outer(fm.eigvals, fn.eigvals) - 1.0)) < unique_tol:
        raise NoUniqueSolution(
            "eigenvalue product of the coefficients is numerically 1")

    TM, ZM, TN, ZN = fm.T, fm.Z, fn.T, fn.Z
    Wt = ZM.T @ W @ ZN
    Y = np.zeros((k, r))
    j = 0
    while j < r:
        bs = 2 if (j + 1 < r and TN[j + 1, j] != 0.0) else 1
        cols = slice(j, j + bs)
        rhs = Wt[:, cols]
        if j:
            rhs = rhs + TM @ (Y[:, :j] @ TN[:j, cols])
        F = np.eye(k * bs) - np.kron(TN[cols, cols].T, TM)
        lu, piv = scipy.linalg.lu_factor(F, check_finite=False)
        if np.min(np.abs(np.diag(lu))) < _PIVOT_TOL:
            raise SingularSystem(
                f"pivot below {_PIVOT_TOL:g} in Schur back-substitution")
        y = scipy.linalg.lu_solve((lu, piv), rhs.reshape(-1, order="F"),
                                  check_finite=False)
        Y[:, cols] = y.reshape((k, bs), order="F")
        j += bs
    return ZM @ Y @ ZN.T


def solve_stein(A, W, *, a_schur: SchurFactor | None = None) -> np.ndarray:
    """Solve the Stein equation ``A X A^T + W = X`` for symmetric W.

    Requires the spectral radius of A to be strictly below one; the output
    is symmetrized to remove roundoff skew.  ``a_schur`` optionally passes
    a precomputed factor of A.
    """
    A = _as_square(A, "A")
    W = _as_square(W, "W")
    if W.shape != A.shape:
        raise ValueError("W must match the shape of A")
    if not np.allclose(W, W.T, rtol=1e-8, atol=1e-8 * max(1.0, np.abs(W).max(initial=0.0))):
        raise ValueError("W must be symmetric")

    fa = a_schur if a_schur is not None else SchurFactor.of(A)
    if np.abs(fa.eigvals).max(initial=0.0) >= 1.0 - _STABILITY_TOL:
        raise NotStable("spectral radius is not strictly below one")

    X = solve_discrete_sylvester(A, A.T, 0.5 * (W + W.T),
                                 m_schur=fa, n_schur=fa.transposed())
    return 0.5 * (X + X.T)
