"""Dense solvers for the matrix equations used throughout the package.

Both the Stein equation ``A X A^T + W = X`` and the discrete Sylvester
equation ``M X N + W = X`` are solved by the Bartels-Stewart approach
(Bartels & Stewart 1972; Gardiner, Laub, Amato & Moler 1992): reduce both
coefficients to complex Schur form, then sweep the columns of N's
triangle, solving one shifted triangular system with M's triangle per
column.  Once the coefficients are factored, a solve with M of size k and
N of size r costs O(k^2 r + k r^2); a full-order Stein equation of size n
costs O(n^3).  Factoring is O(k^3) and is done once per matrix
(``SchurFactor``).
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
# BLAS triangular solve for one complex right-hand side
_ZTRSV = scipy.linalg.get_blas_funcs("trsv", dtype=complex)
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


def _complex_schur(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, Z) of a real matrix, from its real Schur form.

    LAPACK returns each complex pair as a standardized 2x2 diagonal block
    ``[[a, b], [c, a]]`` with ``b c < 0``, eigenvalues ``a +- i w`` for
    ``w = sqrt(-b c)``.  The unitary rotation ``G = [[p, i q], [i q, p]]``
    with ``(p, q) = (b, w) / |(b, w)|`` makes it upper triangular.  The
    blocks are disjoint, so all rotations apply at once, at O(k^2) cost on
    top of the real factorization; a complex factorization of M costs more.
    The eigenvalues come out exact: real ones stay real and pairs are exact
    conjugates.
    """
    T, Z = scipy.linalg.schur(M, output="real")
    k = T.shape[0]
    TZ = np.concatenate((T, Z)).astype(complex)
    j = np.flatnonzero(np.diagonal(T, -1))
    if j.size:
        i = j + 1
        b, c = T[j, i], T[i, j]
        w = np.sqrt(-b * c)
        rho = np.hypot(b, w)
        p, iq = b / rho, 1j * (w / rho)
        # columns (j, i) of T and Z times G, then rows (j, i) of T times G^H
        xj, xi = TZ[:, j], TZ[:, i]
        TZ[:, j] = xj * p + xi * iq
        TZ[:, i] = xj * iq + xi * p
        Tc = TZ[:k]
        p, iq = p[:, None], iq[:, None]
        tj, ti = Tc[j], Tc[i]
        Tc[j] = tj * p - ti * iq
        Tc[i] = ti * p - tj * iq
        lam = T[j, j] + 1j * w
        Tc[i, j] = 0.0
        Tc[j, j], Tc[i, i] = lam, lam.conj()
    return TZ[:k], TZ[k:]


@dataclass(frozen=True)
class SchurFactor:
    """Complex Schur form ``M = Z T Z^H`` of a real matrix M.

    T is upper triangular, ``eigvals`` is its diagonal and ``ZH`` caches
    ``Z^H``.  Factor a matrix once with ``SchurFactor.of(M)`` and pass the
    result to every solve and spectral check that uses M.
    """

    T: np.ndarray
    Z: np.ndarray
    ZH: np.ndarray = field(init=False, repr=False)
    eigvals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ZH", np.ascontiguousarray(self.Z.conj().T))
        object.__setattr__(self, "eigvals", np.diagonal(self.T).copy())

    @classmethod
    def of(cls, M) -> "SchurFactor":
        return cls(*_complex_schur(_as_square(M, "M")))

    def transposed(self) -> "SchurFactor":
        """The factor of M^T, without a new factorization."""
        # M^T = conj(Z) T^T Z^T; reversing the order of rows and columns turns
        # the lower triangular T^T back into an upper triangular matrix
        return SchurFactor(np.ascontiguousarray(self.T.T[::-1, ::-1]),
                           np.ascontiguousarray(self.Z.conj()[:, ::-1]))


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
        step, which pays off when the same coefficient is used across many
        solves.

    Returns
    -------
    (k, r) real array
    """
    M = _as_square(M, "M")
    N = _as_square(N, "N")
    W = np.atleast_2d(np.asarray(W, dtype=float))
    k, r = M.shape[0], N.shape[0]
    if W.shape != (k, r):
        raise ValueError(f"W must have shape {(k, r)}, got {W.shape}")
    if not (k and r):
        return np.zeros((k, r))

    fm = m_schur if m_schur is not None else SchurFactor.of(M)
    fn = n_schur if n_schur is not None else SchurFactor.of(N)
    # 1 - lam_i mu_j is the i-th pivot of the j-th shifted triangle below
    gap = np.abs(1.0 - np.outer(fm.eigvals, fn.eigvals)).min()
    if gap < unique_tol:
        raise NoUniqueSolution(
            "eigenvalue product of the coefficients is numerically 1")
    if gap < _PIVOT_TOL:
        raise SingularSystem(
            f"pivot below {_PIVOT_TOL:g} in Schur back-substitution")

    # Y = Zm^H X Zn solves TM Y TN + Zm^H W Zn = Y; TN is upper triangular,
    # so column j needs only the columns before it:
    #   (I - TN[j, j] TM) y_j = w_j + TM (Y[:, :j] TN[:j, j])
    # Yt holds Y transposed, so that each column is a contiguous row.
    TM, TN = fm.T, fn.T
    Yt = (fm.ZH @ W @ fn.Z).T.copy()
    shifted = np.empty((k, k), dtype=complex)
    pivots = shifted.reshape(-1)[:: k + 1]
    for j in range(r):
        if j:
            Yt[j] += TM @ (TN[:j, j] @ Yt[:j])
        np.multiply(TM, -TN[j, j], out=shifted)
        pivots += 1.0
        # shifted.T is the Fortran-ordered view BLAS reads without a copy
        Yt[j] = _ZTRSV(shifted.T, Yt[j], lower=1, trans=1, overwrite_x=1)
    return np.ascontiguousarray((fm.Z @ Yt.T @ fn.ZH).real)


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
    # the np.allclose(W, W.T) test with rtol 1e-8, without its overhead
    atol = 1e-8 * max(1.0, np.abs(W).max(initial=0.0))
    if not (np.abs(W - W.T) <= atol + 1e-8 * np.abs(W.T)).all():
        raise ValueError("W must be symmetric")

    fa = a_schur if a_schur is not None else SchurFactor.of(A)
    if np.abs(fa.eigvals).max(initial=0.0) >= 1.0 - _STABILITY_TOL:
        raise NotStable("spectral radius is not strictly below one")

    X = solve_discrete_sylvester(A, A.T, 0.5 * (W + W.T),
                                 m_schur=fa, n_schur=fa.transposed())
    return 0.5 * (X + X.T)
