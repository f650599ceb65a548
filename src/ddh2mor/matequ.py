"""Dense solvers for the matrix equations used throughout the package.

Both the Stein equation ``A X A^T + W = X`` and the discrete Sylvester
equation ``M X N + W = X`` are solved by the Bartels-Stewart approach
(Bartels & Stewart 1972; Gardiner, Laub, Amato & Moler 1992): reduce both
coefficients to complex Schur form, then sweep the columns of N's
triangle, solving one shifted triangular system with M's triangle per
column.  The sweep solves ``(I - mu TM) y = b`` as
``(I/mu - TM) y = b/mu``: it negates TM once per solve and rewrites only
the diagonal per column, so a column costs one matrix-vector product and
one triangular solve.  Once the coefficients are factored, a solve with M
of size k and N of size r costs O(k^2 r + k r^2); a full-order Stein
equation of size n costs O(n^3).  Factoring is O(k^3) and is done once per
matrix (``SchurFactor``).

``solve_schur`` and ``stein_schur`` solve in Schur coordinates
``Y = Zm^H X Zn`` and leave the back-transform to the caller, which may
need only inner products of the solution (``to_schur``/``from_schur``
convert).  ``solve_schur`` checks nothing: each caller establishes the
uniqueness of its solution once, from the eigenvalue products
``eig(M) eig(N)`` (``solve_discrete_sylvester``) or from a stronger
condition that implies it (the stability check of ``stein_schur``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NotStable, NoUniqueSolution

__all__ = [
    "PencilReport",
    "SchurFactor",
    "from_schur",
    "pencil_diagnostics",
    "pseudoinverse",
    "solve_discrete_sylvester",
    "solve_schur",
    "solve_stein",
    "stein_schur",
    "to_schur",
]

# relative singular-value threshold for every rank decision: snapshot ranks,
# the least-squares cutoff of the dual reconstruction, the initializers'
# checks and the pseudoinverse of the reduced gramian
RANK_TOL = 1e-10
# eigenvalue products eig(M) eig(N) within this of 1 have no unique solution
UNIQUE_TOL = 1e-12
# the stability annulus: every eigenvalue modulus of a reduced model stays in
# (EIG_FLOOR, 1 - EIG_CEIL_MARGIN) for every solve of the pipeline to be well
# posed in floating point; a Stein coefficient needs the ceiling alone
EIG_FLOOR = 1e-12
EIG_CEIL_MARGIN = 1e-12
# BLAS triangular solve for one complex right-hand side
_ZTRSV = scipy.linalg.get_blas_funcs("trsv", dtype=complex)
# LAPACK plane rotation with a real cosine and a complex sine, in place
_ZROT = scipy.linalg.get_lapack_funcs("rot", dtype=complex)
# a column shift mu below this in modulus is the identity solve y = b: the
# neglected mu TM y is below rounding unless |TM| exceeds 1e138, and above
# it b / mu overflows only for |b| beyond 1e154
_SHIFT_FLOOR = float(np.sqrt(np.finfo(float).tiny))
# LAPACK compact-WY QR, and the block size of _triangle's calls of it; 32
# and 64 run at the same speed
_DGEQRT = scipy.linalg.get_lapack_funcs("geqrt", dtype=float)
_QR_BLOCK = 32
# fixed fourth probe shift for pencil regularity, kept constant so that
# repeated runs on identical inputs give identical diagnostics
_PROBE_SHIFT = 0.7390851332151607


def _as_square(A, name: str) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def pseudoinverse(A, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rcond`` times the largest one are treated as
    zero, which makes the result well defined for rank-deficient input.
    The arithmetic is ``np.linalg.pinv``'s, step for step, so the result is
    bit-identical to it.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.size == 0:
        return np.empty(A.shape[::-1])
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    large = s > rcond * s.max()
    inverse = np.divide(1.0, s, where=large, out=np.zeros_like(s))
    return vt.T @ (inverse[:, None] * u.T)


def _triangle(S: np.ndarray) -> np.ndarray:
    """The triangle R of ``S = Q R``, overwriting the Fortran-ordered S.

    LAPACK ``dgeqrt`` factors each panel recursively (Elmroth & Gustavson,
    IBM J. Res. Dev. 44 (2000)), so a tall S is reduced at matrix-product
    speed where ``dgeqrf``'s panels are matrix-vector work.  R is
    ``min(S.shape)`` by ``S.shape[1]``, with ``dgeqrf``'s diagonal signs.
    The initializers and the dual reconstruction reduce their snapshot
    matrices with it.
    """
    k = min(S.shape)
    qr = _DGEQRT(min(_QR_BLOCK, k), S, overwrite_a=1)[0]
    return np.triu(qr[:k])


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


@functools.lru_cache(maxsize=None)
def _schur_lwork(k: int) -> int:
    """LAPACK's optimal real Schur workspace for order k.

    The size depends on k alone, so it is queried once per order (the cache
    holds one integer per order seen) instead of once per factorization.
    """
    gees = scipy.linalg.get_lapack_funcs("gees", dtype=float)
    # LAPACK rejects a query of order 0; scipy needs no workspace there
    work = gees(lambda re, im: None, np.zeros((max(k, 1),) * 2), lwork=-1)[-2]
    return int(work[0].real)


def _complex_schur(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form (T, Z) of a real matrix, from its real Schur form.

    LAPACK returns each complex pair as a standardized 2x2 diagonal block
    ``[[a, b], [c, a]]`` with ``b c < 0``, eigenvalues ``a +- i w`` for
    ``w = sqrt(-b c)``.  The unitary rotation ``G = [[p, i q], [i q, p]]``
    with ``(p, q) = (b, w) / |(b, w)|`` makes it upper triangular.  The
    blocks are disjoint, so each rotation is two in-place plane rotations,
    of two columns of T and Z and of two rows of T, at O(k^2) cost on top
    of the real factorization; a complex factorization of M costs more.
    The eigenvalues come out exact: real ones stay real and pairs are exact
    conjugates.  T and Z are C-contiguous.
    """
    k = M.shape[0]
    T, Z = scipy.linalg.schur(M, output="real", lwork=_schur_lwork(k))
    TZ = np.empty((2 * k, k), dtype=complex)
    TZ[:k], TZ[k:] = T, Z
    # zrot sets x <- c x + s y, y <- c y - conj(s) x; x and y are two
    # disjoint columns (stride k) or rows of one flat view of TZ
    flat = TZ.reshape(-1)
    for j in np.flatnonzero(np.diagonal(T, -1)).tolist():
        i = j + 1
        b = float(T[j, i])
        w = math.sqrt(-b * float(T[i, j]))
        rho = math.hypot(b, w)
        p, iq = b / rho, 1j * (w / rho)
        # columns (j, i) of T and Z times G, then rows (j, i) of T times G^H
        _ZROT(flat, flat, p, iq, n=2 * k, offx=j, incx=k, offy=i, incy=k,
              overwrite_x=1, overwrite_y=1)
        _ZROT(flat, flat, p, -iq, n=k, offx=j * k, offy=i * k,
              overwrite_x=1, overwrite_y=1)
        lam = complex(T[j, j], w)
        TZ[i, j] = 0.0
        TZ[j, j], TZ[i, i] = lam, lam.conjugate()
    return TZ[:k], TZ[k:]


@dataclass(frozen=True)
class SchurFactor:
    """Complex Schur form ``M = Z T Z^H`` of a real matrix M.

    T is upper triangular, ``eigvals`` is its diagonal and ``ZH`` caches
    ``Z^H``; T, Z and ZH are C-contiguous.  Factor a matrix once with
    ``SchurFactor.of(M)`` and pass the result to every solve and spectral
    check that uses M.
    """

    T: np.ndarray
    Z: np.ndarray
    ZH: np.ndarray = field(init=False, repr=False)
    eigvals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "T", np.ascontiguousarray(self.T))
        object.__setattr__(self, "Z", np.ascontiguousarray(self.Z))
        object.__setattr__(self, "ZH", np.ascontiguousarray(self.Z.conj().T))
        object.__setattr__(self, "eigvals", np.diagonal(self.T).copy())

    @classmethod
    def of(cls, M) -> "SchurFactor":
        return cls(*_complex_schur(_as_square(M, "M")))

    def transposed(self) -> "SchurFactor":
        """The factor of M^T, without a new factorization."""
        # M^T = conj(Z) T^T Z^T; reversing the order of rows and columns turns
        # the lower triangular T^T back into an upper triangular matrix
        return SchurFactor(self.T.T[::-1, ::-1], self.Z.conj()[:, ::-1])


def to_schur(fm: SchurFactor, fn: SchurFactor, W: np.ndarray) -> np.ndarray:
    """``(Zm^H W Zn)^T``: W in the Schur coordinates of (M, N), transposed.

    The (r, k) layout is the one ``solve_schur`` sweeps, one column of the
    solution per contiguous row.
    """
    return (fn.Z.T @ W.T) @ fm.ZH.T


def from_schur(fm: SchurFactor, fn: SchurFactor, Yt: np.ndarray) -> np.ndarray:
    """The real (k, r) matrix ``Zm Y Zn^H`` from ``Yt = Y^T``."""
    return np.ascontiguousarray((fm.Z @ Yt.T @ fn.ZH).real)


def _sweep(TM: np.ndarray, TN: np.ndarray, Yt: np.ndarray) -> np.ndarray:
    """Overwrite ``Yt = C^T`` with ``Y^T``, where ``TM Y TN + C = Y``.

    TN is upper triangular, so column j needs only the columns before it:
      (I - mu TM) y_j = c_j + TM (Y[:, :j] TN[:j, j]),   mu = TN[j, j],
    solved as ``(I/mu - TM) y_j = (...)/mu`` on one negated copy of TM whose
    diagonal is rewritten per column.  The 1/mu scaling of each right-hand
    side is applied up front, to C's rows and to TN's columns.
    """
    k = TM.shape[0]
    shifted = TM * -1.0  # np.negative is several times slower on complex
    diag = shifted.reshape(-1)[:: k + 1]
    lam = np.diagonal(TM)
    mus = np.diagonal(TN).tolist()
    # shifts below the floor (mu = 0 included) are the identity solve y = b
    inv = [1.0 / mu if abs(mu) >= _SHIFT_FLOOR else None for mu in mus]
    scale = np.array([1.0 if s is None else s for s in inv])
    Yt *= scale[:, None]
    TN = TN * scale
    for j, s in enumerate(inv):
        if j:
            Yt[j] += TM @ (TN[:j, j] @ Yt[:j])
        if s is not None:
            np.subtract(s, lam, out=diag)
            # shifted.T is the Fortran-ordered view BLAS reads without a copy
            Yt[j] = _ZTRSV(shifted.T, Yt[j], lower=1, trans=1, overwrite_x=1)
    return Yt


def solve_schur(fm: SchurFactor, fn: SchurFactor, Ct: np.ndarray) -> np.ndarray:
    """Solve ``TM Y TN + C = Y``, the Sylvester equation in Schur coordinates.

    ``Ct`` is ``C^T``, an (r, k) complex C-contiguous array (``to_schur``
    gives it); it is overwritten with, and returned as, ``Y^T``.  The
    pivots of the sweep are ``1 - eig(M) eig(N)``; the caller makes sure
    that none of them is numerically zero.
    """
    return _sweep(fm.T, fn.T, Ct)


def stein_schur(fa: SchurFactor, fat: SchurFactor, Ct: np.ndarray) -> np.ndarray:
    """``solve_schur`` for the Stein equation ``A X A^T + W = X``.

    ``fat`` is ``fa.transposed()``, the factor of A^T.  Requires the
    spectral radius of A to be strictly below one, which keeps every
    eigenvalue product more than ``UNIQUE_TOL`` away from 1.
    """
    if np.abs(fa.eigvals).max(initial=0.0) >= 1.0 - EIG_CEIL_MARGIN:
        raise NotStable("spectral radius is not strictly below one")
    return solve_schur(fa, fat, Ct)


def solve_discrete_sylvester(M, N, W, *, m_schur=None, n_schur=None) -> np.ndarray:
    """Solve ``M X N + W = X`` for X.

    Parameters
    ----------
    M : (k, k) array
    N : (r, r) array
    W : (k, r) array
    m_schur, n_schur : optional SchurFactor
        Precomputed factors of M and N.  Passing them skips the reduction
        step, which pays off when the same coefficient is used across many
        solves.

    Returns
    -------
    (k, r) real array; ``NoUniqueSolution`` is raised when an eigenvalue
    product eig(M) * eig(N) lies within 1e-12 of 1
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
    # 1 - lam_i mu_j is the i-th pivot of the j-th shifted triangle
    if np.abs(1.0 - fm.eigvals[:, None] * fn.eigvals).min() < UNIQUE_TOL:
        raise NoUniqueSolution(
            "eigenvalue product of the coefficients is numerically 1")
    Yt = solve_schur(fm, fn, to_schur(fm, fn, W))
    return from_schur(fm, fn, Yt)


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
    fat = fa.transposed()
    X = from_schur(fa, fat, stein_schur(fa, fat, to_schur(fa, fat, 0.5 * (W + W.T))))
    return 0.5 * (X + X.T)
