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
matrix (``SchurFactor``), by one call of LAPACK ``dgees`` with the workspace
queried once per order: the routine, workspace and result of
``scipy.linalg.schur(output="real")``, without that wrapper's per-call cost,
which exceeds the factorization's own at the reduced order.

``solve_schur`` and ``stein_schur`` solve in Schur coordinates
``Y = Zm^H X Zn`` and leave the back-transform to the caller, which may
need only inner products of the solution (``to_schur``/``from_schur``
convert).  ``solve_schur`` checks nothing: each caller establishes the
uniqueness of its solution once, from the eigenvalue products
``eig(M) eig(N)`` (``solve_discrete_sylvester``) or from a stronger
condition that implies it (the stability check of ``stein_schur``).

Every rank decision of the package, a count of significant singular
values, is the one cut of ``significant`` at ``RANK_TOL``.  The reduced
gramian is inverted by a least-squares solve, not by a rank decision.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import NotStable, NoUniqueSolution

__all__ = [
    "PencilReport",
    "SchurFactor",
    "from_schur",
    "pencil_diagnostics",
    "significant",
    "solve_discrete_sylvester",
    "solve_schur",
    "solve_stein",
    "stein_schur",
    "to_schur",
]

# relative threshold of every rank decision, all taken by ``significant``:
# snapshot ranks, the least-squares cutoff of the dual reconstruction and
# the initializers' checks
RANK_TOL = 1e-10
# eigenvalue products eig(M) eig(N) within this of 1 have no unique solution
UNIQUE_TOL = 1e-12
# the stability annulus: every eigenvalue modulus of a reduced model stays in
# (EIG_FLOOR, 1 - EIG_CEIL_MARGIN) for every solve of the pipeline to be well
# posed in floating point; a Stein coefficient needs the ceiling alone
EIG_FLOOR = 1e-12
EIG_CEIL_MARGIN = 1e-12
# LAPACK real Schur factorization, unsorted, with the workspace of
# _schur_lwork: the driver and the call of scipy.linalg.schur(output="real")
_DGEES = scipy.linalg.get_lapack_funcs("gees", dtype=float)
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
# snapshot rows _snapshot_triangle reduces at a time, in whole trajectories
# or one-step rows; a block of 2n + m = 202 columns (n = 100) is 3.3 MB
_SNAPSHOT_BLOCK_ROWS = 2048
# fixed fourth probe shift for pencil regularity, kept constant so that
# repeated runs on identical inputs give identical diagnostics
_PROBE_SHIFT = 0.7390851332151607


def _as_square(A, name: str) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be square, got shape {A.shape}")
    return A


def significant(values: np.ndarray) -> np.ndarray:
    """Mask of the ``values`` above ``RANK_TOL`` times their largest modulus.

    This is the package's one rank rule: counted over singular values it
    is a numerical rank, and it picks the directions a pseudoinverse keeps.
    The mask is all False for empty or all-zero input.
    """
    return values > RANK_TOL * np.abs(values).max(initial=0.0)


def _triangle(S: np.ndarray) -> np.ndarray:
    """The triangle R of ``S = Q R``, overwriting the Fortran-ordered S.

    LAPACK ``dgeqrt`` factors each panel recursively (Elmroth & Gustavson,
    IBM J. Res. Dev. 44 (2000)), so a tall S is reduced at matrix-product
    speed where ``dgeqrf``'s panels are matrix-vector work.  R is
    ``min(S.shape)`` by ``S.shape[1]``, with ``dgeqrf``'s diagonal signs.
    The snapshot matrices of the initializers, the dual reconstruction and
    the rank check are reduced with it.
    """
    k = min(S.shape)
    qr = _DGEQRT(min(_QR_BLOCK, k), S, overwrite_a=1)[0]
    return np.triu(qr[:k])


def _snapshot_triangle(pieces: Iterable[tuple[np.ndarray, ...]], *,
                       whole: bool) -> np.ndarray:
    """The triangle R of the snapshot matrix ``S = Q R`` whose rows
    ``pieces`` hold, S never formed whole.

    A piece is a tuple of column blocks of shape (count, steps, width), its
    count * steps rows of S side by side: ``init_dmdc`` passes trajectory
    blocks ``(states[:, :-1], inputs, states[:, 1:])``, the reconstructions
    and the rank check an ensemble's one-step rows ``(X1, U1, Y)`` and
    ``(X1, U1)`` a row block at a time (``_rows_triangle``).  ``pieces``
    is read once, in order, and is not empty.  Its rows are taken a block of
    whole counts at a time (about ``_SNAPSHOT_BLOCK_ROWS`` rows), and each
    block is reduced together with the triangle of the blocks before it:
    ``_triangle`` of ``[R; block]`` (LAPACK ``dgeqrt``) is the next R.  This
    is the sequential TSQR of Demmel, Grigori, Hoemmen & Langou (SIAM J.
    Sci. Comput. 34 (2012)); the final R satisfies ``R^T R = S^T S``, so it
    is S's triangle up to an orthogonal change of its rows, which no fit or
    singular value read off R sees.  The pieces are copied into one reused
    Fortran-ordered buffer through (count, steps, width) views of its column
    blocks, so the working set is one piece, one row block and R, and the
    row blocks do not depend on how the rows are split into pieces.  A
    ``whole`` set of one block is one ``_triangle`` of exactly S.
    """
    pieces = iter(pieces)
    piece = next(pieces)
    count, steps = piece[0].shape[:2]
    edges = list(itertools.accumulate((block.shape[2] for block in piece), initial=0))
    width = edges[-1]
    # whole counts per row block; a whole set of one block is S alone, with
    # no room for a triangle above it
    per_block = max(1, _SNAPSHOT_BLOCK_ROWS // steps)
    if whole and count <= per_block:
        per_block, room = count, count * steps
    else:
        room = width + per_block * steps
    buf = np.empty(room * width)

    def block_matrix(rows):
        # the Fortran-ordered (rows, width) matrix at the buffer's start
        return buf[:rows * width].reshape((rows, width), order="F")

    # S holds R's rows and then room for per_block counts, `filled` of them
    # written
    R, S, filled = np.empty((0, width)), block_matrix(per_block * steps), 0
    while piece is not None:
        while len(piece[0]):
            if filled == per_block:
                R = _triangle(S)
                S, filled = block_matrix(len(R) + per_block * steps), 0
                S[:len(R)] = R
            take = min(per_block - filled, len(piece[0]))
            rows = S[len(R) + filled * steps:len(R) + (filled + take) * steps]
            # by index, so that no loop name holds a column block after its
            # piece goes; splitting the rows of a column block into
            # (take, steps) is a view
            for j in range(len(piece)):
                cols = rows[:, edges[j]:edges[j + 1]]
                cols.reshape(take, steps, cols.shape[1])[...] = piece[j][:take]
            piece, filled = [block[take:] for block in piece], filled + take
        # let this piece go before the next one is drawn
        del piece
        piece = next(pieces, None)
    if filled < per_block:
        # the last block is partial: move each column up to the layout of
        # its own row count (column 0 is in place, and no column reaches
        # the source of a later one)
        full, S = S, block_matrix(len(R) + filled * steps)
        for j in range(1, width):
            S[:, j] = full[:len(S), j]
    return _triangle(S)


def _rows_triangle(N: int,
                   block: Callable[[slice], tuple[np.ndarray, ...]]) -> np.ndarray:
    """``_snapshot_triangle`` of an N-row matrix of one-step rows, of which
    ``block(rows)`` forms the column blocks of the rows in slice ``rows``.

    ``block`` is called once per row block, so a column block it computes,
    such as ``X2 - U1 B^T``, is held one row block at a time; N rows of one
    block are one call, reduced whole.
    """
    step = _SNAPSHOT_BLOCK_ROWS
    return _snapshot_triangle(
        (tuple(col[:, None] for col in block(slice(start, start + step)))
         for start in range(0, N, step)), whole=N <= step)


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
    other = np.asarray(other_spectrum, dtype=complex).ravel()
    return PencilReport(True, tuple(finite),
                        float(np.abs(finite[:, None] - other).min(initial=np.inf)))


def _no_sort(re, im):
    """``dgees``'s eigenvalue selector, never called: nothing is sorted."""


@functools.lru_cache(maxsize=None)
def _schur_lwork(k: int) -> int:
    """LAPACK's optimal real Schur workspace for order k.

    The size depends on k alone, so it is queried once per order (the cache
    holds one integer per order seen) instead of once per factorization.
    """
    # LAPACK rejects a query of order 0, which factors nothing
    work = _DGEES(_no_sort, np.zeros((max(k, 1),) * 2), lwork=-1)[-2]
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
    if not np.isfinite(M).all():
        raise ValueError("the matrix to factor contains non-finite entries")
    # an order-0 matrix is its own empty factor; LAPACK refuses order 0
    T = Z = M
    if k:
        T, _, _, _, Z, _, info = _DGEES(_no_sort, M, lwork=_schur_lwork(k))
        if info:
            raise np.linalg.LinAlgError("the real Schur form did not converge")
    TZ = np.empty((2 * k, k), dtype=complex)
    TZ[:k], TZ[k:] = T, Z
    # zrot sets x <- c x + s y, y <- c y - conj(s) x; x and y are two
    # disjoint columns (stride k) or rows of one flat view of TZ
    flat = TZ.reshape(-1)
    for j in np.flatnonzero(T.diagonal(-1)).tolist():
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
    ``SchurFactor.of(M)`` and pass the result to every sweep and spectral
    check that uses M; ``transposed()`` is likewise formed once per factor.
    """

    T: np.ndarray
    Z: np.ndarray
    ZH: np.ndarray = field(init=False, repr=False)
    eigvals: np.ndarray = field(init=False, repr=False)
    _transposed: "SchurFactor | None" = field(default=None, init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        object.__setattr__(self, "T", np.ascontiguousarray(self.T))
        object.__setattr__(self, "Z", np.ascontiguousarray(self.Z))
        object.__setattr__(self, "ZH", np.ascontiguousarray(self.Z.conj().T))
        object.__setattr__(self, "eigvals", self.T.diagonal().copy())

    @classmethod
    def of(cls, M) -> "SchurFactor":
        return cls(*_complex_schur(_as_square(M, "M")))

    def transposed(self) -> "SchurFactor":
        """The factor of M^T, without a new factorization; formed on the
        first call and kept."""
        if self._transposed is None:
            # M^T = conj(Z) T^T Z^T; reversing the order of rows and columns
            # turns the lower triangular T^T back into an upper triangular one
            object.__setattr__(self, "_transposed", SchurFactor(
                self.T.T[::-1, ::-1], self.Z.conj()[:, ::-1]))
        return self._transposed


def to_schur(fm: SchurFactor, fn: SchurFactor, W: np.ndarray) -> np.ndarray:
    """``(Zm^H W Zn)^T``: W in the Schur coordinates of (M, N), transposed.

    The (r, k) layout is the one ``solve_schur`` sweeps, one column of the
    solution per contiguous row.
    """
    return (fn.Z.T @ W.T) @ fm.ZH.T


def from_schur(fm: SchurFactor, fn: SchurFactor, Yt: np.ndarray) -> np.ndarray:
    """The real (k, r) matrix ``Zm Y Zn^H`` from ``Yt = Y^T``."""
    return np.ascontiguousarray((fm.Z @ Yt.T @ fn.ZH).real)


def solve_schur(fm: SchurFactor, fn: SchurFactor, Ct: np.ndarray) -> np.ndarray:
    """Solve ``TM Y TN + C = Y``, the Sylvester equation in Schur coordinates.

    ``Ct`` is ``C^T``, an (r, k) complex C-contiguous array (``to_schur``
    gives it); it is overwritten with, and returned as, ``Y^T``.  The
    pivots of the sweep are ``1 - eig(M) eig(N)``; the caller makes sure
    that none of them is numerically zero.

    TN is upper triangular, so column j needs only the columns before it:
      (I - mu TM) y_j = c_j + TM (Y[:, :j] TN[:j, j]),   mu = TN[j, j],
    solved as ``(I/mu - TM) y_j = (...)/mu`` on one negated copy of TM whose
    diagonal is rewritten per column.  The 1/mu scaling of each right-hand
    side is applied up front, to C's rows and to TN's columns.
    """
    TM, TN, Yt = fm.T, fn.T, Ct
    k = TM.shape[0]
    shifted = TM * -1.0  # np.negative is several times slower on complex
    diag = shifted.reshape(-1)[:: k + 1]
    lam = TM.diagonal()
    mus = TN.diagonal().tolist()
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
            # shifted.T is the Fortran-ordered view BLAS reads without a copy,
            # and the contiguous row Yt[j] is solved in place
            _ZTRSV(shifted.T, Yt[j], lower=1, trans=1, overwrite_x=1)
    return Yt


def stein_schur(fa: SchurFactor, fat: SchurFactor, Ct: np.ndarray) -> np.ndarray:
    """``solve_schur`` for the Stein equation ``A X A^T + W = X``.

    ``fat`` is ``fa.transposed()``, the factor of A^T.  Requires the
    spectral radius of A to be strictly below one, which keeps every
    eigenvalue product more than ``UNIQUE_TOL`` away from 1.
    """
    if np.abs(fa.eigvals).max(initial=0.0) >= 1.0 - EIG_CEIL_MARGIN:
        raise NotStable("spectral radius is not strictly below one")
    return solve_schur(fa, fat, Ct)


def solve_discrete_sylvester(M, N, W) -> np.ndarray:
    """Solve ``M X N + W = X`` for X.

    Parameters
    ----------
    M : (k, k) array
    N : (r, r) array
    W : (k, r) array

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

    fm, fn = SchurFactor.of(M), SchurFactor.of(N)
    # 1 - lam_i mu_j is the i-th pivot of the j-th shifted triangle
    if np.abs(1.0 - fm.eigvals[:, None] * fn.eigvals).min() < UNIQUE_TOL:
        raise NoUniqueSolution(
            "eigenvalue product of the coefficients is numerically 1")
    Yt = solve_schur(fm, fn, to_schur(fm, fn, W))
    return from_schur(fm, fn, Yt)


def solve_stein(A, W) -> np.ndarray:
    """Solve the Stein equation ``A X A^T + W = X`` for symmetric W.

    Requires the spectral radius of A to be strictly below one; the output
    is symmetrized to remove roundoff skew.
    """
    A = _as_square(A, "A")
    W = _as_square(W, "W")
    if W.shape != A.shape:
        raise ValueError("W must match the shape of A")
    # the np.allclose(W, W.T) test with rtol 1e-8, without its overhead
    atol = 1e-8 * max(1.0, np.abs(W).max(initial=0.0))
    if not (np.abs(W - W.T) <= atol + 1e-8 * np.abs(W.T)).all():
        raise ValueError("W must be symmetric")

    fa = SchurFactor.of(A)
    fat = fa.transposed()
    X = from_schur(fa, fat, stein_schur(fa, fat, to_schur(fa, fat, 0.5 * (W + W.T))))
    return 0.5 * (X + X.T)
