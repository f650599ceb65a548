"""Reduced-model initializers: DMDc, Loewner interpolation, and a
Hankel-based data realization, plus the eigenvalue adjustments that push
any of their outputs into the stability annulus required downstream.

Frequency and impulse data can either be sampled from a known system
(harness mode) or supplied externally as JSON files.
"""

from __future__ import annotations

import cmath
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import TrajectorySet, check_json_type, read_json_object
from .errors import (FormatError, InsufficientData, SingularE,
                     StabilizationFailed)
from .matequ import EIG_CEIL_MARGIN, EIG_FLOOR, RANK_TOL, _triangle
from .sysmodel import Rom, markov_parameters, transfer_eval

__all__ = [
    "FreqSample",
    "ImpulseData",
    "impulse_from_system",
    "init_data_bt",
    "init_dmdc",
    "init_loewner",
    "load_frequency_samples",
    "load_impulse_data",
    "make_stable",
    "sample_frequency_data",
    "save_frequency_samples",
    "save_impulse_data",
]

logger = logging.getLogger(__name__)

# adjustment rounds of make_stable before it gives up
_STABILIZE_ROUNDS = 5


@dataclass(frozen=True)
class FreqSample:
    """One transfer-function evaluation: value = H(z), tagged left or right."""

    z: complex
    value: np.ndarray
    side: str

    def __post_init__(self):
        value = np.atleast_2d(np.asarray(self.value, dtype=complex))
        value.flags.writeable = False
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "value", value)
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")


@dataclass(frozen=True)
class ImpulseData:
    """Markov parameters h_k = C A^{k-1} B for k = 1..T, shape (T, p, m)."""

    markov: np.ndarray

    def __post_init__(self):
        markov = np.asarray(self.markov, dtype=float)
        if markov.ndim != 3 or markov.shape[0] < 1:
            raise ValueError("markov must have shape (T, p, m) with T >= 1")
        markov = markov.copy()
        markov.flags.writeable = False
        object.__setattr__(self, "markov", markov)

    @property
    def T(self) -> int:
        return self.markov.shape[0]


def make_stable(rom: Rom) -> Rom:
    """Push all eigenvalue moduli of Ahat into the stability annulus.

    A rom passes exactly when ``Rom.satisfies_spectral_bounds`` holds, and
    is then returned unchanged.  Otherwise a spectral radius at or beyond
    the annulus ceiling is removed by rescaling Ahat to radius 0.99, and a
    modulus at or below its floor by adding 1e-6 times the identity; both
    adjustments are logged.  The eigenvalues are read off ``Rom.schur``.
    """
    out = rom
    for _ in range(_STABILIZE_ROUNDS):
        if out.satisfies_spectral_bounds():
            return out
        rho = out.eig_moduli().max()
        if rho >= 1.0 - EIG_CEIL_MARGIN:
            logger.info("rescaling Ahat: spectral radius %.6f -> 0.99", rho)
            out = Rom(out.Ahat * (0.99 / rho), rom.Bhat, rom.Chat)
        floor = out.eig_moduli().min()
        if floor <= EIG_FLOOR:
            logger.info("shifting Ahat: smallest eigenvalue modulus %.3e", floor)
            out = Rom(out.Ahat + 1e-6 * np.eye(out.r), rom.Bhat, rom.Chat)
    if out.satisfies_spectral_bounds():
        return out
    mods = out.eig_moduli()
    raise StabilizationFailed(
        f"eigenvalue moduli still span [{mods.min():.3e}, {mods.max():.6f}] "
        f"after {_STABILIZE_ROUNDS} adjustment rounds")


def init_dmdc(trajs: TrajectorySet, r: int) -> Rom:
    """DMDc initializer: identify [A B] by least squares, then project
    onto the dominant left singular vectors of the successor snapshots.

    The snapshots (states X, inputs U, successor states Xp; one column per
    transition) fill the rows of ``S = [X; U; Xp]^T``.  Each column block
    of S is written through an (N, L - 1, width) view of itself, so the
    trajectories are copied once, into S, and nowhere else.  S is then
    reduced in place to the triangle R of ``S = Q R`` by ``_triangle``
    (LAPACK ``dgeqrt``).  With ``Rz`` and ``Rp`` the columns of R that
    belong to ``Z = [X; U]`` and to Xp, ``Z = Rz^T Q^T`` and
    ``Xp = Rp^T Q^T``, so every SVD the method needs is one of R's blocks:
    Z and ``Rz^T`` share singular values and left vectors, the least
    squares solve becomes ``Rp^T W_k s_k^{-1} U_k^T``, and Xp and ``Rp^T``
    share singular values and left vectors.  No intermediate is larger
    than the data.
    """
    N, L, n = trajs.states.shape
    m = trajs.inputs.shape[2]
    if N * (L - 1) < r:
        raise InsufficientData(
            f"successor snapshots have rank below the target order {r}")

    # one row per transition, trajectory by trajectory; splitting the rows
    # of a column block into (N, L - 1) is a view, so each block is one copy
    S = np.empty((N * (L - 1), 2 * n + m), order="F")
    S[:, :n].reshape(N, L - 1, n)[...] = trajs.states[:, :-1]
    S[:, n:n + m].reshape(N, L - 1, m)[...] = trajs.inputs
    S[:, n + m:].reshape(N, L - 1, n)[...] = trajs.states[:, 1:]
    R = _triangle(S)
    Rz, Rp = R[:, :n + m], R[:, n + m:]

    Ux, sx, _ = np.linalg.svd(Rp.T, full_matrices=False)
    if np.count_nonzero(sx > RANK_TOL * sx[0]) < r:
        raise InsufficientData(
            f"successor snapshots have rank below the target order {r}")

    Uz, sz, Wt = np.linalg.svd(Rz.T, full_matrices=False)
    keep = max(r, int(np.count_nonzero(sz > RANK_TOL * sz[0])))
    keep = min(keep, int(np.count_nonzero(sz > 1e-14 * sz[0])))
    if keep == 0:
        raise InsufficientData("identification snapshots are numerically zero")
    AB = Rp.T @ (Wt[:keep].T / sz[:keep]) @ Uz[:, :keep].T

    basis = Ux[:, :r]
    return make_stable(Rom(basis.T @ AB[:, :n] @ basis,
                           basis.T @ AB[:, n:],
                           basis))


def _conjugate_groups(samples: list[FreqSample]) -> list[tuple[int, ...]]:
    """Group sample indices into real singletons and conjugate pairs."""
    groups: list[tuple[int, ...]] = []
    used = [False] * len(samples)
    for i, s in enumerate(samples):
        if used[i]:
            continue
        scale = max(1.0, abs(s.z))
        if abs(s.z.imag) <= 1e-14 * scale:
            used[i] = True
            groups.append((i,))
            continue
        partner = None
        for j in range(i + 1, len(samples)):
            if not used[j] and abs(samples[j].z - s.z.conjugate()) <= 1e-12 * scale:
                partner = j
                break
        if partner is None:
            raise ValueError(f"sample at z={s.z} lacks a conjugate partner")
        vdiff = np.abs(samples[partner].value - s.value.conjugate()).max()
        if vdiff > 1e-8 * max(1.0, np.abs(s.value).max()):
            raise ValueError(f"values at z={s.z} are not conjugate-consistent")
        used[i] = used[partner] = True
        groups.append((i, partner))
    return groups


_PAIR_UNITARY = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / math.sqrt(2.0)


def _real_transform(groups) -> np.ndarray:
    """Block-diagonal unitary turning conjugate-paired data real."""
    size = sum(len(g) for g in groups)
    J = np.zeros((size, size), dtype=complex)
    pos = 0
    for g in groups:
        w = len(g)
        J[pos:pos + w, pos:pos + w] = _PAIR_UNITARY if w == 2 else 1.0
        pos += w
    return J


def _take_real(M: np.ndarray, label: str) -> np.ndarray:
    """The real part of M, as a view, once its imaginary part is negligible."""
    scale = max(1.0, np.abs(M).max(initial=0.0))
    if np.abs(M.imag).max(initial=0.0) > 1e-8 * scale:
        raise ValueError(f"{label} kept a significant imaginary part; "
                         "check conjugate closure of the samples")
    return M.real


def init_loewner(left: list[FreqSample], right: list[FreqSample], r: int) -> Rom:
    """Loewner-framework initializer from transfer-function samples.

    Builds the Loewner and shifted Loewner matrices from divided
    differences of the left/right sample values, maps conjugate pairs to
    real arithmetic, projects onto the dominant rank-r subspaces, and
    converts the resulting descriptor realization to standard form.

    Each Loewner matrix is formed with its right samples on the last axis,
    so the real transform of the left samples is one product from the left
    and that of the right samples one product from the right.  The real
    ``[Lr Lsr Vr]`` (q p rows) is written straight into one Fortran-ordered
    buffer and reduced in place by ``_triangle``: ``[Lr Lsr Vr] = Q R``.
    Every quantity the projection needs is then read off R.  The leading
    block ``[Ra Rs]`` of R is the triangle of ``[Lr Lsr]``, whose left
    singular vectors are ``Y = Q U`` with U those of ``[Ra Rs]``; so
    ``Y^T Lr = U^T Ra``, ``Y^T Lsr = U^T Rs`` and ``Y^T Vr = U^T (Q^T Vr)``,
    with ``Q^T Vr`` the trailing columns of R.  ``[Lr; Lsr]`` is
    ``diag(Q, Q) [Ra; Rs]``, so its singular values and right vectors are
    those of the (k m) x (k m) triangle of ``[Ra; Rs]``.  No SVD is taken
    of a matrix with q p rows, and Q is never formed.
    """
    if not left or not right:
        raise ValueError("both left and right sample lists must be nonempty")
    p, m = left[0].value.shape
    if any(s.value.shape != (p, m) for s in left + right):
        raise ValueError("all sample values must share one shape")

    lg = _conjugate_groups(left)
    rg = _conjugate_groups(right)
    lo = [left[i] for g in lg for i in g]
    ro = [right[i] for g in rg for i in g]

    q, k = len(lo), len(ro)
    zl = np.array([s.z for s in lo])
    zr = np.array([s.z for s in ro])
    denom = zl[:, None] - zr
    if (np.abs(denom) < 1e-12 * np.maximum(1.0, np.abs(zl))[:, None]).any():
        raise ValueError("left and right sample points must be disjoint")
    VL = np.stack([s.value for s in lo])
    VR = np.stack([s.value for s in ro], axis=-1)

    JLh = _real_transform(lg).conj().T
    JR = _real_transform(rg)
    km = k * m
    # the rows of the C-ordered buf are the columns of [Lr Lsr Vr], so buf.T
    # is the Fortran-ordered matrix _triangle reduces, and each column block
    # is filled through a (k, m, q, p) or (m, q, p) view of its rows
    buf = np.empty((2 * km + m, q * p))
    # one complex work array serves both Loewner matrices
    M = np.empty((q, p * m, k), dtype=complex)
    inv = (1.0 / denom)[:, None, :]

    def fill(rows, vl, vr, label):
        # entry (i, a, b, j) is (vl[i, a, b] - vr[a, b, j]) / (zl[i] - zr[j])
        np.subtract(vl.reshape(q, -1, 1), vr.reshape(-1, k), out=M)
        np.multiply(M, inv, out=M)
        np.matmul((JLh @ M.reshape(q, -1)).reshape(-1, k), JR, out=M.reshape(-1, k))
        rows.reshape(k, m, q, p)[...] = _take_real(M, label).reshape(
            q, p, m, k).transpose(3, 2, 0, 1)

    fill(buf[:km], VL, VR, "Loewner matrix")
    fill(buf[km:2 * km], zl[:, None, None] * VL, VR * zr, "shifted Loewner matrix")
    buf[2 * km:].reshape(m, q, p)[...] = _take_real(
        JLh @ VL.reshape(q, -1), "left data").reshape(q, p, m).transpose(2, 0, 1)
    Wr = _take_real(VR.reshape(-1, k) @ JR, "right data").reshape(
        p, m, k).transpose(0, 2, 1).reshape(p, km)

    R = _triangle(buf.T)
    t = min(q * p, 2 * km)
    Ra, Rs, QtVr = R[:t, :km], R[:t, km:2 * km], R[:t, 2 * km:]
    U, sc, _ = np.linalg.svd(R[:t, :2 * km], full_matrices=False)
    stacked = np.empty((2 * t, km), order="F")
    stacked[:t], stacked[t:] = Ra, Rs
    sr, Vrt = np.linalg.svd(_triangle(stacked), full_matrices=False)[1:]
    if (np.count_nonzero(sc > RANK_TOL * sc[0]) < r
            or np.count_nonzero(sr > RANK_TOL * sr[0]) < r):
        raise SingularE(f"Loewner matrices have rank below the target order {r}")
    Ut, X = U[:, :r].T, Vrt[:r].T

    E = -Ut @ Ra @ X
    se = np.linalg.svd(E, compute_uv=False)
    if se[-1] < 1e-12 * se[0]:
        raise SingularE("descriptor matrix is numerically singular at this order")
    Ad = -Ut @ Rs @ X
    return make_stable(Rom(np.linalg.solve(E, Ad),
                           np.linalg.solve(E, Ut @ QtVr),
                           Wr @ X))


def init_data_bt(imp: ImpulseData, r: int) -> Rom:
    """Balanced-truncation style initializer from impulse-response data.

    Factors the square-as-possible block Hankel matrix of the Markov
    parameters and reads the balanced realization off its rank-r SVD.
    """
    h = imp.markov
    T, p, m = h.shape
    if T < 2:
        raise InsufficientData("need at least two Markov parameters")
    q = (T + 1) // 2
    s = T - q
    H = np.block([[h[i + j] for j in range(s)] for i in range(q)])
    Hup = np.block([[h[i + j + 1] for j in range(s)] for i in range(q)])

    U, sv, Vt = np.linalg.svd(H, full_matrices=False)
    if np.count_nonzero(sv > RANK_TOL * sv[0]) < r:
        raise InsufficientData(
            f"block Hankel matrix has rank below the target order {r}")
    root = np.sqrt(sv[:r])
    Ahat = (U[:, :r].T @ Hup @ Vt[:r].T) / np.outer(root, root)
    Bhat = (root[:, None] * Vt[:r])[:, :m]
    Chat = (U[:, :r] * root)[:p, :]
    return make_stable(Rom(Ahat, Bhat, Chat))


def sample_frequency_data(sys_like, n_left: int, n_right: int,
                          seed: int = 0) -> tuple[list[FreqSample], list[FreqSample]]:
    """Conjugate-closed unit-circle samples of a system's transfer function.

    Angles are drawn away from the real axis and each point is paired
    with its conjugate, so counts must be even.
    """
    if n_left < 2 or n_right < 2 or n_left % 2 or n_right % 2:
        raise ValueError("n_left and n_right must be even and at least 2")
    rng = np.random.default_rng(seed)
    half = (n_left + n_right) // 2
    for _ in range(100):
        theta = rng.uniform(0.05, math.pi - 0.05, size=half)
        if half == 1 or np.min(np.diff(np.sort(theta))) > 1e-6:
            break
    else:
        raise ValueError("could not draw distinct sample angles")

    def pair(angle: float, side: str) -> list[FreqSample]:
        z = complex(math.cos(angle), math.sin(angle))
        value = transfer_eval(sys_like, z)
        return [FreqSample(z, value, side),
                FreqSample(z.conjugate(), value.conjugate(), side)]

    left = [s for a in theta[:n_left // 2] for s in pair(float(a), "left")]
    right = [s for a in theta[n_left // 2:] for s in pair(float(a), "right")]
    return left, right


def impulse_from_system(sys_like, count: int = 10) -> ImpulseData:
    """Markov parameters of a known system packaged as impulse data."""
    return ImpulseData(markov_parameters(sys_like, count))


def _parse_scalar(value, where: str) -> complex:
    """A finite JSON number or {re, im} object of numbers, as a complex."""
    if isinstance(value, dict):
        parts = {"re": value.get("re"), "im": value.get("im", 0.0)}
    else:
        parts = {"entry": value}
    for key, part in parts.items():
        check_json_type(where, key, part, float)
    try:
        z = complex(*map(float, parts.values()))
    except OverflowError as exc:  # an integer beyond the float range
        raise FormatError(f"{where}: entry beyond the float range") from exc
    if not cmath.isfinite(z):
        raise FormatError(f"{where}: non-finite entry {value!r}")
    return z


def _parse_matrix(rows, where: str) -> np.ndarray:
    """A non-empty nested list of equally long rows of entries."""
    if not (isinstance(rows, list) and rows and all(isinstance(row, list) for row in rows)
            and rows[0] and len({len(row) for row in rows}) == 1):
        raise FormatError(f"{where}: expected a non-empty nested array of equally "
                          "long rows")
    return np.array([[_parse_scalar(v, where) for v in row] for row in rows],
                    dtype=complex)


def _encode_scalar(v: complex):
    return {"re": float(np.real(v)), "im": float(np.imag(v))}


def save_frequency_samples(left, right, path) -> None:
    def encode(samples):
        return [{"z": _encode_scalar(s.z),
                 "value": [[_encode_scalar(v) for v in row] for row in s.value]}
                for s in samples]

    Path(path).write_text(json.dumps({"left": encode(left), "right": encode(right)},
                                     indent=2) + "\n")


def load_frequency_samples(path) -> tuple[list[FreqSample], list[FreqSample]]:
    """Read left/right transfer samples from a JSON file.

    Schema: {"left": [{"z": {re, im}, "value": [[{re, im} | number, ...], ...]},
    ...], "right": [...]}.
    """
    p = Path(path)
    payload = read_json_object(p)

    def decode(side: str) -> list[FreqSample]:
        entries = payload.get(side)
        if not isinstance(entries, list) or not entries:
            raise FormatError(f"{p}: missing or empty '{side}' sample list")
        out = []
        for idx, entry in enumerate(entries):
            where = f"{p}:{side}[{idx}]"
            if not isinstance(entry, dict) or "z" not in entry or "value" not in entry:
                raise FormatError(f"{where}: expected an object with z and value")
            out.append(FreqSample(_parse_scalar(entry["z"], where),
                                  _parse_matrix(entry["value"], where), side))
        return out

    left, right = decode("left"), decode("right")
    if len({s.value.shape for s in left + right}) > 1:
        raise FormatError(f"{p}: sample values differ in shape")
    return left, right


def save_impulse_data(imp: ImpulseData, path) -> None:
    payload = {"markov": [[[float(v) for v in row] for row in mat]
                          for mat in imp.markov]}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_impulse_data(path) -> ImpulseData:
    """Read Markov parameters from JSON: {"markov": [[[number | {re, im}]]]}."""
    p = Path(path)
    payload = read_json_object(p)
    mats = payload.get("markov")
    if not isinstance(mats, list) or not mats:
        raise FormatError(f"{p}: missing or empty 'markov' list")
    parsed = [_parse_matrix(mat, f"{p}:markov[{i}]") for i, mat in enumerate(mats)]
    if len({mat.shape for mat in parsed}) > 1:
        raise FormatError(f"{p}: Markov parameters differ in shape")
    stacked = np.array(parsed)
    if np.abs(stacked.imag).max(initial=0.0) > 0.0:
        raise FormatError(f"{p}: Markov parameters must be real")
    return ImpulseData(stacked.real)
