"""Reduced-model initializers: DMDc, Loewner interpolation, and a
Hankel-based data realization, plus the eigenvalue adjustments that push
any of their outputs into the stability annulus required downstream.

Frequency and impulse data can either be sampled from a known system
(harness mode) or supplied externally as JSON files.
"""

from __future__ import annotations

import cmath
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import TrajectorySet, check_json_type, read_json_object, write_json
from .ddgrad import _triangle_fit
from .errors import (FormatError, InsufficientData, SingularE,
                     StabilizationFailed)
from .matequ import _snapshot_triangle, _triangle, significant
from .sysmodel import LtiSystem, Rom, markov_parameters, transfer_eval

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
    """One transfer-function evaluation: value = H(z)."""

    z: complex
    value: np.ndarray

    def __post_init__(self):
        value = np.atleast_2d(np.asarray(self.value, dtype=complex))
        value.flags.writeable = False
        object.__setattr__(self, "z", complex(self.z))
        object.__setattr__(self, "value", value)


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
    adjustments are logged.  The ceiling is read through ``is_stable``, and
    after it what ``satisfies_spectral_bounds`` still refuses is the floor.
    """
    out = rom
    for _ in range(_STABILIZE_ROUNDS):
        if out.satisfies_spectral_bounds():
            return out
        if not out.is_stable():
            rho = out.spectral_radius()
            logger.info("rescaling Ahat: spectral radius %.6f -> 0.99", rho)
            out = Rom(out.Ahat * (0.99 / rho), rom.Bhat, rom.Chat)
        if not out.satisfies_spectral_bounds():
            logger.info("shifting Ahat: smallest eigenvalue modulus %.3e", out.eig_moduli().min())
            out = Rom(out.Ahat + 1e-6 * np.eye(out.r), rom.Bhat, rom.Chat)
    if out.satisfies_spectral_bounds():
        return out
    mods = out.eig_moduli()
    raise StabilizationFailed(
        f"eigenvalue moduli still span [{mods.min():.3e}, {mods.max():.6f}] "
        f"after {_STABILIZE_ROUNDS} adjustment rounds")


def init_dmdc(trajs: TrajectorySet | Iterable[TrajectorySet], r: int) -> Rom:
    """DMDc initializer: identify [A B] by least squares, then project
    onto the dominant left singular vectors of the successor snapshots.

    ``trajs`` is a trajectory set or an iterable of blocks of one data set
    (``dataio.trajectory_blocks``), read once, in order.  The snapshots
    (states X, inputs U, successor states Xp; one column per transition)
    fill the rows of ``S = [X; U; Xp]^T``, which is never formed whole:
    ``matequ._snapshot_triangle`` streams the blocks into its triangle R,
    one block of draws, one row block and R at a time, and a stream gives
    the rom of its set bit for bit.  With ``Rz`` and ``Rp`` the columns of
    R that belong to ``Z = [X; U]`` and to Xp, ``Z = Rz^T Q^T`` and
    ``Xp = Rp^T Q^T``, so every SVD the method needs is one of R's blocks:
    Xp and ``Rp^T`` share singular values and left vectors, and [A B] is
    the fit the dual reconstruction makes (``ddgrad._triangle_fit``), a
    triangular solve at full rank of Z and otherwise the min-norm fit cut
    by ``significant``.  An empty ``trajs`` raises InsufficientData, and
    blocks that disagree in L, n or m raise ValueError.
    """
    whole = isinstance(trajs, TrajectorySet)
    blocks = iter([trajs] if whole else trajs)
    block = next(blocks, None)
    if block is None:
        raise InsufficientData("no trajectories to identify from")
    dims = block.states.shape[1:] + block.inputs.shape[2:]
    n, m = dims[1:]

    def pieces(block):
        # each block's snapshot columns, the block let go before the next
        # one is drawn
        while block is not None:
            got = block.states.shape[1:] + block.inputs.shape[2:]
            if got != dims:
                raise ValueError(f"trajectory blocks disagree in (L, n, m): {dims} and {got}")
            states = block.states
            yield states[:, :-1], block.inputs, states[:, 1:]
            del block, states
            block = next(blocks, None)

    stream = pieces(block)
    del block  # the stream holds the first block, and lets it go in turn
    R = _snapshot_triangle(stream, whole=whole)
    Ux, sx, _ = np.linalg.svd(R[:, n + m:].T, full_matrices=False)
    if np.count_nonzero(significant(sx)) < r:
        raise InsufficientData(
            f"successor snapshots have rank below the target order {r}")
    theta, sz, _ = _triangle_fit(R, n + m, n + m)  # theta = [A B]^T
    if not significant(sz).any():
        raise InsufficientData("identification snapshots are numerically zero")

    basis = Ux[:, :r]
    return make_stable(Rom(basis.T @ theta[:n].T @ basis,
                           basis.T @ theta[n:].T,
                           basis))


# relative tolerance of conjugate closure on sample values
_CONJUGATE_TOL = 1e-8


def _conjugate_groups(samples: list[FreqSample]) -> list[tuple[int, ...]]:
    """Group sample indices into real singletons, first, and conjugate pairs.

    The one check of conjugate closure: ValueError unless each point off
    the real axis has its conjugate among the samples, with the conjugate
    value, and the value at a real point is real (``_CONJUGATE_TOL``)."""
    groups: list[tuple[int, ...]] = []
    used = [False] * len(samples)
    for i, s in enumerate(samples):
        if used[i]:
            continue
        scale = max(1.0, abs(s.z))
        size = max(1.0, np.abs(s.value).max())
        used[i] = True
        if abs(s.z.imag) <= 1e-14 * scale:
            if np.abs(s.value.imag).max() > _CONJUGATE_TOL * size:
                raise ValueError(f"value at the real point z={s.z.real} is not real")
            groups.append((i,))
            continue
        partner = None
        for j in range(i + 1, len(samples)):
            if not used[j] and abs(samples[j].z - s.z.conjugate()) <= 1e-12 * scale:
                partner = j
                break
        if partner is None:
            raise ValueError(f"sample at z={s.z} lacks a conjugate partner")
        if np.abs(samples[partner].value - s.value.conjugate()).max() > _CONJUGATE_TOL * size:
            raise ValueError(f"values at z={s.z} are not conjugate-consistent")
        used[partner] = True
        groups.append((i, partner))
    return sorted(groups, key=len)


_SQRT2 = math.sqrt(2.0)
_PAIR_UNITARY = np.array([[1.0, 1.0j], [1.0, -1.0j]]) / _SQRT2


def _real_rows(out: np.ndarray, W: np.ndarray, ns: int, sign: float = 1.0) -> None:
    """Fill ``out`` (..., samples, c) from W (..., groups, c), one row per
    group of ``_conjugate_groups``: the real part of the ns real samples'
    rows, then for each pair sqrt(2) times the real and ``sign`` sqrt(2)
    times the imaginary part of its first sample's row."""
    out[..., :ns, :] = W[..., :ns, :].real
    np.multiply(W[..., ns:, :].real, _SQRT2, out=out[..., ns::2, :])
    np.multiply(W[..., ns:, :].imag, sign * _SQRT2, out=out[..., ns + 1::2, :])


def init_loewner(left: list[FreqSample], right: list[FreqSample], r: int) -> Rom:
    """Loewner-framework initializer from transfer-function samples.

    Builds the Loewner matrix from divided differences of the left/right
    sample values, maps conjugate pairs to real arithmetic, projects onto
    the dominant rank-r subspaces of the Loewner pencil, and converts the
    resulting descriptor realization to standard form.

    ``_conjugate_groups`` checks each side's conjugate closure, once; the
    real transforms below take real parts and check nothing more.  The
    shifted Loewner matrix is never formed: its blocks are
    ``Ls_ij = v_i + zr_j L_ij`` (Mayo & Antoulas, Linear Algebra Appl. 425
    (2007)), so ``Lsr = Lr kron(Lam, I_m) + Vr kron(1r, I_m)``.  The right
    real transform is built per group in closed form: a pair at z with
    value w gives the real k x k ``Lam`` the block
    ``[[Re z, -Im z], [Im z, Re z]]``, the 1 x k ``1r`` the entries
    ``(sqrt(2), 0)`` and ``Wr`` the columns ``(sqrt(2) Re w, -sqrt(2) Im w)``;
    a real point gives them z, 1 and w.  L is formed one right group at a
    time, with the group's samples on the last axis, so a pair's columns
    take its own 2 x 2 ``_PAIR_UNITARY`` block, and no complex array wider
    than one group exists.  The left samples need no product: the second
    sample of a pair is the conjugate of the first, so the pair's rows,
    once transformed on the right, are ``sqrt(2)`` times the real and the
    imaginary part of the first's, and the complex rows are formed for
    one sample per group alone.  The real ``[Lr Vr]`` (q p rows) is written
    straight into one Fortran-ordered buffer and reduced in place by
    ``_triangle``: ``[Lr Vr] = Q [Ra QtVr]``, and then ``Lsr = Q Rs`` with
    ``Rs = Ra kron(Lam, I_m) + QtVr kron(1r, I_m)``.  The left singular
    vectors of ``[Lr Lsr]`` are ``Y = Q U`` with U those of the
    (k m + m) x (2 k m) ``[Ra Rs]``; so ``Y^T Lr = U^T Ra``,
    ``Y^T Lsr = U^T Rs`` and ``Y^T Vr = U^T QtVr``.  ``[Lr; Lsr]`` is
    ``diag(Q, Q) [Ra; Rs]``, so its singular values and right vectors are
    those of the (k m) x (k m) triangle of ``[Ra; Rs]``.  No SVD is taken
    of a matrix with q p rows, and Q is never formed.
    """
    if not left or not right:
        raise ValueError("both left and right sample lists must be nonempty")
    p, m = left[0].value.shape
    if any(s.value.shape != (p, m) for s in left + right):
        raise ValueError("all sample values must share one shape")

    # each side's real samples first, then the pairs, each pair's first
    # sample at ns, ns + 2, ... (nr, nr + 2, ... on the right)
    lg, rg = _conjugate_groups(left), _conjugate_groups(right)
    lo = [left[i] for g in lg for i in g]
    ro = [right[i] for g in rg for i in g]

    q, k = len(lo), len(ro)
    zl = np.array([s.z for s in lo])
    zr = np.array([s.z for s in ro])
    denom = zl[:, None] - zr
    if (np.abs(denom) < 1e-12 * np.maximum(1.0, np.abs(zl))[:, None]).any():
        raise ValueError("left and right sample points must be disjoint")
    VL = np.stack([s.value for s in lo])
    VR = np.stack([s.value for s in ro])
    km = k * m
    ns, nr = (sum(len(g) == 1 for g in groups) for groups in (lg, rg))
    first, rfirst = np.r_[:ns, ns:q:2], np.r_[:nr, nr:k:2]
    pairs = rfirst[nr:]
    Lam = np.diag(zr.real)
    Lam[pairs, pairs + 1] = -zr[pairs].imag
    Lam[pairs + 1, pairs] = zr[pairs].imag
    ones = np.zeros(k)
    ones[:nr], ones[pairs] = 1.0, _SQRT2
    Wr = np.empty((k, p * m))
    _real_rows(Wr, VR[rfirst].reshape(-1, p * m), nr, -1.0)
    Wr = Wr.reshape(k, p, m).transpose(1, 0, 2).reshape(p, km)

    # the rows of the C-ordered buf are the columns of [Lr Vr], so buf.T is
    # the Fortran-ordered matrix _triangle reduces, and each column block is
    # filled through a (k, m, q, p) or (m, q, p) view of its rows
    buf = np.empty((km + m, q * p))
    # one right group (a real point or a conjugate pair) at a time: entry
    # (g, a, b, j) of M is (VL[i, a, b] - VR[j, a, b]) / (zl[i] - zr[j]) for
    # the first sample i of left group g and the group's samples j
    Lr, VRf = buf[:km].reshape(k, m, q, p), VR.reshape(k, -1).T
    VLf = VL[first].reshape(len(lg), -1, 1)
    for j in rfirst:
        cols = slice(j, j + 1 if j < nr else j + 2)
        M = VLf - VRf[:, cols]
        M *= (1.0 / denom[first, cols])[:, None, :]
        if j >= nr:
            M = M @ _PAIR_UNITARY
        _real_rows(Lr[cols], M.reshape(len(lg), p, m, -1).transpose(3, 2, 0, 1), ns)
    _real_rows(buf[km:].reshape(m, q, p), VL[first].transpose(2, 0, 1), ns)

    R = _triangle(buf.T)
    t = len(R)
    Ra, QtVr = R[:, :km], R[:, km:]
    # block column j of Rs is sum_l Ra_l Lam[l, j] + QtVr 1r[j]
    Rs = (Lam.T @ Ra.reshape(t, k, m) + QtVr[:, None, :] * ones[:, None]).reshape(t, km)
    U, sc, _ = np.linalg.svd(np.hstack([Ra, Rs]), full_matrices=False)
    stacked = np.empty((2 * t, km), order="F")
    stacked[:t], stacked[t:] = Ra, Rs
    sr, Vrt = np.linalg.svd(_triangle(stacked), full_matrices=False)[1:]
    if (np.count_nonzero(significant(sc)) < r
            or np.count_nonzero(significant(sr)) < r):
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
    if np.count_nonzero(significant(sv)) < r:
        raise InsufficientData(
            f"block Hankel matrix has rank below the target order {r}")
    root = np.sqrt(sv[:r])
    Ahat = (U[:, :r].T @ Hup @ Vt[:r].T) / np.outer(root, root)
    Bhat = (root[:, None] * Vt[:r])[:, :m]
    Chat = (U[:, :r] * root)[:p, :]
    return make_stable(Rom(Ahat, Bhat, Chat))


def sample_frequency_data(sys: LtiSystem, n_left: int, n_right: int,
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

    def pair(angle: float) -> list[FreqSample]:
        z = complex(math.cos(angle), math.sin(angle))
        value = transfer_eval(sys, z)
        return [FreqSample(z, value), FreqSample(z.conjugate(), value.conjugate())]

    left = [s for a in theta[:n_left // 2] for s in pair(float(a))]
    right = [s for a in theta[n_left // 2:] for s in pair(float(a))]
    return left, right


def impulse_from_system(sys: LtiSystem, count: int = 10) -> ImpulseData:
    """Markov parameters of a known system packaged as impulse data."""
    return ImpulseData(markov_parameters(sys, count))


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

    write_json(path, {"left": encode(left), "right": encode(right)})


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
                                  _parse_matrix(entry["value"], where)))
        return out

    left, right = decode("left"), decode("right")
    if len({s.value.shape for s in left + right}) > 1:
        raise FormatError(f"{p}: sample values differ in shape")
    return left, right


def save_impulse_data(imp: ImpulseData, path) -> None:
    write_json(path, {"markov": [[[float(v) for v in row] for row in mat]
                                 for mat in imp.markov]})


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
