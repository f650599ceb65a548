"""Snapshot data and every file the package reads or writes.

An ensemble stacks N independent one-step transitions row-wise: X1 holds
the starting states, U1 the applied inputs, and X2 the successor states.
Observation noise with coefficient alpha perturbs both state snapshots,
never the latent recursion.  ``check_assumptions`` checks the paper's rank
conditions on an ensemble from the triangle of one QR of [X1 U1].

Each file format has one writer and one reader here: the system, ensemble
and rom directories (JSON manifests for the first two), the ``history.csv``
iteration log, and the two matrix formats.  The ensemble blocks are NumPy
``.npy`` files (NEP 1), binary and exact; the system and rom matrices stay
comma-separated text, since they are small and people read them.
"""

from __future__ import annotations

import io
import json
import os
import tokenize
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .matequ import _triangle, significant
from .sysmodel import LtiSystem, Rom, _matrix

__all__ = [
    "HISTORY_HEADER",
    "AssumptionReport",
    "DataEnsemble",
    "IterRecord",
    "NoiseSpec",
    "TrajectorySet",
    "check_assumptions",
    "check_json_type",
    "generate_ensemble",
    "generate_trajectories",
    "history_row",
    "load_ensemble",
    "load_rom",
    "load_system",
    "read_history",
    "read_json_object",
    "read_manifest",
    "read_matrix",
    "save_ensemble",
    "save_rom",
    "save_system",
    "trajectory_blocks",
    "write_history",
    "write_json",
    "write_matrix",
]

_CSV_FMT = "%.17e"

# an .npy header longer than numpy's own limit of 10000 characters is
# refused, so this many leading bytes hold every header the reader accepts
_NPY_HEAD_BYTES = 1 << 14
_NPY_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                       (2, 0): np.lib.format.read_array_header_2_0}

HISTORY_HEADER = "iter,f,D,step,backtracks,rel_h2_error,stable"

# standard normals trajectory_blocks draws for one block (512 KiB), in
# whole trajectories
_DRAW_CHUNK = 1 << 16

# the Python types a JSON value may load as, by the type it stands for: a
# JSON integer is a valid float, a JSON boolean is no number
_JSON_TYPES = {int: ("an integer", (int,)), float: ("a number", (int, float)),
               str: ("a string", (str,)), bool: ("a boolean", (bool,))}
# the JSON type each manifest entry must have where it is present
_MANIFEST_TYPES = {"n": int, "m": int, "N": int, "alpha": float, "seed": int,
                   "a": str, "b": str, "x1": str, "u1": str, "x2": str}
# manifest entries that may be null (unknown provenance)
_MANIFEST_NULLABLE = ("alpha", "seed")


@dataclass(frozen=True)
class NoiseSpec:
    """Observation-noise coefficient and generator seed."""

    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha}")


def _snapshot(value, name: str, copy: bool) -> np.ndarray:
    """``value`` as a finite, read-only, C-ordered float array.

    With ``copy`` the array is always a new one, so no caller can change it
    later; without, an array already in that layout is kept as it is.
    """
    M = _matrix(value, name)
    M = M.copy() if copy else np.ascontiguousarray(M)
    M.flags.writeable = False
    return M


def _adopt(cls, **fields):
    """``cls(**fields)`` for arrays this module has just allocated and hands
    over, so that nothing else refers to them: they are checked and made
    read-only like any others, but not copied."""
    obj = object.__new__(cls)
    for key, value in fields.items():
        object.__setattr__(obj, key, value)
    obj.__post_init__(copy=False)
    return obj


@dataclass(frozen=True)
class DataEnsemble:
    """One-step snapshot data; rows are samples.

    X1 : (N, n) starting states
    U1 : (N, m) inputs
    X2 : (N, n) successor states
    alpha, seed : generation provenance when known

    The arrays are copied, so a caller may go on changing what it passed.
    """

    X1: np.ndarray
    U1: np.ndarray
    X2: np.ndarray
    alpha: float | None = None
    seed: int | None = None

    def __post_init__(self, copy: bool = True):
        X1 = _snapshot(self.X1, "X1", copy)
        U1 = _snapshot(self.U1, "U1", copy)
        X2 = _snapshot(self.X2, "X2", copy)
        if X2.shape != X1.shape:
            raise ValueError("X1 and X2 must have identical shapes")
        if U1.shape[0] != X1.shape[0]:
            raise ValueError("X1 and U1 must have the same number of rows")
        object.__setattr__(self, "X1", X1)
        object.__setattr__(self, "U1", U1)
        object.__setattr__(self, "X2", X2)

    @property
    def N(self) -> int:
        return self.X1.shape[0]

    @property
    def n(self) -> int:
        return self.X1.shape[1]

    @property
    def m(self) -> int:
        return self.U1.shape[1]


@dataclass(frozen=True)
class TrajectorySet:
    """N equally long trajectories, stored as two read-only arrays.

    states : (N, L, n) states of each trajectory, L >= 2
    inputs : (N, L - 1, m) the inputs that produced them

    The arrays are copied, so a caller may go on changing what it passed.
    """

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self, copy: bool = True):
        states = _snapshot(self.states, "states", copy)
        inputs = _snapshot(self.inputs, "inputs", copy)
        if states.ndim != 3 or inputs.ndim != 3:
            raise ValueError("states and inputs must be (trajectory, step, entry) arrays")
        N, L = states.shape[:2]
        if N < 1:
            raise ValueError("at least one trajectory is required")
        if L < 2:
            raise ValueError("trajectories need at least two states")
        if inputs.shape[:2] != (N, L - 1):
            raise ValueError("need N trajectories with exactly one more state than inputs")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)


@dataclass(frozen=True)
class AssumptionReport:
    """Numerical ranks of the snapshot blocks and which conditions hold.

    b1: rank [X1 U1] = n + m, b2: rank X1 = n, b3: rank U1 = m.
    """

    rank_X1U1: int
    rank_X1: int
    rank_U1: int
    b1_holds: bool
    b2_holds: bool
    b3_holds: bool


def generate_ensemble(sys: LtiSystem, N: int, noise: NoiseSpec = NoiseSpec()) -> DataEnsemble:
    """Draw N one-step transitions with Gaussian states and inputs.

    Latent states follow the exact recursion; the observed snapshots add
    ``alpha`` times a standard normal perturbation to both X1 and X2.
    """
    if N < 1:
        raise ValueError("N must be positive")
    rng = np.random.default_rng(noise.seed)
    x1 = rng.standard_normal((N, sys.n))
    u1 = rng.standard_normal((N, sys.m))
    x2 = x1 @ sys.A.T
    x2 += u1 @ sys.B.T
    # e * alpha + x rounds as x + alpha * e does
    X1 = rng.standard_normal((N, sys.n))
    X1 *= noise.alpha
    X1 += x1
    # so that three N x n arrays are held at once, not four
    del x1
    X2 = rng.standard_normal((N, sys.n))
    X2 *= noise.alpha
    X2 += x2
    return _adopt(DataEnsemble, X1=X1, U1=u1, X2=X2, alpha=noise.alpha, seed=noise.seed)


def _simulate(sys: LtiSystem, rng: np.random.Generator, count: int, L: int,
              alpha: float) -> TrajectorySet:
    """Draw and simulate ``count`` whole trajectories of L states from ``rng``.

    Row i of one draw holds trajectory i's initial state, inputs and
    observation noise in turn, so consecutive calls continue one stream.
    """
    n, m = sys.n, sys.m
    states, inputs = np.empty((count, L, n)), np.empty((count, L - 1, m))
    draw = rng.standard_normal((count, n + (L - 1) * m + L * n))
    states[:, 0] = draw[:, :n]
    inputs[...] = draw[:, n:n + (L - 1) * m].reshape(inputs.shape)
    for k in range(L - 1):
        # stacked matrix-vector products repeat A @ x + B @ u bit for bit;
        # one matrix-matrix product over all trajectories would not
        states[:, k + 1] = ((sys.A @ states[:, k, :, None])[..., 0]
                            + (sys.B @ inputs[:, k, :, None])[..., 0])
    noise_part = draw[:, n + (L - 1) * m:].reshape(states.shape)
    noise_part *= alpha
    states += noise_part
    return _adopt(TrajectorySet, states=states, inputs=inputs)


def trajectory_blocks(sys: LtiSystem, N: int, L: int,
                      noise: NoiseSpec = NoiseSpec()) -> Iterator[TrajectorySet]:
    """The trajectories of ``generate_trajectories(sys, N, L, noise)``, as
    blocks of whole trajectories that are drawn and simulated only when the
    iterator reaches them.

    Each block takes about ``_DRAW_CHUNK`` normals, so a consumer that
    folds the blocks in holds one block at a time, whatever N is.  The
    sizes are checked when this is called, before anything is drawn.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if L < 2:
        raise ValueError("L must be at least 2")
    rng = np.random.default_rng(noise.seed)
    chunk = max(1, _DRAW_CHUNK // (sys.n + (L - 1) * sys.m + L * sys.n))
    return (_simulate(sys, rng, min(chunk, N - start), L, noise.alpha)
            for start in range(0, N, chunk))


def generate_trajectories(sys: LtiSystem, N: int, L: int,
                          noise: NoiseSpec = NoiseSpec()) -> TrajectorySet:
    """Simulate N length-L trajectories from Gaussian initial states and inputs.

    Trajectory i draws its initial state, inputs and observation noise in
    turn.  The set is ``trajectory_blocks`` collected into the returned
    arrays, one block at a time; the draws continue one stream, so the
    result does not depend on the block size.
    """
    blocks = trajectory_blocks(sys, N, L, noise)
    states, inputs = np.empty((N, L, sys.n)), np.empty((N, L - 1, sys.m))
    start = 0
    for block in blocks:
        stop = start + len(block.states)
        states[start:stop], inputs[start:stop] = block.states, block.inputs
        start = stop
    return _adopt(TrajectorySet, states=states, inputs=inputs)


def check_assumptions(ens: DataEnsemble, triangle: np.ndarray | None = None,
                      leading: tuple[int, np.ndarray] | None = None) -> AssumptionReport:
    """Rank-check the snapshot blocks against the required full ranks.

    With ``[X1 U1] = Q R`` and Q of orthonormal columns, [X1 U1], X1 and U1
    share their singular values with R's blocks ``R[:n+m, :n+m]``,
    ``R[:n, :n]`` and ``R[:n+m, n:n+m]`` (Chan, ACM TOMS 8 (1982)), so
    the only matrix with N rows reduced is [X1 U1], once, by ``_triangle``.
    A reconstruction that has reduced ``[X1 U1 Y]`` already hands in that
    ``triangle``, whose leading n + m columns are [X1 U1]'s, and as
    ``leading = (k, s)`` the singular values s it took of ``R[:k, :k]``.

    The singular values of a column block interlace those of the whole, so
    its smallest is no smaller and its largest no larger: full rank of
    [X1 U1] at the relative ``RANK_TOL`` gives full rank of X1 and U1, and
    their blocks are decomposed only when rank [X1 U1] < n + m.
    """
    n, m = ens.n, ens.m
    if triangle is None:
        S = np.empty((ens.N, n + m), order="F")
        S[:, :n], S[:, n:] = ens.X1, ens.U1
        # scaling by a power of two rounds nothing and changes no rank; it
        # keeps the column norms of data near the float range finite
        np.ldexp(S, -np.frexp(max(S.max(), -S.min()))[1], out=S)
        triangle = _triangle(S)
    k, s = (None, None) if leading is None else leading

    def rank(j0: int, j1: int) -> int:
        sv = s if (j0, j1) == (0, k) else np.linalg.svd(triangle[:j1, j0:j1],
                                                        compute_uv=False)
        return int(np.count_nonzero(significant(sv)))

    rank_joint = rank(0, n + m)
    rank_x1, rank_u1 = ((n, m) if rank_joint == n + m
                        else (rank(0, n), rank(n, n + m)))
    return AssumptionReport(
        rank_X1U1=rank_joint,
        rank_X1=rank_x1,
        rank_U1=rank_u1,
        b1_holds=rank_joint == n + m,
        b2_holds=rank_x1 == n,
        b3_holds=rank_u1 == m,
    )


def write_matrix(path: Path, M: np.ndarray) -> None:
    """Write a 2-D array as comma-separated rows, full double precision."""
    np.savetxt(path, M, delimiter=",", fmt=_CSV_FMT)


def read_matrix(path: Path) -> np.ndarray:
    """Read a file written by ``write_matrix``; malformed content is a FormatError."""
    try:
        M = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if M.size == 0:
        raise FormatError(f"{path}: empty matrix file")
    return M


def _read_block(path: Path, shape: tuple[int, int]) -> np.ndarray:
    """Read an ensemble block of ``shape`` from a ``.npy`` file (NEP 1).

    The header is checked before any data is read, so a file whose header
    claims more data than it holds is refused without allocating for it.
    A FormatError is raised for a file that is not a version 1 or 2 ``.npy``
    file, for data other than float64 of ``shape`` (C or Fortran order),
    for a size other than the header promises and for non-finite entries.
    """
    with open(path, "rb") as fh:
        head = io.BytesIO(fh.read(_NPY_HEAD_BYTES))
        try:
            version = np.lib.format.read_magic(head)
            if version not in _NPY_HEADER_READERS:
                raise ValueError(f"unsupported format version {version}")
            # a header numpy reads with a warning is judged here all the same
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                stored, _, dtype = _NPY_HEADER_READERS[version](head)
        except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
            raise FormatError(f"{path}: not a .npy array file ({exc})") from None
        if dtype.kind != "f" or dtype.itemsize != 8:
            raise FormatError(f"{path}: expected float64 entries, got {dtype}")
        if len(stored) != 2:
            raise FormatError(f"{path}: expected a 2-D array, got shape {stored}")
        if stored != shape:
            raise FormatError(f"{path}: array of shape {stored}, the manifest "
                              f"expects {shape}")
        expected = shape[0] * shape[1] * dtype.itemsize
        held = os.fstat(fh.fileno()).st_size - head.tell()
        if held != expected:
            raise FormatError(f"{path}: header promises {expected} data bytes, "
                              f"the file holds {held}")
        fh.seek(0)
        M = np.load(fh, allow_pickle=False)
    if not np.isfinite(M).all():
        raise FormatError(f"{path}: non-finite entries")
    return M


def read_json_object(path) -> dict:
    """Parse a JSON file that must hold an object; anything else is a FormatError."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return payload


def check_json_type(where, key: str, value, kind: type, *,
                    nullable: bool = False) -> None:
    """Raise FormatError unless ``value``, as loaded from JSON, is a ``kind``.

    ``kind`` is int, float, str or bool.  A JSON integer is a valid float,
    a boolean is no number, and null passes only when ``nullable``.
    """
    if value is None and nullable:
        return
    name, types = _JSON_TYPES[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise FormatError(f"{where}: {key!r} must be {name}"
                          f"{' or null' if nullable else ''}, got {json.dumps(value)}")


def read_manifest(path, default_name: str, required) -> tuple[dict, Path]:
    """Load a JSON manifest given its path or its containing directory.

    Returns the manifest and its path; a missing ``required`` key or an
    entry of the wrong JSON type raises FormatError.
    """
    p = Path(path)
    manifest_path = p / default_name if p.is_dir() else p
    manifest = read_json_object(manifest_path)
    missing = set(required) - manifest.keys()
    if missing:
        raise FormatError(f"{manifest_path}: manifest lacks keys {sorted(missing)}")
    for key, kind in _MANIFEST_TYPES.items():
        if key in manifest:
            check_json_type(manifest_path, key, manifest[key], kind,
                            nullable=key in _MANIFEST_NULLABLE)
    return manifest, manifest_path


def write_json(path, payload: dict) -> None:
    """Write a JSON object with sorted keys and two-space indents; a
    non-finite float, which JSON cannot hold, raises ValueError."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
                          + "\n")


def save_ensemble(ens: DataEnsemble, path) -> Path:
    """Write x1/u1/x2 ``.npy`` files plus an ensemble.json manifest into a directory.

    The blocks are NumPy's binary ``.npy`` files, bit-exact and written the
    same way on every run; returns the manifest's path.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    files = {"x1": "x1.npy", "u1": "u1.npy", "x2": "x2.npy"}
    for key, M in (("x1", ens.X1), ("u1", ens.U1), ("x2", ens.X2)):
        np.save(root / files[key], M, allow_pickle=False)
    manifest = {"n": ens.n, "m": ens.m, "N": ens.N,
                "alpha": ens.alpha, "seed": ens.seed, **files}
    write_json(root / "ensemble.json", manifest)
    return root / "ensemble.json"


def load_ensemble(path) -> DataEnsemble:
    """Load an ensemble from a manifest path or its containing directory.

    Each block file must hold the shape the manifest's N, n and m give it.
    """
    manifest, manifest_path = read_manifest(path, "ensemble.json",
                                            ("n", "m", "N", "x1", "u1", "x2"))
    root = manifest_path.parent
    N, n, m = manifest["N"], manifest["n"], manifest["m"]
    if min(N, n, m) < 1:
        raise FormatError(f"{manifest_path}: sizes must be positive, got "
                          f"N={N}, n={n}, m={m}")
    X1 = _read_block(root / manifest["x1"], (N, n))
    U1 = _read_block(root / manifest["u1"], (N, m))
    X2 = _read_block(root / manifest["x2"], (N, n))
    return _adopt(DataEnsemble, X1=X1, U1=U1, X2=X2,
                  alpha=manifest.get("alpha"), seed=manifest.get("seed"))


def save_system(sys: LtiSystem, out, *, h: float, seed: int) -> None:
    """Write A.csv, B.csv and a system.json manifest into a directory."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "A.csv", sys.A)
    write_matrix(out / "B.csv", sys.B)
    write_json(out / "system.json", {"n": sys.n, "m": sys.m, "h": h, "seed": seed,
                                      "a": "A.csv", "b": "B.csv", "c": "identity"})


def load_system(path) -> LtiSystem:
    """Load a system (identity output) from a manifest path or its directory."""
    manifest, manifest_path = read_manifest(path, "system.json", ("n", "m"))
    root = manifest_path.parent
    A = read_matrix(root / manifest.get("a", "A.csv"))
    B = read_matrix(root / manifest.get("b", "B.csv"))
    if A.shape != (manifest["n"], manifest["n"]) or B.shape != (manifest["n"], manifest["m"]):
        raise FormatError(f"{manifest_path}: matrix shapes disagree with manifest")
    return LtiSystem.with_identity_output(A, B)


def save_rom(rom: Rom, out) -> None:
    """Write rom_A.csv, rom_B.csv and rom_C.csv into a directory."""
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "rom_A.csv", rom.Ahat)
    write_matrix(out / "rom_B.csv", rom.Bhat)
    write_matrix(out / "rom_C.csv", rom.Chat)


def load_rom(path) -> Rom:
    """Load a rom from a directory written by ``save_rom``."""
    root = Path(path)
    return Rom(read_matrix(root / "rom_A.csv"), read_matrix(root / "rom_B.csv"),
               read_matrix(root / "rom_C.csv"))


@dataclass(frozen=True)
class IterRecord:
    """One history row; ``rel_h2_error`` is None without an oracle system."""

    iter: int
    f: float
    D: float
    step: float
    backtracks: int
    rel_h2_error: float | None
    stable: bool


def history_row(rec: IterRecord) -> str:
    """The ``history.csv`` line of one record, without its newline."""
    rel = "" if rec.rel_h2_error is None else _CSV_FMT % rec.rel_h2_error
    return ",".join([str(rec.iter), _CSV_FMT % rec.f, _CSV_FMT % rec.D,
                     _CSV_FMT % rec.step, str(rec.backtracks), rel,
                     "true" if rec.stable else "false"])


def write_history(path, records) -> None:
    """Write a history.csv file: ``HISTORY_HEADER``, then one ``history_row``
    per record, each line ending in a newline."""
    Path(path).write_text("\n".join([HISTORY_HEADER, *map(history_row, records)]) + "\n")


def read_history(path) -> list[IterRecord]:
    """Read a history.csv file back into records.

    A wrong header, a malformed row, an iteration index that does not
    strictly increase and an objective that increases are FormatErrors.
    """
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != HISTORY_HEADER:
        raise FormatError(f"{path}: unexpected history header")
    rows: list[IterRecord] = []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            if len(parts) != HISTORY_HEADER.count(",") + 1:
                raise ValueError("wrong column count")
            rec = IterRecord(iter=int(parts[0]), f=float(parts[1]), D=float(parts[2]),
                             step=float(parts[3]), backtracks=int(parts[4]),
                             rel_h2_error=float(parts[5]) if parts[5] else None,
                             stable=parts[6] == "true")
        except ValueError:
            raise FormatError(f"{path}: malformed row {line!r}") from None
        if rows and rec.iter <= rows[-1].iter:
            raise FormatError(f"{path}: iteration indices must strictly increase")
        if rows and rec.f > rows[-1].f:
            raise FormatError(f"{path}: objective column must be non-increasing")
        rows.append(rec)
    return rows
