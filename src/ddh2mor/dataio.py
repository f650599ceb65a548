"""Snapshot ensembles: generation, rank checks, and CSV/JSON persistence.

An ensemble stacks N independent one-step transitions row-wise: X1 holds
the starting states, U1 the applied inputs, and X2 the successor states.
Observation noise with coefficient alpha perturbs both state snapshots,
never the latent recursion.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .sysmodel import LtiSystem

__all__ = [
    "AssumptionReport",
    "DataEnsemble",
    "NoiseSpec",
    "Trajectory",
    "TrajectorySet",
    "check_assumptions",
    "first_transitions",
    "generate_ensemble",
    "generate_trajectories",
    "load_ensemble",
    "numerical_rank",
    "read_json_object",
    "read_manifest",
    "read_matrix",
    "save_ensemble",
    "write_matrix",
]

# relative singular-value threshold for every rank decision on snapshots
RANK_TOL = 1e-10

_CSV_FMT = "%.17e"


@dataclass(frozen=True)
class NoiseSpec:
    """Observation-noise coefficient and generator seed."""

    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


def _snapshot(value, name: str) -> np.ndarray:
    M = np.atleast_2d(np.asarray(value, dtype=float))
    if not np.isfinite(M).all():
        raise ValueError(f"{name} contains non-finite entries")
    M = M.copy()
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class DataEnsemble:
    """One-step snapshot data; rows are samples.

    X1 : (N, n) starting states
    U1 : (N, m) inputs
    X2 : (N, n) successor states
    alpha, seed : generation provenance when known
    """

    X1: np.ndarray
    U1: np.ndarray
    X2: np.ndarray
    alpha: float | None = None
    seed: int | None = None

    def __post_init__(self):
        X1 = _snapshot(self.X1, "X1")
        U1 = _snapshot(self.U1, "U1")
        X2 = _snapshot(self.X2, "X2")
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
class Trajectory:
    """States (L, n) and the inputs ((L - 1), m) that produced them."""

    states: np.ndarray
    inputs: np.ndarray

    def __post_init__(self):
        states = _snapshot(self.states, "states")
        inputs = _snapshot(self.inputs, "inputs")
        if states.shape[0] != inputs.shape[0] + 1:
            raise ValueError("need exactly one more state than inputs")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)

    @property
    def length(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class TrajectorySet:
    """A batch of equally long trajectories."""

    trajectories: tuple[Trajectory, ...]

    def __post_init__(self):
        trajs = tuple(self.trajectories)
        if not trajs:
            raise ValueError("at least one trajectory is required")
        L = trajs[0].length
        if any(t.length != L for t in trajs):
            raise ValueError("trajectories must share the same length")
        object.__setattr__(self, "trajectories", trajs)

    @property
    def length(self) -> int:
        return self.trajectories[0].length

    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self):
        return iter(self.trajectories)


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

    @property
    def all_hold(self) -> bool:
        return self.b1_holds and self.b2_holds and self.b3_holds


def numerical_rank(M: np.ndarray, tol: float = RANK_TOL) -> int:
    """Count of singular values above ``tol`` times the largest one."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


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
    x2 = x1 @ sys.A.T + u1 @ sys.B.T
    e1 = rng.standard_normal((N, sys.n))
    e2 = rng.standard_normal((N, sys.n))
    return DataEnsemble(x1 + noise.alpha * e1, u1, x2 + noise.alpha * e2,
                        alpha=noise.alpha, seed=noise.seed)


def generate_trajectories(sys: LtiSystem, N: int, L: int,
                          noise: NoiseSpec = NoiseSpec()) -> TrajectorySet:
    """Simulate N length-L trajectories from Gaussian initial states and inputs."""
    if N < 1:
        raise ValueError("N must be positive")
    if L < 2:
        raise ValueError("L must be at least 2")
    n, m = sys.n, sys.m
    rng = np.random.default_rng(noise.seed)
    # row i holds trajectory i's initial state, inputs and observation noise,
    # the order in which a trajectory-by-trajectory draw takes them
    draw = rng.standard_normal((N, n + (L - 1) * m + L * n))
    inputs = draw[:, n:n + (L - 1) * m].reshape(N, L - 1, m)
    states = np.empty((N, L, n))
    states[:, 0] = draw[:, :n]
    for k in range(L - 1):
        # stacked matrix-vector products repeat A @ x + B @ u bit for bit;
        # one matrix-matrix product over all trajectories would not
        states[:, k + 1] = ((sys.A @ states[:, k, :, None])[..., 0]
                            + (sys.B @ inputs[:, k, :, None])[..., 0])
    noise_part = draw[:, n + (L - 1) * m:].reshape(N, L, n)
    noise_part *= noise.alpha
    states += noise_part
    return TrajectorySet(tuple(Trajectory(x, u) for x, u in zip(states, inputs)))


def first_transitions(trajs: TrajectorySet) -> DataEnsemble:
    """Reduce a trajectory set to the ensemble of its first transitions."""
    X1 = np.vstack([t.states[0] for t in trajs])
    U1 = np.vstack([t.inputs[0] for t in trajs])
    X2 = np.vstack([t.states[1] for t in trajs])
    return DataEnsemble(X1, U1, X2)


def check_assumptions(ens: DataEnsemble, n: int | None = None,
                      m: int | None = None) -> AssumptionReport:
    """Rank-check the snapshot blocks against the required full ranks."""
    n = ens.n if n is None else n
    m = ens.m if m is None else m
    if (n, m) != (ens.n, ens.m):
        raise ValueError(f"ensemble carries (n, m) = {(ens.n, ens.m)}, expected {(n, m)}")
    rank_joint = numerical_rank(np.hstack([ens.X1, ens.U1]))
    rank_x1 = numerical_rank(ens.X1)
    rank_u1 = numerical_rank(ens.U1)
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


def read_json_object(path) -> dict:
    """Parse a JSON file that must hold an object; anything else is a FormatError."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path}: expected a JSON object")
    return payload


def read_manifest(path, default_name: str, required) -> tuple[dict, Path]:
    """Load a JSON manifest given its path or its containing directory.

    Returns the manifest and its path; a missing ``required`` key raises
    FormatError.
    """
    p = Path(path)
    manifest_path = p / default_name if p.is_dir() else p
    manifest = read_json_object(manifest_path)
    missing = set(required) - manifest.keys()
    if missing:
        raise FormatError(f"{manifest_path}: manifest lacks keys {sorted(missing)}")
    return manifest, manifest_path


def save_ensemble(ens: DataEnsemble, path) -> Path:
    """Write x1/u1/x2 CSV files plus an ensemble.json manifest into a directory."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    files = {"x1": "x1.csv", "u1": "u1.csv", "x2": "x2.csv"}
    write_matrix(root / files["x1"], ens.X1)
    write_matrix(root / files["u1"], ens.U1)
    write_matrix(root / files["x2"], ens.X2)
    manifest = {"n": ens.n, "m": ens.m, "N": ens.N,
                "alpha": ens.alpha, "seed": ens.seed, **files}
    (root / "ensemble.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return root / "ensemble.json"


def load_ensemble(path) -> DataEnsemble:
    """Load an ensemble from a manifest path or its containing directory."""
    manifest, manifest_path = read_manifest(path, "ensemble.json",
                                            ("n", "m", "N", "x1", "u1", "x2"))
    root = manifest_path.parent
    X1 = read_matrix(root / manifest["x1"])
    U1 = read_matrix(root / manifest["u1"])
    X2 = read_matrix(root / manifest["x2"])
    N, n, m = manifest["N"], manifest["n"], manifest["m"]
    if X1.shape != (N, n) or U1.shape != (N, m) or X2.shape != (N, n):
        raise FormatError(
            f"{manifest_path}: matrix shapes {X1.shape}/{U1.shape}/{X2.shape} "
            f"do not match manifest (N={N}, n={n}, m={m})")
    return DataEnsemble(X1, U1, X2,
                        alpha=manifest.get("alpha"), seed=manifest.get("seed"))
