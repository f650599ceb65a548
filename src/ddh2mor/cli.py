"""Command-line harness: generate systems and data, reduce, evaluate.

Exit codes: 0 success, 1 configuration or file-format problems, 2 failed
data rank checks, 3 numerical failures.  Every flag can also be supplied
through a JSON file via --config; explicit flags win over file values.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dataio, ddgrad, initmor, optim, sysmodel
from .errors import (FormatError, InsufficientData, RankDeficientData,
                     ReductionError)

__all__ = ["ConvergenceLog", "ExperimentConfig", "main"]

logger = logging.getLogger(__name__)

_FLOAT_FMT = "%.17e"

HISTORY_COLUMNS = ("iter", "f", "D", "step", "backtracks", "rel_h2_error", "stable")


@dataclass(frozen=True)
class ExperimentConfig:
    """One full benchmark run: system, data, reduction, evaluation."""

    n: int = 100
    m: int = 2
    r: int = 6
    N: int = 102
    h: float = 0.1
    noise_alpha: float = 0.0
    seed: int = 0
    initializer: str = "dmdc"
    init_traj_count: int | None = None
    init_traj_length: int = 10
    init_left: int = 30
    init_right: int = 30
    init_impulse_count: int = 10
    alpha0: float = 1.0
    c: float = 1e-4
    rho: float = 0.5
    tol: float = 1e-3
    max_iters: int = 500
    max_backtracks: int = 60
    output_dir: str = "experiment"

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.N < 1:
            raise ValueError("n, m and N must be positive")
        if not 0 < self.r < self.n:
            raise ValueError("need 0 < r < n")
        if self.noise_alpha < 0:
            raise ValueError("noise_alpha must be nonnegative")
        if self.initializer not in ("dmdc", "loewner", "databt"):
            raise ValueError(f"unknown initializer {self.initializer!r}")

    def optim_params(self) -> optim.OptimParams:
        return optim.OptimParams(alpha0=self.alpha0, c=self.c, rho=self.rho,
                                 tol=self.tol, max_iters=self.max_iters,
                                 max_backtracks=self.max_backtracks)


@dataclass
class ConvergenceLog:
    """Serialized iteration history, one CSV row per IterRecord."""

    rows: list = field(default_factory=list)

    @staticmethod
    def header() -> str:
        return ",".join(HISTORY_COLUMNS)

    @staticmethod
    def format_row(rec: optim.IterRecord) -> str:
        rel = "" if rec.rel_h2_error is None else _FLOAT_FMT % rec.rel_h2_error
        return ",".join([
            str(rec.iter),
            _FLOAT_FMT % rec.f,
            _FLOAT_FMT % rec.D,
            _FLOAT_FMT % rec.step,
            str(rec.backtracks),
            rel,
            "true" if rec.stable else "false",
        ])

    def append(self, rec: optim.IterRecord) -> None:
        self.rows.append(rec)

    def validate(self) -> None:
        iters = [r.iter for r in self.rows]
        if any(b <= a for a, b in zip(iters, iters[1:])):
            raise ValueError("iteration indices must strictly increase")
        fs = [r.f for r in self.rows]
        if any(b > a for a, b in zip(fs, fs[1:])):
            raise ValueError("objective column must be non-increasing")

    def write(self, path) -> None:
        self.validate()
        lines = [self.header()] + [self.format_row(r) for r in self.rows]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def read(cls, path) -> "ConvergenceLog":
        lines = Path(path).read_text().strip().splitlines()
        if not lines or lines[0] != cls.header():
            raise FormatError(f"{path}: unexpected history header")
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != len(HISTORY_COLUMNS):
                raise FormatError(f"{path}: malformed row {line!r}")
            rows.append(optim.IterRecord(
                iter=int(parts[0]), f=float(parts[1]), D=float(parts[2]),
                step=float(parts[3]), backtracks=int(parts[4]),
                rel_h2_error=float(parts[5]) if parts[5] else None,
                stable=parts[6] == "true"))
        return cls(rows)


def save_system(sys: sysmodel.LtiSystem, out: Path, *, h: float, seed: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_matrix(out / "A.csv", sys.A)
    dataio.write_matrix(out / "B.csv", sys.B)
    manifest = {"n": sys.n, "m": sys.m, "h": h, "seed": seed,
                "a": "A.csv", "b": "B.csv", "c": "identity"}
    (out / "system.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def load_system(path) -> sysmodel.LtiSystem:
    manifest, manifest_path = dataio.read_manifest(path, "system.json", ("n", "m"))
    root = manifest_path.parent
    A = dataio.read_matrix(root / manifest.get("a", "A.csv"))
    B = dataio.read_matrix(root / manifest.get("b", "B.csv"))
    if A.shape != (manifest["n"], manifest["n"]) or B.shape != (manifest["n"], manifest["m"]):
        raise FormatError(f"{manifest_path}: matrix shapes disagree with manifest")
    return sysmodel.LtiSystem.with_identity_output(A, B)


def save_rom(rom: sysmodel.Rom, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    dataio.write_matrix(out / "rom_A.csv", rom.Ahat)
    dataio.write_matrix(out / "rom_B.csv", rom.Bhat)
    dataio.write_matrix(out / "rom_C.csv", rom.Chat)


def load_rom(path) -> sysmodel.Rom:
    root = Path(path)
    return sysmodel.Rom(dataio.read_matrix(root / "rom_A.csv"),
                        dataio.read_matrix(root / "rom_B.csv"),
                        dataio.read_matrix(root / "rom_C.csv"))


def _report_dict(report: dataio.AssumptionReport) -> dict:
    return {"rank_X1U1": report.rank_X1U1, "rank_X1": report.rank_X1,
            "rank_U1": report.rank_U1, "b1_holds": report.b1_holds,
            "b2_holds": report.b2_holds, "b3_holds": report.b3_holds}


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# --- flag/config resolution -------------------------------------------------

def _load_config(path) -> dict:
    return {} if path is None else dataio.read_json_object(path)


def _resolve(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Apply flag-over-file-over-default precedence for every option."""
    config = _load_config(getattr(args, "config", None))
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, fallback in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, config.get(key, fallback))
    return args


# --- subcommands ------------------------------------------------------------

_GEN_SYSTEM_DEFAULTS = {"n": 100, "m": 2, "h": 0.1, "seed": 0, "out": "system"}


def cmd_gen_system(args: argparse.Namespace) -> int:
    args = _resolve(args, _GEN_SYSTEM_DEFAULTS)
    spec = sysmodel.SyntheticSpec(n=int(args.n), m=int(args.m),
                                  h=float(args.h), seed=int(args.seed))
    sys_ = sysmodel.generate_synthetic(spec)
    out = Path(args.out)
    save_system(sys_, out, h=spec.h, seed=spec.seed)
    _print_json({"out": str(out), "n": sys_.n, "m": sys_.m,
                 "spectral_radius": sys_.spectral_radius()})
    return 0


_GEN_DATA_DEFAULTS = {"system": None, "N": 102, "alpha": 0.0, "seed": 0,
                      "out": "ensemble"}


def cmd_gen_data(args: argparse.Namespace) -> int:
    args = _resolve(args, _GEN_DATA_DEFAULTS)
    if args.system is None:
        raise ValueError("--system is required")
    sys_ = load_system(args.system)
    noise = dataio.NoiseSpec(alpha=float(args.alpha), seed=int(args.seed))
    ens = dataio.generate_ensemble(sys_, int(args.N), noise)
    dataio.save_ensemble(ens, Path(args.out))
    report = dataio.check_assumptions(ens)
    _print_json({"out": str(args.out), "N": ens.N, "alpha": ens.alpha,
                 "assumptions": _report_dict(report)})
    return 0


_REDUCE_DEFAULTS = {
    "ensemble": None, "r": 6, "init": "dmdc", "oracle": None,
    "init_data": None, "init_seed": None, "init_traj_count": None,
    "init_traj_length": 10, "init_left": 30, "init_right": 30,
    "init_impulse_count": 10, "alpha0": 1.0, "c": 1e-4, "rho": 0.5,
    "tol": 1e-3, "max_iters": 500, "max_backtracks": 60,
    "force": False, "out": "reduction",
}


def _build_initializer(args, ens: dataio.DataEnsemble,
                       oracle: sysmodel.LtiSystem | None) -> sysmodel.Rom:
    r = int(args.r)
    kind = args.init
    if kind == "file":
        if args.init_data is None:
            raise ValueError("--init file requires --init-data DIR")
        return load_rom(args.init_data)

    if kind == "loewner":
        if args.init_data is not None:
            left, right = initmor.load_frequency_samples(args.init_data)
        elif oracle is not None:
            seed = _init_seed(args, ens)
            left, right = initmor.sample_frequency_data(
                oracle, int(args.init_left), int(args.init_right), seed)
        else:
            raise ValueError("--init loewner needs --oracle or --init-data")
        return initmor.init_loewner(left, right, r)

    if kind == "databt":
        if args.init_data is not None:
            imp = initmor.load_impulse_data(args.init_data)
        elif oracle is not None:
            imp = initmor.impulse_from_system(oracle, int(args.init_impulse_count))
        else:
            raise ValueError("--init databt needs --oracle or --init-data")
        return initmor.init_data_bt(imp, r)

    if kind == "dmdc":
        if args.init_data is not None:
            raise ValueError("--init dmdc reads no --init-data; it simulates "
                             "trajectories from --oracle")
        if oracle is None:
            raise ValueError("--init dmdc needs --oracle to generate trajectories")
        seed = _init_seed(args, ens)
        count = args.init_traj_count
        count = ens.N if count is None else int(count)
        noise = dataio.NoiseSpec(alpha=ens.alpha or 0.0, seed=seed)
        trajs = dataio.generate_trajectories(oracle, count,
                                             int(args.init_traj_length), noise)
        return initmor.init_dmdc(trajs, r)

    raise ValueError(f"unknown initializer {kind!r}")


def _init_seed(args, ens: dataio.DataEnsemble) -> int:
    # default: offset the ensemble seed so initializer data is fresh
    if args.init_seed is not None:
        return int(args.init_seed)
    return (ens.seed + 1) if ens.seed is not None else 0


def cmd_reduce(args: argparse.Namespace) -> int:
    args = _resolve(args, _REDUCE_DEFAULTS)
    if args.ensemble is None:
        raise ValueError("--ensemble is required")
    if int(args.r) < 1:
        raise ValueError("r must be at least 1")
    ens = dataio.load_ensemble(args.ensemble)
    # the reconstruction runs the one rank check of the reduction; the gate
    # below applies its report and is stricter than the reconstruction's own
    # condition (it also needs rank U1 = m), hence force=True here
    dual = ddgrad.reconstruct_dual(ens, force=True)
    report = dual.report
    if not report.all_hold:
        _print_json({"assumptions": _report_dict(report)})
        if not args.force:
            print("rank checks failed; re-run with --force to proceed",
                  file=sys.stderr)
            return 2
        logger.warning("rank checks failed, continuing because --force is set")

    oracle = load_system(args.oracle) if args.oracle is not None else None
    init = _build_initializer(args, ens, oracle)
    params = optim.OptimParams(
        alpha0=float(args.alpha0), c=float(args.c), rho=float(args.rho),
        tol=float(args.tol), max_iters=int(args.max_iters),
        max_backtracks=int(args.max_backtracks))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    log = ConvergenceLog()
    started = time.perf_counter()
    with open(out / "history.csv", "w") as fh:
        fh.write(log.header() + "\n")

        def sink(rec: optim.IterRecord) -> None:
            log.append(rec)
            fh.write(log.format_row(rec) + "\n")

        result = optim.run(ens, init, params, oracle=oracle, sink=sink,
                           dual=dual)
    elapsed = time.perf_counter() - started

    save_rom(result.rom, out)
    final = result.history[-1] if result.history else None
    summary = {
        "stop_reason": result.stop_reason.value,
        "iterations": len(result.history),
        "initial_f": result.initial_f,
        "final_f": final.f if final else result.initial_f,
        "initial_rel_h2_error": result.initial_rel_h2_error,
        "final_rel_h2_error": final.rel_h2_error if final else result.initial_rel_h2_error,
        "wall_time_s": elapsed,
        "r": int(args.r),
        "init": args.init,
        "params": {"alpha0": params.alpha0, "c": params.c, "rho": params.rho,
                   "tol": params.tol, "max_iters": params.max_iters,
                   "max_backtracks": params.max_backtracks},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _print_json(summary)

    ok = result.stop_reason in (optim.StopReason.CONVERGED, optim.StopReason.MAX_ITERS)
    return 0 if ok and result.rom.satisfies_spectral_bounds() else 3


_EVALUATE_DEFAULTS = {"system": None, "rom": None}


def cmd_evaluate(args: argparse.Namespace) -> int:
    args = _resolve(args, _EVALUATE_DEFAULTS)
    if args.system is None or args.rom is None:
        raise ValueError("--system and --rom are required")
    sys_ = load_system(args.system)
    rom = load_rom(args.rom)
    eigs = rom.schur.eigvals
    mods = np.abs(eigs)
    norm = sysmodel.h2_norm(sys_)
    err = sysmodel.h2_error(sys_, rom)
    _print_json({
        "h2_norm_system": norm,
        "h2_error_abs": err,
        "h2_error_rel": err / norm,
        "rom_order": rom.r,
        "rom_eigenvalues": [{"re": float(e.real), "im": float(e.imag)} for e in eigs],
        "rom_spectral_radius": float(mods.max()),
        "rom_min_eig_modulus": float(mods.min()),
        "stable": bool(rom.satisfies_spectral_bounds()),
    })
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddh2mor",
        description="Data-driven h2-optimal reduction of discrete-time LTI systems",
        epilog="exit codes: 0 ok, 1 config/format, 2 failed rank checks, 3 numerical")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    gs = sub.add_parser("gen-system", help="generate a synthetic stable system")
    gs.add_argument("--config", help="JSON file with defaults for any flag")
    gs.add_argument("--n", type=int)
    gs.add_argument("--m", type=int)
    gs.add_argument("--h", type=float, help="discretization step")
    gs.add_argument("--seed", type=int)
    gs.add_argument("--out", help="output directory")
    gs.set_defaults(func=cmd_gen_system)

    gd = sub.add_parser("gen-data", help="sample a snapshot ensemble from a system")
    gd.add_argument("--config")
    gd.add_argument("--system", help="system directory or manifest")
    gd.add_argument("--N", type=int, help="number of one-step samples")
    gd.add_argument("--alpha", type=float, help="observation-noise coefficient")
    gd.add_argument("--seed", type=int)
    gd.add_argument("--out")
    gd.set_defaults(func=cmd_gen_data)

    rd = sub.add_parser("reduce", help="run the data-driven descent")
    rd.add_argument("--config")
    rd.add_argument("--ensemble", help="ensemble directory or manifest")
    rd.add_argument("--r", type=int, help="reduced order")
    rd.add_argument("--init", choices=("dmdc", "loewner", "databt", "file"))
    rd.add_argument("--oracle", help="true system directory, enables error logging "
                                     "and harness-mode initializer data")
    rd.add_argument("--init-data", dest="init_data",
                    help="JSON samples (loewner/databt) or rom directory (file)")
    rd.add_argument("--init-seed", dest="init_seed", type=int)
    rd.add_argument("--init-traj-count", dest="init_traj_count", type=int)
    rd.add_argument("--init-traj-length", dest="init_traj_length", type=int)
    rd.add_argument("--init-left", dest="init_left", type=int)
    rd.add_argument("--init-right", dest="init_right", type=int)
    rd.add_argument("--init-impulse-count", dest="init_impulse_count", type=int)
    rd.add_argument("--alpha0", type=float)
    rd.add_argument("--c", type=float)
    rd.add_argument("--rho", type=float)
    rd.add_argument("--tol", type=float)
    rd.add_argument("--max-iters", dest="max_iters", type=int)
    rd.add_argument("--max-backtracks", dest="max_backtracks", type=int)
    rd.add_argument("--force", action="store_const", const=True,
                    help="proceed despite failed rank checks")
    rd.add_argument("--out")
    rd.set_defaults(func=cmd_reduce)

    ev = sub.add_parser("evaluate", help="compare a rom against a system")
    ev.add_argument("--config")
    ev.add_argument("--system")
    ev.add_argument("--rom", help="directory with rom_{A,B,C}.csv")
    ev.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (RankDeficientData, InsufficientData) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ReductionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
