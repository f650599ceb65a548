#!/usr/bin/env python3
"""Full benchmark run: synthesize a system, sample snapshot data, and
descend from one or all of the initializers.

Writes into the output directory:

    config.json             resolved experiment parameters
    system/, ensemble/      the generated problem instance
    <initializer>/          history.csv, summary.json, rom_{A,B,C}.csv

Seeds derive from the config seed: the system uses it directly, the
ensemble adds 100, and initializer data adds 200, so every artifact is
reproducible from the config alone.

Examples:
    python3 scripts/run_experiment.py --out runs/noiseless
    python3 scripts/run_experiment.py --noise-alpha 1e-3 --N 510 --initializer dmdc
    python3 scripts/run_experiment.py --config my_experiment.json
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import ddh2mor as dd
from ddh2mor.cli import reduce_into
from ddh2mor.dataio import check_json_type, read_json_object, save_system, write_json

INT_FIELDS = ("n", "m", "r", "N", "seed", "max_iters", "max_backtracks",
              "init_traj_count", "init_traj_length", "init_left", "init_right",
              "init_impulse_count")
FLOAT_FIELDS = ("h", "noise_alpha", "alpha0", "c", "rho", "tol")


@dataclasses.dataclass(frozen=True)
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

    def optim_params(self) -> dd.OptimParams:
        return dd.OptimParams(alpha0=self.alpha0, c=self.c, rho=self.rho,
                              tol=self.tol, max_iters=self.max_iters,
                              max_backtracks=self.max_backtracks)


def build_initializer(cfg: ExperimentConfig, sys_, kind: str):
    seed = cfg.seed + 200
    if kind == "dmdc":
        count = cfg.init_traj_count if cfg.init_traj_count is not None else cfg.N
        trajs = dd.generate_trajectories(
            sys_, count, cfg.init_traj_length,
            dd.NoiseSpec(alpha=cfg.noise_alpha, seed=seed))
        return dd.init_dmdc(trajs, cfg.r)
    if kind == "loewner":
        left, right = dd.sample_frequency_data(sys_, cfg.init_left,
                                               cfg.init_right, seed=seed)
        return dd.init_loewner(left, right, cfg.r)
    if kind == "databt":
        imp = dd.impulse_from_system(sys_, cfg.init_impulse_count)
        return dd.init_data_bt(imp, cfg.r)
    raise ValueError(f"unknown initializer {kind!r}")


def parse_args(argv=None) -> argparse.Namespace:
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="JSON file with ExperimentConfig fields")
    ap.add_argument("--out", help="output directory (default: config output_dir)")
    ap.add_argument("--initializer", choices=("dmdc", "loewner", "databt", "all"),
                    help="which starting rom to descend from (default all)")
    for name in INT_FIELDS:
        ap.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int)
    for name in FLOAT_FIELDS:
        ap.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    args = ap.parse_args(argv)
    assert set(vars(args)) - {"config", "out", "initializer"} <= set(fields)
    return args


def resolve_config(args: argparse.Namespace) -> tuple[ExperimentConfig, bool]:
    """The config file overridden by flags, and whether to run every initializer."""
    payload = read_json_object(args.config) if args.config else {}
    unknown = set(payload) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in payload.items():
        kind = int if key in INT_FIELDS else float if key in FLOAT_FIELDS else str
        check_json_type(args.config, key, value, kind,
                        nullable=key == "init_traj_count")
    run_all = (args.initializer or payload.get("initializer", "all")) == "all"
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("config", "out") and v is not None}
    if run_all:
        overrides.pop("initializer", None)
        payload.pop("initializer", None)
    return ExperimentConfig(**{**payload, **overrides}), run_all


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cfg, run_all = resolve_config(args)
    except (dd.FormatError, ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", dataclasses.asdict(cfg))

    sys_ = dd.generate_synthetic(dd.SyntheticSpec(n=cfg.n, m=cfg.m,
                                                  h=cfg.h, seed=cfg.seed))
    save_system(sys_, out / "system", h=cfg.h, seed=cfg.seed)
    ens = dd.generate_ensemble(sys_, cfg.N,
                               dd.NoiseSpec(alpha=cfg.noise_alpha,
                                            seed=cfg.seed + 100))
    dd.save_ensemble(ens, out / "ensemble")
    # one reconstruction and one rank check for every initializer; the gate
    # below is stricter than the reconstruction's own, hence force=True
    dual = dd.reconstruct_dual(ens, force=True)
    report = dual.report
    print(f"system: n={cfg.n} m={cfg.m} rho={sys_.spectral_radius():.4f}")
    print(f"data: N={cfg.N} alpha={cfg.noise_alpha} "
          f"ranks=({report.rank_X1U1}, {report.rank_X1}, {report.rank_U1})")
    if not report.all_hold:
        print("rank checks failed; aborting", file=sys.stderr)
        return 2

    kinds = ("dmdc", "loewner", "databt") if run_all else (cfg.initializer,)
    summaries = [reduce_into(out / kind, ens, build_initializer(cfg, sys_, kind),
                             cfg.optim_params(), init_label=kind, oracle=sys_, dual=dual)
                 for kind in kinds]

    width = max(len(s["init"]) for s in summaries)
    for s in summaries:
        print(f"{s['init']:>{width}}: {s['stop_reason']:<12} "
              f"iters={s['iterations']:<4d} "
              f"rel {s['initial_rel_h2_error']:.6f} -> {s['final_rel_h2_error']:.6f} "
              f"({s['wall_time_s']:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
