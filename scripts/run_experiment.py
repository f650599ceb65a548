#!/usr/bin/env python3
"""Full benchmark run: synthesize a system, sample snapshot data, and
descend from one or all of the initializers.

Writes into the output directory:

    config.json             resolved experiment parameters
    system/, ensemble/      the generated problem instance
    <initializer>/          history.csv, summary.json, rom_{A,B,C}.csv

Seeds derive from the config seed: the system uses it directly, the
ensemble adds 100, and initializer data adds 200, so every artifact is
reproducible from the config alone.  Config keys are the flag names
(``output_dir`` for --out); the starts and the descent take the defaults
of ``ddh2mor reduce``.

Examples:
    python3 scripts/run_experiment.py --out runs/noiseless
    python3 scripts/run_experiment.py --noise-alpha 1e-3 --N 510 --initializer dmdc
    python3 scripts/run_experiment.py --config my_experiment.json
"""

import argparse
import sys
from pathlib import Path

import ddh2mor as dd
from ddh2mor.cli import (GEN_DATA_DEFAULTS, GEN_SYSTEM_DEFAULTS, OPTIM_DEFAULTS,
                         ORACLE_START_DEFAULTS, REDUCE_DEFAULTS, add_options, exit_code,
                         optim_params, oracle_start, reduce_into, resolve_options)
from ddh2mor.dataio import save_system, write_json

KINDS = ("dmdc", "loewner", "databt")
# the problem sizes and noise level are the defaults of gen-system, gen-data
# and reduce
DEFAULTS = {"n": GEN_SYSTEM_DEFAULTS["n"], "m": GEN_SYSTEM_DEFAULTS["m"],
            "r": REDUCE_DEFAULTS["r"], "N": GEN_DATA_DEFAULTS["N"],
            "h": GEN_SYSTEM_DEFAULTS["h"], "noise_alpha": GEN_DATA_DEFAULTS["alpha"],
            "seed": 0, "initializer": "all", **ORACLE_START_DEFAULTS,
            **OPTIM_DEFAULTS, "output_dir": "experiment"}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    add_options(ap, {key: value for key, value in DEFAULTS.items()
                     if key not in ("initializer", "output_dir")})
    ap.add_argument("--out", dest="output_dir", metavar="OUT",
                    help="output directory (default: config output_dir)")
    ap.add_argument("--initializer", choices=(*KINDS, "all"),
                    help="which starting rom to descend from (default all)")
    ap.get_default("flag_types").update(initializer=str, output_dir=str)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    return exit_code(run, parse_args(argv))


def run(args: argparse.Namespace) -> int:
    """The experiment ``args`` configure; raises what its steps raise."""
    args = resolve_options(args, DEFAULTS)
    spec = dd.SyntheticSpec(n=args.n, m=args.m, h=args.h, seed=args.seed)
    noise = dd.NoiseSpec(alpha=args.noise_alpha, seed=args.seed + 100)
    params = optim_params(args)
    if args.N < 1 or not 0 < args.r < args.n:
        raise ValueError("need N >= 1 and 0 < r < n")
    if args.initializer not in (*KINDS, "all"):
        raise ValueError(f"unknown initializer {args.initializer!r}")
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", {key: getattr(args, key) for key in DEFAULTS})

    sys_ = dd.generate_synthetic(spec)
    save_system(sys_, out / "system", h=spec.h, seed=spec.seed)
    ens = dd.generate_ensemble(sys_, args.N, noise)
    dd.save_ensemble(ens, out / "ensemble")
    # one reconstruction and one rank check for every initializer; the gate
    # below is the reconstruction's own condition, applied here so that it
    # can print the ranks, hence force=True
    dual = dd.reconstruct_dual(ens, force=True)
    report = dual.report
    print(f"system: n={args.n} m={args.m} rho={sys_.spectral_radius():.4f}")
    print(f"data: N={args.N} alpha={args.noise_alpha} "
          f"ranks=({report.rank_X1U1}, {report.rank_X1}, {report.rank_U1})")
    if not report.b1_holds:
        print("rank checks failed; aborting", file=sys.stderr)
        return 2

    kinds = KINDS if args.initializer == "all" else (args.initializer,)
    summaries = [reduce_into(out / kind, ens,
                             oracle_start(kind, args, ens, sys_, args.seed + 200),
                             params, init_label=kind, oracle=sys_, dual=dual)
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
