"""Command-line harness: generate systems and data, reduce, evaluate.

Exit codes: 0 success, 1 configuration or file-format problems (a size too
large to allocate included), 2 failed data rank checks, 3 numerical
failures.  Each option of a command is one row of its defaults table, which
gives its flag, config key, default and type (``add_options``).  Every flag
can also be supplied through a JSON file via --config; explicit flags win
over file values.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import dataio, ddgrad, initmor, optim, sysmodel
from .errors import (FormatError, InsufficientData, RankDeficientData,
                     ReductionError)

__all__ = ["GEN_DATA_DEFAULTS", "GEN_SYSTEM_DEFAULTS", "OPTIM_DEFAULTS",
           "ORACLE_START_DEFAULTS", "REDUCE_DEFAULTS", "add_options", "exit_code",
           "main", "optim_params", "oracle_start", "reduce_into", "report_error",
           "resolve_options"]

logger = logging.getLogger(__name__)


def reduce_into(out: Path, ens: dataio.DataEnsemble, init: sysmodel.Rom,
                params: optim.OptimParams, *, init_label: str,
                dual: ddgrad.DualData,
                oracle: sysmodel.LtiSystem | None = None) -> dict:
    """Descend from ``init`` against ``dual``, the model identified from
    ``ens``, and write the reduction into directory ``out``.

    Once the descent returns, writes ``history.csv``, ``rom_{A,B,C}.csv``
    and ``summary.json``, and returns the summary; a descent that raises
    writes nothing.  ``wall_time_s`` times the descent alone;
    ``data_residual`` reports how far the snapshots are from one linear
    model (``DualData.data_residual``).
    """
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    result = optim.run(ens, init, params, oracle=oracle, dual=dual)
    elapsed = time.perf_counter() - started

    dataio.write_history(out / "history.csv", result.history)
    dataio.save_rom(result.rom, out)
    final = result.history[-1] if result.history else None
    summary = {
        "stop_reason": result.stop_reason.value,
        "iterations": len(result.history),
        "initial_f": result.initial_f,
        "final_f": final.f if final else result.initial_f,
        "initial_rel_h2_error": result.initial_rel_h2_error,
        "final_rel_h2_error": final.rel_h2_error if final else result.initial_rel_h2_error,
        "wall_time_s": elapsed,
        "data_residual": dual.data_residual,
        "r": init.r,
        "init": init_label,
        "params": dataclasses.asdict(params),
    }
    dataio.write_json(out / "summary.json", summary)
    return summary


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


# --- options, shared with scripts/run_experiment.py --------------------------

def resolve_options(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Apply flag-over-file-over-default precedence for every option.

    A config value must have the JSON type of its flag (``args.flag_types``,
    see ``add_options``); null stands in only for a flag whose default is
    unset.  ``args.given`` names the options set by a flag or the config.
    """
    config = {} if args.config is None else dataio.read_json_object(args.config)
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    args.given = {key for key in defaults
                  if getattr(args, key, None) is not None or key in config}
    for key, fallback in defaults.items():
        if getattr(args, key, None) is None:
            if key in config:
                dataio.check_json_type(args.config, key, config[key],
                                       args.flag_types[key], nullable=fallback is None)
            setattr(args, key, config.get(key, fallback))
    return args


# the types of the options whose default is unset
_UNSET_TYPES = {"system": str, "ensemble": str, "oracle": str, "init_data": str,
                "rom": str, "init_seed": int, "init_traj_count": int}
_CHOICES = {"init": ("dmdc", "loewner", "databt", "file")}
_HELP = {
    "h": "discretization step",
    "out": "output directory",
    "system": "system directory or manifest",
    "N": "number of one-step samples",
    "alpha": "observation-noise coefficient",
    "ensemble": "ensemble directory or manifest",
    "r": "reduced order",
    "oracle": "true system directory, enables error logging and harness-mode "
              "initializer data",
    "init_data": "JSON samples (loewner/databt) or rom directory (file)",
    "force": "proceed despite failed rank checks",
    "rom": "directory with rom_{A,B,C}.csv",
}


def add_options(parser: argparse.ArgumentParser, defaults: dict) -> None:
    """Declare ``--config`` and one flag per option of ``defaults``.

    Option ``max_iters`` is flag ``--max-iters``.  A flag parses to the
    type of its default, or to the type ``_UNSET_TYPES`` gives where the
    default is None, and a bool flag takes no value.  Every flag defaults to
    None, so that ``resolve_options`` can tell it from one not given.  The
    types are stored on the parser as ``flag_types``, which a config value
    must match.
    """
    parser.add_argument("--config", help="JSON file with defaults for any flag")
    types = {}
    for key, default in defaults.items():
        kind = types[key] = _UNSET_TYPES[key] if default is None else type(default)
        spec = ({"action": "store_const", "const": True} if kind is bool
                else {"type": kind, "choices": _CHOICES.get(key)})
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            help=_HELP.get(key), **spec)
    parser.set_defaults(flag_types=types)


# the descent's options and defaults are OptimParams' own
OPTIM_DEFAULTS = {f.name: f.default for f in dataclasses.fields(optim.OptimParams)}

# how much data an oracle start synthesizes; a null trajectory count means
# one trajectory per ensemble sample
ORACLE_START_DEFAULTS = {"init_traj_count": None, "init_traj_length": 10,
                         "init_left": 30, "init_right": 30, "init_impulse_count": 10}


def optim_params(args: argparse.Namespace) -> optim.OptimParams:
    """OptimParams from resolved options, each coerced to its default's type."""
    return optim.OptimParams(**{key: type(default)(getattr(args, key))
                                for key, default in OPTIM_DEFAULTS.items()})


def oracle_start(kind: str, args: argparse.Namespace, ens: dataio.DataEnsemble,
                 oracle: sysmodel.LtiSystem, seed: int) -> sysmodel.Rom:
    """The ``kind`` start of order ``args.r`` from data synthesized from ``oracle``.

    dmdc simulates ``init_traj_count`` trajectories of ``init_traj_length``
    states under the ensemble's noise level, loewner samples ``init_left``
    and ``init_right`` transfer-function values, and databt takes
    ``init_impulse_count`` Markov parameters.  ``seed`` seeds the random
    draws.

    dmdc folds the trajectories into its fit a block at a time as they are
    simulated, so it never holds the set.  A count whose set would not fit
    in the machine's memory is refused with a MemoryError all the same,
    before anything is drawn: simulating it would take far longer than any
    reduction is meant to.
    """
    r = int(args.r)
    if kind == "dmdc":
        count = ens.N if args.init_traj_count is None else int(args.init_traj_count)
        length = int(args.init_traj_length)
        set_bytes = count * (length * oracle.n + (length - 1) * oracle.m) * 8
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if set_bytes > memory:
            raise MemoryError(f"{count} trajectories of {length} states take "
                              f"{set_bytes / 2**30:.4g} GiB, more than the "
                              f"{memory / 2**30:.4g} GiB this machine can allocate")
        noise = dataio.NoiseSpec(alpha=ens.alpha or 0.0, seed=seed)
        return initmor.init_dmdc(dataio.trajectory_blocks(oracle, count, length, noise), r)
    if kind == "loewner":
        left, right = initmor.sample_frequency_data(
            oracle, int(args.init_left), int(args.init_right), seed)
        return initmor.init_loewner(left, right, r)
    if kind == "databt":
        imp = initmor.impulse_from_system(oracle, int(args.init_impulse_count))
        return initmor.init_data_bt(imp, r)
    raise ValueError(f"unknown initializer {kind!r}")


# --- subcommands ------------------------------------------------------------

GEN_SYSTEM_DEFAULTS = {"n": 100, "m": 2, "h": 0.1, "seed": 0, "out": "system"}


def cmd_gen_system(args: argparse.Namespace) -> int:
    args = resolve_options(args, GEN_SYSTEM_DEFAULTS)
    spec = sysmodel.SyntheticSpec(n=int(args.n), m=int(args.m),
                                  h=float(args.h), seed=int(args.seed))
    sys_ = sysmodel.generate_synthetic(spec)
    out = Path(args.out)
    dataio.save_system(sys_, out, h=spec.h, seed=spec.seed)
    _print_json({"out": str(out), "n": sys_.n, "m": sys_.m,
                 "spectral_radius": sys_.spectral_radius()})
    return 0


GEN_DATA_DEFAULTS = {"system": None, "N": 102, "alpha": 0.0, "seed": 0,
                     "out": "ensemble"}


def cmd_gen_data(args: argparse.Namespace) -> int:
    args = resolve_options(args, GEN_DATA_DEFAULTS)
    if args.system is None:
        raise ValueError("--system is required")
    sys_ = dataio.load_system(args.system)
    noise = dataio.NoiseSpec(alpha=float(args.alpha), seed=int(args.seed))
    ens = dataio.generate_ensemble(sys_, int(args.N), noise)
    dataio.save_ensemble(ens, Path(args.out))
    report = dataio.check_assumptions(ens)
    _print_json({"out": str(args.out), "N": ens.N, "alpha": ens.alpha,
                 "assumptions": dataclasses.asdict(report)})
    return 0


REDUCE_DEFAULTS = {
    "ensemble": None, "r": 6, "init": "dmdc", "oracle": None,
    "init_data": None, "init_seed": None, **ORACLE_START_DEFAULTS,
    **OPTIM_DEFAULTS, "force": False, "out": "reduction",
}


def _build_initializer(args, ens: dataio.DataEnsemble,
                       oracle: sysmodel.LtiSystem | None) -> sysmodel.Rom:
    r = int(args.r)
    kind = args.init
    if kind == "file":
        if args.init_data is None:
            raise ValueError("--init file requires --init-data DIR")
        # a loaded rom keeps its order; a given r must agree with it
        rom = dataio.load_rom(args.init_data)
        if "r" in args.given and r != rom.r:
            raise ValueError(f"r = {r} does not match the order {rom.r} of the "
                             f"rom in {args.init_data}")
        return rom
    if args.init_data is not None:
        if kind == "dmdc":
            raise ValueError("--init dmdc reads no --init-data; it simulates "
                             "trajectories from --oracle")
        if kind == "loewner":
            return initmor.init_loewner(*initmor.load_frequency_samples(args.init_data), r)
        if kind == "databt":
            return initmor.init_data_bt(initmor.load_impulse_data(args.init_data), r)
    elif oracle is not None:
        return oracle_start(kind, args, ens, oracle, _init_seed(args, ens))
    elif kind == "dmdc":
        raise ValueError("--init dmdc needs --oracle to generate trajectories")
    elif kind in ("loewner", "databt"):
        raise ValueError(f"--init {kind} needs --oracle or --init-data")
    raise ValueError(f"unknown initializer {kind!r}")


def _init_seed(args, ens: dataio.DataEnsemble) -> int:
    # default: offset the ensemble seed so initializer data is fresh
    if args.init_seed is not None:
        return int(args.init_seed)
    return (ens.seed + 1) if ens.seed is not None else 0


def cmd_reduce(args: argparse.Namespace) -> int:
    args = resolve_options(args, REDUCE_DEFAULTS)
    if args.ensemble is None:
        raise ValueError("--ensemble is required")
    if int(args.r) < 1:
        raise ValueError("r must be at least 1")
    ens = dataio.load_ensemble(args.ensemble)
    # the reconstruction runs the one rank check of the reduction; the gate
    # below is its own condition b1 (rank [X1 U1] = n + m gives the ranks of
    # X1 and U1), applied here so that it prints the report and honours
    # --force, hence force=True
    dual = ddgrad.reconstruct_dual(ens, force=True)
    if not dual.report.b1_holds:
        _print_json({"assumptions": dataclasses.asdict(dual.report)})
        if not args.force:
            print("rank checks failed; re-run with --force to proceed",
                  file=sys.stderr)
            return 2
        logger.warning("rank checks failed, continuing because --force is set")

    oracle = dataio.load_system(args.oracle) if args.oracle is not None else None
    init = _build_initializer(args, ens, oracle)
    summary = reduce_into(Path(args.out), ens, init, optim_params(args), init_label=args.init,
                          oracle=oracle, dual=dual)
    _print_json(summary)
    # run accepts only iterates inside the stability annulus, so the stop
    # reason alone tells a usable result
    ok = (optim.StopReason.CONVERGED.value, optim.StopReason.MAX_ITERS.value)
    return 0 if summary["stop_reason"] in ok else 3


_EVALUATE_DEFAULTS = {"system": None, "rom": None}


def cmd_evaluate(args: argparse.Namespace) -> int:
    args = resolve_options(args, _EVALUATE_DEFAULTS)
    if args.system is None or args.rom is None:
        raise ValueError("--system and --rom are required")
    sys_ = dataio.load_system(args.system)
    rom = dataio.load_rom(args.rom)
    eigs = rom.schur.eigvals
    mods = rom.eig_moduli()
    # the evaluator reduce's oracle uses, so both report the same error
    evaluator = sysmodel.H2ErrorEvaluator(sys_)
    sysmodel.require_shared_io(sys_, rom)
    # outside the stability annulus the report says so, with no error
    stable = rom.satisfies_spectral_bounds()
    err = evaluator.error(rom) if stable else None
    _print_json({
        "h2_norm_system": evaluator.h2_norm,
        "h2_error_abs": err,
        "h2_error_rel": err / evaluator.h2_norm if stable else None,
        "rom_order": rom.r,
        "rom_eigenvalues": [{"re": float(e.real), "im": float(e.imag)} for e in eigs],
        "rom_spectral_radius": float(mods.max()),
        "rom_min_eig_modulus": float(mods.min()),
        "stable": stable,
    })
    return 0 if stable else 3


# --- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddh2mor",
        description="Data-driven h2-optimal reduction of discrete-time LTI systems",
        epilog="exit codes: 0 ok, 1 config/format, 2 failed rank checks, 3 numerical")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="enable debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, defaults, func, text in (
            ("gen-system", GEN_SYSTEM_DEFAULTS, cmd_gen_system,
             "generate a synthetic stable system"),
            ("gen-data", GEN_DATA_DEFAULTS, cmd_gen_data,
             "sample a snapshot ensemble from a system"),
            ("reduce", REDUCE_DEFAULTS, cmd_reduce, "run the data-driven descent"),
            ("evaluate", _EVALUATE_DEFAULTS, cmd_evaluate,
             "compare a rom against a system")):
        command = sub.add_parser(name, help=text)
        add_options(command, defaults)
        command.set_defaults(func=func)
    return parser


def report_error(exc: Exception, code: int) -> int:
    """Print ``exc`` as one ``error:`` line on stderr and return ``code``.

    Characters that are not printable, such as a line break inside a file
    name taken from a manifest, are escaped, so the message stays one line.
    """
    text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
    print(f"error: {text}", file=sys.stderr)
    return code


def exit_code(command, *args) -> int:
    """``command(*args)``'s exit code, with the errors it raises reported.

    Each ends as one ``error:`` line (``report_error``) and the module's
    exit code: 2 for failed rank checks and insufficient data, 1 for
    format, value, OS and memory errors, 3 for any other numerical failure.
    """
    try:
        return command(*args)
    except (RankDeficientData, InsufficientData) as exc:
        return report_error(exc, 2)
    except (FormatError, ValueError, OSError, MemoryError) as exc:
        return report_error(exc, 1)
    except ReductionError as exc:
        return report_error(exc, 3)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
