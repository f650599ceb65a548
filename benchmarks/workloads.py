"""The benchmark's workloads, their inputs and their correctness checks.

Each workload runs rounds in a closed loop: one reduction at a time, the
next starting when the previous one returned.  A round yields one
``Outcome`` per reduction with its phase times, descent counts and the
true relative h2 error of its result.  That error comes from
``scipy.linalg.solve_discrete_lyapunov`` on the error system, never from
ddh2mor's own solvers, so a change that breaks ``ddh2mor.matequ`` cannot
also pass its own check.

The ``--seed`` of a run offsets the seed of the snapshot data the descent
consumes.  The system and the initializer measurements keep the seeds of
the reference configuration, so every seed poses the same reduction
problem from fresh data.  Seed 0 is the reference configuration itself.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.linalg

import ddh2mor as dd
from ddh2mor import cli

# the stability annulus every accepted rom must lie in, as the package
# defines it (sysmodel._EIG_FLOOR and _EIG_CEIL_MARGIN)
EIG_FLOOR = 1e-12
EIG_CEIL_MARGIN = 1e-12
# relative agreement required between the package's reported h2 errors
# and the independent reference
AGREE_RTOL = 1e-6

CLI_STEPS = ("cli.gen_system", "cli.gen_data", "cli.reduce", "cli.evaluate")


@dataclass
class Outcome:
    """One reduction: phase times, descent counts, true error, failed checks."""

    setup_s: float = 0.0
    reduce_s: float = 0.0
    after_s: float = 0.0  # program work after the descent (cli evaluate)
    accepted: int = 0
    trials: int = 0
    rel_h2_error: float = math.nan
    ensemble_bytes: int = 0
    bytes_written: int = 0
    failures: list = field(default_factory=list)

    @property
    def total_s(self) -> float:
        return self.setup_s + self.reduce_s + self.after_s


class ReferenceH2:
    """True h2 norm and relative errors by scipy's bilinear Lyapunov solver."""

    def __init__(self, A, B, C):
        self.A, self.B, self.C = (np.asarray(M, dtype=float) for M in (A, B, C))
        self.norm = self._h2(self.A, self.B, self.C)

    @staticmethod
    def _h2(A, B, C) -> float:
        X = scipy.linalg.solve_discrete_lyapunov(A, B @ B.T, method="bilinear")
        return float(np.sqrt(max(np.trace(C @ X @ C.T), 0.0)))

    def rel_error(self, Ahat, Bhat, Chat) -> float:
        Ae = scipy.linalg.block_diag(self.A, Ahat)
        Be = np.vstack([self.B, Bhat])
        Ce = np.hstack([self.C, -np.asarray(Chat)])
        return self._h2(Ae, Be, Ce) / self.norm


def count_steps(history, stop_reason: str, max_backtracks: int) -> tuple[int, int]:
    """(accepted steps, trial steps) from (step, backtracks) history rows."""
    rows = [(step, bt) for step, bt in history if step > 0]
    trials = sum(bt + 1 for _, bt in rows)
    if stop_reason == "backtrack_exhausted":
        trials += max_backtracks
    return len(rows), trials


def check_descent(stop_reason: str, fs, Ahat, initial_err: float,
                  final_err: float, noisy: bool) -> list[str]:
    """Failed conditions of one finished reduction (empty when it passed)."""
    failures = []
    if stop_reason not in ("converged", "max_iters"):
        failures.append(f"stop reason {stop_reason}")
    if any(b > a for a, b in zip(fs, fs[1:])):
        failures.append("objective f increased")
    mods = np.abs(np.linalg.eigvals(np.asarray(Ahat, dtype=float)))
    if not (mods.min() > EIG_FLOOR and mods.max() < 1.0 - EIG_CEIL_MARGIN):
        failures.append(f"final rom eigenvalue moduli span "
                        f"[{mods.min():.3e}, {mods.max():.6f}], outside the annulus")
    improved = final_err <= initial_err if noisy else final_err < initial_err
    if not (math.isfinite(final_err) and improved):
        failures.append(f"true relative h2 error {initial_err:.6e} -> {final_err:.6e}"
                        f" did not {'stay' if noisy else 'fall'}")
    return failures


def _agree(label: str, value: float, reference: float) -> list[str]:
    if abs(value - reference) <= AGREE_RTOL * abs(reference):
        return []
    return [f"{label} {value:.12e} differs from the reference {reference:.12e}"]


# --- library workloads --------------------------------------------------------

@dataclass(frozen=True)
class LibraryConfig:
    n: int
    N: int
    r: int
    starts: tuple[str, ...]
    tol: float = 1e-3
    m: int = 2
    traj_count: int = 102
    traj_length: int = 10
    freq_samples: int = 30
    markov_count: int = 10
    system_seed: int = 7
    data_seed: int = 107
    traj_seed: int = 207
    freq_seed: int = 307


class LibraryWorkload:
    """Reductions through the library API, one per initializer in ``starts``.

    No oracle is passed to ``run``: a data-driven user does not have one.
    """

    def __init__(self, cfg: LibraryConfig, seed: int):
        self.cfg = cfg
        self.system = dd.generate_synthetic(
            dd.SyntheticSpec(n=cfg.n, m=cfg.m, h=0.1, seed=cfg.system_seed))
        self.ens = dd.generate_ensemble(
            self.system, cfg.N, dd.NoiseSpec(alpha=0.0, seed=cfg.data_seed + seed))
        self.inputs = {}
        if "dmdc" in cfg.starts:
            self.inputs["dmdc"] = dd.generate_trajectories(
                self.system, cfg.traj_count, cfg.traj_length,
                dd.NoiseSpec(alpha=0.0, seed=cfg.traj_seed))
        if "loewner" in cfg.starts:
            self.inputs["loewner"] = dd.sample_frequency_data(
                self.system, cfg.freq_samples, cfg.freq_samples, seed=cfg.freq_seed)
        if "databt" in cfg.starts:
            self.inputs["databt"] = dd.impulse_from_system(self.system, cfg.markov_count)
        self.params = dd.OptimParams(tol=cfg.tol)
        self.ref = ReferenceH2(self.system.A, self.system.B, self.system.C)

    def _initial(self, start: str):
        # looked up on the package at call time, so traced wrappers are seen
        data, r = self.inputs[start], self.cfg.r
        if start == "dmdc":
            return dd.init_dmdc(data, r)
        if start == "loewner":
            return dd.init_loewner(*data, r)
        return dd.init_data_bt(data, r)

    def round(self, tracer=None) -> list[Outcome]:
        """One reduction per start; the tracer's wrappers see the calls."""
        outcomes = []
        for start in self.cfg.starts:
            out = Outcome()
            try:
                t0 = time.perf_counter()
                init = dd.make_stable(self._initial(start))
                dual = dd.reconstruct_dual(self.ens)
                t1 = time.perf_counter()
                result = dd.run(self.ens, init, self.params, dual=dual)
                t2 = time.perf_counter()
                out.setup_s, out.reduce_s = t1 - t0, t2 - t1
                out.failures = self.check(init, result, out)
            except Exception as exc:  # one failed reduction must not stop the run
                traceback.print_exc()
                out.failures = [f"{start}: raised {exc!r}"]
            outcomes.append(out)
        return outcomes

    def check(self, init, result, out: Outcome) -> list[str]:
        """Fill ``out``'s counts and true error; return the failed checks."""
        stop = result.stop_reason.value
        out.accepted, out.trials = count_steps(
            [(h.step, h.backtracks) for h in result.history], stop,
            self.params.max_backtracks)
        initial = self.ref.rel_error(init.Ahat, init.Bhat, init.Chat)
        rom = result.rom
        out.rel_h2_error = self.ref.rel_error(rom.Ahat, rom.Bhat, rom.Chat)
        fs = [result.initial_f] + [h.f for h in result.history]
        return check_descent(stop, fs, rom.Ahat, initial, out.rel_h2_error,
                             noisy=False)


# --- command-line workload ----------------------------------------------------

@dataclass(frozen=True)
class CliConfig:
    n: int = 100
    m: int = 2
    N: int = 2040
    alpha: float = 1e-3
    r: int = 6
    system_seed: int = 0
    data_seed: int = 400
    # the CLI's default initializer seed for data seed 400, pinned so that
    # every run seed starts the descent from the same rom
    init_seed: int = 401
    # pipelines per round, each on its own noise draw: the step count on
    # noisy data varies with the draw (16 to 18 accepted steps), and a
    # round that spans several draws keeps that out of the run-to-run spread
    draws: int = 3


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class CliWorkload:
    """gen-system -> gen-data -> reduce -> evaluate through ``cli.main``."""

    def __init__(self, cfg: CliConfig, seed: int, workdir: Path):
        self.cfg = cfg
        self.data_seeds = [cfg.data_seed + cfg.draws * seed + j for j in range(cfg.draws)]
        self.workdir = workdir

    def _step(self, tracer, name: str, argv: list[str]) -> tuple[int, float, str]:
        """Run one subcommand; returns (exit code, seconds, captured stdout)."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        span = tracer.begin(name) if tracer is not None else None
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            if span is not None:
                tracer.end(span)
        return code, time.perf_counter() - t0, buf.getvalue()

    def round(self, tracer=None) -> list[Outcome]:
        """One pipeline per data seed; with a tracer, each subcommand is a span."""
        return [self._pipeline(tracer, seed) for seed in self.data_seeds]

    def _pipeline(self, tracer, data_seed: int) -> Outcome:
        cfg, out = self.cfg, Outcome()
        root = Path(tempfile.mkdtemp(prefix="cli-", dir=self.workdir))
        system, ens, red = str(root / "system"), str(root / "ensemble"), str(root / "run")
        steps = [
            ("cli.gen_system", ["gen-system", "--n", str(cfg.n), "--m", str(cfg.m),
                                "--seed", str(cfg.system_seed), "--out", system]),
            ("cli.gen_data", ["gen-data", "--system", system, "--N", str(cfg.N),
                              "--alpha", repr(cfg.alpha), "--seed", str(data_seed),
                              "--out", ens]),
            ("cli.reduce", ["reduce", "--ensemble", ens, "--r", str(cfg.r),
                            "--init", "dmdc", "--oracle", system,
                            "--init-seed", str(cfg.init_seed), "--out", red]),
            ("cli.evaluate", ["evaluate", "--system", system, "--rom", red]),
        ]
        try:
            times = {}
            for name, argv in steps:
                code, times[name], stdout = self._step(tracer, name, argv)
                if code != 0:
                    out.failures = [f"{argv[0]} exited with {code}"]
                    return out
            out.setup_s = times["cli.gen_system"] + times["cli.gen_data"]
            out.reduce_s = times["cli.reduce"]
            out.after_s = times["cli.evaluate"]
            out.ensemble_bytes = _dir_bytes(Path(ens))
            out.bytes_written = _dir_bytes(root)
            out.failures = self.check(Path(system), Path(red), json.loads(stdout), out)
        except Exception as exc:  # one failed reduction must not stop the run
            traceback.print_exc()
            out.failures = [f"cli pipeline raised {exc!r}"]
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return out

    def check(self, system: Path, red: Path, evaluation: dict, out: Outcome) -> list[str]:
        """Check the files the pipeline wrote, read without the package."""
        def matrix(path: Path) -> np.ndarray:
            return np.loadtxt(path, delimiter=",", ndmin=2)

        A = matrix(system / "A.csv")
        ref = ReferenceH2(A, matrix(system / "B.csv"), np.eye(A.shape[0]))
        summary = json.loads((red / "summary.json").read_text())
        with open(red / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        stop = summary["stop_reason"]
        out.accepted, out.trials = count_steps(
            [(float(row["step"]), int(row["backtracks"])) for row in rows], stop,
            summary["params"]["max_backtracks"])
        Ahat, Bhat, Chat = (matrix(red / f"rom_{x}.csv") for x in "ABC")
        out.rel_h2_error = ref.rel_error(Ahat, Bhat, Chat)
        fs = [summary["initial_f"]] + [float(row["f"]) for row in rows]
        # the initial error is the oracle's; its final value must agree with
        # the reference, which vouches for the initial one
        return (check_descent(stop, fs, Ahat, summary["initial_rel_h2_error"],
                              out.rel_h2_error, noisy=self.cfg.alpha > 0)
                + _agree("reduce final_rel_h2_error", summary["final_rel_h2_error"],
                         out.rel_h2_error)
                + _agree("evaluate h2_error_rel", evaluation["h2_error_rel"],
                         out.rel_h2_error))


# --- registry -----------------------------------------------------------------

# large-n400 is left out of BENCHMARK.json, whose run budget fits two
# workloads at a run length long enough to be steady on a shared host;
# it stays runnable by name and under --workload all
NAMES = ("accept-n100", "large-n400", "cli-noisy-tall")
ACCEPT_N100 = LibraryConfig(n=100, N=102, r=6, starts=("dmdc", "loewner", "databt"))
LARGE_N400 = LibraryConfig(n=400, N=402, r=6, starts=("databt",), tol=1e-6)
CLI_NOISY_TALL = CliConfig()


def make(name: str, seed: int, workdir: Path, *, tiny: bool = False):
    """Build a workload; ``tiny`` shrinks it to n=10 for the harness self-test.

    The tiny sizes keep each descent short and its checks passing: at
    n=10 the noisy data need N=400 snapshots for the descent not to
    degrade its start.
    """
    if name == "accept-n100":
        cfg = replace(ACCEPT_N100, n=10, N=12, r=4, traj_count=12,
                      freq_samples=6) if tiny else ACCEPT_N100
        return LibraryWorkload(cfg, seed)
    if name == "large-n400":
        cfg = replace(LARGE_N400, n=10, N=12, r=4, tol=1e-3) if tiny else LARGE_N400
        return LibraryWorkload(cfg, seed)
    if name == "cli-noisy-tall":
        cfg = replace(CLI_NOISY_TALL, n=10, N=400, r=4, draws=1) if tiny else CLI_NOISY_TALL
        return CliWorkload(cfg, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
