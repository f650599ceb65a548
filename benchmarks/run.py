"""Benchmark of the ddh2mor reducer: closed-loop reductions, timed from outside.

    python3 benchmarks/run.py --workload accept-n100 --seed 0 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all

``--workload`` names one workload, or ``all`` to run every workload in
turn, each in a fresh process.  A run repeats rounds of its
workload for about ``--seconds`` seconds (at least one), checks each
result against an independent reference and reports medians over rounds.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds, reports the per-layer metrics of
the traced ones and the tracing overhead, and writes the spans to
``benchmarks/out/``.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 1
when any check failed and 2 when the run could not start.

BLAS and OpenMP are pinned to one thread before numpy is imported: on a
two-core machine the thread count alone moves the descent's wall time
threefold, so an unpinned run would measure the scheduler.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def tail(values: list) -> str:
    """The highest (nearest-rank) percentile with ten samples beyond it, if any."""
    for p in (99.9, 99, 95, 90, 75, 50):
        beyond = len(values) - math.ceil(p / 100 * len(values))
        if beyond >= 10:
            return f"p{p:g}={sorted(values)[-beyond - 1]:.6g} ({beyond} beyond)"
    return "no percentile has 10 samples beyond it"


# --- metrics ----------------------------------------------------------------

def round_metrics(outcomes) -> dict:
    return {
        "setup_s": sum(o.setup_s for o in outcomes),
        "reduce_s": sum(o.reduce_s for o in outcomes),
        "total_s": sum(o.total_s for o in outcomes),
        "iterations": sum(o.accepted for o in outcomes),
        "trials": sum(o.trials for o in outcomes),
        "rel_h2_error": max(o.rel_h2_error for o in outcomes),
    }


def layer_metrics(tracer, outcomes, cli_steps) -> dict:
    """Every per-layer figure one traced round yields, by metric name."""
    out = {}
    for name, st in tracer.layers(cli_steps).items():
        out[f"{name}.calls"] = st.calls
        out[f"{name}.s"] = st.total_s
        out[f"{name}.self_s"] = st.self_s
        out[f"{name}.ms_per_call"] = 1e3 * st.total_s / st.calls if st.calls else 0.0
    accepted = sum(o.accepted for o in outcomes)
    trials = sum(o.trials for o in outcomes)
    out["optim.rejected"] = trials - accepted
    out["optim.accept_ratio"] = accepted / trials if trials else 1.0
    out["dataio.save_ensemble.bytes"] = sum(o.ensemble_bytes for o in outcomes)
    out["cli.bytes_written"] = sum(o.bytes_written for o in outcomes)
    total = sum(o.total_s for o in outcomes)
    out["trace.self_share"] = tracer.self_time_s() / total if total else 0.0
    return out


# --- one workload -----------------------------------------------------------

def measure(workload, seconds: float, trace: bool, cli_steps) -> dict:
    """Run rounds for about ``seconds``; with ``trace``, alternate traced ones."""
    plain, traced, spans, round_s = [], [], [], []
    started = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        if trace and len(traced) < len(plain):
            with Tracer() as tracer:
                outcomes = workload.round(tracer)
            traced.append((outcomes, layer_metrics(tracer, outcomes, cli_steps)))
            spans.append(tracer.dump())
        else:
            outcomes = workload.round()
            plain.append(outcomes)
        round_s.append(time.perf_counter() - t0)
        enough = plain and (traced or not trace)
        elapsed = time.perf_counter() - started
        if enough and elapsed + statistics.median(round_s) > seconds:
            break
    return {"plain": plain, "traced": traced, "spans": spans,
            "elapsed": time.perf_counter() - started}


def summarize(name: str, seed: int, trace: bool, runs: dict, spec: dict) -> tuple[dict, list]:
    """The result object and the report lines of one measured workload."""
    all_rounds = runs["plain"] + [outcomes for outcomes, _ in runs["traced"]]
    outcomes = [o for rnd in all_rounds for o in rnd]
    failed = [o for o in outcomes if o.failures]
    lines = [f"workload {name} seed {seed}: {len(all_rounds)} rounds "
             f"({len(runs['traced'])} traced) in {runs['elapsed']:.1f} s, "
             f"{len(outcomes)} reductions, {len(failed)} failed, "
             f"fail_rate {len(failed) / len(outcomes):g}"]
    for o in failed:
        lines += [f"  FAILED: {msg}" for msg in o.failures]
    # a round with a failed reduction has no trustworthy figures
    good = [rnd for rnd in runs["plain"] if not any(o.failures for o in rnd)]
    good_traced = [(rnd, layers) for rnd, layers in runs["traced"]
                   if not any(o.failures for o in rnd)]

    if trace:
        # the overhead needs both kinds of rounds
        kind, samples = "per_layer", [layers for _, layers in good_traced] if good else []
        if samples:
            overhead = (statistics.median(round_metrics(r)["total_s"] for r, _ in good_traced)
                        - statistics.median(round_metrics(r)["total_s"] for r in good))
            for s in samples:
                s["trace.overhead_s"] = overhead
    else:
        kind, samples = "end_to_end", [round_metrics(r) for r in good]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for s in samples:
            s["peak_rss_mb"] = peak_mb

    metrics = {}
    if samples:
        lines.append(f"  {kind} metrics, median over {len(samples)} "
                     f"{'traced ' if trace else ''}rounds:")
    for m in spec[kind] if samples else ():
        values = [s[m["name"]] for s in samples]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        note = "" if trace else f"  n={len(values)}, {tail(values)}"
        lines.append(f"    {m['name']:<46} {statistics.median(values):>14.6g} "
                     f"{m['unit']}{note}")
    if trace and samples:
        selfs = {k[:-len(".self_s")]: statistics.median(s[k] for s in samples)
                 for k in samples[0] if k.endswith(".self_s")}
        calls = {k: statistics.median(s[f"{k}.calls"] for s in samples) for k in selfs}
        lines.append("  self time by traced function, median over traced rounds:")
        for k in sorted(selfs, key=selfs.get, reverse=True):
            if selfs[k]:
                lines.append(f"    {k:<46} {selfs[k]:>10.4f} s {calls[k]:>8g} calls")
    result = {"correct": not failed and bool(metrics), "attempted": len(outcomes),
              "failed": len(failed), "metrics": metrics}
    return result, lines


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> int:
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    lines = [f"machine {json.dumps(machine_info(), sort_keys=True)}"]
    t0 = time.perf_counter()
    workload = workloads.make(name, seed, OUT)
    lines.append(f"inputs generated in {time.perf_counter() - t0:.2f} s")
    runs = measure(workload, seconds, trace, workloads.CLI_STEPS)
    result, report = summarize(name, seed, trace, runs, spec)
    if trace:
        path = OUT / f"trace-{name}-seed{seed}.json"
        path.write_text(json.dumps({"workload": name, "seed": seed,
                                    "span_fields": ["name", "start_s", "end_s", "parent"],
                                    "rounds": runs["spans"]}) + "\n")
        report.append(f"spans written to {path.relative_to(ROOT)}")
    print("\n".join(lines + report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(names, seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        *report, last = proc.stdout.strip().splitlines() or [""]
        if report:
            print("\n".join(report), flush=True)
        code = max(code, proc.returncode)
        try:
            result = json.loads(last)
        except json.JSONDecodeError:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined), flush=True)
    return code


def use_checkout_package() -> bool:
    """Import ddh2mor from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import ddh2mor
    except ImportError as exc:
        print(f"error: cannot import ddh2mor from {SRC}: {exc}", file=sys.stderr)
        return False
    if Path(ddh2mor.__file__).resolve().parent != (SRC / "ddh2mor").resolve():
        print(f"error: imported ddh2mor from {ddh2mor.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    if not SPEC.is_file():
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    if not use_checkout_package():
        return 2
    import workloads

    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(workloads.NAMES, args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), spec)


if __name__ == "__main__":
    sys.exit(main())
