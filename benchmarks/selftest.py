"""Fast self-test of the benchmark harness at n=10.

    python3 benchmarks/selftest.py

Runs one untraced and one traced round of every workload, shrunk to n=10,
through the same measuring and reporting code as ``run.py``.  It checks
that each run passes and emits every metric BENCHMARK.json names, and
that the correctness check rejects a deliberately wrong result: a reduced
model scaled out of the unit disc.  Exits 0 when all of this holds.
"""

import sys
from dataclasses import replace

import run  # pins the BLAS threads before numpy is imported


def main() -> int:
    if not run.use_checkout_package():
        return 2
    import numpy as np

    import ddh2mor as dd
    import workloads

    spec = run.load_spec()
    run.OUT.mkdir(parents=True, exist_ok=True)
    problems = []
    for name in workloads.NAMES:
        workload = workloads.make(name, 0, run.OUT, tiny=True)
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            runs = run.measure(workload, 0, trace, workloads.CLI_STEPS)
            result, lines = run.summarize(name, 0, trace, runs, spec)
            label = f"{name} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"]:
                problems.append(f"{label}: run failed\n" + "\n".join(lines))
            missing = [m["name"] for m in spec[kind] if m["name"] not in result["metrics"]]
            if missing:
                problems.append(f"{label}: metrics not emitted: {missing}")

    # a result whose rom lies outside the unit disc must be rejected
    workload = workloads.make("large-n400", 0, run.OUT, tiny=True)
    init = dd.make_stable(dd.init_data_bt(workload.inputs["databt"], workload.cfg.r))
    result = dd.run(workload.ens, init, workload.params)
    rom = result.rom
    radius = np.abs(np.linalg.eigvals(rom.Ahat)).max()
    scaled = replace(result, rom=dd.Rom(rom.Ahat * (1.5 / radius), rom.Bhat, rom.Chat))
    if workload.check(init, result, workloads.Outcome()):
        problems.append("the unaltered result was rejected")
    failures = workload.check(init, scaled, workloads.Outcome())
    if not any("outside the annulus" in f for f in failures):
        problems.append(f"a rom scaled out of the unit disc passed: {failures}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
