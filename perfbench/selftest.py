#!/usr/bin/env python3
"""Self-test of the repo benchmark.

    python3 perfbench/selftest.py          # short horizon, a few minutes
    python3 perfbench/selftest.py --full   # adds full-horizon runs at the
                                           # default and held-out seeds

Run from the repository root. For every workload it checks that:
  * two separate processes at one seed print the same digest of all
    simulated outputs, and another seed prints a different one;
  * the output checks pass (exit code 0, "correct": true);
  * --trace 0 reports exactly BENCHMARK.json's end_to_end metrics and
    --trace 1 exactly its per_layer metrics, with the units listed there;
  * the traced host split host.*_frac sums to 1.
With --full it also runs each workload at its full horizon at the default
seed and at the held-out seed and requires the output checks to pass.
Exits non-zero at the first failure.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gpu_stack", "fleet_steady", "fleet_faults"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # reserved for confirming claims; never tune on it
SHORT = ["--measure-s", "1", "--seconds", "0"]


def run(workload, seed, trace, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + extra
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAIL {workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {workload} seed {seed}: output checks failed\n{proc.stdout[-2000:]}")
    digest = next(l for l in lines if l.startswith("digest ")).split()[-1]
    return result, digest


def expect_metrics(workload, result, defs, what):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {d["name"]: d["unit"] for d in defs}
    if got != want:
        sys.exit(f"FAIL {workload}: {what} metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                 f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")


def main():
    full = "--full" in sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        sys.exit("FAIL: BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        first, d1 = run(workload, DEFAULT_SEED, 0, SHORT)
        _, d2 = run(workload, DEFAULT_SEED, 0, SHORT)
        _, d3 = run(workload, HELD_OUT_SEED, 0, SHORT)
        if d1 != d2:
            sys.exit(f"FAIL {workload}: digest differs between two runs ({d1} vs {d2})")
        if d1 == d3:
            sys.exit(f"FAIL {workload}: seeds {DEFAULT_SEED} and {HELD_OUT_SEED} give one digest")
        expect_metrics(workload, first, spec["end_to_end"], "--trace 0")
        traced, d4 = run(workload, DEFAULT_SEED, 1, SHORT)
        if d4 != d1:
            sys.exit(f"FAIL {workload}: traced run changed the simulated outputs")
        expect_metrics(workload, traced, spec["per_layer"], "--trace 1")
        split = sum(m["value"] for n, m in traced["metrics"].items()
                    if re.fullmatch(r"host\.\w+_frac", n))
        if abs(split - 1.0) > 1e-9:
            sys.exit(f"FAIL {workload}: host.*_frac sums to {split}")
        print(f"ok {workload}: digest {d1} repeats, metrics match, split sums to 1",
              flush=True)
        if full:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                run(workload, seed, 0, ["--seconds", "0"])
                print(f"ok {workload}: full horizon, seed {seed}, output checks pass",
                      flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
