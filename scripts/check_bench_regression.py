#!/usr/bin/env python3
"""Gate a BENCH_*.json run against a checked-in baseline.

Every metric present in the baseline's "metrics" object must also be present
in the current run and must not fall more than its tolerance below the
baseline value. Metrics in the run but not in the baseline are ignored, so
benches can emit extra diagnostics freely. All baseline metrics are floors
("higher is better"); 0/1 flags like the determinism bits work naturally
because 1 * (1 - 0.2) = 0.8 still requires the flag to be 1.

Deterministic counters (event counts, ground-truth span counts) live in a
separate "exact" object. Each must equal the current run's value of the
same name under its "metrics" object: a counter that rises is as much a
regression as one that falls, so no tolerance applies to them.

Wall-clock metrics live in a separate "wall_metrics" object and are compared
only when the current run's recorded "jobs" count matches the baseline's —
a parallel sweep (--jobs 8) must never fail a serial-era wall-clock floor.
Legacy single-object baselines (everything under "metrics", no "jobs" key)
still work: absent job counts default to 1 on both sides.

Per-metric tolerances override the global one and accept fnmatch patterns:

    check_bench_regression.py run.json baseline.json \
        --tolerance 0.2 --metric-tolerance 'ring_*=0.5' churn_speedup=0.3

Exit status: 0 when every compared metric holds, 1 otherwise.
"""

import argparse
import fnmatch
import json
import sys


def load_doc(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        sys.exit(f"{path}: no 'metrics' object")
    sections = {}
    for name in ("exact", "wall_metrics"):
        section = doc.get(name)
        if section is not None and not isinstance(section, dict):
            sys.exit(f"{path}: '{name}' present but not an object")
        sections[name] = section or {}
    return {
        "metrics": metrics,
        "exact": sections["exact"],
        "wall_metrics": sections["wall_metrics"],
        "jobs": int(doc.get("jobs", 1)),
    }


def parse_metric_tolerances(specs):
    pairs = []
    for spec in specs:
        pattern, sep, value = spec.partition("=")
        if not sep or not pattern:
            sys.exit(f"bad --metric-tolerance {spec!r}: expected PATTERN=FRACTION")
        try:
            tol = float(value)
        except ValueError:
            sys.exit(f"bad --metric-tolerance {spec!r}: {value!r} is not a number")
        pairs.append((pattern, tol))
    return pairs


def tolerance_for(key, default, overrides):
    for pattern, tol in overrides:
        if key == pattern or fnmatch.fnmatch(key, pattern):
            return tol
    return default


def compare(section, current, baseline, default_tol, overrides, failures):
    for key, base_value in sorted(baseline.items()):
        if key not in current:
            failures.append(f"{key}: missing from the current run")
            continue
        tol = tolerance_for(key, default_tol, overrides)
        floor = base_value * (1.0 - tol)
        value = current[key]
        status = "ok" if value >= floor else "FAIL"
        print(f"{status:4s} [{section}] {key}: {value:.6g} "
              f"(floor {floor:.6g}, baseline {base_value:.6g}, tol {tol})")
        if value < floor:
            failures.append(f"{key}: {value:.6g} < floor {floor:.6g}")


def compare_exact(current, baseline, failures):
    for key, base_value in sorted(baseline.items()):
        if key not in current:
            failures.append(f"{key}: missing from the current run")
            continue
        value = current[key]
        status = "ok" if value == base_value else "FAIL"
        print(f"{status:4s} [exact] {key}: {value} (expected {base_value})")
        if value != base_value:
            failures.append(f"{key}: {value} != {base_value}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current", help="BENCH_*.json produced by the bench run")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.2,
        help="allowed fractional drop below baseline (default 0.2)",
    )
    parser.add_argument(
        "--metric-tolerance",
        action="append",
        default=[],
        metavar="PATTERN=FRACTION",
        help="per-metric tolerance override; PATTERN is an exact key or an "
             "fnmatch glob, first match wins (repeatable)",
    )
    args = parser.parse_args()

    current = load_doc(args.current)
    baseline = load_doc(args.baseline)
    overrides = parse_metric_tolerances(args.metric_tolerance)

    failures = []
    compare("metrics", current["metrics"], baseline["metrics"], args.tolerance, overrides,
            failures)
    compare_exact(current["metrics"], baseline["exact"], failures)

    compared = len(baseline["metrics"]) + len(baseline["exact"])
    if baseline["wall_metrics"]:
        if current["jobs"] == baseline["jobs"]:
            compare("wall", current["wall_metrics"], baseline["wall_metrics"], args.tolerance,
                    overrides, failures)
            compared += len(baseline["wall_metrics"])
        else:
            print(f"skip [wall] {len(baseline['wall_metrics'])} wall-clock metric(s): "
                  f"current run used jobs={current['jobs']}, baseline jobs={baseline['jobs']}")

    if failures:
        print(f"\n{len(failures)} metric(s) regressed past tolerance:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"\nall {compared} compared metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
