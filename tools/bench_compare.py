#!/usr/bin/env python3
"""Compare freshly generated BENCH_*.json files against checked-in baselines.

Usage: bench_compare.py BASELINE.json CURRENT.json [BASELINE2 CURRENT2 ...]
                        [--warn=0.85] [--fail=0.5]

Positional arguments are (baseline, current) pairs — one pair gates one
bench binary's output, and a single invocation can gate several (e.g. the
NEXMark suite and the profiling-overhead suite together). All pairs share
the same thresholds; every pair is evaluated even after one fails, so a red
run reports the full picture.

All files use the bench_util.h JSON schema: {"bench": ..., "benchmarks":
[{"name", "items_per_second", "p50_ns", ...}, ...]}. For every benchmark
present in the baseline, the current run's throughput (items_per_second when
reported, else the inverse of p50_ns) must stay above `fail` x baseline or
the script exits non-zero; between `fail` and `warn` it prints a warning and
passes. Benchmarks that appear only on one side are reported but never fail
the run (adding a bench must not require regenerating the baseline in the
same commit).

An empty "benchmarks" array on either side is a hard error: that is how a
broken baseline silently disarms the comparison (bench_util.h now refuses to
write one, and this guard catches files that predate that check).

Each pair first prints both sides' machine fingerprints (bench_util.h stamps
nproc, CPU model, build type, compiler and git rev as "machine"). When the
nproc or CPU model differ, or a side carries no fingerprint, the pair is
labelled "cross-machine": its ratios then mix a machine difference into the
code difference. The label informs; it changes no threshold.

Thresholds are deliberately loose: CI boxes for this repo are single-core
and noisy, so the leg locks in order-of-magnitude wins, not percent-level
ones.
"""

import json
import sys


def throughput(entry):
    ips = float(entry.get("items_per_second", 0) or 0)
    if ips > 0:
        return ips
    p50 = float(entry.get("p50_ns", 0) or 0)
    return 1e9 / p50 if p50 > 0 else 0.0


MACHINE_KEYS = ("nproc", "cpu")
FINGERPRINT_KEYS = MACHINE_KEYS + ("build_type", "compiler", "rev")


def load(path):
    with open(path) as f:
        doc = json.load(f)
    benches = doc.get("benchmarks", [])
    if not benches:
        print(f"bench_compare: {path} holds zero benchmark entries", file=sys.stderr)
        sys.exit(2)
    return {e["name"]: e for e in benches}, doc.get("machine")


def describe(machine):
    if not machine:
        return "no fingerprint"
    return ", ".join(f"{k}={machine.get(k, '?')}" for k in FINGERPRINT_KEYS)


def report_machines(base_machine, cur_machine):
    print(f"  baseline: {describe(base_machine)}")
    print(f"  current:  {describe(cur_machine)}")
    same = bool(base_machine) and bool(cur_machine) and all(
        base_machine.get(k) == cur_machine.get(k) for k in MACHINE_KEYS)
    print("  comparison: " + ("same-machine" if same else "cross-machine"))


def compare_pair(baseline, current, warn_ratio, fail_ratio):
    failures = warnings = 0
    for name in sorted(baseline):
        if name not in current:
            print(f"  [note] {name}: present in baseline only")
            continue
        base = throughput(baseline[name])
        cur = throughput(current[name])
        if base <= 0:
            print(f"  [note] {name}: baseline has no throughput signal")
            continue
        ratio = cur / base
        line = f"{name}: {cur:,.0f}/s vs baseline {base:,.0f}/s ({ratio:.2f}x)"
        if ratio < fail_ratio:
            print(f"  [FAIL] {line}")
            failures += 1
        elif ratio < warn_ratio:
            print(f"  [warn] {line}")
            warnings += 1
        else:
            print(f"  [ok]   {line}")
    for name in sorted(set(current) - set(baseline)):
        print(f"  [note] {name}: new benchmark, not in baseline")
    return failures, warnings


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = dict(a[2:].split("=", 1) for a in argv[1:] if a.startswith("--"))
    if not args or len(args) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2
    warn_ratio = float(opts.get("warn", 0.85))
    fail_ratio = float(opts.get("fail", 0.5))

    failures = warnings = 0
    for base_path, cur_path in zip(args[0::2], args[1::2]):
        print(f"== {base_path} vs {cur_path}")
        baseline, base_machine = load(base_path)
        current, cur_machine = load(cur_path)
        report_machines(base_machine, cur_machine)
        f, w = compare_pair(baseline, current, warn_ratio, fail_ratio)
        failures += f
        warnings += w

    if failures:
        print(
            f"bench_compare: {failures} benchmark(s) regressed below "
            f"{fail_ratio:.0%} of baseline",
            file=sys.stderr,
        )
        return 1
    if warnings:
        print(f"bench_compare: {warnings} benchmark(s) below {warn_ratio:.0%} of baseline (warn only)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
