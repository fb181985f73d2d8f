#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the engine from the
checkout's sources) into .bench_build/; later runs only check the build is
current. The last line of stdout is the run's JSON result; the line before it
is the machine fingerprint. See perfbench/README.md for the workloads and
metrics.

The metric sets come from BENCHMARK.json. --self-test runs every workload
briefly and checks that each run is correct, that it prints every metric
BENCHMARK.json names with its unit (end-to-end values positive), and that the
correctness check rejects a deliberately perturbed result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_BUILD = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_BUILD, "perfbench")
# A run must end within 180 s; leave room for the build check and cleanup.
RUN_DEADLINE_S = 170


def fail(message, code=2):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("no engine sources next to perfbench/ (run from a full checkout)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_BUILD, "CMakeCache.txt")):
            steps.append(
                ["cmake", "-S", HERE, "-B", CMAKE_BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            )
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", CMAKE_BUILD, "--target", "perfbench", "-j", jobs])
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path, 1)


SOURCES = ["CMakeLists.txt", "src", "perfbench"]


def tree_digest():
    """A digest of the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def source_revision():
    """The git commit, marked "+dirty:<digest>" when the sources differ from
    it; the source digest alone when there is no git checkout."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
            )
            status = subprocess.run(
                ["git", "status", "--porcelain", "--"] + SOURCES,
                cwd=ROOT, capture_output=True, text=True,
            )
            if head.returncode == 0 and status.returncode == 0:
                rev = head.stdout.strip()
                if status.stdout.strip():
                    rev += "+dirty:" + tree_digest()
                return rev
        except OSError:
            pass
    return tree_digest()


def run_binary(workload, seed, seconds, trace, perturb=False, deadline=RUN_DEADLINE_S):
    """Runs one workload; returns (exit code, stdout)."""
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    if os.path.exists(scratch):
        shutil.rmtree(scratch)
    os.makedirs(scratch)
    cmd = [
        BINARY,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scratch", scratch,
        "--spec", os.path.join(ROOT, "BENCHMARK.json"),
        "--rev", source_revision(),
    ]
    if perturb:
        cmd += ["--perturb", "1"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(scratch, ignore_errors=True)
        fail("%s did not finish within %d s" % (workload, deadline), 1)
    trace_file = os.path.join(scratch, "trace-%s.json" % workload)
    if os.path.isfile(trace_file):
        shutil.move(trace_file, os.path.join(BUILD, "trace-%s.json" % workload))
    shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, out


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run_binary(name, 1, 1, trace, deadline=120)
            result = last_json(out) if code == 0 else None
            if result is None:
                problems.append("%s trace=%d: exit %d, no result" % (name, trace, code))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s trace=%d: not correct" % (name, trace))
            got = result["metrics"]
            if set(got) != {m["name"] for m in metrics}:
                problems.append("%s trace=%d: metric names differ from BENCHMARK.json" % (name, trace))
            for m in metrics:
                entry = got.get(m["name"])
                if entry is None or entry.get("unit") != m["unit"]:
                    problems.append("%s: %s missing or wrong unit" % (name, m["name"]))
                elif trace == 0 and not entry["value"] > 0:
                    problems.append("%s: %s is not positive" % (name, m["name"]))
        code, out = run_binary(name, 1, 1, 0, perturb=True, deadline=120)
        result = last_json(out) if code == 0 else None
        if result is None or result["correct"]:
            problems.append("%s: the check accepted a result with a row dropped" % name)
        print("self-test %s: done" % name, file=sys.stderr)
    for p in problems:
        print("self-test: FAIL " + p, file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass", "problems": len(problems)}))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    start = time.monotonic()
    build()
    if args.self_test:
        return self_test()
    if not args.workload:
        fail("--workload is required")
    left = RUN_DEADLINE_S - (time.monotonic() - start)
    code, out = run_binary(args.workload, args.seed, args.seconds, args.trace,
                           deadline=max(30, left))
    sys.stdout.write(out)
    if code != 0 or last_json(out) is None:
        fail("%s exited with %d without a result" % (args.workload, code), code or 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
