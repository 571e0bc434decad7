#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator
libraries plus the perfbench binary) in Release mode under the build
directory ($CARGO_TARGET_DIR, else .bench_build), then runs one
workload. The last stdout line is the binary's JSON result; build
output goes to stderr. Exits non-zero, without a result line, when the
build fails or the result does not carry the metrics BENCHMARK.json
names.
"""

import argparse
import json
import multiprocessing
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-grid", "fuzz", "serve-mix", "manycore")


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, multiprocessing.cpu_count()))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def git_sha():
    # A checkout without its own .git must not report an enclosing
    # repository's commit.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_root)
    print("perfbench.stamp: git_sha=%s" % git_sha(), flush=True)

    # Relative, so the daemon's unix socket path stays short.
    scratch = os.path.relpath(os.path.join(build_root, "run"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected.txt"),
           "--scratch", scratch]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    body, last = lines[:-1], lines[-1] if lines else ""
    for line in body:
        print(line)
    try:
        result = json.loads(last)
    except ValueError:
        print(last)
        sys.exit(proc.returncode or 1)
    missing = expected_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        sys.exit("perfbench: metric set differs from BENCHMARK.json: %s" %
                 ", ".join(sorted(missing)))
    print(last, flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
