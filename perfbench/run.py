#!/usr/bin/env python3
"""Runs one workload of the repo benchmark and prints its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the cnet library
from ../src) under $CARGO_TARGET_DIR (default .bench_build); later runs only
re-check the build. Each workload's parameters are pinned in its own
source file. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. BENCHMARK.json is the only
metric catalogue: the printed names, units and values are checked against
it here, and a per-layer metric of a layer the workload does not run reads
0. The exit code is 0 only when every output check passed; a build failure
exits without printing a result.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target="perfbench_bin"):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    cmd = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def check_metrics(result, declared, fill_missing):
    """Problems with the printed metrics against BENCHMARK.json's list.

    A declared metric that was not printed is a problem, unless
    `fill_missing` (per-layer output), where it reads 0 in its declared unit.
    """
    problems = []
    printed = result.setdefault("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) - set(printed)):
        if fill_missing:
            printed[name] = {"value": 0, "unit": want[name]}
        else:
            problems.append("metric %s was not printed" % name)
    for name in sorted(set(printed) - set(want)):
        problems.append("metric %s is not declared in BENCHMARK.json" % name)
    for name in sorted(set(want) & set(printed)):
        metric = printed[name]
        if metric.get("unit") != want[name]:
            problems.append("metric %s has unit %s, BENCHMARK.json says %s"
                            % (name, metric.get("unit"), want[name]))
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("metric %s has value %r" % (name, value))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, ValueError) as err:
        print("perfbench: cannot read the benchmark definition: %s" % err, file=sys.stderr)
        return 2
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        print("perfbench: unknown workload %s" % args.workload, file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: the cnet sources (src/) are not in this checkout", file=sys.stderr)
        return 3

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    out_dir = os.path.join(build_dir(), "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(60.0, 4 * args.seconds + 60))
    except subprocess.TimeoutExpired:
        print("perfbench: the workload did not finish in time", file=sys.stderr)
        return 4
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: the workload printed no result (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 4
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    problems = check_metrics(result, declared, fill_missing=bool(args.trace))
    for problem in problems:
        print("perfbench: %s" % problem, file=sys.stderr)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
