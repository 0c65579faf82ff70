#!/usr/bin/env python3
"""Runs one EDEN benchmark workload and prints its result as one JSON line.

    python3 edenbench/run.py --workload fleet_steady --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark program (edenbench/CMakeLists.txt, which compiles the EDEN
libraries from src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs rebuild incrementally. Build output goes to stderr.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 every end_to_end metric of BENCHMARK.json, with --trace 1
every per_layer metric, each as {"value", "unit"}. A per-layer metric of a
layer the workload does not run (see edenbench/layers.json) reads 0. The
exit status is nonzero when the build fails, the sources are missing, a
correctness check fails (the check is named on stderr), or a metric is
missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "eden_bench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("EDEN sources (src/) not found next to the benchmark")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", out, "--target", BINARY, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, BINARY)


def assemble(raw, bench, layers, workload, trace):
    """Maps the program's metrics onto BENCHMARK.json's names and units."""
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in bench[section]}
    measured = raw["metrics"]
    unknown = sorted(set(measured) - set(declared))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json {section}: {unknown}", 1)
    metrics = {}
    for name, unit in declared.items():
        if name in measured:
            value = measured[name]
        elif trace and workload not in layers["per_layer"][name]["reported_on"]:
            value = 0  # the workload bypasses this layer
        else:
            fail(f"workload {workload} did not report {name}", 1)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (self-test only)")
    args = parser.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load_json(os.path.join(HERE, "layers.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    seed = layers["seeds"]["default"] if args.seed is None else args.seed
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds

    out = build_dir()
    binary = build(out)
    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--span-dir", os.path.join(out, "spans")]
    if args.tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {proc.returncode})", 1)
    raw = json.loads(lines[-1])
    if raw["failed_checks"] or proc.returncode != 0:
        fail(f"{args.workload} failed checks: {raw['failed_checks']} "
             f"(exit {proc.returncode})", 1)
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": assemble(raw, bench, layers, args.workload, bool(args.trace)),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
