#!/usr/bin/env python3
"""Self-test of the EDEN benchmark.

    python3 edenbench/selftest.py                 # tiny runs, names, layer map
    python3 edenbench/selftest.py --spread 10     # steadiness at full size

The default mode checks BENCHMARK.json against layers.json and against the
metric names the benchmark promises, then runs every workload at a tiny
size, traced and untraced, and checks that each printed name is declared
in BENCHMARK.json and that each metric of a layer the workload runs is
reported. It also runs summarize.py on the span dumps.

--spread N runs every workload of BENCHMARK.json untraced at full size
with seeds 1 .. N and prints, for each end-to-end metric, the median
and the quartile spread (q3 - q1) / median next to the metric's bound; a
spread of a third of the bound or more is flagged (setup_s is reported,
not flagged). --compare FILE also reports how far each median moved from
an earlier --out FILE, against the same bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Every metric name the benchmark promises, by section. frame_fail_ratio
# is reported as its complement frame_ok_ratio end to end (an end-to-end
# metric must never read 0) and under its own name per layer.
PROMISED_END_TO_END = [
    "setup_s", "run_s", "peak_rss_mb", "frame_p50_ms", "frame_p99_ms",
    "frame_ok_ratio", "discovery_qps", "discovery_p50_us", "discovery_p99_us",
    "live_frame_p50_ms", "live_frame_p99_ms",
]
PROMISED_PER_LAYER = [
    "sim.events", "sim.ns_per_event", "sim.peak_pending",
    "harness.allocs_per_event", "net.rpc_slot_capacity", "net.sample_delay_ns",
    "net.base_rtt_ns", "client.frames_sent", "client.probes_sent",
    "client.probes_per_frame", "client.discoveries", "client.switches",
    "client.failovers", "client.hard_failures", "client.join_success_ratio",
    "client.frame_fail_ratio", "node.frames_processed", "node.joins_rejected",
    "node.frames_shed", "node.peak_queue", "manager.discovery_queries",
    "manager.heartbeats", "manager.registrations", "manager.rejoins",
    "manager.overload_enters", "manager.cell_sheds", "manager.select_ns",
    "journal.records", "journal.batches", "journal.records_per_batch",
    "journal.bytes", "harness.windows", "harness.window_ms",
    "harness.stall_fraction", "harness.domain_imbalance",
    "net.cross_shard_messages", "rpc.allocs_per_op", "rpc.allocs_per_frame",
    "rpc.pool_in_use_peak", "rpc.open_connections", "obs.trace_events",
    "obs.overhead_ratio", "harness.unattributed_share",
]
PROMISED_WORKLOADS = ["fleet_steady", "churn_failover", "fleet_sharded",
                      "live_loopback"]

failures = []


def expect(ok, message):
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def load(name):
    with open(name) as f:
        return json.load(f)


def run(workload, seed, trace, seconds, tiny):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    if tiny:
        command.append("--tiny")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, proc.stderr
    return json.loads(lines[-1]), proc.stderr


def check_declarations(bench, layers):
    e2e = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    workloads = [w["name"] for w in bench["workloads"]]
    expect(sorted(e2e) == sorted(PROMISED_END_TO_END),
           f"end_to_end names differ from the promised list: {sorted(set(e2e) ^ set(PROMISED_END_TO_END))}")
    expect(sorted(per_layer) == sorted(PROMISED_PER_LAYER),
           f"per_layer names differ from the promised list: {sorted(set(per_layer) ^ set(PROMISED_PER_LAYER))}")
    expect(workloads == PROMISED_WORKLOADS, f"workloads differ: {workloads}")
    expect(sorted(layers["per_layer"]) == sorted(per_layer),
           "layers.json per_layer names differ from BENCHMARK.json")
    expect(sorted(layers["workloads"]) == sorted(PROMISED_WORKLOADS),
           "layers.json workloads differ from the promised list")
    expect(sorted(layers["end_to_end"]) == sorted(e2e),
           "layers.json end_to_end names differ from BENCHMARK.json")
    for name, entry in layers["per_layer"].items():
        for move in entry["moves"]:
            expect(move["metric"] in e2e and move["workload"] in PROMISED_WORKLOADS,
                   f"{name}: bad layer map entry {move}")
        for workload in entry["reported_on"] + entry["no_change_on"]:
            expect(workload in PROMISED_WORKLOADS,
                   f"{name}: unknown workload {workload}")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    expect(all(bounds["setup_s"] >= b for b in bounds.values()),
           "setup_s must have the largest bound")


def tiny_runs(bench, layers):
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for workload in PROMISED_WORKLOADS:
        for trace in (0, 1):
            result, stderr = run(workload, 1, trace, 1, tiny=True)
            label = f"{workload} --trace {trace}"
            expect(result is not None, f"{label}: run failed")
            if result is None:
                continue
            names = set(result["metrics"])
            expect(names == (per_layer if trace else e2e),
                   f"{label}: printed names differ from BENCHMARK.json: {sorted(names ^ (per_layer if trace else e2e))}")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{label}: {result}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                expect(isinstance(value, (int, float)), f"{label}: {name} not a number")
                if not trace:
                    expect(value > 0, f"{label}: end-to-end {name} reads {value}")
            if trace:
                expect("spans ->" in stderr, f"{label}: no span dump")
                dump = stderr.split("spans ->")[-1].split()[0]
                summary = subprocess.run(
                    [sys.executable, os.path.join(HERE, "summarize.py"), dump],
                    stdout=subprocess.PIPE, text=True)
                expect(summary.returncode == 0 and "unattributed" in summary.stdout,
                       f"{label}: summarize.py failed on {dump}")
            print(f"ok   {label}: {len(names)} metrics")


def spread(bench, args):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for workload in [w["name"] for w in bench["workloads"]]:
        for seed in range(1, 1 + args.spread):
            result, _ = run(workload, seed, 0, None, tiny=False)
            expect(result is not None, f"{workload} seed {seed}: run failed")
            if result is None:
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    metric["value"])
            print(f"ran  {workload} seed {seed}", flush=True)
    earlier = load(args.compare) if args.compare else {}
    print(f"{'workload':15} {'metric':18} {'median':>12} {'spread':>8} "
          f"{'bound':>6} {'moved':>8}")
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and share >= bounds[name] / 3:
                flag = " WIDE"
            moved = ""
            if workload in earlier and name in earlier[workload]:
                before = statistics.median(earlier[workload][name])
                moved_share = (statistics.median(series) - before) / before
                moved = f"{moved_share:+8.4f}"
                worse = -moved_share if next(m["better"] for m in bench["end_to_end"] if m["name"] == name) == "higher" else moved_share
                if worse > bounds[name]:
                    flag += " WORSE"
            print(f"{workload:15} {name:18} {statistics.median(series):12.6g} "
                  f"{share:8.4f} {bounds[name]:6.3f} {moved:>8}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spread", type=int, default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    layers = load(os.path.join(HERE, "layers.json"))
    check_declarations(bench, layers)
    if args.spread:
        spread(bench, args)
    else:
        tiny_runs(bench, layers)
    print("selftest:", "FAILED" if failures else "ok")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
