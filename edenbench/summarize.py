#!/usr/bin/env python3
"""Summarizes the span dumps of the benchmark's traced runs.

    python3 edenbench/summarize.py .bench_build/spans/fleet_steady-1.jsonl [...]
    python3 edenbench/summarize.py .bench_build/spans        # every dump

For each workload it prints, per layer: the number of spans, their self
time (a span's duration minus the part of it its child spans cover), and
the wall time the layer's spans cover together (concurrent spans, such as
the live pump's in-flight rpcs, overlap). Then the counters summed over
the run_until slices, and the attribution the traced run recorded on its
root span: each layer's count x isolated cost against the untraced run_s,
and the share left unattributed.
"""

import collections
import json
import os
import sys


def union_ns(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def load(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += [os.path.join(path, name) for name in sorted(os.listdir(path))
                      if name.endswith(".jsonl")]
        else:
            files.append(path)
    runs = []
    for name in files:
        with open(name) as f:
            spans = [json.loads(line) for line in f if line.strip()]
        if spans:
            runs.append(spans)
    return runs


def summarize(spans):
    by_id = {s["id"]: s for s in spans}
    children = collections.defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)
    self_ns = collections.Counter()
    count = collections.Counter()
    intervals = collections.defaultdict(list)
    counters = collections.Counter()
    for s in spans:
        duration = s["end_ns"] - s["start_ns"]
        covered = union_ns((max(c["start_ns"], s["start_ns"]),
                            min(c["end_ns"], s["end_ns"]))
                           for c in children[s["id"]])
        self_ns[s["layer"]] += duration - covered
        count[s["layer"]] += 1
        intervals[s["layer"]].append((s["start_ns"], s["end_ns"]))
        if s["name"] == "run_until":
            for key, value in s["counters"].items():
                if key not in ("sim.pending", "node.queue_max"):
                    counters[key] += value
    root = next(s for s in spans if s["parent"] == 0)
    first = spans[0]
    print(f"== {first['workload']} seed {first['seed']}: traced run "
          f"{(root['end_ns'] - root['start_ns']) / 1e9:.3f} s, {len(spans)} spans")
    print(f"  {'layer':10} {'spans':>8} {'self_s':>10} {'wall_s':>10}")
    for layer in sorted(count, key=lambda k: -self_ns[k]):
        print(f"  {layer:10} {count[layer]:8d} {self_ns[layer] / 1e9:10.4f} "
              f"{union_ns(intervals[layer]) / 1e9:10.4f}")
    if counters:
        print("  counters over the run_until slices:")
        for key in sorted(counters):
            print(f"    {key:34} {counters[key]:14.0f}")
    isolated = [s for s in spans if "ns_per_call" in s["counters"]]
    if isolated:
        print("  isolated timings:")
        for s in isolated:
            print(f"    {s['name']:34} {s['counters']['ns_per_call']:10.1f} ns/call "
                  f"over {s['counters']['calls']:.0f} calls")
    totals = root["counters"]
    if "untraced_run_s" in totals:
        base = totals["untraced_run_s"]
        print(f"  attribution against untraced run_s = {base:.4f} s "
              f"(traced {totals.get('traced_run_s', 0):.4f} s):")
        for key in sorted(k for k in totals if k.startswith("estimate.")):
            layer = key[len("estimate."):-len("_s")]
            print(f"    {layer:10} {totals[key]:10.4f} s  {totals[key] / base:7.1%}")
        print(f"    unattributed share {totals['unattributed_share']:7.1%}")


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    runs = load(sys.argv[1:])
    if not runs:
        print("summarize.py: no spans found", file=sys.stderr)
        sys.exit(1)
    for spans in runs:
        summarize(spans)


if __name__ == "__main__":
    main()
