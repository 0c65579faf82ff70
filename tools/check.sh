#!/usr/bin/env bash
# One-entry-point check: build the -Werror ci preset, then configure + build
# the release and asan presets and run the full ctest suite on both. This is
# what CI runs; locally it is the strictest pre-commit gate (the tier-1 tree
# in build/ is a subset).
#
# Usage: tools/check.sh [jobs]      (default: 2 parallel compile jobs)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-2}"

echo "=== [ci] configure + build (-Werror, tests included) ==="
# The tier-1 tree with warnings as errors: a warning in src/, bench/,
# tools/ or tests/ fails here before anything runs.
cmake --preset ci
cmake --build --preset ci -j "$JOBS"

for preset in release asan; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build (-j$JOBS) ==="
  cmake --build --preset "$preset" -j "$JOBS"
  echo "=== [$preset] ctest ==="
  ctest --preset "$preset"
done

echo "=== [release] scale smoke (bench_scale 2000 clients / 200 nodes) ==="
# Re-measure the smoke fleet and compare wall-clock against the committed
# BENCH_scale.json; a crash or a >2x regression fails the gate.
SMOKE_JSON="$(mktemp)"
SMOKE_REPRO="$(mktemp)"
LIVE_JSON="$(mktemp)"
trap 'rm -f "$SMOKE_JSON" "$SMOKE_REPRO" "$LIVE_JSON"' EXIT
build-release/bench/bench_scale --clients 2000 --nodes 200 \
  --json "$SMOKE_JSON"
extract_smoke_wall() {
  # wall_sec inside the "smoke" object (field order is fixed by the bench).
  sed -n '/"smoke"/,/}/p' "$1" | grep -o '"wall_sec": [0-9.]*' | head -1 |
    grep -o '[0-9.]*$'
}
REF=$(extract_smoke_wall BENCH_scale.json)
NEW=$(extract_smoke_wall "$SMOKE_JSON")
if [ -z "$REF" ] || [ -z "$NEW" ]; then
  echo "scale smoke: missing wall_sec (ref='$REF' new='$NEW')" >&2
  exit 1
fi
echo "scale smoke wall_sec: committed=$REF measured=$NEW"
awk -v ref="$REF" -v new="$NEW" 'BEGIN {
  if (new > 2.0 * ref) {
    printf "scale smoke: wall-clock regression >2x (%.3fs vs %.3fs)\n", new, ref
    exit 1
  }
}' || exit 1

# Allocation gate: the benches count operator-new calls per simulated event
# (alloc_hook.cc). Unlike wall-clock this is machine-independent, so the
# tolerance is tight: >20% over the committed value fails.
extract_smoke_allocs() {
  sed -n '/"smoke"/,/}/p' "$1" | grep -o '"allocs_per_event": [0-9.]*' |
    head -1 | grep -o '[0-9.]*$'
}
REF_ALLOCS=$(extract_smoke_allocs BENCH_scale.json)
NEW_ALLOCS=$(extract_smoke_allocs "$SMOKE_JSON")
if [ -z "$REF_ALLOCS" ] || [ -z "$NEW_ALLOCS" ]; then
  echo "scale smoke: missing allocs_per_event (ref='$REF_ALLOCS' new='$NEW_ALLOCS')" >&2
  exit 1
fi
echo "scale smoke allocs_per_event: committed=$REF_ALLOCS measured=$NEW_ALLOCS"
awk -v ref="$REF_ALLOCS" -v new="$NEW_ALLOCS" 'BEGIN {
  if (new > 1.2 * ref) {
    printf "scale smoke: allocation regression >20%% (%.3f vs %.3f allocs/event)\n", new, ref
    exit 1
  }
}' || exit 1

# Discovery gate: the smoke run re-measures the 1000-node discovery
# microbench; queries/sec below half the committed value fails.
extract_discovery_qps() {
  sed -n '/"discovery"/,/}/p' "$1" | grep -o '"indexed_qps": [0-9.]*' |
    head -1 | grep -o '[0-9.]*$'
}
REF_QPS=$(extract_discovery_qps BENCH_scale.json)
NEW_QPS=$(extract_discovery_qps "$SMOKE_JSON")
if [ -z "$REF_QPS" ] || [ -z "$NEW_QPS" ]; then
  echo "scale smoke: missing discovery indexed_qps (ref='$REF_QPS' new='$NEW_QPS')" >&2
  exit 1
fi
echo "scale smoke discovery indexed_qps: committed=$REF_QPS measured=$NEW_QPS"
awk -v ref="$REF_QPS" -v new="$NEW_QPS" 'BEGIN {
  if (new < 0.5 * ref) {
    printf "scale smoke: discovery throughput regression >2x (%.1f vs %.1f q/s)\n", new, ref
    exit 1
  }
}' || exit 1

# Exact-observables gate: the smoke fleet is deterministic, so its event
# count, frames, discoveries, latency p50/p99, the discovery response digest
# and every shard sweep row's events, frames, latency p50/p99 and
# cross-shard message count must equal the committed BENCH_scale.json
# exactly. A change that reorders events or perturbs a sampled delay trips
# this even when wall-clock looks fine. A deliberate behaviour change
# re-baselines by re-recording the file (bench_scale --json) in the same
# commit.
extract_field() {
  # extract_field FILE OBJECT FIELD: FIELD's value inside "OBJECT": {...}.
  sed -n "/\"$2\"/,/}/p" "$1" | grep -o "\"$3\": \"\?[0-9a-f.]*" |
    head -1 | grep -o '[0-9a-f.]*$'
}
for spec in smoke:events smoke:frames_ok smoke:discoveries \
    smoke:latency_p50_ms smoke:latency_p99_ms discovery:digest; do
  obj="${spec%%:*}"
  field="${spec#*:}"
  REF_V=$(extract_field BENCH_scale.json "$obj" "$field")
  NEW_V=$(extract_field "$SMOKE_JSON" "$obj" "$field")
  if [ -z "$REF_V" ] || [ "$REF_V" != "$NEW_V" ]; then
    echo "scale smoke: $obj.$field changed (committed='$REF_V' measured='$NEW_V')" >&2
    exit 1
  fi
  echo "scale smoke $obj.$field: $NEW_V (exact)"
done
SWEEP_FIELDS="shards events frames_ok latency_p50_ms latency_p99_ms cross_shard_messages"
extract_sweep_rows() {
  # One line of $SWEEP_FIELDS values per sweep row.
  grep -o '{"shards": [0-9]*,[^]]*' "$1" | while read -r row; do
    for field in $SWEEP_FIELDS; do
      printf '%s ' "$(echo "$row" | grep -o "\"$field\": [0-9.]*" |
        grep -o '[0-9.]*$')"
    done
    echo
  done
}
REF_ROWS=$(extract_sweep_rows BENCH_scale.json)
NEW_ROWS=$(extract_sweep_rows "$SMOKE_JSON")
if [ -z "$REF_ROWS" ] || [ "$REF_ROWS" != "$NEW_ROWS" ]; then
  echo "shard sweep: rows differ from the committed BENCH_scale.json" >&2
  echo "committed:" >&2
  echo "$REF_ROWS" >&2
  echo "measured:" >&2
  echo "$NEW_ROWS" >&2
  exit 1
fi
echo "shard sweep rows ($SWEEP_FIELDS), exact:"
echo "$NEW_ROWS"

# One world: the smoke fleet (Scenario, one windowless domain) and every
# shard sweep row (ShardedScenario at 1/2/4/8 shards) run the same message
# delivery, so they must report the same events, frames and latency.
ONE_WORLD_FIELDS="events frames_ok latency_p50_ms latency_p99_ms"
SMOKE_OBS=$(for field in $ONE_WORLD_FIELDS; do
  printf '%s ' "$(extract_field "$SMOKE_JSON" smoke "$field")"
done)
SWEEP_OBS=$(SWEEP_FIELDS="$ONE_WORLD_FIELDS" extract_sweep_rows "$SMOKE_JSON" |
  sort -u)
if [ -z "$SWEEP_OBS" ] || [ "$SWEEP_OBS" != "$SMOKE_OBS" ]; then
  echo "one world: sweep rows differ from the smoke fleet ($ONE_WORLD_FIELDS)" >&2
  echo "smoke: $SMOKE_OBS" >&2
  echo "sweep:" >&2
  echo "$SWEEP_OBS" >&2
  exit 1
fi
echo "one world: smoke == every sweep row ($ONE_WORLD_FIELDS): $SMOKE_OBS"

# Memory gate: the bench process's peak RSS at the end of the smoke run;
# more than 1.25x the committed value fails. Engine queue storage is a
# large share of it, so a queue that keeps capacity it no longer uses (or
# any other retained high-water) trips this before it reaches the fleet.
REF_RSS=$(extract_field BENCH_scale.json smoke peak_rss_mb)
NEW_RSS=$(extract_field "$SMOKE_JSON" smoke peak_rss_mb)
if [ -z "$REF_RSS" ] || [ -z "$NEW_RSS" ]; then
  echo "scale smoke: missing peak_rss_mb (ref='$REF_RSS' new='$NEW_RSS')" >&2
  exit 1
fi
echo "scale smoke peak_rss_mb: committed=$REF_RSS measured=$NEW_RSS"
awk -v ref="$REF_RSS" -v new="$NEW_RSS" 'BEGIN {
  if (new > 1.25 * ref) {
    printf "scale smoke: peak RSS regression >25%% (%.1f vs %.1f MB)\n", new, ref
    exit 1
  }
}' || exit 1

# Delay-sampling gate: ns per SimNetwork::sample_delay over the smoke
# fleet's client->node pairs; more than 2x the committed value fails.
REF_NET=$(extract_field BENCH_scale.json network sample_delay_ns)
NEW_NET=$(extract_field "$SMOKE_JSON" network sample_delay_ns)
if [ -z "$REF_NET" ] || [ -z "$NEW_NET" ]; then
  echo "scale smoke: missing network sample_delay_ns (ref='$REF_NET' new='$NEW_NET')" >&2
  exit 1
fi
echo "scale smoke sample_delay_ns: committed=$REF_NET measured=$NEW_NET"
awk -v ref="$REF_NET" -v new="$NEW_NET" 'BEGIN {
  if (new > 2.0 * ref) {
    printf "scale smoke: sample_delay regression >2x (%.1f vs %.1f ns)\n", new, ref
    exit 1
  }
}' || exit 1

echo "=== [release] shard sweep gate (sharded == sequential observables) ==="
# The smoke JSON now carries a shard sweep (1/2/4/8 shards over the same
# fleet). Two gates: the sharded harness must report bit-identical
# observables at every shard count, and the 1-shard sharded run must not
# regress >2x against the committed reference wall-clock.
if ! grep -q '"identical_across_shards": true' "$SMOKE_JSON"; then
  echo "shard sweep: observables differ across shard counts" >&2
  exit 1
fi
extract_shard1_run() {
  grep -o '{"shards": 1,[^}]*' "$1" | head -1 |
    grep -o '"run_sec": [0-9.]*' | grep -o '[0-9.]*$'
}
REF_SHARD=$(extract_shard1_run BENCH_scale.json)
NEW_SHARD=$(extract_shard1_run "$SMOKE_JSON")
if [ -z "$REF_SHARD" ] || [ -z "$NEW_SHARD" ]; then
  echo "shard sweep: missing 1-shard run_sec (ref='$REF_SHARD' new='$NEW_SHARD')" >&2
  exit 1
fi
echo "shard sweep 1-shard run_sec: committed=$REF_SHARD measured=$NEW_SHARD"
awk -v ref="$REF_SHARD" -v new="$NEW_SHARD" 'BEGIN {
  if (new > 2.0 * ref) {
    printf "shard sweep: wall-clock regression >2x (%.3fs vs %.3fs)\n", new, ref
    exit 1
  }
}' || exit 1

echo "=== [release] live loopback smoke (bench_live --smoke) ==="
# The live data plane over real localhost sockets: the smoke run must hold
# the steady-state allocation bound, leak no buffer-pool chunks, coalesce
# pipelined writes, and land inside the live-vs-sim latency tolerance band
# (sim parity).
build-release/bench/bench_live --smoke --json "$LIVE_JSON"
if ! grep -q '"leaked_pool_slots": 0' "$LIVE_JSON"; then
  echo "live smoke: leaked buffer-pool slots" >&2
  exit 1
fi
if ! grep -q '"within_tolerance": true' "$LIVE_JSON"; then
  echo "live smoke: live-vs-sim latency outside the tolerance band" >&2
  exit 1
fi
extract_live_allocs() {
  sed -n '/"smoke"/,/}/p' "$1" | grep -o '"allocs_per_frame": [0-9.]*' |
    head -1 | grep -o '[0-9.]*$'
}
REF_LIVE=$(extract_live_allocs BENCH_live.json)
NEW_LIVE=$(extract_live_allocs "$LIVE_JSON")
if [ -z "$REF_LIVE" ] || [ -z "$NEW_LIVE" ]; then
  echo "live smoke: missing allocs_per_frame (ref='$REF_LIVE' new='$NEW_LIVE')" >&2
  exit 1
fi
echo "live smoke allocs_per_frame: committed=$REF_LIVE measured=$NEW_LIVE"
# Two gates. Absolute: the steady-state frame path must stay allocation-
# free (<1 alloc/frame) — one new allocation on the hot path adds +1.0 and
# trips this immediately. Relative: >20% over the committed reference,
# floored at 0.7 because the committed JSON comes from the full-length run
# whose longer window amortizes per-probe-cycle costs over more frames.
awk -v ref="$REF_LIVE" -v new="$NEW_LIVE" 'BEGIN {
  if (new > 1.0) {
    printf "live smoke: steady-state allocation bound broken (%.3f allocs/frame > 1.0)\n", new
    exit 1
  }
  bound = 1.2 * ref; if (bound < 0.7) bound = 0.7
  if (new > bound) {
    printf "live smoke: allocation regression >20%% (%.3f vs %.3f allocs/frame)\n", new, ref
    exit 1
  }
}' || exit 1
# The discovery storm's pump pool: the follow-up calls a read dispatch
# issues on one connection must leave in one sendmsg. With 8 calls in
# flight per connection that is 0.125 writes per query; one write per
# request reads 1.0.
NEW_WRITES=$(sed -n '/"smoke"/,/}/p' "$LIVE_JSON" |
  grep -o '"writes_per_op": [0-9.]*' | head -1 | grep -o '[0-9.]*$')
if [ -z "$NEW_WRITES" ]; then
  echo "live smoke: missing writes_per_op" >&2
  exit 1
fi
echo "live smoke writes_per_op: measured=$NEW_WRITES (gate 0.5)"
awk -v new="$NEW_WRITES" 'BEGIN {
  if (new > 0.5) {
    printf "live smoke: writes are not coalesced (%.3f sendmsg calls per query > 0.5)\n", new
    exit 1
  }
}' || exit 1

echo "=== [asan] live data-plane focus (sockets under ASan/UBSan) ==="
# The full asan ctest above already covers these; run the socket suite
# again explicitly so a sanitizer hit on the live plane names itself even
# when triaging from the tail of the log.
for t in test_event_loop test_connection test_rpc test_live; do
  "build-asan/tests/$t" --gtest_brief=1
done

echo "=== [release] shard witness smoke (eden_check --witness) ==="
# Fuzzed topologies through the sharded harness at 1, 2, 4 and 8 shards:
# the canonical trace digest must be bit-identical to the windowless
# sequential reference on every seed.
build-release/tools/eden_check --witness --seeds 25 --seed-base 1 \
  --shards 1,2,4,8 --jobs "$JOBS" --budget-sec 120
# The same witness over the overload families (flash crowds, diurnal
# waves, slow credit leaks): load feedback, shedding and throttling must
# not make the world depend on the shard layout either.
build-release/tools/eden_check --witness --overload --seeds 25 --seed-base 1 \
  --shards 1,2,4,8 --jobs "$JOBS" --budget-sec 120

echo "=== [release] deterministic-simulation smoke (eden_check) ==="
# Fixed-seed fuzz sweep under a wall-clock budget, preceded by the built-in
# selftest (seeded seqNum-freeze bug must be caught, shrunk and replayed
# byte-identically across thread counts). Any oracle violation — or a
# violation whose shrink fails to reproduce — fails the gate.
build-release/tools/eden_check --selftest --jobs "$JOBS" --out "$SMOKE_REPRO"
build-release/tools/eden_check --seeds 400 --seed-base 1 --jobs "$JOBS" \
  --budget-sec 60 --out "$SMOKE_REPRO"

echo "=== [release] crash-point fuzz smoke (eden_check --crash) ==="
# Manager-crash family: every seed gets a warm standby plus a deterministic
# crash point (after-append / before-ack / mid-batch / torn-tail) fired
# mid-churn; the journal-seqnum and readmission oracles plus the replay-
# determinism witness must hold on every takeover. The --selftest stage
# above already proved the oracles are live (planted drop-last-batch bug).
build-release/tools/eden_check --seeds 400 --seed-base 1 --crash \
  --jobs "$JOBS" --budget-sec 60 --out "$SMOKE_REPRO"

echo "=== [asan] journal/failover focus (crash recovery under ASan/UBSan) ==="
# Torn-write truncation, replay, takeover and the live restart path touch
# raw byte framing — run the journal suite again under the sanitizers so a
# hit names itself even when triaging from the tail of the log.
for t in test_journal test_failover; do
  "build-asan/tests/$t" --gtest_brief=1
done

echo "=== [release] overload fuzz smoke (eden_check --overload) ==="
# Same budgeted sweep over the overload scenario families (flash crowds,
# diurnal waves, slow credit leaks) with the starvation oracle armed.
build-release/tools/eden_check --seeds 400 --seed-base 1 --overload \
  --jobs "$JOBS" --budget-sec 60 --out "$SMOKE_REPRO"

echo "=== [release] flash-crowd sweep (load-feedback phase switching) ==="
# The curated overload figure's claim: feedback-on beats feedback-off on
# burst-window p95 without completing fewer frames. It holds at every seed
# 1..60 at full size. The quarter-scale crowd saturates its cell only at
# some seeds (18 of 60), so there the gate is the recorded rate, 31 of 60
# (EXPERIMENTS.md "Flash crowd").
build-release/bench/bench_flash_crowd --seeds 60 --assert-improves
build-release/bench/bench_flash_crowd --smoke --seeds 60 --assert-improves \
  --min-holds 31

echo "=== [release] benchmark selftest (edenbench/selftest.py) ==="
# The benchmark compiles src/ on its own (edenbench/CMakeLists.txt): build
# it and run every workload at a tiny size, traced and untraced, so a
# harness change that breaks its build or a correctness check fails here.
BENCH_START=$SECONDS
CARGO_TARGET_DIR=build-bench python3 edenbench/selftest.py
echo "benchmark selftest: $((SECONDS - BENCH_START)) s"

echo "=== all presets green ==="
