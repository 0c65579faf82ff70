#include "check/fuzzer.h"

#include <algorithm>
#include <optional>

#include "check/recipe.h"
#include "common/rng.h"
#include "harness/scenario.h"

namespace eden::check {

std::uint64_t fnv1a64(std::string_view data) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : data) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---- generator --------------------------------------------------------

namespace {

constexpr double kAnchorLat = 44.9778;  // Minneapolis, like the harness
constexpr double kAnchorLon = -93.2650;

int sample_access_tier(Rng& rng) {
  const double r = rng.uniform();
  if (r < 0.25) return static_cast<int>(net::AccessTier::kFiber);
  if (r < 0.65) return static_cast<int>(net::AccessTier::kCable);
  if (r < 0.85) return static_cast<int>(net::AccessTier::kDsl);
  return static_cast<int>(net::AccessTier::kLocalZone);
}

FuzzEndpoint sample_endpoint(Rng& rng, std::size_t nodes,
                             std::size_t clients) {
  const double r = rng.uniform();
  if (r < 0.15 || (nodes == 0 && clients == 0)) {
    return {EndpointKind::kManager, 0};
  }
  if (nodes > 0 && (r < 0.70 || clients == 0)) {
    return {EndpointKind::kNode,
            static_cast<int>(rng.uniform_int(0, static_cast<int>(nodes) - 1))};
  }
  return {EndpointKind::kClient,
          static_cast<int>(rng.uniform_int(0, static_cast<int>(clients) - 1))};
}

// Overload-family mutation (FuzzLimits::overload_families): layered onto a
// fully-generated base spec, drawing from its own Rng fork so the base
// stream stays byte-identical for every historical seed. Each family turns
// load feedback on and shapes load the control loop must absorb. Mutations
// only append entities (or adjust node 0's background ramp), so symbolic
// fault endpoints in the base spec stay valid.
void apply_overload_family(ScenarioSpec& spec, Rng& rng) {
  spec.load_feedback = true;
  // Guarantee an anchor so the hot cell has a victim and the spec promises
  // frame traffic.
  if (spec.nodes.empty()) {
    FuzzNode anchor;
    anchor.cores = static_cast<int>(rng.uniform_int(1, 4));
    anchor.base_frame_ms = rng.uniform(15.0, 40.0);
    spec.nodes.push_back(anchor);
  }
  // Half the specs make the anchor a credit-limited burstable volunteer —
  // the regime where throttle latching and credit telemetry feed the
  // overload set (a fixed-capacity anchor never exercises them).
  if (rng.bernoulli(0.5)) {
    FuzzNode& anchor = spec.nodes.front();
    anchor.burstable = true;
    anchor.burst_baseline = rng.uniform(0.25, 0.55);
    anchor.initial_credits_core_sec = rng.uniform(0.5, 12.0);
  }
  const double quiet_start = spec.horizon_sec - spec.cooldown_sec;
  const double hot_lat = spec.nodes.front().lat;
  const double hot_lon = spec.nodes.front().lon;

  // Spare capacity one cell over (~50 km): the steering target the
  // starvation oracle assumes — without guaranteed spare capacity,
  // "everyone starves" can be the only feasible outcome and the oracle
  // would be unsound.
  FuzzNode spare;
  spare.lat = hot_lat + 0.45;
  spare.lon = hot_lon + 0.45;
  spare.tier = static_cast<int>(net::AccessTier::kFiber);
  spare.cores = static_cast<int>(rng.uniform_int(4, 8));
  spare.base_frame_ms = rng.uniform(8.0, 18.0);
  spare.dedicated = true;
  spec.nodes.push_back(spare);

  const double family = rng.uniform();
  if (family < 0.40) {
    // Flash crowd into one cell: a burst of clients lands on the anchor's
    // cell mid-run and stays to the horizon.
    const double burst_at =
        rng.uniform(3.0, std::max(4.0, quiet_start - 8.0));
    const auto burst = static_cast<std::size_t>(rng.uniform_int(3, 7));
    for (std::size_t i = 0; i < burst; ++i) {
      FuzzClient fc;
      fc.lat = hot_lat + rng.uniform(-0.02, 0.02);
      fc.lon = hot_lon + rng.uniform(-0.02, 0.02);
      fc.tier = sample_access_tier(rng);
      fc.top_n = static_cast<int>(rng.uniform_int(1, 3));
      fc.probing_period_sec = rng.uniform(1.5, 4.0);
      fc.max_fps = rng.uniform(12.0, 20.0);
      fc.start_sec = burst_at + rng.uniform(0.0, 1.5);
      spec.clients.push_back(fc);
    }
  } else if (family < 0.70) {
    // Diurnal wave: staggered arrivals that recede before the cooldown, so
    // hysteresis has to both enter and exit cleanly.
    const auto wave = static_cast<std::size_t>(rng.uniform_int(2, 6));
    for (std::size_t i = 0; i < wave; ++i) {
      FuzzClient fc;
      fc.lat = hot_lat + rng.uniform(-0.05, 0.05);
      fc.lon = hot_lon + rng.uniform(-0.05, 0.05);
      fc.tier = sample_access_tier(rng);
      fc.top_n = static_cast<int>(rng.uniform_int(1, 4));
      fc.probing_period_sec = rng.uniform(1.5, 4.0);
      fc.max_fps = rng.uniform(10.0, 18.0);
      fc.start_sec = rng.uniform(1.0, quiet_start / 3.0);
      fc.stop_sec = rng.uniform(quiet_start * 0.5, quiet_start - 1.0);
      spec.clients.push_back(fc);
    }
  } else {
    // Slow leak: the anchor's host gradually reclaims its CPU.
    FuzzNode& leak = spec.nodes.front();
    leak.bg_ramp_to = rng.uniform(0.55, 0.90);
    leak.bg_ramp_start_sec = rng.uniform(2.0, quiet_start / 2.0);
    leak.bg_ramp_end_sec =
        leak.bg_ramp_start_sec +
        rng.uniform(5.0, quiet_start - leak.bg_ramp_start_sec);
  }
}

// Crash-family mutation (FuzzLimits::crash_points): arms the warm standby
// and plants one deterministic manager crash mid-churn. Like the overload
// family it draws from its own fork and only appends entities, so symbolic
// fault endpoints and every base draw stay untouched.
void apply_crash_family(ScenarioSpec& spec, Rng& rng) {
  spec.standby = true;
  spec.crash.enabled = true;
  // Guarantee an anchor: the takeover oracles want registry content to
  // recover and a frame stream to keep alive across the failover.
  if (spec.nodes.empty()) {
    FuzzNode anchor;
    anchor.cores = static_cast<int>(rng.uniform_int(2, 6));
    anchor.base_frame_ms = rng.uniform(12.0, 35.0);
    spec.nodes.push_back(anchor);
  }
  const double quiet_start = spec.horizon_sec - spec.cooldown_sec;
  spec.crash.point = static_cast<int>(rng.uniform_int(0, 3));
  spec.crash.takeover_delay_sec = rng.uniform(0.2, 1.5);
  spec.crash.at_sec =
      rng.uniform(3.0, std::max(3.5, quiet_start -
                                         spec.crash.takeover_delay_sec - 2.0));
}

}  // namespace

ScenarioSpec generate_spec(std::uint64_t seed, const FuzzLimits& limits) {
  Rng rng = Rng(seed).fork("check-gen");
  ScenarioSpec spec;
  spec.seed = seed;

  // Regime knobs first: network kind, jitter, heartbeat TTL, horizon.
  spec.heartbeat_ttl_sec = rng.uniform(2.0, 4.0);
  spec.jitter_sigma = rng.bernoulli(0.35) ? 0.0 : rng.uniform(0.01, 0.12);
  spec.net_kind = rng.bernoulli(0.7) ? static_cast<int>(SpecNetKind::kGeo)
                                     : static_cast<int>(SpecNetKind::kMatrix);
  spec.default_rtt_ms = rng.uniform(10.0, 60.0);
  spec.default_bw_mbps = rng.uniform(20.0, 200.0);
  double horizon = rng.uniform(limits.min_horizon_sec, limits.max_horizon_sec);

  // Clients: always at least one; every fuzz client streams frames (the
  // conservation and bound oracles feed on them).
  const auto client_count = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<int>(std::max<std::size_t>(
                             1, limits.max_clients))));
  double max_probing = 0.0;
  static const double kMargins[] = {0.0, 0.1, 0.3};
  for (std::size_t i = 0; i < client_count; ++i) {
    FuzzClient fc;
    fc.lat = kAnchorLat + rng.uniform(-0.3, 0.3);
    fc.lon = kAnchorLon + rng.uniform(-0.3, 0.3);
    fc.tier = sample_access_tier(rng);
    fc.top_n = static_cast<int>(rng.uniform_int(1, 5));
    fc.probing_period_sec = rng.uniform(1.5, 6.0);
    fc.proactive = rng.bernoulli(0.8);
    fc.switch_margin = kMargins[rng.uniform_int(0, 2)];
    fc.max_fps = rng.uniform(6.0, 20.0);
    fc.start_sec = rng.uniform(0.0, 4.0);
    fc.send_frames = true;
    max_probing = std::max(max_probing, fc.probing_period_sec);
    spec.clients.push_back(fc);
  }

  // The oracle soundness envelope (see header): the cooldown must outlast
  // a TTL expiry plus any fault-delayed heartbeat still in flight, and
  // give every client a couple of probing cycles to settle; idle eviction
  // must not be reachable from a fault window alone.
  spec.cooldown_sec =
      std::max({10.0, 2.0 * max_probing + 3.0, spec.heartbeat_ttl_sec + 7.0});
  spec.user_idle_ttl_sec = std::max(8.0, 2.5 * max_probing);
  spec.horizon_sec = std::max(horizon, spec.cooldown_sec + 12.0);
  const double quiet_start = spec.horizon_sec - spec.cooldown_sec;

  // Nodes: degenerate 0/1-node topologies are deliberate fuzz inputs.
  const double shape = rng.uniform();
  std::size_t node_count = 0;
  if (shape >= 0.16) {
    node_count =
        2 + static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(std::max<std::size_t>(2, limits.max_nodes)) -
                       2));
  } else if (shape >= 0.06) {
    node_count = 1;
  }
  // Geohash clusters: volunteer fleets bunch around a few metro centers.
  const int center_count = static_cast<int>(rng.uniform_int(1, 3));
  double centers[3][2];
  for (int c = 0; c < center_count; ++c) {
    centers[c][0] = kAnchorLat + rng.uniform(-0.4, 0.4);
    centers[c][1] = kAnchorLon + rng.uniform(-0.4, 0.4);
  }
  for (std::size_t i = 0; i < node_count; ++i) {
    FuzzNode fn;
    const int c = static_cast<int>(rng.uniform_int(0, center_count - 1));
    fn.lat = centers[c][0] + rng.uniform(-0.08, 0.08);
    fn.lon = centers[c][1] + rng.uniform(-0.08, 0.08);
    fn.tier = sample_access_tier(rng);
    fn.dedicated = fn.tier == static_cast<int>(net::AccessTier::kLocalZone);
    fn.cores = static_cast<int>(rng.uniform_int(1, 8));
    fn.base_frame_ms = rng.uniform(8.0, 45.0);
    fn.heartbeat_period_sec = rng.uniform(0.6, spec.heartbeat_ttl_sec / 2.0);
    if (i == 0) {
      // Anchor: one volunteer that is always there, so the spec promises
      // frame traffic (see expects_frames).
      fn.start_sec = 0.0;
      fn.stop_sec = -1.0;
    } else {
      // Churn schedule: late joins and mid-run departures, all clear of
      // the cooldown tail.
      fn.start_sec = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, horizon / 3.0);
      if (rng.bernoulli(0.35)) {
        fn.stop_sec = std::min(quiet_start,
                               fn.start_sec + rng.uniform(2.0, quiet_start));
        fn.graceful_stop = rng.bernoulli(0.5);
      }
    }
    spec.nodes.push_back(fn);
  }
  if (node_count > 0 && rng.bernoulli(0.3)) {
    FuzzNode cloud;
    cloud.lat = kAnchorLat + 2.0;
    cloud.lon = kAnchorLon + 2.0;
    cloud.tier = static_cast<int>(net::AccessTier::kCloud);
    cloud.cores = 16;
    cloud.base_frame_ms = rng.uniform(10.0, 20.0);
    cloud.dedicated = true;
    cloud.is_cloud = true;
    cloud.extra_rtt_ms = rng.uniform(35.0, 80.0);
    cloud.heartbeat_period_sec = 1.0;
    spec.nodes.push_back(cloud);
  }

  // Fault windows: cuts, partitions, slowdowns and wildcard isolations,
  // each short enough that idle eviction cannot trigger from it and ending
  // before the cooldown tail.
  const auto fault_count =
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(limits.max_faults)));
  for (std::size_t i = 0; i < fault_count; ++i) {
    FuzzFault ff;
    const double r = rng.uniform();
    ff.kind = r < 0.30   ? FaultKind::kCut
              : r < 0.55 ? FaultKind::kPartition
              : r < 0.80 ? FaultKind::kSlow
                         : FaultKind::kIsolate;
    ff.a = sample_endpoint(rng, spec.nodes.size(), spec.clients.size());
    ff.b = sample_endpoint(rng, spec.nodes.size(), spec.clients.size());
    if (ff.kind != FaultKind::kIsolate && ff.b == ff.a) {
      ff.b = {EndpointKind::kManager, 0};
      if (ff.a == ff.b) continue;  // manager-manager pair: drop the window
    }
    ff.factor = rng.uniform(1.5, 20.0);
    ff.from_sec = rng.uniform(1.0, quiet_start - 0.5);
    ff.until_sec =
        ff.from_sec + rng.uniform(0.5, std::min(6.0, quiet_start - ff.from_sec));
    spec.faults.push_back(ff);
  }

  // Overload families ride on a separate fork, applied after the base
  // generation has fully consumed its own stream: seeds generated with the
  // flag off are untouched byte for byte.
  if (limits.overload_families) {
    Rng overload_rng = Rng(seed).fork("check-overload");
    apply_overload_family(spec, overload_rng);
  }
  if (limits.crash_points) {
    Rng crash_rng = Rng(seed).fork("check-crash");
    apply_crash_family(spec, crash_rng);
  }
  return spec;
}

// ---- runner ----------------------------------------------------------

RunReport run_spec(const ScenarioSpec& spec, const RunOptions& options) {
  harness::ScenarioConfig config = spec_config(spec);
  config.standby.enabled = spec.standby;
  config.standby.standby_options.chaos_drop_last_batch =
      (spec.chaos & kChaosDropLastBatchOnReplay) != 0;
  harness::Scenario scenario(config, spec_net_kind(spec), spec.default_rtt_ms,
                             spec.default_bw_mbps, spec.jitter_sigma);
  build_spec_world(spec, scenario);
  if (const std::optional<EffectiveCrash> crash = effective_crash(spec)) {
    scenario.schedule_manager_crash(
        sec(crash->at_sec), static_cast<journal::CrashPoint>(crash->point),
        sec(crash->takeover_delay_sec));
  }

  const SimTime horizon = sec(spec.horizon_sec);
  scenario.run_until(horizon);

  RunReport report;
  // Replay-determinism witness: at the takeover instant the standby's
  // incrementally-tailed image must equal a fresh one-shot replay of the
  // surviving journal bytes, byte for byte. (The planted drop-last-batch
  // chaos diverges here as well as on the LSN oracle.)
  if (scenario.takeover_done() &&
      scenario.standby_dump() != scenario.expected_dump()) {
    report.violations.push_back(
        {"journal-replay",
         "standby replay dump diverges from a fresh replay of the journal",
         horizon});
  }
  observe_spec_world(spec, scenario, report);

  // Oracles see only the pre-teardown prefix: the snapshot above and the
  // trace stay in exact correspondence (both record precisely what
  // executed by the horizon), while teardown noise — drained joins hitting
  // stopped nodes, deregisters at the horizon — is excluded.
  const std::size_t prefix = scenario.trace_recorder()->events().size();

  // The warm-tail timer self-reschedules; stop it or run_all never drains.
  scenario.stop_standby_tail();
  for (std::size_t i = 0; i < scenario.edge_client_count(); ++i) {
    scenario.edge_client(i).stop();
  }
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.node(i).running()) scenario.stop_node(i, /*graceful=*/true);
  }
  scenario.simulator().run_all();

  const std::vector<obs::TraceEvent>& all =
      scenario.trace_recorder()->events();
  const std::vector<obs::TraceEvent> pre_teardown(all.begin(),
                                                  all.begin() + prefix);
  report.trace_events = all.size();
  report.trace_digest = fnv1a64(scenario.trace_recorder()->to_jsonl());
  check_oracles(spec, pre_teardown, config.timeouts, options.oracles, report);
  return report;
}

}  // namespace eden::check
