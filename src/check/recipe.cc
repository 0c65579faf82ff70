#include "check/recipe.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "geo/geopoint.h"
#include "manager/registry.h"

namespace eden::check {

namespace {

net::AccessTier clamp_tier(int tier) {
  if (tier < static_cast<int>(net::AccessTier::kLan) ||
      tier > static_cast<int>(net::AccessTier::kCloud)) {
    return net::AccessTier::kCable;
  }
  return static_cast<net::AccessTier>(tier);
}

// Symbolic endpoint -> host. nullopt for dangling indices (a hand-edited
// spec may reference entities the shrinker dropped): the window is skipped.
std::optional<HostId> resolve_endpoint(harness::ShardedScenario& world,
                                       const FuzzEndpoint& ep) {
  switch (ep.kind) {
    case EndpointKind::kManager:
      return HostId{0};  // the harness allocates host 0 to the manager
    case EndpointKind::kNode:
      if (ep.index < 0 ||
          static_cast<std::size_t>(ep.index) >= world.node_count()) {
        return std::nullopt;
      }
      return world.node_id(static_cast<std::size_t>(ep.index));
    case EndpointKind::kClient:
      if (ep.index < 0 ||
          static_cast<std::size_t>(ep.index) >= world.edge_client_count()) {
        return std::nullopt;
      }
      return world.edge_client(static_cast<std::size_t>(ep.index)).id();
  }
  return std::nullopt;
}

}  // namespace

harness::ScenarioConfig spec_config(const ScenarioSpec& spec) {
  harness::ScenarioConfig config;
  config.seed = spec.seed;
  config.heartbeat_ttl = sec(spec.heartbeat_ttl_sec);
  config.trace = true;
  config.load_feedback = spec.load_feedback;
  return config;
}

harness::NetKind spec_net_kind(const ScenarioSpec& spec) {
  return spec.net_kind == static_cast<int>(SpecNetKind::kMatrix)
             ? harness::NetKind::kMatrix
             : harness::NetKind::kGeo;
}

void build_spec_world(const ScenarioSpec& spec,
                      harness::ShardedScenario& world) {
  // Enforce the quiet-tail contract for any spec, not just generated ones.
  const double quiet_start =
      std::max(0.0, spec.horizon_sec - std::max(0.0, spec.cooldown_sec));
  // The crash the runner will inject (clamps shared with the oracles).
  const std::optional<EffectiveCrash> crash = effective_crash(spec);

  // ---- nodes ----
  for (std::size_t i = 0; i < spec.nodes.size(); ++i) {
    const FuzzNode& fn = spec.nodes[i];
    harness::NodeSpec ns;
    ns.name = "fuzz-node-" + std::to_string(i);
    ns.position = geo::GeoPoint{fn.lat, fn.lon};
    ns.tier = clamp_tier(fn.tier);
    ns.cores = std::max(1, fn.cores);
    ns.base_frame_ms = fn.base_frame_ms;
    ns.dedicated = fn.dedicated;
    ns.is_cloud = fn.is_cloud;
    ns.extra_rtt_ms = fn.extra_rtt_ms;
    ns.heartbeat_period = sec(std::max(0.1, fn.heartbeat_period_sec));
    ns.user_idle_ttl = sec(std::max(1.0, spec.user_idle_ttl_sec));
    ns.chaos_freeze_seq_num = (spec.chaos & kChaosFreezeSeqNum) != 0;
    ns.background_load = std::clamp(fn.background_load, 0.0, 0.95);
    ns.burstable = fn.burstable;
    ns.burst_baseline = std::clamp(fn.burst_baseline, 0.05, 1.0);
    ns.initial_credits_core_sec = std::max(0.0, fn.initial_credits_core_sec);
    const std::size_t index = world.add_node(ns);

    // Slow-leak ramp: step the background load linearly toward bg_ramp_to
    // over the ramp window, clear of the cooldown tail.
    if (fn.bg_ramp_to >= 0.0) {
      const double ramp_to = std::clamp(fn.bg_ramp_to, 0.0, 0.95);
      const double ramp_from = ns.background_load;
      const double r0 = std::max(0.0, fn.bg_ramp_start_sec);
      const double r1 = std::min(fn.bg_ramp_end_sec, quiet_start);
      if (r1 > r0) {
        constexpr int kRampSteps = 8;
        for (int step = 1; step <= kRampSteps; ++step) {
          const double frac = static_cast<double>(step) / kRampSteps;
          const double at = r0 + (r1 - r0) * frac;
          const double load = ramp_from + (ramp_to - ramp_from) * frac;
          world.schedule_at_node(index, sec(at),
                                 [load](node::EdgeNode& node) {
                                   node.set_background_load(load);
                                 });
        }
      }
    }

    const double start = std::max(0.0, fn.start_sec);
    double stop = fn.stop_sec;
    if (stop >= 0.0) stop = std::min(stop, quiet_start);
    if (stop >= 0.0 && stop <= start) continue;  // clamped into nothing
    if (start <= 0.0) {
      world.start_node(index);
    } else {
      world.schedule_node_start(index, sec(start));
    }
    if (stop >= 0.0) {
      world.schedule_node_stop(index, sec(stop), fn.graceful_stop);
    }
  }

  // ---- clients ----
  for (std::size_t i = 0; i < spec.clients.size(); ++i) {
    const FuzzClient& fc = spec.clients[i];
    harness::ClientSpot spot;
    spot.name = "fuzz-client-" + std::to_string(i);
    spot.position = geo::GeoPoint{fc.lat, fc.lon};
    spot.tier = clamp_tier(fc.tier);
    client::ClientConfig cc;
    cc.top_n = std::max(1, fc.top_n);
    cc.probing_period = sec(std::max(0.5, fc.probing_period_sec));
    cc.proactive_connections = fc.proactive;
    cc.switch_margin = fc.switch_margin;
    cc.app.max_fps = std::max(1.0, fc.max_fps);
    cc.send_frames = fc.send_frames;
    const std::size_t index = world.edge_client_count();
    world.add_edge_client(spot, std::move(cc));
    if (fc.start_sec <= 0.0) {
      world.edge_client(index).start();
    } else {
      world.schedule_at_client(index, sec(fc.start_sec),
                               [](client::EdgeClient& cl) { cl.start(); });
    }
    // Diurnal-wave departure: a full client stop (detach + stream end),
    // clamped clear of the cooldown tail. Idempotent against a teardown
    // stop at the horizon.
    if (fc.stop_sec >= 0.0) {
      const double stop = std::min(fc.stop_sec, quiet_start);
      if (stop > std::max(0.0, fc.start_sec)) {
        world.schedule_at_client(index, sec(stop),
                                 [](client::EdgeClient& cl) { cl.stop(); });
      }
    }
  }

  // ---- fault windows ----
  for (const FuzzFault& ff : spec.faults) {
    const auto a = resolve_endpoint(world, ff.a);
    if (!a) continue;
    const double from = std::max(0.0, ff.from_sec);
    double until = std::min(ff.until_sec, quiet_start);
    // With a crash scheduled, every fault window closes before the crash:
    // the failover must be attributable to the injected crash alone, and
    // the readmission oracle's post-takeover bound assumes a clean network.
    if (crash) until = std::min(until, crash->at_sec);
    if (until <= from) continue;
    if (ff.kind == FaultKind::kIsolate) {
      world.isolate_host(*a, sec(from), sec(until));
      continue;
    }
    const auto b = resolve_endpoint(world, ff.b);
    if (!b || *b == *a) continue;
    switch (ff.kind) {
      case FaultKind::kCut:
        world.cut_link(*a, *b, sec(from), sec(until));
        break;
      case FaultKind::kPartition:
        world.partition(*a, *b, sec(from), sec(until));
        break;
      case FaultKind::kSlow:
        world.slow_link(*a, *b, std::max(1.0, ff.factor), sec(from),
                        sec(until));
        break;
      case FaultKind::kIsolate:
        break;  // handled above
    }
  }
}

void observe_spec_world(const ScenarioSpec& spec,
                        harness::ShardedScenario& world, SpecOutcome& out) {
  const SimTime horizon = sec(spec.horizon_sec);
  EndState& end = out.end;
  manager::CentralManager& owner = world.active_manager();
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    node::EdgeNode& n = world.node(i);
    end.nodes.push_back({n.id(), n.running(), n.attached_ids(),
                         n.executor().utilization(), n.executor().queued(),
                         n.executor().throttled(), owner.overloaded(n.id())});
  }
  for (std::size_t i = 0; i < world.edge_client_count(); ++i) {
    client::EdgeClient& c = world.edge_client(i);
    end.clients.push_back({c.id(), c.current_node(), c.stats()});
  }
  owner.registry().for_each_live(
      "", horizon,
      [&end](const manager::RegistryEntry& entry,
             const std::optional<geo::GeoPoint>&) {
        end.registry_live.push_back(entry.status.node);
      });
  std::sort(end.registry_live.begin(), end.registry_live.end(),
            [](NodeId a, NodeId b) { return a.value < b.value; });
  for (const auto& c : end.clients) {
    for (const auto& n : end.nodes) {
      end.base_rtt.push_back(
          {c.id, n.id, to_ms(world.network_model().base_rtt(c.id, n.id))});
    }
  }

  // Vacuity gate: a spec that promises frames but moved none (or that has
  // no clients at all) is a harness bug masquerading as a green run.
  if (spec.clients.empty() || expects_frames(spec)) {
    try {
      world.require_nonvacuous_run();
    } catch (const std::runtime_error& err) {
      out.violations.push_back({"vacuous-run", err.what(), horizon});
    }
  }

  for (const auto& c : end.clients) {
    out.frames_sent += c.stats.frames_sent;
    out.frames_ok += c.stats.frames_ok;
    out.frames_failed += c.stats.frames_failed;
    out.joins += c.stats.joins;
    out.switches += c.stats.switches;
    out.failovers += c.stats.failovers;
    out.hard_failures += c.stats.hard_failures;
  }
}

void check_oracles(const ScenarioSpec& spec,
                   const std::vector<obs::TraceEvent>& events,
                   const harness::StubTimeouts& timeouts,
                   const std::vector<const Oracle*>* oracles,
                   SpecOutcome& out) {
  const RunView view{spec, events, out.end, timeouts, sec(spec.horizon_sec)};
  for (const Oracle* oracle :
       oracles != nullptr ? *oracles : default_oracles()) {
    oracle->check(view, out.violations);
  }
}

}  // namespace eden::check
