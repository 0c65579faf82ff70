// Structure-of-arrays fleet storage for the harness. PR 3 stored one
// value-typed record per entity (spec + host + link + node + stub glued
// into a struct); at 10^5-10^6 entities the mixed-field records waste
// cache on every column-wise pass (stats aggregation touches only the
// client column, shard partitioning only the host column). The fleets
// below keep each column in its own deque — stable addresses, one
// allocation per block — and grow all columns in lockstep through
// emplace(). Indices are positional and permanent: column i of every
// deque describes entity i.
//
// NodeSpec / ClientSpot / FleetStats / NetKind live here, beside the
// fleets they describe, so describing a fleet does not pull in the whole
// harness (sharded_scenario.h).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "baselines/static_client.h"
#include "client/edge_client.h"
#include "common/types.h"
#include "geo/geopoint.h"
#include "harness/sim_stubs.h"
#include "manager/central_manager.h"
#include "net/network_model.h"
#include "node/edge_node.h"

namespace eden::harness {

struct NodeSpec {
  std::string name;
  geo::GeoPoint position{44.9778, -93.2650};  // Minneapolis by default
  net::AccessTier tier{net::AccessTier::kCable};
  int cores{2};
  double base_frame_ms{30.0};
  bool dedicated{false};
  bool is_cloud{false};
  bool burstable{false};
  double burst_baseline{0.4};
  double initial_credits_core_sec{30.0};
  double contention_alpha{0.04};
  double background_load{0.0};
  double extra_rtt_ms{0.0};  // GeoNetwork only: fixed backbone penalty
  std::string network_tag;
  SimDuration heartbeat_period{sec(1.0)};
  // Application server types deployed on the node; empty = serves all.
  std::vector<std::string> app_types;
  // Attached-user idle eviction TTL (see EdgeNodeConfig::user_idle_ttl).
  SimDuration user_idle_ttl{sec(15.0)};
  // Fuzzer-only seeded fault (see EdgeNodeConfig::chaos_freeze_seq_num).
  bool chaos_freeze_seq_num{false};
};

struct ClientSpot {
  std::string name;
  geo::GeoPoint position{44.9778, -93.2650};
  net::AccessTier tier{net::AccessTier::kCable};
  std::string network_tag;
};

// Fleet-wide aggregate of every edge client's counters and frame
// latencies. Percentiles use the same interpolation as Samples.
struct FleetStats {
  std::size_t clients{0};
  client::ClientStats totals{};
  std::size_t latency_count{0};
  double latency_mean_ms{0};
  double latency_p50_ms{0};
  double latency_p90_ms{0};
  double latency_p99_ms{0};
  double latency_max_ms{0};
};

enum class NetKind { kGeo, kMatrix };

// Edge-node columns: spec, host, manager link, node, RPC stub. The link
// must outlive the node (the node holds a ManagerLink*), and the stub
// references the node — emplace() constructs them in that order.
struct NodeFleet {
  std::size_t emplace(NodeSpec spec, HostId host, net::SimNetwork& fabric,
                      const ManagerRoute& route, sim::Scheduler& scheduler,
                      const node::EdgeNodeConfig& node_config,
                      StubTimeouts timeouts, WireSizes sizes) {
    specs.push_back(std::move(spec));
    hosts.push_back(host);
    links.emplace_back(fabric, route, host, sizes, timeouts);
    nodes.emplace_back(scheduler, node_config, &links.back());
    stubs.emplace_back(fabric, nodes.back(), host, timeouts, sizes);
    return nodes.size() - 1;
  }
  [[nodiscard]] std::size_t size() const { return nodes.size(); }
  [[nodiscard]] bool empty() const { return nodes.empty(); }

  std::deque<NodeSpec> specs;
  std::vector<HostId> hosts;
  std::deque<SimManagerLink> links;
  std::deque<node::EdgeNode> nodes;
  std::deque<SimNodeStub> stubs;
};

// Edge-client columns: spot, host, client.
struct ClientFleet {
  std::size_t emplace(ClientSpot spot, HostId host, sim::Scheduler& scheduler,
                      net::ManagerApi& manager, client::NodeResolver resolver,
                      client::ClientConfig config) {
    spots.push_back(std::move(spot));
    hosts.push_back(host);
    clients.emplace_back(scheduler, manager, std::move(resolver),
                         std::move(config));
    return clients.size() - 1;
  }
  [[nodiscard]] std::size_t size() const { return clients.size(); }
  [[nodiscard]] bool empty() const { return clients.empty(); }

  std::deque<ClientSpot> spots;
  std::vector<HostId> hosts;
  std::deque<client::EdgeClient> clients;
};

// Static-baseline client columns.
struct StaticFleet {
  std::size_t emplace(ClientSpot spot, HostId host, sim::Scheduler& scheduler,
                      client::NodeResolver resolver, workload::AppProfile app) {
    spots.push_back(std::move(spot));
    hosts.push_back(host);
    clients.emplace_back(scheduler, std::move(resolver), host, std::move(app));
    return clients.size() - 1;
  }
  [[nodiscard]] std::size_t size() const { return clients.size(); }
  [[nodiscard]] bool empty() const { return clients.empty(); }

  std::deque<ClientSpot> spots;
  std::vector<HostId> hosts;
  std::deque<baselines::StaticClient> clients;
};

// Incremental FleetStats aggregation; the harness feeds clients in global
// order, so the percentile inputs are identical across shard layouts.
class FleetStatsBuilder {
 public:
  void add(const client::EdgeClient& client);
  [[nodiscard]] FleetStats finish();

 private:
  FleetStats out_{};
  std::vector<double> all_;
  double sum_{0.0};
};

}  // namespace eden::harness
