// Network models: where propagation delay and bandwidth between hosts come
// from. MatrixNetwork holds explicit pairwise values (the tc-shaped
// emulation of the paper); GeoNetwork derives them from geography plus an
// ISP access-tier model (the real-world measurements of Fig 1).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "geo/geopoint.h"

namespace eden::net {

class NetworkModel {
 public:
  virtual ~NetworkModel() = default;

  // Base RTT propagation delay between hosts, before jitter.
  [[nodiscard]] virtual SimDuration base_rtt(HostId a, HostId b) const = 0;

  // Bandwidth of the path from `a` to `b` in Mbps (used for D_trans).
  [[nodiscard]] virtual double bandwidth_mbps(HostId a, HostId b) const = 0;

  // Multiplicative jitter applied to each one-way delay sample;
  // log-normally distributed around 1. sigma=0 disables jitter.
  [[nodiscard]] virtual double jitter_sigma() const { return 0.0; }

  // One random one-way delay sample (half the base RTT, jittered).
  [[nodiscard]] SimDuration sample_owd(HostId a, HostId b, Rng& rng) const;

  // Data transfer delay for `bytes` over the a->b path.
  [[nodiscard]] SimDuration transfer_delay(HostId a, HostId b, double bytes) const;
};

// Explicit pairwise RTT/bandwidth with defaults; symmetric unless both
// directions are set.
class MatrixNetwork final : public NetworkModel {
 public:
  MatrixNetwork(double default_rtt_ms, double default_bw_mbps,
                double jitter_sigma = 0.05);

  void set_rtt_ms(HostId a, HostId b, double rtt_ms);
  void set_bandwidth_mbps(HostId a, HostId b, double mbps);
  // Per-host uplink cap (first-hop bottleneck), applied on the sender side.
  void set_uplink_mbps(HostId host, double mbps);

  [[nodiscard]] SimDuration base_rtt(HostId a, HostId b) const override;
  [[nodiscard]] double bandwidth_mbps(HostId a, HostId b) const override;
  [[nodiscard]] double jitter_sigma() const override { return jitter_sigma_; }

 private:
  using Key = std::uint64_t;
  static Key key(HostId a, HostId b) {
    return (static_cast<Key>(a.value) << 32) | b.value;
  }

  double default_rtt_ms_;
  double default_bw_mbps_;
  double jitter_sigma_;
  std::unordered_map<Key, double> rtt_ms_;
  std::unordered_map<Key, double> bw_mbps_;
  std::unordered_map<HostId, double> uplink_mbps_;
};

// Access-network tiers roughly matching Fig 1's measurement classes.
enum class AccessTier {
  kLan,        // same LAN / direct link
  kFiber,      // good residential fiber
  kCable,      // cable broadband
  kDsl,        // DSL / congested WiFi
  kLocalZone,  // metro edge datacenter (AWS Local Zone-like)
  kCloud,      // regional cloud datacenter
};

// Distance + access-tier latency model: RTT(a,b) = last-mile(a) +
// last-mile(b) + distance / propagation speed + a deterministic per-pair
// "peering" offset in [0, pair_variation_ms] modelling ISP routing
// diversity (the paper: "the number of routing hops and
// forwarding/propagation delays can be diverse"), with log-normal jitter
// on each sample. Residential hosts on the SAME ISP in the same metro are
// well-peered: their last-mile cost collapses to near-LAN levels — the
// paper's same-local-loop volunteers, and what the discovery request's
// network-affiliation hint points the manager at.
//
// Hosts live in a dense vector indexed by HostId::value (host ids are
// small dense integers in every harness, as in HostTable), each record
// carrying its cos(latitude) so a pair's haversine skips two cosines.
// base_rtt/bandwidth_mbps compute each pair directly from the two records
// and write nothing, so concurrent const use is safe; mutations
// (add_host, set_extra_rtt_ms) take effect on the next lookup.
class GeoNetwork final : public NetworkModel {
 public:
  explicit GeoNetwork(double jitter_sigma = 0.08,
                      double pair_variation_ms = 20.0);

  // `isp` groups hosts by access provider; -1 = unknown/none.
  void add_host(HostId host, geo::GeoPoint position, AccessTier tier,
                int isp = -1);
  [[nodiscard]] std::optional<geo::GeoPoint> position(HostId host) const;

  // Extra fixed one-way penalty for a host (e.g. inter-region backbone to
  // the cloud region).
  void set_extra_rtt_ms(HostId host, double ms);

  [[nodiscard]] SimDuration base_rtt(HostId a, HostId b) const override;
  [[nodiscard]] double bandwidth_mbps(HostId a, HostId b) const override;
  [[nodiscard]] double jitter_sigma() const override { return jitter_sigma_; }

  // Per-tier last-mile one-way latency (ms) and uplink bandwidth (Mbps).
  static double tier_latency_ms(AccessTier tier);
  static double tier_uplink_mbps(AccessTier tier);

 private:
  struct HostInfo {
    geo::GeoPoint position;
    double cos_lat{1.0};  // geo::cos_lat(position)
    double extra_rtt_ms{0};
    AccessTier tier{AccessTier::kCable};
    int isp{-1};
    bool present{false};
  };

  // The record of `host`, or null for a host never added.
  [[nodiscard]] const HostInfo* host_info(HostId host) const {
    if (host.value >= hosts_.size() || !hosts_[host.value].present) {
      return nullptr;
    }
    return &hosts_[host.value];
  }

  double jitter_sigma_;
  double pair_variation_ms_;
  std::vector<HostInfo> hosts_;  // indexed by HostId::value
};

}  // namespace eden::net
