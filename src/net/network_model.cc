#include "net/network_model.h"

#include <algorithm>
#include <cmath>

namespace eden::net {

SimDuration NetworkModel::sample_owd(HostId a, HostId b, Rng& rng) const {
  const double owd_us = static_cast<double>(base_rtt(a, b)) / 2.0;
  const double sigma = jitter_sigma();
  if (sigma <= 0) return static_cast<SimDuration>(owd_us);
  // Log-normal multiplicative jitter with median 1 — delays can spike but
  // never go negative.
  const double factor = rng.lognormal(0.0, sigma);
  return static_cast<SimDuration>(owd_us * factor);
}

SimDuration NetworkModel::transfer_delay(HostId a, HostId b, double bytes) const {
  if (bytes <= 0) return 0;
  const double mbps = std::max(0.01, bandwidth_mbps(a, b));
  const double seconds = bytes * 8.0 / (mbps * 1e6);
  return sec(seconds);
}

MatrixNetwork::MatrixNetwork(double default_rtt_ms, double default_bw_mbps,
                             double jitter_sigma)
    : default_rtt_ms_(default_rtt_ms),
      default_bw_mbps_(default_bw_mbps),
      jitter_sigma_(jitter_sigma) {}

void MatrixNetwork::set_rtt_ms(HostId a, HostId b, double rtt_ms) {
  rtt_ms_[key(a, b)] = rtt_ms;
  rtt_ms_[key(b, a)] = rtt_ms;
}

void MatrixNetwork::set_bandwidth_mbps(HostId a, HostId b, double mbps) {
  bw_mbps_[key(a, b)] = mbps;
  bw_mbps_[key(b, a)] = mbps;
}

void MatrixNetwork::set_uplink_mbps(HostId host, double mbps) {
  uplink_mbps_[host] = mbps;
}

SimDuration MatrixNetwork::base_rtt(HostId a, HostId b) const {
  if (a == b) return msec(0.05);  // loopback
  const auto it = rtt_ms_.find(key(a, b));
  return msec(it != rtt_ms_.end() ? it->second : default_rtt_ms_);
}

double MatrixNetwork::bandwidth_mbps(HostId a, HostId b) const {
  double bw = default_bw_mbps_;
  if (const auto it = bw_mbps_.find(key(a, b)); it != bw_mbps_.end()) {
    bw = it->second;
  }
  if (const auto it = uplink_mbps_.find(a); it != uplink_mbps_.end()) {
    bw = std::min(bw, it->second);
  }
  return bw;
}

namespace {
// One-way last-mile latency in ms per access tier, calibrated so that the
// composed RTT classes line up with the paper's Fig 1 measurements:
// volunteer edges ~5-20 ms, Local Zone ~12-28 ms, us-east-2 cloud ~70-85 ms
// from home WiFi in the same metro area.
struct TierParams {
  double latency_ms;
  double uplink_mbps;
};

TierParams tier_params(AccessTier tier) {
  switch (tier) {
    case AccessTier::kLan: return {0.3, 900.0};
    case AccessTier::kFiber: return {2.5, 300.0};
    case AccessTier::kCable: return {5.0, 35.0};
    case AccessTier::kDsl: return {9.0, 12.0};
    case AccessTier::kLocalZone: return {7.5, 500.0};
    case AccessTier::kCloud: return {6.0, 1000.0};
  }
  return {5.0, 35.0};
}

// Distance-dependent RTT: ~0.06 ms/km inside a metro (routing inflation
// dominates), dropping to ~0.03 ms/km on long-haul backbone paths with a
// fixed hand-off cost. Calibrated so MSP -> us-east-2 lands near the
// paper's ~75 ms measurements.
double distance_rtt_ms(double km) {
  constexpr double kMetroMsPerKm = 0.06;
  constexpr double kBackboneMsPerKm = 0.03;
  constexpr double kMetroLimitKm = 100.0;
  if (km <= kMetroLimitKm) return km * kMetroMsPerKm;
  return kMetroLimitKm * kMetroMsPerKm + 3.0 +
         (km - kMetroLimitKm) * kBackboneMsPerKm;
}
}  // namespace

double GeoNetwork::tier_latency_ms(AccessTier tier) {
  return tier_params(tier).latency_ms;
}

double GeoNetwork::tier_uplink_mbps(AccessTier tier) {
  return tier_params(tier).uplink_mbps;
}

GeoNetwork::GeoNetwork(double jitter_sigma, double pair_variation_ms)
    : jitter_sigma_(jitter_sigma), pair_variation_ms_(pair_variation_ms) {}

void GeoNetwork::add_host(HostId host, geo::GeoPoint position, AccessTier tier,
                          int isp) {
  if (!host.valid()) return;  // the wildcard id is never a real host
  if (host.value >= hosts_.size()) hosts_.resize(host.value + 1);
  hosts_[host.value] =
      HostInfo{position, geo::cos_lat(position), 0.0, tier, isp, true};
}

std::optional<geo::GeoPoint> GeoNetwork::position(HostId host) const {
  const HostInfo* info = host_info(host);
  if (info == nullptr) return std::nullopt;
  return info->position;
}

void GeoNetwork::set_extra_rtt_ms(HostId host, double ms) {
  if (host_info(host) != nullptr) hosts_[host.value].extra_rtt_ms = ms;
}

SimDuration GeoNetwork::base_rtt(HostId a, HostId b) const {
  if (a == b) return msec(0.05);  // loopback
  const HostInfo* ia = host_info(a);
  const HostInfo* ib = host_info(b);
  if (ia == nullptr || ib == nullptr) return msec(50.0);
  const double km =
      geo::haversine_km(ia->position, ib->position, ia->cos_lat, ib->cos_lat);
  // RTT = both last-miles traversed twice + distance propagation + fixed
  // extras (e.g. backbone to the cloud region).
  // Deterministic per-pair peering: the same two hosts always see the same
  // routing cost, but different pairs differ — this is what client-side
  // probing discovers and server-centric policies cannot. Residential
  // pairs in the same metro are sometimes "well-peered" (same local ISP
  // loop): their last-mile cost collapses to near-LAN levels, the paper's
  // explanation for volunteers beating the Local Zone.
  const std::uint64_t lo = std::min(a.value, b.value);
  const std::uint64_t hi = std::max(a.value, b.value);
  std::uint64_t h = (lo << 32) | hi;  // full murmur3 fmix64
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;

  auto residential = [](AccessTier tier) {
    return tier == AccessTier::kLan || tier == AccessTier::kFiber ||
           tier == AccessTier::kCable || tier == AccessTier::kDsl;
  };
  const bool well_peered = residential(ia->tier) && residential(ib->tier) &&
                           km < 30.0 && ia->isp >= 0 && ia->isp == ib->isp;

  double last_mile = tier_params(ia->tier).latency_ms * 2.0 +
                     tier_params(ib->tier).latency_ms * 2.0;
  double peering = 0.0;
  if (well_peered) {
    last_mile *= 0.25;
  } else {
    peering = pair_variation_ms_ * u;
    // Paths into engineered infrastructure (Local Zone / cloud) vary less
    // than residential peering does.
    if (!residential(ia->tier) || !residential(ib->tier)) {
      peering *= 0.4;
    }
  }

  const double rtt_ms = last_mile + distance_rtt_ms(km) + peering +
                        ia->extra_rtt_ms + ib->extra_rtt_ms;
  return msec(rtt_ms);
}

double GeoNetwork::bandwidth_mbps(HostId a, HostId b) const {
  // The path is as fast as the slower of the two access uplinks.
  const HostInfo* ia = host_info(a);
  const HostInfo* ib = host_info(b);
  if (ia == nullptr || ib == nullptr) return 10.0;
  return std::min(tier_params(ia->tier).uplink_mbps,
                  tier_params(ib->tier).uplink_mbps);
}

}  // namespace eden::net
