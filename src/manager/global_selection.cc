#include "manager/global_selection.h"

#include <algorithm>
#include <iterator>

#include "geo/geohash.h"

namespace eden::manager {

namespace {

// Widening search radii (km): metro out to "anything, anywhere".
constexpr double kRadiiKm[] = {10.0, 25.0, 60.0, 150.0, 1e9};

// A node qualifies when it hosts the requested app type (an empty list
// means it serves everything, the paper's single-app deployments).
bool serves_app(const net::DiscoveryRequest& request,
                const net::NodeStatus& status) {
  if (request.app_type.empty() || status.app_types.empty()) return true;
  for (const auto& app : status.app_types) {
    if (app == request.app_type) return true;
  }
  return false;
}

}  // namespace

double GlobalSelector::score_with_centers(
    const net::DiscoveryRequest& request, const net::NodeStatus& node,
    double uptime_sec, const std::optional<geo::GeoPoint>& user_center,
    const std::optional<geo::GeoPoint>& node_center) const {
  // Proximity from the geohash cell centers: smooth distance decay (~full
  // credit within a few km, fading over tens of km). Falls back to prefix
  // matching when a hash does not decode.
  double proximity = 0.0;
  if (user_center && node_center) {
    const double km = geo::haversine_km(*user_center, *node_center);
    proximity = 1.0 / (1.0 + km / 15.0);
  } else if (!request.geohash.empty()) {
    const int shared = geo::common_prefix_len(request.geohash, node.geohash);
    proximity = static_cast<double>(shared) /
                static_cast<double>(request.geohash.size());
  }
  return score_with_proximity(request, node, uptime_sec, proximity);
}

double GlobalSelector::score_with_proximity(const net::DiscoveryRequest& request,
                                            const net::NodeStatus& node,
                                            double uptime_sec,
                                            double proximity) const {
  const double availability = std::clamp(1.0 - node.utilization, 0.0, 1.0);
  // cores per millisecond of frame time, squashed to ~[0, 1].
  const double raw_capacity =
      static_cast<double>(node.cores) / std::max(1.0, node.base_frame_ms);
  const double capacity = raw_capacity / (raw_capacity + 0.1);
  const double affinity = (!request.network_tag.empty() &&
                           request.network_tag == node.network_tag)
                              ? 1.0
                              : 0.0;
  const double load = static_cast<double>(node.attached_users) /
                      std::max(1, node.cores);

  double s = policy_.w_proximity * proximity +
             policy_.w_availability * availability +
             policy_.w_capacity * capacity + policy_.w_affinity * affinity -
             policy_.w_load * load;
  if (policy_.w_reliability != 0.0) {
    const double reliability =
        uptime_sec / (uptime_sec + std::max(1e-9, policy_.reliability_halflife_sec));
    s += policy_.w_reliability * reliability;
  }
  if (node.is_cloud) s -= policy_.cloud_penalty;
  return s;
}

double GlobalSelector::score(const net::DiscoveryRequest& request,
                             const net::NodeStatus& node,
                             double uptime_sec) const {
  return score_with_centers(request, node, uptime_sec,
                            geo::geohash_decode_center(request.geohash),
                            geo::geohash_decode_center(node.geohash));
}

void GlobalSelector::rank(const net::DiscoveryRequest& request,
                          std::vector<Candidate>& qualified, SimTime now,
                          bool shed_to_cloud,
                          net::DiscoveryResponse& out) const {
  const int top_n = std::max(1, request.top_n);
  auto& ranked = rank_scratch_;
  ranked.clear();
  ranked.reserve(qualified.size());
  for (const Candidate& candidate : qualified) {
    const double uptime_sec =
        std::max<double>(0.0, to_sec(now - candidate.entry->registered_at));
    // Reuse the distance the in-range filter already paid for; a negative
    // user_km marks the prefix-matching fallback (either center missing).
    // Same expressions as score_with_centers, so scores are bit-identical.
    double proximity = 0.0;
    if (candidate.user_km >= 0.0) {
      proximity = 1.0 / (1.0 + candidate.user_km / 15.0);
    } else if (!request.geohash.empty()) {
      const int shared = geo::common_prefix_len(request.geohash,
                                                candidate.entry->status.geohash);
      proximity = static_cast<double>(shared) /
                  static_cast<double>(request.geohash.size());
    }
    double s = score_with_proximity(request, candidate.entry->status,
                                    uptime_sec, proximity);
    // Load-feedback steering: push overloaded nodes down, and when the
    // whole cell is hot, give cloud fallbacks their penalty back so the
    // shed actually has somewhere to land. Both branches are dead (and the
    // scores bit-identical to the pre-feedback selector) unless the
    // manager's overload policy set the flags.
    if (candidate.entry->overloaded) s -= policy_.overload_penalty;
    if (shed_to_cloud && candidate.entry->status.is_cloud) {
      s += policy_.cloud_penalty;
    }
    ranked.emplace_back(s, &candidate.entry->status);
  }
  // Bounded top-n selection: (score desc, node id asc) is a strict total
  // order over distinct nodes, so the first top_n elements are exactly what
  // a full sort would produce.
  const auto keep = std::min<std::size_t>(static_cast<std::size_t>(top_n),
                                          ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second->node < b.second->node;
                    });

  out.candidates.clear();
  out.candidates.reserve(keep);
  for (std::size_t i = 0; i < keep; ++i) {
    const auto& [s, status] = ranked[i];
    out.candidates.push_back(
        net::CandidateInfo{status->node, status->geohash, s, status->endpoint});
  }
}

net::DiscoveryResponse GlobalSelector::select(
    const net::DiscoveryRequest& request,
    const std::vector<RegistryEntry>& nodes, SimTime now,
    bool shed_to_cloud) const {
  const int top_n = std::max(1, request.top_n);
  const auto user_center = geo::geohash_decode_center(request.geohash);

  // Decode every node hash once; the widening loop below rescans the list
  // up to five times and must see identical centers each pass.
  std::vector<std::optional<geo::GeoPoint>> centers;
  centers.reserve(nodes.size());
  for (const auto& entry : nodes) {
    centers.push_back(geo::geohash_decode_center(entry.status.geohash));
  }

  // Geo-proximity filter with widening: accept nodes within a search
  // radius, widening the radius until enough qualify (remote nodes remain
  // reachable as a last resort). Distances come from the geohash cell
  // centers — a raw prefix filter would drop close nodes that fall across
  // a cell boundary; prefix matching is only the fallback for hashes that
  // do not decode, needing one fewer shared character per widening step.
  auto& qualified = qualified_scratch_;
  for (std::size_t ri = 0; ri < std::size(kRadiiKm); ++ri) {
    const double radius = kRadiiKm[ri];
    const int needed =
        std::max(0, policy_.initial_prefix - static_cast<int>(ri));
    qualified.clear();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& entry = nodes[i];
      if (!serves_app(request, entry.status)) continue;
      bool in_range = false;
      double user_km = -1.0;
      if (user_center && centers[i]) {
        user_km = geo::haversine_km(*user_center, *centers[i]);
        in_range = user_km <= radius;
      } else {
        in_range = geo::common_prefix_len(request.geohash,
                                          entry.status.geohash) >= needed;
      }
      if (in_range) qualified.push_back(Candidate{&entry, centers[i], user_km});
    }
    // Widening stops once enough *spare* (non-overloaded) candidates
    // qualify: a saturated metro cell must not satisfy the quota and hide
    // the healthy nodes one radius step further out. With no overloaded
    // entries (feedback off) every candidate is spare — loop unchanged.
    std::size_t spare = 0;
    for (const Candidate& c : qualified) {
      if (!c.entry->overloaded) ++spare;
    }
    if (static_cast<double>(spare) >= policy_.widen_factor * top_n) {
      break;
    }
  }
  net::DiscoveryResponse response;
  rank(request, qualified, now, shed_to_cloud, response);
  return response;
}

net::DiscoveryResponse GlobalSelector::select(
    const net::DiscoveryRequest& request, Registry& registry,
    SimTime now, bool shed_to_cloud) const {
  net::DiscoveryResponse response;
  select_into(request, registry, response, now, shed_to_cloud);
  return response;
}

void GlobalSelector::select_into(const net::DiscoveryRequest& request,
                                 Registry& registry,
                                 net::DiscoveryResponse& out, SimTime now,
                                 bool shed_to_cloud) const {
  const int top_n = std::max(1, request.top_n);
  const auto user_center = geo::geohash_decode_center(request.geohash);

  // Same widening filter as the linear overload, but each radius step only
  // visits registry entries that can lie in the search disc (plus the
  // no-geohash fallback bucket); the exact per-node check is unchanged, so
  // the qualified set — and therefore the response — is byte-identical.
  // The cached-cosine haversine is bitwise-equal to the plain one.
  const double user_cos_lat = user_center ? geo::cos_lat(*user_center) : 0.0;
  auto& qualified = qualified_scratch_;
  for (std::size_t ri = 0; ri < std::size(kRadiiKm); ++ri) {
    const double radius = kRadiiKm[ri];
    const int needed =
        std::max(0, policy_.initial_prefix - static_cast<int>(ri));
    qualified.clear();
    if (user_center) {
      registry.for_each_candidate(
          *user_center, radius, now,
          [&](const RegistryEntry& entry,
              const std::optional<geo::GeoPoint>& center,
              double center_cos_lat) {
            if (!serves_app(request, entry.status)) return;
            bool in_range = false;
            double user_km = -1.0;
            if (center) {
              user_km = geo::haversine_km(*user_center, *center, user_cos_lat,
                                          center_cos_lat);
              in_range = user_km <= radius;
            } else {
              in_range = geo::common_prefix_len(request.geohash,
                                                entry.status.geohash) >= needed;
            }
            if (in_range) {
              qualified.push_back(Candidate{&entry, center, user_km});
            }
          });
    } else {
      // Undecodable request hash: every node falls back to prefix matching
      // against the first `needed` characters. Nothing can share more
      // characters than the request has, so deeper prefixes match nobody.
      if (needed > static_cast<int>(request.geohash.size())) continue;
      registry.for_each_live(
          std::string_view(request.geohash).substr(0, static_cast<std::size_t>(needed)),
          now,
          [&](const RegistryEntry& entry,
              const std::optional<geo::GeoPoint>& center) {
            if (!serves_app(request, entry.status)) return;
            qualified.push_back(Candidate{&entry, center});
          });
    }
    // Same spare-candidate widening rule as the linear overload.
    std::size_t spare = 0;
    for (const Candidate& c : qualified) {
      if (!c.entry->overloaded) ++spare;
    }
    if (static_cast<double>(spare) >= policy_.widen_factor * top_n) {
      break;
    }
  }
  rank(request, qualified, now, shed_to_cloud, out);
}

}  // namespace eden::manager
