// Equivalence suite pinning the geo-indexed discovery pipeline to a
// brute-force linear scan: for any topology the index-backed
// GlobalSelector::select(request, registry) must produce byte-identical
// responses to the vector overload run over every live entry — same
// candidates, same order, bitwise-equal scores. The index is allowed to
// visit a superset of the in-range entries, never to change the answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "common/rng.h"
#include "geo/geohash.h"
#include "harness/experiments.h"
#include "manager/central_manager.h"

namespace eden::manager {
namespace {

constexpr geo::GeoPoint kMetroCenter{44.9778, -93.2650};  // Minneapolis

// The brute-force reference's input: every live entry, copied out.
std::vector<RegistryEntry> live_entries(Registry& registry, SimTime now) {
  std::vector<RegistryEntry> entries;
  registry.for_each_live("", now,
                         [&](const RegistryEntry& entry,
                             const std::optional<geo::GeoPoint>&) {
                           entries.push_back(entry);
                         });
  return entries;
}

void expect_identical(const net::DiscoveryResponse& linear,
                      const net::DiscoveryResponse& indexed) {
  ASSERT_EQ(linear.candidates.size(), indexed.candidates.size());
  for (std::size_t i = 0; i < linear.candidates.size(); ++i) {
    EXPECT_EQ(linear.candidates[i].node, indexed.candidates[i].node) << i;
    EXPECT_EQ(linear.candidates[i].geohash, indexed.candidates[i].geohash) << i;
    EXPECT_EQ(linear.candidates[i].endpoint, indexed.candidates[i].endpoint)
        << i;
    // Bitwise double equality: the indexed path must run the exact same
    // arithmetic, not a numerically-close variant.
    EXPECT_EQ(linear.candidates[i].score, indexed.candidates[i].score) << i;
  }
}

// Geohash zoo: ~10% no location, ~5% undecodable (valid prefix + invalid
// character, exercising the fallback bucket's textual prefix matching),
// the rest valid at random precisions 1..8.
std::string random_hash(Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.10) return {};
  const auto point =
      harness::random_point_near(kMetroCenter, rng.uniform(1.0, 400.0), rng);
  const int precision = static_cast<int>(rng.uniform_int(1, 8));
  std::string hash = geo::geohash_encode(point, precision);
  if (roll < 0.15) hash += 'a';  // 'a' is not in the geohash alphabet
  return hash;
}

net::NodeStatus random_status(std::uint32_t id, Rng& rng) {
  net::NodeStatus status;
  status.node = NodeId{id};
  status.geohash = random_hash(rng);
  status.cores = static_cast<int>(rng.uniform_int(1, 32));
  status.base_frame_ms = rng.uniform(10.0, 80.0);
  status.utilization = rng.uniform(0.0, 1.0);
  status.attached_users = static_cast<int>(rng.uniform_int(0, 20));
  status.dedicated = rng.uniform() < 0.3;
  status.is_cloud = rng.uniform() < 0.1;
  status.network_tag = (rng.uniform() < 0.5) ? "isp-a" : "isp-b";
  status.endpoint = "host-" + std::to_string(id) + ":9000";
  if (rng.uniform() < 0.3) status.app_types = {"ar"};
  if (rng.uniform() < 0.1) status.app_types.push_back("render");
  return status;
}

net::DiscoveryRequest random_request(std::uint32_t client, Rng& rng) {
  net::DiscoveryRequest request;
  request.client = ClientId{client};
  request.geohash = random_hash(rng);
  request.network_tag = (rng.uniform() < 0.5) ? "isp-a" : "isp-b";
  request.top_n = static_cast<int>(rng.uniform_int(1, 8));
  if (rng.uniform() < 0.25) request.app_type = "ar";
  return request;
}

TEST(SelectionEquivalence, RandomizedTopologies) {
  Rng rng(20260805);
  for (int trial = 0; trial < 40; ++trial) {
    Rng trial_rng = rng.fork("trial-" + std::to_string(trial));
    Registry registry(sec(3.0));
    const SimTime now = sec(100.0);
    const auto node_count = trial_rng.uniform_int(1, 120);
    for (std::int64_t i = 0; i < node_count; ++i) {
      // Heartbeats staggered across [now - 3.2s, now]: some entries sit
      // right at the TTL boundary, so expiry races are part of the
      // equivalence contract, not a separate case.
      const SimTime heartbeat =
          now - static_cast<SimTime>(trial_rng.uniform(0.0, 3.2e6));
      registry.upsert(
          random_status(static_cast<std::uint32_t>(1000 + i), trial_rng),
          heartbeat);
    }
    GlobalPolicy policy;
    if (trial % 3 == 0) policy.w_reliability = 0.5;
    if (trial % 4 == 0) policy.initial_prefix = 5;
    const GlobalSelector selector(policy);
    for (std::uint32_t q = 0; q < 25; ++q) {
      const auto request = random_request(q, trial_rng);
      const auto linear =
          selector.select(request, live_entries(registry, now), now);
      const auto indexed = selector.select(request, registry, now);
      expect_identical(linear, indexed);
    }
  }
}

TEST(SelectionEquivalence, EmptyRegistry) {
  Registry registry(sec(3.0));
  const GlobalSelector selector;
  net::DiscoveryRequest request;
  request.client = ClientId{1};
  request.geohash = "9zvxvf";
  const auto linear = selector.select(request, live_entries(registry, 0), 0);
  const auto indexed = selector.select(request, registry, 0);
  expect_identical(linear, indexed);
  EXPECT_TRUE(indexed.candidates.empty());
}

TEST(SelectionEquivalence, AllNodesWithoutUsableGeohash) {
  // Every node in the fallback bucket; users decodable and not.
  Rng rng(7);
  Registry registry(sec(3.0));
  for (std::uint32_t i = 0; i < 30; ++i) {
    auto status = random_status(i, rng);
    status.geohash = (i % 2 == 0) ? std::string{} : "9zvxaa";  // undecodable
    registry.upsert(status, sec(1));
  }
  const GlobalSelector selector;
  for (const char* user_hash : {"9zvxvf", "", "9zvxaa", "dp3wnh"}) {
    net::DiscoveryRequest request;
    request.client = ClientId{1};
    request.geohash = user_hash;
    request.top_n = 5;
    expect_identical(
        selector.select(request, live_entries(registry, sec(1)), sec(1)),
        selector.select(request, registry, sec(1)));
  }
}

TEST(SelectionEquivalence, RealWorldScenarioAfterWarmup) {
  // The Table II deployment after 3 s of heartbeats: the live registry the
  // manager actually serves from must answer identically on both paths.
  auto setup = harness::make_realworld_setup(/*seed=*/99);
  auto& scenario = *setup.scenario;
  harness::start_all_nodes(scenario);
  scenario.run_until(sec(3.0));
  auto& manager = scenario.central_manager();
  const SimTime now = scenario.scheduler().now();
  const auto& selector = manager.selector();
  std::uint32_t next_client = 90000;
  for (const auto& spot : setup.user_spots) {
    net::DiscoveryRequest request;
    request.client = ClientId{next_client++};
    request.geohash = scenario.geohash_of(spot.position);
    request.network_tag = spot.network_tag;
    request.top_n = 3;
    const auto linear = selector.select(
        request, live_entries(manager.registry(), now), now);
    const auto indexed = selector.select(request, manager.registry(), now);
    expect_identical(linear, indexed);
    EXPECT_FALSE(indexed.candidates.empty());
  }
}

// ---- search-radius boundaries ----
//
// The registry prunes entries with a trig-free chord test before the
// selector's exact haversine_km <= radius check. These cases put entries
// on the widening radii themselves, where a prune without enough margin
// would silently drop an in-range node.

constexpr double kWideningRadiiKm[] = {10.0, 25.0, 60.0, 150.0};
constexpr double kBearingsDeg[] = {0, 45, 90, 135, 180, 225, 270, 315};

double radians(double deg) { return deg * std::numbers::pi / 180.0; }
double degrees(double rad) { return rad * 180.0 / std::numbers::pi; }

// Back into [-180, 180); exact (Sterbenz) for the one turn it ever removes.
double wrap_lon(double lon) {
  if (lon >= 180.0) return lon - 360.0;
  if (lon < -180.0) return lon + 360.0;
  return lon;
}

// The point `km` along the great circle leaving `from` at `bearing_deg`.
geo::GeoPoint destination(const geo::GeoPoint& from, double bearing_deg,
                          double km) {
  const double d = km / geo::kEarthRadiusKm;
  const double lat1 = radians(from.lat);
  const double b = radians(bearing_deg);
  const double lat2 = std::asin(std::sin(lat1) * std::cos(d) +
                                std::cos(lat1) * std::sin(d) * std::cos(b));
  const double dlon =
      std::atan2(std::sin(b) * std::sin(d) * std::cos(lat1),
                 std::cos(d) - std::sin(lat1) * std::sin(lat2));
  return {degrees(lat2), wrap_lon(from.lon + degrees(dlon))};
}

// A point on the edge of the disc of `radius_km` around `from`, toward
// `bearing_deg`: the last point haversine_km still puts inside, found by
// bisecting in coordinates (longitude unwrapped across the antimeridian)
// until the inside and outside points are adjacent doubles.
geo::GeoPoint boundary_point(const geo::GeoPoint& from, double bearing_deg,
                             double radius_km) {
  geo::GeoPoint in = from;
  geo::GeoPoint out = destination(from, bearing_deg, 2.0 * radius_km);
  out.lon = in.lon + wrap_lon(out.lon - in.lon);
  for (;;) {
    const geo::GeoPoint mid{in.lat + (out.lat - in.lat) / 2.0,
                            in.lon + (out.lon - in.lon) / 2.0};
    if ((mid.lat == in.lat || mid.lat == out.lat) &&
        (mid.lon == in.lon || mid.lon == out.lon)) {
      break;
    }
    const double km = geo::haversine_km(from, {mid.lat, wrap_lon(mid.lon)});
    (km <= radius_km ? in : out) = mid;
  }
  return {in.lat, wrap_lon(in.lon)};
}

// Cell centers of 12-character geohashes (the finest, a few cm across).
geo::GeoPoint cell_center(const geo::GeoPoint& p) {
  return *geo::geohash_decode_center(geo::geohash_encode(p, 12));
}

// Where the boundary cases are centered: the metro, both poles, both sides
// of the antimeridian and the equator / prime-meridian corner.
const std::vector<geo::GeoPoint>& boundary_centers() {
  static const std::vector<geo::GeoPoint> centers = {
      cell_center(kMetroCenter),
      cell_center({89.99, 45.0}),
      cell_center({-89.99, -120.0}),
      cell_center({20.0, 179.9995}),
      cell_center({-35.0, -179.9995}),
      cell_center({0.0001, 0.0001}),
  };
  return centers;
}

std::vector<NodeId> candidates_of(Registry& registry,
                                  const geo::GeoPoint& center, double radius_km,
                                  SimTime now) {
  std::vector<NodeId> visited;
  registry.for_each_candidate(
      center, radius_km, now,
      [&](const RegistryEntry& entry, const std::optional<geo::GeoPoint>&,
          double) { visited.push_back(entry.status.node); });
  return visited;
}

bool contains(const std::vector<NodeId>& ids, NodeId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

TEST(SelectionEquivalence, ChordPrefilterKeepsEntriesUlpsInsideRadius) {
  // One node per boundary center; queries sit on each widening radius
  // around it, then step the query's latitude and longitude a few ulps
  // either way (ulps of 100 degrees, ~1.6 nm, so coordinates near zero
  // move as far as any other). Any query that haversine_km puts within the
  // radius must get the node back from for_each_candidate.
  const double step = std::nextafter(100.0, 200.0) - 100.0;
  Registry registry(sec(3.0));
  std::vector<geo::GeoPoint> nodes = boundary_centers();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    net::NodeStatus status;
    status.node = NodeId{static_cast<std::uint32_t>(i + 1)};
    status.geohash = geo::geohash_encode(nodes[i], 12);
    registry.upsert(status, 0);
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId id{static_cast<std::uint32_t>(i + 1)};
    for (const double radius : kWideningRadiiKm) {
      for (const double bearing : kBearingsDeg) {
        const geo::GeoPoint edge = boundary_point(nodes[i], bearing, radius);
        int inside = 0;
        int outside = 0;
        for (int a = -4; a <= 4; ++a) {
          for (int b = -4; b <= 4; ++b) {
            const geo::GeoPoint query{edge.lat + a * step, edge.lon + b * step};
            const double km = geo::haversine_km(query, nodes[i]);
            if (km > radius) {
              ++outside;
              continue;
            }
            ++inside;
            EXPECT_TRUE(contains(candidates_of(registry, query, radius, 0), id))
                << "node " << i << " radius " << radius << " bearing "
                << bearing << " km " << km;
          }
        }
        // The ulp grid really straddles the boundary.
        EXPECT_GT(inside, 0) << i << " " << radius << " " << bearing;
        EXPECT_GT(outside, 0) << i << " " << radius << " " << bearing;
      }
    }
  }
  // The last-resort step visits everything, from anywhere.
  for (const geo::GeoPoint& query : nodes) {
    EXPECT_EQ(candidates_of(registry, query, 1e9, 0).size(), nodes.size());
  }
}

TEST(SelectionEquivalence, WideningRadiusBoundaries) {
  // Around each boundary center, nodes in the 12-character cells nearest
  // each widening radius — the closest one inside and the closest one
  // outside, along eight bearings — plus fallback-bucket entries. Every
  // top_n from 1 to 40 stops widening at a different radius (40 needs the
  // 1e9 km last resort), and both pipelines must agree on each.
  Rng rng(1414);
  Registry registry(sec(3.0));
  std::uint32_t next_id = 1;
  constexpr double kLatStep = 180.0 / (1 << 30);  // 12-char cell height
  constexpr double kLonStep = 360.0 / (1 << 30);  // 12-char cell width
  for (const geo::GeoPoint& user : boundary_centers()) {
    for (const double radius : kWideningRadiiKm) {
      for (const double bearing : kBearingsDeg) {
        const geo::GeoPoint edge = boundary_point(user, bearing, radius);
        std::string best_in;
        std::string best_out;
        double in_km = -1.0;
        double out_km = 1e9;
        for (int a = -2; a <= 2; ++a) {
          for (int b = -2; b <= 2; ++b) {
            const std::string hash = geo::geohash_encode(
                {edge.lat + a * kLatStep, wrap_lon(edge.lon + b * kLonStep)},
                12);
            const double km = geo::haversine_km(
                user, *geo::geohash_decode_center(hash));
            if (km <= radius && km > in_km) {
              in_km = km;
              best_in = hash;
            } else if (km > radius && km < out_km) {
              out_km = km;
              best_out = hash;
            }
          }
        }
        ASSERT_FALSE(best_in.empty());
        ASSERT_FALSE(best_out.empty());
        for (const std::string& hash : {best_in, best_out}) {
          auto status = random_status(next_id++, rng);
          status.geohash = hash;
          status.app_types.clear();
          registry.upsert(status, sec(1));
        }
      }
    }
  }
  for (const char* hash : {"", "", "9zvxa", "bpbpa", "0000o"}) {
    auto status = random_status(next_id++, rng);
    status.geohash = hash;
    status.app_types.clear();
    registry.upsert(status, sec(1));
  }
  const GlobalSelector selector;
  std::uint32_t client = 1;
  for (const geo::GeoPoint& user : boundary_centers()) {
    for (int top_n = 1; top_n <= 40; ++top_n) {
      net::DiscoveryRequest request;
      request.client = ClientId{client++};
      request.geohash = geo::geohash_encode(user, 12);
      request.network_tag = (top_n % 2 == 0) ? "isp-a" : "isp-b";
      request.top_n = top_n;
      const auto indexed = selector.select(request, registry, sec(1));
      expect_identical(
          selector.select(request, live_entries(registry, sec(1)), sec(1)),
          indexed);
      EXPECT_EQ(indexed.candidates.size(), static_cast<std::size_t>(top_n));
    }
  }
}

TEST(SelectionEquivalence, CandidatesAreTheInRangeEntriesOnMetroLayout) {
  // Timing-free guard of the index's cost: on a 1000-node metro layout a
  // 10 km candidate query visits the entries haversine_km puts within
  // 10 km plus the fallback bucket, nothing else. (The prefilter's margin
  // reaches ~2 mm past 10 km; no entry of this layout falls inside it.)
  Rng rng(2024);
  Registry registry(sec(3.0));
  std::size_t fallback = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    net::NodeStatus status;
    status.node = NodeId{1000 + i};
    const auto position = harness::random_point_near(kMetroCenter, 45.0, rng);
    if (i % 64 == 63) {
      ++fallback;  // volunteer without location data
    } else {
      status.geohash = geo::geohash_encode(position, 6);
    }
    registry.upsert(status, 0);
  }
  std::vector<std::pair<NodeId, std::optional<geo::GeoPoint>>> all;
  registry.for_each_live("", 0,
                         [&](const RegistryEntry& entry,
                             const std::optional<geo::GeoPoint>& center) {
                           all.emplace_back(entry.status.node, center);
                         });
  ASSERT_EQ(all.size(), 1000u);
  std::size_t visited_total = 0;
  for (int q = 0; q < 200; ++q) {
    const geo::GeoPoint query = *geo::geohash_decode_center(geo::geohash_encode(
        harness::random_point_near(kMetroCenter, 40.0, rng), 6));
    const std::vector<NodeId> visited = candidates_of(registry, query, 10.0, 0);
    std::size_t expected = fallback;
    for (const auto& [id, center] : all) {
      const bool is_visited = contains(visited, id);
      if (!center) {
        EXPECT_TRUE(is_visited) << "fallback entry " << id.value;
        continue;
      }
      const double km = geo::haversine_km(query, *center);
      if (km <= 10.0) {
        ++expected;
        EXPECT_TRUE(is_visited) << id.value << " at " << km << " km";
      }
    }
    // Superset plus equal size: the visited set is exactly the expected one.
    EXPECT_EQ(visited.size(), expected) << "query " << q;
    visited_total += visited.size();
  }
  // The bucket-only prune visited several hundred entries per query here.
  EXPECT_LT(visited_total / 200, 100u);
}

}  // namespace
}  // namespace eden::manager
