#include "manager/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace eden::manager {

namespace {

// The sphere of geo::haversine_km, so the bucket bound below is valid for
// the same metric.
constexpr double kKmPerDegree = geo::kEarthRadiusKm * std::numbers::pi / 180.0;

// Upper bound on the great-circle distance from the cell center to any
// point of the cell: meridian leg (latitude half-span) plus a parallel leg
// at the latitude where the cell is widest. Padded for fp slop; only used
// for conservative pruning, never for the exact in-range check.
double cell_radius_bound_km(const geo::GeoBox& box) {
  const double lat_half = (box.max_lat - box.min_lat) / 2.0;
  const double lon_half = (box.max_lon - box.min_lon) / 2.0;
  double max_cos = 1.0;
  if (box.min_lat > 0.0 || box.max_lat < 0.0) {
    const double edge = std::min(std::abs(box.min_lat), std::abs(box.max_lat));
    max_cos = std::cos(edge * std::numbers::pi / 180.0);
  }
  return kKmPerDegree * (lat_half + lon_half * max_cos) + 1e-6;
}

// Squared chord of a spherical cap whose half angle has sine `half_sin`,
// widened so the chord test keeps a strict superset of what
// haversine_km(...) <= radius accepts. Both computations round at ~1e-15;
// the margin is 1e-9 relative plus 1e-12 absolute (~2 mm of extra reach at
// 10 km), so rounding can never tip an in-range entry out.
double widened_chord2(double half_sin) {
  const double chord = 2.0 * half_sin;
  return chord * chord * (1.0 + 1e-9) + 1e-12;
}

}  // namespace

Registry::Angle Registry::angle_of(double km) {
  const double rad = km / geo::kEarthRadiusKm;
  return {rad, std::sin(rad / 2), std::cos(rad / 2)};
}

Registry::ChordFilter Registry::chord_filter(const geo::GeoPoint& center,
                                             double radius_km) {
  ChordFilter filter;
  filter.query = geo::unit_vector(center);
  filter.radius = angle_of(radius_km);
  // At pi the disc covers the whole sphere (the selector's last-resort
  // step) and the half-angle sine stops growing: keep everything.
  filter.entry_limit = filter.radius.rad < std::numbers::pi
                           ? widened_chord2(filter.radius.half_sin)
                           : std::numeric_limits<double>::infinity();
  return filter;
}

bool Registry::ChordFilter::may_reach(const Bucket& bucket) const {
  // Triangle inequality: a cell point within `radius` of the query puts the
  // cell center within radius + bucket.radius of it. The angle-sum identity
  // gives that sum's half-angle sine without trig.
  const Angle& b = bucket.radius;
  if (!(radius.rad + b.rad < std::numbers::pi)) return true;
  return geo::chord2(query, bucket.unit) <=
         widened_chord2(radius.half_sin * b.half_cos +
                        radius.half_cos * b.half_sin);
}

void Registry::index_insert(NodeId /*id*/, Slot& slot) {
  slot.center = geo::geohash_decode_center(slot.entry.status.geohash);
  if (!slot.center) {
    slot.cos_lat = 0;
    slot.fallback = true;
    slot.bucket_key.clear();
    slot.bucket_pos = static_cast<std::uint32_t>(fallback_.size());
    fallback_.push_back(&slot);
    return;
  }
  slot.cos_lat = geo::cos_lat(*slot.center);
  slot.fallback = false;
  const std::string& hash = slot.entry.status.geohash;
  slot.bucket_key = hash.substr(
      0, std::min<std::size_t>(hash.size(), kBucketPrecision));
  auto [it, inserted] = buckets_.try_emplace(slot.bucket_key);
  Bucket& bucket = it->second;
  if (inserted) {
    // A prefix of a decodable hash always decodes.
    const auto box = *geo::geohash_decode(it->first);
    bucket.unit = geo::unit_vector(box.center());
    bucket.radius = angle_of(cell_radius_bound_km(box));
  }
  slot.bucket_pos = static_cast<std::uint32_t>(bucket.members.size());
  bucket.members.push_back(Member{&slot, geo::unit_vector(*slot.center)});
}

void Registry::index_remove(const Slot& slot) {
  // Swap-erase; fix up the slot of the entry that moved into our position.
  const std::uint32_t pos = slot.bucket_pos;
  if (slot.fallback) {
    fallback_[pos] = fallback_.back();
    fallback_.pop_back();
    if (pos < fallback_.size()) fallback_[pos]->bucket_pos = pos;
    return;
  }
  const auto it = buckets_.find(slot.bucket_key);
  std::vector<Member>& members = it->second.members;
  members[pos] = members.back();
  members.pop_back();
  if (pos < members.size()) members[pos].slot->bucket_pos = pos;
  if (members.empty()) buckets_.erase(it);
}

void Registry::erase_entry(NodeId id, const Slot& slot) {
  index_remove(slot);
  slots_.erase(id);
}

void Registry::upsert(const net::NodeStatus& status, SimTime now) {
  auto [it, inserted] = slots_.try_emplace(status.node);
  Slot& slot = it->second;
  if (inserted) {
    slot.entry.registered_at = now;
    slot.entry.status = status;
    index_insert(status.node, slot);
  } else if (slot.entry.status.geohash != status.geohash) {
    // The node moved buckets; reindex under the new hash.
    index_remove(slot);
    slot.entry.status = status;
    index_insert(status.node, slot);
  } else {
    slot.entry.status = status;
  }
  slot.entry.last_heartbeat = now;
  deadlines_.emplace(now, status.node);
}

void Registry::remove(NodeId node) {
  const auto it = slots_.find(node);
  if (it == slots_.end()) return;
  erase_entry(node, it->second);
}

std::vector<NodeId> Registry::expire(SimTime now) {
  std::vector<NodeId> expired;
  while (!deadlines_.empty()) {
    const auto [heartbeat, id] = deadlines_.top();
    if (now - heartbeat <= heartbeat_ttl_) break;  // freshest deadline first
    deadlines_.pop();
    const auto it = slots_.find(id);
    // Skip deadlines superseded by a newer heartbeat or an explicit
    // remove(); the current heartbeat (if any) is still in the heap.
    if (it == slots_.end() || it->second.entry.last_heartbeat != heartbeat) {
      continue;
    }
    expired.push_back(id);
    erase_entry(id, it->second);
  }
  std::sort(expired.begin(), expired.end());
  return expired;
}

std::optional<RegistryEntry> Registry::get(NodeId node) const {
  const auto it = slots_.find(node);
  if (it == slots_.end()) return std::nullopt;
  return it->second.entry;
}

}  // namespace eden::manager
