// Node registry kept by the central manager: the latest status reported by
// every edge node plus heartbeat freshness. Stale entries (missed
// heartbeats) are expired lazily on access — exactly how the manager learns
// about abrupt volunteer departures.
//
// Scale architecture: entries are spatially indexed by truncated-geohash
// buckets (nodes whose hash does not decode land in a fallback bucket), so
// discovery queries visit candidate buckets instead of every node, and a
// deadline min-heap makes expire() proportional to the number of nodes that
// actually time out, not the registry size. Each indexed entry also caches
// its unit vector on the sphere, so candidate queries discard out-of-range
// entries with a trig-free chord test before the caller's exact check.
#pragma once

#include <map>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "geo/geohash.h"
#include "geo/geopoint.h"
#include "net/protocol.h"

namespace eden::manager {

struct RegistryEntry {
  net::NodeStatus status;
  SimTime last_heartbeat{0};
  SimTime registered_at{0};
  // Manager-side overload verdict (hysteresis lives in CentralManager; the
  // registry only mirrors the flag so selection can read it in place).
  // Deliberately not part of the status assignment in upsert().
  bool overloaded{false};
};

class Registry {
 public:
  // Bucket key length in geohash characters: ~39 km cells at the equator,
  // comfortably finer than the widening radii the selector probes with.
  static constexpr int kBucketPrecision = 4;

  explicit Registry(SimDuration heartbeat_ttl = sec(3.0))
      : heartbeat_ttl_(heartbeat_ttl) {}

  void upsert(const net::NodeStatus& status, SimTime now);
  void remove(NodeId node);
  // Drop every entry whose heartbeat is older than the TTL; returns the
  // expired ids sorted ascending so callers can observe departures
  // deterministically.
  std::vector<NodeId> expire(SimTime now);

  [[nodiscard]] std::optional<RegistryEntry> get(NodeId node) const;
  // Copy-free lookup (no expiry side effect); nullptr when absent. The
  // heartbeat hot path uses this to detect rejoins without copying the
  // entry's strings.
  [[nodiscard]] const RegistryEntry* find(NodeId node) const {
    const auto it = slots_.find(node);
    return it == slots_.end() ? nullptr : &it->second.entry;
  }
  // Mirror the manager's overload verdict into the entry; no-op when the
  // node is not registered.
  void set_overloaded(NodeId node, bool overloaded) {
    const auto it = slots_.find(node);
    if (it != slots_.end()) it->second.entry.overloaded = overloaded;
  }
  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] SimDuration heartbeat_ttl() const { return heartbeat_ttl_; }

  // ---- copy-free visitation (expires first) ----
  //
  // Visitors receive (const RegistryEntry&, const std::optional<GeoPoint>&):
  // the entry plus its geohash cell center, decoded once at upsert time
  // (nullopt when the hash does not decode).

  // Every live entry whose geohash starts with `prefix` (an empty prefix
  // visits everything, including entries with no usable geohash).
  template <typename Visitor>
  void for_each_live(std::string_view prefix, SimTime now, Visitor&& visit) {
    expire(now);
    if (prefix.empty()) {
      for (const auto& [key, bucket] : buckets_) {
        for (const Member& m : bucket.members) {
          visit(m.slot->entry, m.slot->center);
        }
      }
    } else if (prefix.size() <= kBucketPrecision) {
      // Bucket keys are hash prefixes, so every matching entry lives in a
      // bucket whose key itself starts with `prefix`: one ordered range.
      for (auto it = buckets_.lower_bound(prefix);
           it != buckets_.end() && starts_with(it->first, prefix); ++it) {
        for (const Member& m : it->second.members) {
          visit(m.slot->entry, m.slot->center);
        }
      }
    } else {
      const auto it = buckets_.find(prefix.substr(0, kBucketPrecision));
      if (it != buckets_.end()) {
        for (const Member& m : it->second.members) {
          if (starts_with(m.slot->entry.status.geohash, prefix)) {
            visit(m.slot->entry, m.slot->center);
          }
        }
      }
    }
    // Undecodable hashes can still match textually (e.g. a valid prefix
    // followed by garbage), so the fallback bucket is always scanned.
    for (const Slot* slot : fallback_) {
      if (prefix.empty() ||
          starts_with(slot->entry.status.geohash, prefix)) {
        visit(slot->entry, slot->center);
      }
    }
  }

  // Every live entry that could lie within `radius_km` of `center`: a
  // conservative superset of the entries whose haversine_km to `center` is
  // <= radius_km, plus every entry with no usable geohash. Buckets are
  // pruned by a lower bound on the distance from `center` to any point of
  // the bucket cell, then entries one by one by the squared chord between
  // unit vectors, against a limit widened past any rounding — no trig per
  // entry. Callers apply the exact per-entry check themselves.
  //
  // Visitors receive a third argument: geo::cos_lat(*center), cached at
  // upsert time (0 without a center), for the cached-cosine
  // geo::haversine_km overload.
  template <typename Visitor>
  void for_each_candidate(const geo::GeoPoint& center, double radius_km,
                          SimTime now, Visitor&& visit) {
    expire(now);
    const ChordFilter filter = chord_filter(center, radius_km);
    for (const auto& [key, bucket] : buckets_) {
      if (!filter.may_reach(bucket)) continue;
      for (const Member& m : bucket.members) {
        if (geo::chord2(filter.query, m.unit) <= filter.entry_limit) {
          visit(m.slot->entry, m.slot->center, m.slot->cos_lat);
        }
      }
    }
    for (const Slot* slot : fallback_) {
      visit(slot->entry, slot->center, slot->cos_lat);
    }
  }

 private:
  struct Slot {
    RegistryEntry entry;
    // Cell center of the full geohash; nullopt when it does not decode
    // (then the node lives in the fallback bucket).
    std::optional<geo::GeoPoint> center;
    double cos_lat{0};          // geo::cos_lat(*center); 0 without a center
    std::string bucket_key;     // key into buckets_; unused for fallback
    std::uint32_t bucket_pos{0};
    bool fallback{false};
  };
  // A bucket's entry: the slot plus its center's unit vector, stored inline
  // so the chord prefilter scans contiguous memory and dereferences only
  // the entries it keeps.
  struct Member {
    Slot* slot;
    geo::UnitVector unit;
  };
  // An angular radius with the sine and cosine of its half angle, so the
  // bucket bound adds two radii without trig.
  struct Angle {
    double rad{0};
    double half_sin{0};
    double half_cos{1};
  };
  struct Bucket {
    // Direct slot pointers: unordered_map nodes are address-stable, so
    // visitation never pays a per-entry hash lookup. index_remove() fixes
    // bucket_pos through the pointer after a swap-erase.
    std::vector<Member> members;
    geo::UnitVector unit;  // unit vector of the bucket cell's center
    Angle radius;          // bounds center -> any cell point
  };
  // for_each_candidate's per-query prefilter (see chord_filter()).
  struct ChordFilter {
    geo::UnitVector query;
    Angle radius;  // the search radius
    // Widened squared chord of the search disc; +inf keeps everything.
    double entry_limit{0};
    // False when no point of the bucket's cell can be within the radius.
    [[nodiscard]] bool may_reach(const Bucket& bucket) const;
  };
  [[nodiscard]] static Angle angle_of(double km);
  [[nodiscard]] static ChordFilter chord_filter(const geo::GeoPoint& center,
                                                double radius_km);

  // Min-heap of (last_heartbeat, node); entries go stale when a newer
  // heartbeat arrives and are discarded lazily on pop.
  using Deadline = std::pair<SimTime, NodeId>;

  static bool starts_with(const std::string& s, std::string_view prefix) {
    return s.size() >= prefix.size() &&
           std::string_view(s).substr(0, prefix.size()) == prefix;
  }

  void index_insert(NodeId id, Slot& slot);
  void index_remove(const Slot& slot);
  void erase_entry(NodeId id, const Slot& slot);

  SimDuration heartbeat_ttl_;
  std::unordered_map<NodeId, Slot> slots_;
  // Ordered so prefix queries are one lower_bound plus a range walk, and
  // visitation order is deterministic for a given upsert/remove history.
  std::map<std::string, Bucket, std::less<>> buckets_;
  std::vector<Slot*> fallback_;
  std::priority_queue<Deadline, std::vector<Deadline>, std::greater<Deadline>>
      deadlines_;
};

}  // namespace eden::manager
