// Host placement and window bookkeeping shared by per-shard simulation
// domains.
//
// The sharded runner partitions hosts into geohash cells and gives each
// shard its own sim::Simulator + SimNetwork fabric. The router records
// which shard owns each host, so a fabric can hand a cross-shard message
// straight to the owner's simulator as a delivery under the canonical
// (arrival, dst, src, source sequence) key. Domains run inline, one after
// another, so the hand-off needs no buffer and no lock.
// Conservative lookahead makes direct injection sound: the window length
// never exceeds the minimum cross-shard one-way delay, so a message sent
// inside window [w0, w1) arrives at >= w0 + lookahead >= w1 — after
// every instant any domain executes in that window, whichever order the
// domains run in. admit() checks that contract at the send and throws on
// violation rather than silently reordering.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace eden::net {

class SimNetwork;

class ShardRouter {
 public:
  using ShardId = std::uint32_t;

  // Registers a shard domain; shard ids are assigned in call order.
  ShardId add_shard(SimNetwork* fabric);

  [[nodiscard]] SimNetwork* fabric_of(ShardId shard) { return fabrics_[shard]; }

  // Host -> shard placement. Unmapped hosts default to shard 0 (the
  // manager's shard).
  void set_shard(HostId host, ShardId shard);
  [[nodiscard]] ShardId shard_of(HostId host) const {
    return host.value < owner_.size() ? owner_[host.value] : 0;
  }

  // Opens the window [.., end): cross-shard arrivals before `end` are
  // rejected from now on.
  void open_window(SimTime end);
  // Called by the sending fabric for every message whose destination is
  // owned by another shard, before it schedules the delivery. Throws
  // std::runtime_error when `arrival` precedes the current window's end —
  // the lookahead bound was violated.
  void admit(SimTime arrival);

  // Cross-shard messages sent so far (each counted by admit()).
  [[nodiscard]] std::uint64_t messages_routed() const { return routed_; }

 private:
  std::vector<SimNetwork*> fabrics_;
  std::vector<ShardId> owner_;
  SimTime window_end_{0};
  std::uint64_t routed_{0};
};

}  // namespace eden::net
