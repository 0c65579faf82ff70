// Window-barrier message router between per-shard simulation domains.
//
// The sharded runner partitions hosts into geohash cells and gives each
// shard its own sim::Simulator + SimNetwork fabric. During a window each
// fabric appends cross-shard messages to its shard's private outbox (one
// writer per outbox — no locks); at the barrier the coordinator calls
// flush(), which injects every buffered envelope into the destination
// shard's simulator as a delivery under the canonical (arrival, dst, src,
// source sequence) key.
// Conservative lookahead makes this sound: the window length never exceeds
// the minimum cross-shard one-way delay, so a message sent inside window
// [w0, w1) arrives at >= w0 + lookahead >= w1 — i.e. never inside a window
// the destination shard has already executed. flush() asserts that
// contract and throws on violation rather than silently reordering.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/simulator.h"

namespace eden::net {

class SimNetwork;

class ShardRouter {
 public:
  using ShardId = std::uint32_t;

  // Registers a shard domain; shard ids are assigned in call order.
  ShardId add_shard(SimNetwork* fabric, sim::Simulator* simulator);

  [[nodiscard]] std::size_t shard_count() const { return sims_.size(); }
  [[nodiscard]] SimNetwork* fabric_of(ShardId shard) { return fabrics_[shard]; }
  [[nodiscard]] sim::Simulator* simulator_of(ShardId shard) {
    return sims_[shard];
  }

  // Host -> shard placement. Unmapped hosts default to shard 0 (the
  // manager's shard).
  void set_shard(HostId host, ShardId shard);
  [[nodiscard]] ShardId shard_of(HostId host) const {
    return host.value < owner_.size() ? owner_[host.value] : 0;
  }

  // Buffer one cross-shard delivery. Called by shard `src`'s fabric while
  // its window executes; only that shard writes outbox `src`, so posting
  // needs no synchronization.
  void post(ShardId src, ShardId dst, SimTime arrival, std::uint64_t key_hi,
            std::uint64_t key_lo, sim::Callback cb);

  // Barrier step (single-threaded, between windows): inject every buffered
  // envelope into its destination's simulator. `window_start` is the
  // start of the window about to run; an arrival before it means the
  // lookahead bound was violated (throws std::runtime_error). Returns the
  // number of envelopes injected. Injection order is irrelevant to
  // execution order — deliveries are ordered by canonical key.
  std::size_t flush(SimTime window_start);

  // True when no envelope is buffered in any outbox.
  [[nodiscard]] bool idle() const;
  [[nodiscard]] std::uint64_t messages_routed() const { return routed_; }

 private:
  struct Envelope {
    SimTime arrival;
    std::uint64_t hi, lo;
    ShardId dst;
    sim::Callback cb;
  };

  std::vector<SimNetwork*> fabrics_;
  std::vector<sim::Simulator*> sims_;
  std::vector<ShardId> owner_;
  std::vector<std::vector<Envelope>> outboxes_;  // indexed by source shard
  std::uint64_t routed_{0};
};

}  // namespace eden::net
