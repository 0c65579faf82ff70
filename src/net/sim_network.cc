#include "net/sim_network.h"

#include <algorithm>
#include <cmath>

namespace eden::net {

namespace {

// Drop windows whose end has passed (queries are monotone in simulated
// time, so they can never match again), preserving the relative order of
// the survivors. Returns true if the bucket is now empty.
template <typename Vec>
bool purge_expired(Vec& windows, SimTime now) {
  windows.erase(std::remove_if(windows.begin(), windows.end(),
                               [now](const auto& w) { return w.end <= now; }),
                windows.end());
  return windows.empty();
}

template <typename Map, typename Key>
bool bucket_dropped(Map& map, Key key, SimTime now) {
  const auto it = map.find(key);
  if (it == map.end()) return false;
  if (purge_expired(it->second, now)) {
    map.erase(it);
    return false;
  }
  for (const auto& w : it->second) {
    if (now >= w.begin && now < w.end) return true;
  }
  return false;
}

}  // namespace

void FaultInjector::cut_link(HostId a, HostId b, SimTime from, SimTime until) {
  const Window w{from, until};
  if (a.valid() && b.valid()) {
    pair_cuts_[pair_key(a, b)].push_back(w);
  } else if (a.valid()) {
    from_cuts_[a.value].push_back(w);  // any destination
  } else if (b.valid()) {
    to_cuts_[b.value].push_back(w);  // any sender
  } else {
    global_cuts_.push_back(w);
  }
}

void FaultInjector::partition(HostId a, HostId b, SimTime from, SimTime until) {
  cut_link(a, b, from, until);
  cut_link(b, a, from, until);
}

void FaultInjector::slow_link(HostId a, HostId b, double factor, SimTime from,
                              SimTime until) {
  pair_slows_[pair_key(a, b)].push_back(SlowWindow{from, until, factor});
}

void FaultInjector::isolate_host(HostId host, SimTime from, SimTime until) {
  cut_link(host, HostId{}, from, until);
  cut_link(HostId{}, host, from, until);
}

bool FaultInjector::dropped(HostId from, HostId to, SimTime now) const {
  // Exact pair, then the isolation wildcards, then fully-global cuts. Each
  // bucket only holds windows that can match this query, so the scan is
  // O(active windows on this path) instead of O(all injected faults).
  if (bucket_dropped(pair_cuts_, pair_key(from, to), now)) return true;
  if (bucket_dropped(from_cuts_, from.value, now)) return true;
  if (bucket_dropped(to_cuts_, to.value, now)) return true;
  if (!global_cuts_.empty() && !purge_expired(global_cuts_, now)) {
    for (const auto& w : global_cuts_) {
      if (now >= w.begin && now < w.end) return true;
    }
  }
  return false;
}

double FaultInjector::delay_factor(HostId from, HostId to, SimTime now) const {
  const auto it = pair_slows_.find(pair_key(from, to));
  if (it == pair_slows_.end()) return 1.0;
  if (purge_expired(it->second, now)) {
    pair_slows_.erase(it);
    return 1.0;
  }
  double factor = 1.0;
  // Insertion order is preserved through purging, so stacked slow windows
  // multiply in the same order (and produce the same float) as ever.
  for (const auto& w : it->second) {
    if (now >= w.begin && now < w.end) factor *= w.factor;
  }
  return factor;
}

std::size_t FaultInjector::cut_window_count() const {
  std::size_t n = global_cuts_.size();
  for (const auto& [key, windows] : pair_cuts_) n += windows.size();
  for (const auto& [key, windows] : from_cuts_) n += windows.size();
  for (const auto& [key, windows] : to_cuts_) n += windows.size();
  return n;
}

std::size_t FaultInjector::slow_window_count() const {
  std::size_t n = 0;
  for (const auto& [key, windows] : pair_slows_) n += windows.size();
  return n;
}

void SimNetwork::grow_rpc_pool() {
  const auto base =
      static_cast<std::uint32_t>(rpc_chunks_.size()) * kRpcSlotsPerChunk;
  auto chunk = std::make_unique<RpcSlot[]>(kRpcSlotsPerChunk);
  for (std::uint32_t i = 0; i < kRpcSlotsPerChunk; ++i) {
    chunk[i].generation = 0;
    chunk[i].next_free =
        i + 1 < kRpcSlotsPerChunk ? base + i + 1 : kNoFreeSlot;
  }
  rpc_chunks_.push_back(std::move(chunk));
  rpc_free_head_ = base;
}

void SimNetwork::rpc_timeout(std::uint64_t handle) {
  RpcSlot* slot = lookup_rpc(handle);
  if (slot == nullptr || !slot->done) return;
  slot->timeout_event = sim::kInvalidEvent;
  // A timeout is local bookkeeping at the caller, not a network arrival,
  // so it fires even if the caller host has since died (matching the
  // historical shared_ptr implementation). Invoke before any release so a
  // re-entrant rpc issued from the callback cannot reuse this buffer.
  slot->done.invoke_and_reset(nullptr);
  if (slot->request_consumed) release_rpc_slot(handle_index(handle));
}

void SimNetwork::consume_request(std::uint64_t handle) {
  RpcSlot* slot = lookup_rpc(handle);
  if (slot == nullptr) return;
  slot->request_consumed = true;
  if (!slot->done) release_rpc_slot(handle_index(handle));
}

SimDuration SimNetwork::sample_delay(HostId from, HostId to, double bytes) {
  double owd_us = static_cast<double>(model_->base_rtt(from, to)) / 2.0;
  // Same draw stream and same float expression as NetworkModel::
  // sample_owd. Deterministic mode swaps the shared Rng stream for a
  // counter-based draw keyed by (seed, directed pair, source sequence):
  // the jitter of a given message then depends only on its sender's own
  // traffic — the property that makes sharded executions bit-identical.
  if (jitter_sigma_ > 0) {
    if (!deterministic_) [[likely]] {
      owd_us *= rng_.lognormal(0.0, jitter_sigma_);
    } else {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(to.value) << 32) | from.value;
      const std::uint64_t seq =
          from.value < src_seq_.size() ? src_seq_[from.value] : 0;
      owd_us *= det_jitter_factor(key, seq);
    }
  }
  SimDuration delay = static_cast<SimDuration>(owd_us) +
                      model_->transfer_delay(from, to, bytes);
  if (faults_ != nullptr) {
    const double factor = faults_->delay_factor(from, to, simulator_->now());
    delay = static_cast<SimDuration>(static_cast<double>(delay) * factor);
  }
  return delay;
}

double SimNetwork::det_jitter_factor(std::uint64_t key,
                                     std::uint64_t seq) const {
  // Mix (seed, pair, seq) through a splitmix64-style finalizer, then draw
  // one clamped standard normal via Box-Muller on the two 32-bit halves.
  std::uint64_t z = det_seed_;
  z ^= key + 0x9e3779b97f4a7c15ull + (z << 6) + (z >> 2);
  z ^= seq + 0x9e3779b97f4a7c15ull + (z << 6) + (z >> 2);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ull;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebull;
  z ^= z >> 31;
  const double u1 = (static_cast<double>(z >> 32) + 1.0) * 0x1.0p-32;  // (0,1]
  const double u2 = static_cast<double>(z & 0xffffffffu) * 0x1.0p-32;  // [0,1)
  constexpr double kTwoPi = 6.283185307179586;
  double n = std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
  n = std::clamp(n, -kDetJitterZClamp, kDetJitterZClamp);
  return std::exp(jitter_sigma_ * n);
}

}  // namespace eden::net
