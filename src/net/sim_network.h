// Simulated message fabric: delivers closures between hosts with sampled
// one-way delays and drops anything addressed to (or answered by) a dead
// host. `rpc`/`rpc_async` layer request/response + timeout semantics on
// top; the typed Node/Manager API stubs in the harness are thin wrappers
// over it.
//
// Messaging hot path (see DESIGN.md §8): pending rpc state lives in a
// generation-stamped slab pool inside SimNetwork — no shared_ptr, no
// std::function. Each slot stores the completion inline, the route of the
// pending exchange, and whether the request leg has settled;
// timeout-vs-response races resolve on the completion's emptiness and
// stale handles fail a generation check exactly like the simulator's
// event arena. A delay sample asks the network model for the pair's base
// RTT and transfer delay afresh, so model mutations (MatrixNetwork::
// set_rtt_ms, GeoNetwork::set_extra_rtt_ms, ...) apply to the next send.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/host_table.h"
#include "net/network_model.h"
#include "net/shard_router.h"
#include "sim/simulator.h"

namespace eden::net {

// Injectable network faults: directional link cuts (partitions) and
// latency inflation over time windows. Faithful to real edge networks
// where a path can die or degrade while both endpoints stay up — the case
// that distinguishes the keepalive failure monitor from node-death
// handling.
//
// Windows are indexed per directed pair (with separate wildcard buckets
// for host isolation), so dropped()/delay_factor() cost O(windows touching
// this pair), not O(all windows ever injected). Lookups purge windows
// whose end has passed; queries are assumed monotone non-decreasing in
// time (the simulator clock only moves forward), so a purged window can
// never influence a later query.
class FaultInjector {
 public:
  // Drop everything from `a` to `b` (one direction) during [from, until).
  void cut_link(HostId a, HostId b, SimTime from, SimTime until);
  // Cut both directions.
  void partition(HostId a, HostId b, SimTime from, SimTime until);
  // Multiply delays from `a` to `b` by `factor` during [from, until).
  void slow_link(HostId a, HostId b, double factor, SimTime from,
                 SimTime until);
  // Drop every message to/from `host` during the window (host-level brownout
  // without killing the process).
  void isolate_host(HostId host, SimTime from, SimTime until);

  [[nodiscard]] bool dropped(HostId from, HostId to, SimTime now) const;
  [[nodiscard]] double delay_factor(HostId from, HostId to, SimTime now) const;

  // Windows still stored (not yet purged by a lookup). Tests use these to
  // assert that expired windows actually get discarded.
  [[nodiscard]] std::size_t cut_window_count() const;
  [[nodiscard]] std::size_t slow_window_count() const;

 private:
  struct Window {
    SimTime begin, end;
  };
  struct SlowWindow {
    SimTime begin, end;
    double factor;
  };
  using PairKey = std::uint64_t;
  static PairKey pair_key(HostId a, HostId b) {
    return (static_cast<PairKey>(a.value) << 32) | b.value;
  }

  // Cuts keyed by directed pair, plus wildcard buckets: `from_cuts_[h]`
  // matches any message sent by h, `to_cuts_[h]` any message addressed to
  // h (both produced by isolate_host). Slow windows only ever match exact
  // pairs (same as the historical linear scan). Buckets are mutable so
  // const lookups can purge; relative order inside a bucket is preserved
  // (delay factors multiply in insertion order, keeping float results
  // bit-identical to the pre-index implementation).
  mutable std::unordered_map<PairKey, std::vector<Window>> pair_cuts_;
  mutable std::unordered_map<std::uint32_t, std::vector<Window>> from_cuts_;
  mutable std::unordered_map<std::uint32_t, std::vector<Window>> to_cuts_;
  mutable std::vector<Window> global_cuts_;  // both endpoints wildcard
  mutable std::unordered_map<PairKey, std::vector<SlowWindow>> pair_slows_;
};

class SimNetwork {
 public:
  SimNetwork(sim::Simulator& simulator, const NetworkModel& model,
             HostTable& hosts, Rng rng)
      : simulator_(&simulator),
        model_(&model),
        hosts_(&hosts),
        rng_(rng),
        // Every NetworkModel fixes its jitter sigma at construction, so it
        // is safe to hoist out of the per-sample path.
        jitter_sigma_(model.jitter_sigma()) {}

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  // Optional fault injection; the injector must outlive the network.
  void set_fault_injector(const FaultInjector* injector) {
    faults_ = injector;
  }

  // ---- deterministic (sharded) delivery mode ----
  //
  // In deterministic mode every cross-host message is a simulator delivery
  // under the canonical (arrival, destination, source, source sequence)
  // key, and the jitter factor comes from a counter-based hash of (seed,
  // directed pair, source sequence) instead of the fabric's shared Rng
  // stream. The source sequence numbers every message a host sends; each
  // host's sends run in its own domain in canonical order, so both
  // changes make message ordering and sampled delays a pure function of
  // the message set — independent of shard layout — which is exactly what
  // the sharded == sequential determinism witness pins. Every fabric
  // participating in one sharded world must use the SAME seed (a
  // message's jitter must not depend on which domain sampled it). Legacy
  // fabrics that never enable this keep the historical Rng draws and FIFO
  // schedules, byte for byte.
  void enable_deterministic_delivery(std::uint64_t seed) {
    deterministic_ = true;
    det_seed_ = seed;
  }
  [[nodiscard]] bool deterministic_delivery() const { return deterministic_; }

  // Attach this fabric to a shard router as shard `shard_id`: messages
  // addressed to hosts owned by other shards are posted to the router and
  // injected into the owner's simulator at the next window barrier.
  // Only meaningful in deterministic mode.
  void set_shard_router(ShardRouter* router, std::uint32_t shard_id) {
    router_ = router;
    shard_id_ = shard_id;
  }

  // Deterministic jitter clamps the standard-normal draw at +/- this many
  // sigma, so exp(-kDetJitterZClamp * sigma) is a HARD lower bound on the
  // jitter factor — the lookahead derivation depends on it.
  static constexpr double kDetJitterZClamp = 6.0;

  [[nodiscard]] sim::Simulator& simulator() { return *simulator_; }
  [[nodiscard]] const NetworkModel& model() const { return *model_; }
  [[nodiscard]] HostTable& hosts() { return *hosts_; }

  // Sample a one-way delay for a payload of `bytes` from `from` to `to`.
  [[nodiscard]] SimDuration sample_delay(HostId from, HostId to, double bytes);

  // The reply functor handed to an async rpc server: a 40-byte value type
  // carrying the response route, so invoking it after the caller timed out
  // still sends the response over the (indifferent) wire — the stale
  // completion is then rejected by the slot generation check on arrival.
  // Copyable and callable any number of times; only the first response to
  // arrive while the rpc is still pending reaches `done`. `origin` is the
  // fabric owning the rpc slot (== `net` except for cross-shard rpcs,
  // where the server-side fabric sends the response but the completion
  // must settle on the caller's shard).
  template <typename Resp>
  class Reply {
   public:
    void operator()(Resp response) {
      net_->send_response<Resp>(handle_, responder_, client_, bytes_,
                                std::move(response), origin_);
    }

   private:
    friend class SimNetwork;
    Reply(SimNetwork* net, std::uint64_t handle, HostId responder,
          HostId client, double bytes, SimNetwork* origin = nullptr)
        : net_(net),
          handle_(handle),
          responder_(responder),
          client_(client),
          bytes_(bytes),
          origin_(origin == nullptr ? net : origin) {}

    SimNetwork* net_;
    std::uint64_t handle_;
    HostId responder_, client_;
    double bytes_;
    SimNetwork* origin_;
  };

  // One-way delivery: run `fn` at the destination after the sampled delay,
  // unless the destination is dead at delivery time. The sender being alive
  // is the caller's concern.
  template <typename F>
  void deliver(HostId from, HostId to, double bytes, F&& fn) {
    // Link cuts are evaluated at SEND time (packets enter the dead path and
    // vanish); host liveness at ARRIVAL time (the host died in flight).
    if (faults_ != nullptr && faults_->dropped(from, to, simulator_->now())) {
      return;
    }
    const SimDuration delay = sample_delay(from, to, bytes);
    if (!deterministic_) [[likely]] {
      simulator_->schedule_after(
          delay, ArrivalGuard<std::decay_t<F>>{this, to, std::forward<F>(fn)});
      return;
    }
    // Deterministic: the arrival guard checks liveness against the OWNING
    // shard's host table (each domain tracks only its own hosts).
    route_canonical(from, to, delay,
                    ArrivalGuard<std::decay_t<F>>{owner_of(to), to,
                                                  std::forward<F>(fn)});
  }

  // Request/response with timeout, asynchronous server side: `server` runs
  // at `to` on request arrival and receives a Reply<Resp> it may call
  // later (e.g. when the frame executor finishes). `done` runs at `from`
  // with the response, or with nullopt when no response arrived within
  // `timeout`. `done` is invoked exactly once (with the rpc state pooled,
  // not reference-counted: the slot's generation check rejects stale
  // completions).
  template <typename Resp, typename Server, typename Done>
  void rpc_async(HostId from, HostId to, double request_bytes,
                 double response_bytes, SimDuration timeout, Server server,
                 Done done) {
    const std::uint32_t index = acquire_rpc_slot();
    RpcSlot& slot = rpc_slot(index);
    slot.done.emplace(DoneAdaptor<Resp, std::decay_t<Done>>{std::move(done)});
    slot.timeout_event = sim::kInvalidEvent;
    slot.response_bytes = response_bytes;
    slot.rpc_from = from;
    slot.rpc_to = to;
    slot.request_consumed = false;
    const std::uint64_t handle = make_handle(index, slot.generation);
    // Timeout first, request leg second: when both land on the same tick
    // the timeout keeps its historical FIFO priority.
    slot.timeout_event =
        simulator_->schedule_after(timeout, TimeoutFire{this, handle});
    if (faults_ != nullptr && faults_->dropped(from, to, simulator_->now())) {
      // The request entered a cut path at send time: no arrival event will
      // ever fire, so the request leg is already settled.
      slot.request_consumed = true;
      return;
    }
    const SimDuration delay = sample_delay(from, to, request_bytes);
    if (!deterministic_) [[likely]] {
      simulator_->schedule_after(
          delay,
          RequestArrival<Resp, std::decay_t<Server>>{this, handle,
                                                     std::move(server)});
      return;
    }
    // Deterministic: the request leg settles at send so the slot is never
    // mutated from another shard; the reply route rides inside the shipped
    // closure instead of the slot. A timeout may then release the slot
    // before the reply lands — the stale reply dies on the generation
    // check, observably identical to the legacy pinned-slot lifecycle.
    slot.request_consumed = true;
    route_canonical(from, to, delay,
                    DetRequestArrival<Resp, std::decay_t<Server>>{
                        owner_of(to), this, handle, from, to, response_bytes,
                        std::move(server)});
  }

  // Synchronous-server convenience wrapper: `server` returns the response
  // directly on request arrival. Rides the async path with a zero-overhead
  // adaptor (no extra allocation, no intermediate reply functor).
  template <typename Resp, typename Server, typename Done>
  void rpc(HostId from, HostId to, double request_bytes, double response_bytes,
           SimDuration timeout, Server server, Done done) {
    rpc_async<Resp>(from, to, request_bytes, response_bytes, timeout,
                    SyncServer<Resp, std::decay_t<Server>>{std::move(server)},
                    std::move(done));
  }

  // Pool introspection for tests: slots currently tied to a pending rpc,
  // and the total the pool has ever grown to.
  [[nodiscard]] std::size_t rpc_slots_in_use() const { return rpc_in_use_; }
  [[nodiscard]] std::size_t rpc_slot_capacity() const {
    return rpc_chunks_.size() * kRpcSlotsPerChunk;
  }

  // Inline capacity of a pending rpc's completion: a net::Done<R> (a
  // sim::Func<std::optional<R>>) moves in whole, so the capacity is its
  // size (the rule is spelled out in sim/callback.h).
  static constexpr std::size_t kDoneCapacity = sizeof(sim::Func<>);

  // Whether `rpc<Resp>`/`rpc_async<Resp>` store a completion of type Done
  // inline; the sim stubs static_assert it for every call they make.
  template <typename Resp, typename Done>
  [[nodiscard]] static constexpr bool done_stores_inline() {
    return DoneFunc::stores_inline<DoneAdaptor<Resp, Done>>();
  }

 private:
  // Adapts a completion taking std::optional<Resp> to the slot's type-
  // erased argument: a pointer to the std::optional<Resp> response, or
  // nullptr for a timeout (invoked with nullopt).
  template <typename Resp, typename Done>
  struct DoneAdaptor {
    Done done;
    void operator()(void* response) {
      if (response == nullptr) {
        done(std::nullopt);
      } else {
        done(std::move(*static_cast<std::optional<Resp>*>(response)));
      }
    }
  };
  using DoneFunc = sim::BasicFunc<kDoneCapacity, void* /*response*/>;

  // One pooled pending rpc. The completion is non-empty until it fires
  // (response or timeout); teardown destroys it without invoking. The slot
  // is released when both the completion has fired and the request leg has
  // settled (arrived, or provably never will) — holding the slot until the
  // request leg lands is what lets a late-arriving request still read its
  // route after the timeout already fired.
  struct RpcSlot {
    DoneFunc done;
    sim::EventId timeout_event;
    double response_bytes;
    HostId rpc_from, rpc_to;
    std::uint32_t generation;
    std::uint32_t next_free;
    bool request_consumed;
  };

  static constexpr std::uint32_t kRpcSlotsPerChunk = 256;
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  static std::uint64_t make_handle(std::uint32_t index,
                                   std::uint32_t generation) {
    return (static_cast<std::uint64_t>(generation) << 32) | (index + 1);
  }
  static std::uint32_t handle_index(std::uint64_t handle) {
    return static_cast<std::uint32_t>(handle & 0xffffffffu) - 1;
  }

  [[nodiscard]] RpcSlot& rpc_slot(std::uint32_t index) {
    return rpc_chunks_[index / kRpcSlotsPerChunk][index % kRpcSlotsPerChunk];
  }

  // Generation-checked handle resolution; nullptr = stale (slot released
  // or reused since the handle was minted — release bumps the generation,
  // so a matching generation means the slot still holds this rpc).
  [[nodiscard]] RpcSlot* lookup_rpc(std::uint64_t handle) {
    const std::uint32_t index = handle_index(handle);
    if (index >= rpc_chunks_.size() * kRpcSlotsPerChunk) return nullptr;
    RpcSlot& slot = rpc_slot(index);
    if (slot.generation != static_cast<std::uint32_t>(handle >> 32)) {
      return nullptr;
    }
    return &slot;
  }

  std::uint32_t acquire_rpc_slot() {
    if (rpc_free_head_ == kNoFreeSlot) grow_rpc_pool();
    const std::uint32_t index = rpc_free_head_;
    rpc_free_head_ = rpc_slot(index).next_free;
    ++rpc_in_use_;
    return index;
  }

  void release_rpc_slot(std::uint32_t index) {
    RpcSlot& slot = rpc_slot(index);
    ++slot.generation;  // invalidate outstanding handles
    slot.next_free = rpc_free_head_;
    rpc_free_head_ = index;
    --rpc_in_use_;
  }

  void grow_rpc_pool();

  // ---- event-arena callables (all sized for inline storage) ----

  template <typename Fn>
  struct ArrivalGuard {
    SimNetwork* net;
    HostId to;
    Fn fn;
    void operator()() {
      if (!net->hosts_->alive(to)) return;  // dropped on the floor
      fn();
    }
  };

  struct TimeoutFire {
    SimNetwork* net;
    std::uint64_t handle;
    void operator()() { net->rpc_timeout(handle); }
  };

  template <typename Resp>
  struct Completion {
    SimNetwork* net;
    std::uint64_t handle;
    Resp response;
    void operator()() { net->finish_rpc<Resp>(handle, std::move(response)); }
  };

  template <typename Resp, typename ServerFn>
  struct RequestArrival {
    SimNetwork* net;
    std::uint64_t handle;
    ServerFn server;
    void operator()() {
      // The slot is pinned while its request leg is in flight, so the
      // handle is never stale here — but the route must be read before
      // consume_request(), which may release the slot if the rpc already
      // timed out.
      RpcSlot* slot = net->lookup_rpc(handle);
      if (slot == nullptr) return;
      if (!net->hosts_->alive(slot->rpc_to)) {
        net->consume_request(handle);
        return;
      }
      Reply<Resp> reply(net, handle, slot->rpc_to, slot->rpc_from,
                        slot->response_bytes);
      net->consume_request(handle);
      server(std::move(reply));
    }
  };

  // Deterministic-mode request arrival: executes on the shard owning
  // `rpc_to` (possibly not the slot's shard), so the whole route is
  // captured here instead of being read back out of the slot.
  template <typename Resp, typename ServerFn>
  struct DetRequestArrival {
    SimNetwork* dst;     // fabric owning rpc_to — where this closure runs
    SimNetwork* origin;  // fabric owning the rpc slot (rpc_from's shard)
    std::uint64_t handle;
    HostId rpc_from, rpc_to;
    double response_bytes;
    ServerFn server;
    void operator()() {
      if (!dst->hosts_->alive(rpc_to)) return;  // died in flight
      Reply<Resp> reply(dst, handle, rpc_to, rpc_from, response_bytes, origin);
      server(std::move(reply));
    }
  };

  template <typename Resp, typename ServerFn>
  struct SyncServer {
    ServerFn server;
    void operator()(Reply<Resp> reply) { reply(server()); }
  };

  // ---- deterministic routing helpers ----

  // The fabric owning `host`'s shard (this fabric when no router is
  // attached, e.g. the windowless sequential reference runner).
  [[nodiscard]] SimNetwork* owner_of(HostId host) {
    if (router_ == nullptr) return this;
    return router_->fabric_of(router_->shard_of(host));
  }

  // Compute the canonical delivery key for a message from -> to, then
  // either schedule it as a local delivery (intra-shard) or post it to the
  // router for barrier injection (cross-shard). The source sequence
  // consumed here is the same counter sample_delay peeked for the jitter
  // draw — the two stay in lockstep because every sampled message is
  // routed exactly once.
  template <typename F>
  void route_canonical(HostId from, HostId to, SimDuration delay, F&& fn) {
    const std::uint64_t hi =
        (static_cast<std::uint64_t>(to.value) << 32) | from.value;
    if (from.value >= src_seq_.size()) src_seq_.resize(from.value + 1, 0);
    const std::uint64_t lo = src_seq_[from.value]++;
    if (delay < 0) delay = 0;
    const SimTime arrival = simulator_->now() + delay;
    if (router_ != nullptr) {
      const std::uint32_t dst_shard = router_->shard_of(to);
      if (dst_shard != shard_id_) {
        router_->post(shard_id_, dst_shard, arrival, hi, lo,
                      sim::Callback(std::forward<F>(fn)));
        return;
      }
    }
    simulator_->schedule_delivery(arrival, sim::Simulator::DeliveryKey{hi, lo},
                                  sim::Callback(std::forward<F>(fn)));
  }

  [[nodiscard]] double det_jitter_factor(std::uint64_t key,
                                         std::uint64_t seq) const;

  // ---- rpc lifecycle (non-template paths live in the .cc) ----

  void rpc_timeout(std::uint64_t handle);
  void consume_request(std::uint64_t handle);

  template <typename Resp>
  void send_response(std::uint64_t handle, HostId from, HostId to,
                     double bytes, Resp response, SimNetwork* origin) {
    // The response leg is an ordinary fabric delivery (cut check at send,
    // jitter draw, liveness at arrival) even when the rpc already timed
    // out: the wire does not know the caller gave up, and skipping the
    // send would shift the jitter draw stream. `origin` (== this outside
    // sharded runs) owns the rpc slot; the completion executes there.
    if (faults_ != nullptr && faults_->dropped(from, to, simulator_->now())) {
      return;
    }
    const SimDuration delay = sample_delay(from, to, bytes);
    if (!deterministic_) [[likely]] {
      simulator_->schedule_after(
          delay, Completion<Resp>{origin, handle, std::move(response)});
      return;
    }
    // route_canonical routes by `to` == the original caller, so the
    // completion lands on origin's shard, where the slot lives.
    route_canonical(from, to, delay,
                    Completion<Resp>{origin, handle, std::move(response)});
  }

  template <typename Resp>
  void finish_rpc(std::uint64_t handle, Resp&& response) {
    RpcSlot* slot = lookup_rpc(handle);
    if (slot == nullptr) return;  // stale: rpc settled and slot reused
    if (!hosts_->alive(slot->rpc_from)) return;  // caller died in flight
    if (!slot->done) return;  // timeout won the race; response dropped
    simulator_->cancel(slot->timeout_event);
    slot->timeout_event = sim::kInvalidEvent;
    std::optional<Resp> value(std::move(response));
    slot->done.invoke_and_reset(&value);
    // Re-resolve nothing: chunk storage is stable, `slot` stays valid even
    // if the completion callback issued new rpcs.
    if (slot->request_consumed) release_rpc_slot(handle_index(handle));
  }

  sim::Simulator* simulator_;
  const NetworkModel* model_;
  HostTable* hosts_;
  Rng rng_;
  double jitter_sigma_;
  const FaultInjector* faults_{nullptr};

  // Deterministic-delivery state (see enable_deterministic_delivery).
  bool deterministic_{false};
  std::uint64_t det_seed_{0};
  ShardRouter* router_{nullptr};
  std::uint32_t shard_id_{0};
  // Messages sent so far, by source HostId (deterministic mode only): the
  // jitter of a host's message n is hashed from n, and n is the canonical
  // delivery-key tiebreak.
  std::vector<std::uint64_t> src_seq_;

  // Rpc slot pool (chunked so slots never move).
  std::vector<std::unique_ptr<RpcSlot[]>> rpc_chunks_;
  std::uint32_t rpc_free_head_{kNoFreeSlot};
  std::size_t rpc_in_use_{0};
};

}  // namespace eden::net
