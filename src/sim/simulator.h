// Discrete-event simulator: the clock every EDEN protocol component runs
// against in emulation mode. Events at equal timestamps fire in scheduling
// order (FIFO), which makes every experiment deterministic.
//
// Internals (rebuilt for the event-engine overhaul):
//  * Callbacks live in a chunked slab arena addressed by 24-bit slot
//    indices — no per-event heap allocation (the SBO Callback type keeps
//    captures inline) and no reallocation moves as the arena grows.
//    Cancellation is an O(1) generation check on the slot; EventId handles
//    are never invalidated by slot reuse.
//  * The pending queue is a monotone radix heap over base-64 digits:
//    bucket (L, v) holds entries whose event time first differs from the
//    last popped minimum at 6-bit digit L, with value v there; bucket 0
//    holds exact matches. Scheduling appends to one bucket in O(1);
//    popping redistributes the lowest non-empty bucket with sequential
//    16-byte scans — no comparison heap, and at most
//    ceil(log64(time-spread)) ~ 3 moves per entry for realistic horizons.
//    Level-0 buckets hold a single timestamp each, so their refill is one
//    sequential copy. FIFO ties hold because equal times always share a
//    bucket and appends are stable. A schedule below the current minimum
//    (see prepare_slot) lowers it by moving only bucket 0 and the buckets
//    below the highest differing digit into one bucket; higher levels stay.
//  * Queue memory is proportional to what is queued. Every bucket but
//    bucket 0 is a chain of 1 KiB blocks (a next pointer, a count and 63
//    entries) drawn from one free list per simulator: a refill hands each
//    block back as it drains it, and lowering splices whole chains in
//    O(1) — every block carries its own count, so a partial block may sit
//    mid-chain. The pool grows in 64-block chunks and never shrinks, so
//    the steady state allocates nothing. Bucket 0 stays a vector: it only
//    ever holds one timestamp.
//  * Deliveries (schedule_delivery) share this queue. Their entries carry
//    sequence 0 and their keys sit in a slot-indexed side array; bucket 0
//    is sorted (deliveries by key, then regular events by sequence) only
//    when it holds more than one entry and a delivery entered it.
//  * Cancellation tombstones are discarded when popped; a sweep runs once
//    they outnumber live events, so cancel-heavy Periodic churn cannot
//    accumulate dead entries (queued_entries() stays O(pending())).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"

namespace eden::sim {

// Opaque event handle: low 32 bits hold (slot index + 1), high 32 bits the
// slot's generation at allocation time. Stale handles (event already ran,
// cancelled, or slot reused) fail the generation check and cancel() safely
// returns false. Zero is never a valid handle.
using EventId = std::uint64_t;
constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using Callback = sim::Callback;

  [[nodiscard]] SimTime now() const { return now_; }

  // Schedule `fn` at absolute time `t` (clamped to now if in the past).
  // The callable is constructed directly in its arena slot; both overloads
  // are header-inline because scheduling is the engine's hottest write path.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventId schedule_at(SimTime t, F&& fn) {
    const std::uint32_t index = prepare_slot(t, next_seq_++ & kSeqMask);
    slot(index).cb.emplace(std::forward<F>(fn));
    return make_id(index, slot(index).generation);
  }
  EventId schedule_at(SimTime t, Callback cb) {
    if (!cb) return kInvalidEvent;  // slot liveness is callback presence
    const std::uint32_t index = prepare_slot(t, next_seq_++ & kSeqMask);
    slot(index).cb = std::move(cb);
    return make_id(index, slot(index).generation);
  }
  // Schedule after `delay` (clamped to zero if negative).
  template <typename F>
  EventId schedule_after(SimDuration delay, F&& fn) {
    if (delay < 0) delay = 0;
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Cancel a pending event. Returns false if it already ran or was
  // cancelled before.
  bool cancel(EventId id);

  // ---- canonical deliveries ----
  //
  // Cross-host message deliveries (net::SimNetwork) are ordered by
  // (time, key.hi, key.lo) instead of by scheduling order. SimNetwork
  // builds the key canonically — hi = (destination << 32 | source), lo =
  // the source's message sequence — so the relative order of same-tick
  // deliveries is a pure function of the message set, independent of which
  // shard produced each message or when it was scheduled. At equal
  // timestamps deliveries run BEFORE regular events (a fixed global rule,
  // again shard-layout-independent).
  // Deliveries cannot be cancelled; they count toward pending() and
  // events_processed() like regular events. Like schedule_at, the callable
  // is constructed in its arena slot.
  struct DeliveryKey {
    std::uint64_t hi{0};
    std::uint64_t lo{0};
  };
  template <typename F>
  void schedule_delivery(SimTime t, DeliveryKey key, F&& fn) {
    static_assert(!std::is_same_v<std::decay_t<F>, Callback>,
                  "pass the callable itself: it is built in its slot");
    static_assert(std::is_invocable_r_v<void, std::decay_t<F>&>);
    const std::uint32_t index = prepare_delivery(t, key);
    slot(index).cb.emplace(std::forward<F>(fn));
  }

  // Run every event with timestamp <= `t`; afterwards now() == t even if
  // the queue drained early.
  void run_until(SimTime t);
  // Run until the queue is empty (with a runaway guard).
  void run_all(std::size_t max_events = 50'000'000);

  // Live (schedulable, not-cancelled) events only — cancelled entries are
  // excluded immediately, not when their timestamp is reached.
  [[nodiscard]] std::size_t pending() const { return live_count_; }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

  // Diagnostics: queue entries including not-yet-purged tombstones. The
  // sweep invariant keeps this O(pending()); tests assert on it.
  [[nodiscard]] std::size_t queued_entries() const {
    return live_count_ + dead_in_queue_;
  }
  // Diagnostics: heap bytes held for queue entries — the block pool, bucket
  // 0 and the delivery keys. None of them ever shrinks, so this is also the
  // high-water mark.
  [[nodiscard]] std::size_t queue_storage_bytes() const {
    return block_chunks_.size() * kChunkBlocks * sizeof(Block) +
           bucket0_.capacity() * sizeof(Entry) +
           delivery_keys_.capacity() * sizeof(DeliveryKey);
  }

 private:
  // Exactly one cache line: 48B inline callback storage + ops pointer +
  // occupancy metadata. A slot is live iff its callback is non-empty;
  // `generation` holds the low 32 bits of the occupying event's global
  // sequence number, which is unique enough per slot for stale-handle
  // detection (a collision needs the same slot to be revisited exactly
  // 2^32 events later by a still-held handle). generation/next_free are
  // deliberately uninitialized — each is written before first read
  // (prepare_slot / release_slot), and chunks are allocated with
  // make_unique_for_overwrite so constructing a chunk writes one pointer
  // per slot instead of zeroing whole cache lines.
  struct alignas(64) Slot {
    Callback cb;
    std::uint32_t generation;
    std::uint32_t next_free;
  };
  static_assert(sizeof(Slot) == 64);
  // 16-byte queue entry: event time plus (seq << 24 | slot). seq rides in
  // the high bits so FIFO ties compare with one integer comparison; 24
  // slot bits cap concurrently-pending events at ~16.7M, 40 seq bits cap
  // one simulator's lifetime at ~1.1e12 events. Regular events count seq
  // from 1; a delivery's entry carries seq 0 (so seq_slot <= kSlotMask) and
  // its slot generation 0.
  struct Entry {
    std::uint64_t time;
    std::uint64_t seq_slot;
  };
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;
  static constexpr int kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqMask = (1ull << 40) - 1;
  static constexpr int kChunkBits = 9;  // 512 slots per slab chunk
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr int kDigitBits = 6;
  static constexpr int kDigits = 1 << kDigitBits;         // 64
  static constexpr int kLevels = (63 + kDigitBits) / kDigitBits;  // 11
  // A bucket is a chain of blocks from the pool; appends go to the tail.
  // The header comes first so a short block's count and entries share a
  // cache line.
  static constexpr std::uint32_t kBlockEntries = 63;
  static constexpr std::size_t kChunkBlocks = 64;  // pool growth: 64 KiB
  struct Block {
    Block* next;
    std::uint32_t count;
    std::array<Entry, kBlockEntries> entries;
  };
  static_assert(sizeof(Block) == 1024);
  struct Chain {
    Block* head{nullptr};
    Block* tail{nullptr};
  };

  [[nodiscard]] Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot(std::uint32_t index) const {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  [[nodiscard]] bool stale(const Entry& e) const {
    const Slot& s = slot(static_cast<std::uint32_t>(e.seq_slot) & kSlotMask);
    return !s.cb ||
           s.generation != static_cast<std::uint32_t>(e.seq_slot >> kSlotBits);
  }
  static constexpr EventId make_id(std::uint32_t index,
                                   std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(index) + 1);
  }

  std::uint32_t allocate_slot() {
    if (free_head_ != kNoFreeSlot) {
      const std::uint32_t index = free_head_;
      free_head_ = slot(index).next_free;
      return index;
    }
    if ((slot_count_ & (kChunkSize - 1)) == 0) [[unlikely]] {
      grow_slab();
    }
    return slot_count_++;
  }
  void release_slot(std::uint32_t index) {
    Slot& s = slot(index);
    s.cb.reset();
    s.next_free = free_head_;
    free_head_ = index;
  }
  void push_bucket0(const Entry& e) {
    bucket0_.push_back(e);
    if (e.seq_slot <= kSlotMask) bucket0_unordered_ = true;  // a delivery
  }
  void push_entry(std::uint64_t time, std::uint64_t seq_slot) {
    const std::uint64_t diff = time ^ last_min_;
    if (diff == 0) {
      push_bucket0(Entry{time, seq_slot});
      return;
    }
    // Valid event times are positive int64, so bit <= 62 and L < kLevels.
    const int bit = 63 - std::countl_zero(diff);
    const int level = bit / kDigitBits;
    const auto digit =
        static_cast<int>((time >> (level * kDigitBits)) & (kDigits - 1));
    Chain& bucket = level_buckets_[level * kDigits + digit];
    Block* tail = bucket.tail;
    if (tail == nullptr || tail->count == kBlockEntries) [[unlikely]] {
      tail = link_block(bucket);
    }
    tail->entries[tail->count++] = Entry{time, seq_slot};
    digit_mask_[level] |= 1ull << digit;
    level_mask_ |= 1u << level;
  }
  // Everything schedule_at does except constructing the callable: clamp
  // the time, allocate + initialize a slot, enqueue its entry under `seq`.
  std::uint32_t prepare_slot(SimTime t, std::uint64_t seq) {
    if (t < now_) t = now_;
    const auto time = static_cast<std::uint64_t>(t);
    // last_min_ can sit above now() between runs: run_until() refills
    // bucket 0 past its limit and then advances the clock into the gap,
    // and a cross-shard send from another domain can schedule a delivery
    // into that gap.
    // A schedule there lowers last_min_ so the radix ordering invariant
    // (every queued time >= last_min_) keeps holding.
    if (time < last_min_) [[unlikely]] {
      lower_min(time);
    }
    const std::uint32_t index = allocate_slot();
    slot(index).generation = static_cast<std::uint32_t>(seq);
    ++live_count_;
    push_entry(time, (seq << kSlotBits) | index);
    return index;
  }
  // prepare_slot for a delivery: seq 0 marks the entry as a delivery and
  // is also the slot's generation (no EventId is handed out, and a stale
  // handle only matches it after the 2^32-event wrap that regular slots
  // already tolerate); the key goes to the slot-indexed side array.
  std::uint32_t prepare_delivery(SimTime t, DeliveryKey key) {
    const std::uint32_t index = prepare_slot(t, 0);
    if (index >= delivery_keys_.size()) [[unlikely]] {
      delivery_keys_.resize(chunks_.size() * kChunkSize);
    }
    delivery_keys_[index] = key;
    return index;
  }
  void grow_slab();
  // Append an empty block from the pool to `chain` and return it.
  Block* link_block(Chain& chain);
  void release_block(Block* block) {
    block->next = free_blocks_;
    free_blocks_ = block;
  }
  // Visit every entry from `block` to the end of its chain in order, and
  // hand each block back to the pool once drained, so a walk that appends
  // elsewhere reuses the block it just emptied.
  template <typename Visit>
  void drain(Block* block, Visit&& visit) {
    while (block != nullptr) {
      for (std::uint32_t i = 0; i < block->count; ++i) visit(block->entries[i]);
      Block* next = block->next;
      release_block(block);
      block = next;
    }
  }
  // Append chain `from` to chain `into` in O(1).
  static void splice(Chain& into, const Chain& from) {
    (into.tail != nullptr ? into.tail->next : into.head) = from.head;
    into.tail = from.tail;
  }
  // Lower last_min_ to `t` < last_min_, moving only the buckets that sit
  // below the highest digit where the two differ (simulator.cc).
  void lower_min(std::uint64_t t);
  // Redistribute the lowest non-empty bucket around its minimum; returns
  // false when the queue is empty.
  bool refill_bucket0();
  // Drop every tombstone; called once dead entries outnumber live ones.
  void sweep();
  // Compact `chain` in place without its tombstones; frees emptied blocks.
  void compact(Chain& chain);
  // Sort bucket 0's unpopped entries: deliveries by key, then regular
  // events by seq.
  void order_bucket0();
  bool pop_one(SimTime limit);

  SimTime now_{0};
  std::uint64_t next_seq_{1};
  std::uint64_t processed_{0};
  std::size_t live_count_{0};
  std::size_t dead_in_queue_{0};
  std::uint64_t last_min_{0};     // time of the most recent bucket-0 refill
  std::uint32_t level_mask_{0};   // bit L set <=> some bucket at level L
  std::array<std::uint64_t, kLevels> digit_mask_{};  // per-level occupancy
  std::size_t bucket0_cursor_{0};
  std::vector<Entry> bucket0_;    // entries with time == last_min_
  bool bucket0_unordered_{false};  // a delivery entered bucket 0 unsorted
  std::array<Chain, kLevels * kDigits> level_buckets_{};
  std::vector<std::unique_ptr<Block[]>> block_chunks_;
  Block* free_blocks_{nullptr};   // the pool's free list, linked by next
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_{0};
  std::uint32_t free_head_{kNoFreeSlot};
  std::vector<DeliveryKey> delivery_keys_;  // by slot, pending deliveries
};

// RAII periodic task: fires `fn` every `period` starting at `start` until
// the Periodic object is destroyed or stop() is called. `fn` may stop it
// from inside the callback. Move-assigning over a running Periodic stops
// the task being replaced; the moved-from object is inert (not running,
// safe to stop/destroy).
class Periodic {
 public:
  Periodic() = default;
  Periodic(Simulator& simulator, SimTime start, SimDuration period,
           std::function<void()> fn);
  Periodic(const Periodic&) = delete;
  Periodic& operator=(const Periodic&) = delete;
  Periodic(Periodic&&) noexcept = default;
  Periodic& operator=(Periodic&& other) noexcept {
    if (this != &other) {
      stop();
      state_ = std::move(other.state_);
    }
    return *this;
  }
  ~Periodic();

  void stop();
  [[nodiscard]] bool running() const { return state_ && state_->alive; }

 private:
  struct State {
    Simulator* simulator{nullptr};
    SimDuration period{0};
    std::function<void()> fn;
    bool alive{false};
  };
  static void arm(const std::shared_ptr<State>& state, SimTime at);

  std::shared_ptr<State> state_;
};

}  // namespace eden::sim
