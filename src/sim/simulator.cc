#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

namespace eden::sim {

void Simulator::grow_slab() {
  if (slot_count_ > kSlotMask) {
    throw std::runtime_error(
        "Simulator: more than 2^24 concurrently pending events");
  }
  chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSize));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t low = static_cast<std::uint32_t>(id & 0xffffffffu);
  if (low == 0) return false;
  const std::uint32_t index = low - 1;
  if (index >= slot_count_) return false;
  Slot& s = slot(index);
  if (!s.cb || s.generation != static_cast<std::uint32_t>(id >> 32)) {
    return false;
  }
  release_slot(index);
  --live_count_;
  ++dead_in_queue_;
  // Tombstone bound: pops drop dead entries as they surface; once the
  // backlog outnumbers live events, one O(n) sweep amortizes to O(1) per
  // cancel and keeps the queue O(pending()).
  if (dead_in_queue_ > 64 && dead_in_queue_ > live_count_) sweep();
  return true;
}

Simulator::Block* Simulator::link_block(Chain& chain) {
  if (free_blocks_ == nullptr) {
    block_chunks_.push_back(
        std::make_unique_for_overwrite<Block[]>(kChunkBlocks));
    Block* chunk = block_chunks_.back().get();
    for (std::size_t i = kChunkBlocks; i > 0; --i) release_block(&chunk[i - 1]);
  }
  Block* block = free_blocks_;
  free_blocks_ = block->next;
  block->next = nullptr;
  block->count = 0;
  splice(chain, Chain{block, block});
  return block;
}

void Simulator::lower_min(std::uint64_t t) {
  // Every queued time is >= last_min_ > t. Let H be the highest digit where
  // t and last_min_ differ. Buckets at level >= H stay put: their entries
  // agree with both times above their level and differ from both at it.
  // Bucket 0 and every bucket below H share last_min_'s digit H, so around
  // t they all belong to bucket (H, that digit) — empty until now, since
  // level-H entries differ from last_min_ at digit H. Stable appends and
  // splices keep equal times (always co-located in one source bucket) in
  // FIFO order; tombstones move along and stay counted.
  const int high = (63 - std::countl_zero(t ^ last_min_)) / kDigitBits;
  const auto digit = static_cast<int>((last_min_ >> (high * kDigitBits)) &
                                      (kDigits - 1));
  last_min_ = t;
  for (std::size_t i = bucket0_cursor_; i < bucket0_.size(); ++i) {
    push_entry(bucket0_[i].time, bucket0_[i].seq_slot);
  }
  bucket0_.clear();
  bucket0_cursor_ = 0;
  bucket0_unordered_ = false;
  Chain& target = level_buckets_[high * kDigits + digit];
  for (int level = 0; level < high; ++level) {
    for (std::uint64_t dm = digit_mask_[level]; dm != 0; dm &= dm - 1) {
      Chain& bucket = level_buckets_[level * kDigits + std::countr_zero(dm)];
      splice(target, bucket);
      bucket = Chain{};
    }
    digit_mask_[level] = 0;
  }
  level_mask_ &= ~((1u << high) - 1);
  if (target.head != nullptr) {
    digit_mask_[high] |= 1ull << digit;
    level_mask_ |= 1u << high;
  }
}

void Simulator::compact(Chain& chain) {
  // The write cursor never passes the read cursor: every block before the
  // one being written is full, and no block holds more than a full one.
  Block* out = chain.head;
  std::uint32_t kept = 0;
  for (Block* block = chain.head; block != nullptr; block = block->next) {
    for (std::uint32_t i = 0; i < block->count; ++i) {
      if (stale(block->entries[i])) continue;
      if (kept == kBlockEntries) {
        out->count = kBlockEntries;
        out = out->next;
        kept = 0;
      }
      out->entries[kept++] = block->entries[i];
    }
  }
  if (kept == 0) {
    drain(chain.head, [](const Entry&) {});
    chain = Chain{};
    return;
  }
  drain(out->next, [](const Entry&) {});
  out->count = kept;
  out->next = nullptr;
  chain.tail = out;
}

void Simulator::sweep() {
  std::size_t kept = 0;
  for (std::size_t i = bucket0_cursor_; i < bucket0_.size(); ++i) {
    if (!stale(bucket0_[i])) bucket0_[kept++] = bucket0_[i];
  }
  bucket0_.resize(kept);
  bucket0_cursor_ = 0;
  std::uint32_t lm = level_mask_;
  while (lm != 0) {
    const int level = std::countr_zero(lm);
    lm &= lm - 1;
    std::uint64_t dm = digit_mask_[level];
    while (dm != 0) {
      const int digit = std::countr_zero(dm);
      dm &= dm - 1;
      Chain& bucket = level_buckets_[level * kDigits + digit];
      compact(bucket);
      if (bucket.head == nullptr) digit_mask_[level] &= ~(1ull << digit);
    }
    if (digit_mask_[level] == 0) level_mask_ &= ~(1u << level);
  }
  dead_in_queue_ = 0;
}

bool Simulator::refill_bucket0() {
  if (level_mask_ == 0) return false;
  const int level = std::countr_zero(level_mask_);
  const int digit = std::countr_zero(digit_mask_[level]);
  Chain& bucket = level_buckets_[level * kDigits + digit];
  Block* const head = bucket.head;
  bucket = Chain{};
  digit_mask_[level] &= digit_mask_[level] - 1;
  if (digit_mask_[level] == 0) level_mask_ &= ~(1u << level);
  if (level == 0 || (head->next == nullptr && head->count == 1)) {
    // One timestamp: a level-0 bucket differs from last_min_ only in the
    // low digit, and singletons dominate sparse schedules. Skip the scan,
    // and start pulling the first slot's cache line while the pop loop
    // comes back around.
    last_min_ = head->entries[0].time;
    __builtin_prefetch(&slot(
        static_cast<std::uint32_t>(head->entries[0].seq_slot) & kSlotMask));
    drain(head, [this](const Entry& e) { push_bucket0(e); });
    return true;
  }
  // Pass 1: the minimum (time, then schedule order). Tombstones may define
  // it — harmless: redistribution stays correct and the pop loop discards
  // them; skipping the per-entry slab lookup keeps this a sequential scan.
  const Entry* best = &head->entries[0];
  for (const Block* block = head; block != nullptr; block = block->next) {
    for (std::uint32_t i = 0; i < block->count; ++i) {
      const Entry& e = block->entries[i];
      if (e.time < best->time ||
          (e.time == best->time && e.seq_slot < best->seq_slot)) {
        best = &e;
      }
    }
  }
  last_min_ = best->time;
  // Pass 2: redistribute around the new minimum. Every entry lands
  // strictly below this level (the digit-`level` disagreement with the old
  // last_min_ is resolved by the new one), so never into the chain being
  // walked; stable appends preserve FIFO order for equal times. The
  // minimum itself lands in bucket 0.
  drain(head, [this](const Entry& e) { push_entry(e.time, e.seq_slot); });
  return true;
}

void Simulator::order_bucket0() {
  bucket0_unordered_ = false;
  if (bucket0_.size() - bucket0_cursor_ < 2) return;
  // A delivery's seq_slot is its bare slot index, below every regular
  // entry's; regular entries compare by seq, which leads their seq_slot.
  std::sort(bucket0_.begin() + static_cast<std::ptrdiff_t>(bucket0_cursor_),
            bucket0_.end(), [this](const Entry& a, const Entry& b) {
              if (a.seq_slot > kSlotMask || b.seq_slot > kSlotMask) {
                return a.seq_slot < b.seq_slot;
              }
              const DeliveryKey& ka = delivery_keys_[a.seq_slot];
              const DeliveryKey& kb = delivery_keys_[b.seq_slot];
              return ka.hi != kb.hi ? ka.hi < kb.hi : ka.lo < kb.lo;
            });
}

bool Simulator::pop_one(SimTime limit) {
  for (;;) {
    if (bucket0_cursor_ >= bucket0_.size()) {
      bucket0_.clear();
      bucket0_cursor_ = 0;
      if (!refill_bucket0()) return false;
      continue;
    }
    if (bucket0_unordered_) [[unlikely]] {
      order_bucket0();
    }
    const Entry e = bucket0_[bucket0_cursor_];
    if (bucket0_cursor_ + 1 < bucket0_.size()) {
      // Equal-time batch: pull the next slot's line while this callback
      // runs.
      __builtin_prefetch(&slot(static_cast<std::uint32_t>(
                                   bucket0_[bucket0_cursor_ + 1].seq_slot) &
                               kSlotMask));
    }
    const std::uint32_t index =
        static_cast<std::uint32_t>(e.seq_slot) & kSlotMask;
    Slot& s = slot(index);
    if (!s.cb || s.generation != static_cast<std::uint32_t>(
                                     e.seq_slot >> kSlotBits)) {  // tombstone
      ++bucket0_cursor_;
      --dead_in_queue_;
      continue;
    }
    if (static_cast<SimTime>(e.time) > limit) return false;
    ++bucket0_cursor_;
    --live_count_;
    now_ = static_cast<SimTime>(e.time);
    ++processed_;
    // Invoke in place (one dispatch, no relocate). The slot reads as empty
    // during the call, and is only freed afterwards, so re-entrant
    // schedules cannot reuse the storage the running callable lives in.
    s.cb.invoke_and_reset();
    release_slot(index);
    return true;
  }
}

void Simulator::schedule_delivery(SimTime t, DeliveryKey key, Callback cb) {
  if (!cb) return;
  // Seq 0 marks the entry as a delivery and is also the slot's generation:
  // no EventId is handed out, and a stale handle only matches it after the
  // 2^32-event wrap that regular slots already tolerate.
  const std::uint32_t index = prepare_slot(t, 0);
  slot(index).cb = std::move(cb);
  if (index >= delivery_keys_.size()) {
    delivery_keys_.resize(chunks_.size() * kChunkSize);
  }
  delivery_keys_[index] = key;
}

void Simulator::run_until(SimTime t) {
  while (pop_one(t)) {
  }
  if (t > now_) now_ = t;
}

void Simulator::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (pop_one(std::numeric_limits<SimTime>::max())) {
    if (++n > max_events) {
      throw std::runtime_error("Simulator::run_all: event budget exceeded");
    }
  }
}

Periodic::Periodic(Simulator& simulator, SimTime start, SimDuration period,
                   std::function<void()> fn)
    : state_(std::make_shared<State>()) {
  assert(period > 0);
  state_->simulator = &simulator;
  state_->period = period;
  state_->fn = std::move(fn);
  state_->alive = true;
  arm(state_, start < simulator.now() ? simulator.now() : start);
}

Periodic::~Periodic() { stop(); }

void Periodic::stop() {
  if (state_) state_->alive = false;
}

void Periodic::arm(const std::shared_ptr<State>& state, SimTime at) {
  state->simulator->schedule_at(at, [state, at] {
    if (!state->alive) return;
    state->fn();
    if (state->alive) arm(state, at + state->period);
  });
}

}  // namespace eden::sim
