#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
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

void Simulator::lower_min(std::uint64_t t) {
  // Every queued time is >= last_min_ > t. Let H be the highest digit where
  // t and last_min_ differ. Buckets at level >= H stay put: their entries
  // agree with both times above their level and differ from both at it.
  // Bucket 0 and every bucket below H share last_min_'s digit H, so around
  // t they all belong to bucket (H, that digit) — empty until now, since
  // level-H entries differ from last_min_ at digit H. Stable appends keep
  // equal times (always co-located in one source bucket) in FIFO order;
  // tombstones move along and stay counted.
  const int high = (63 - std::countl_zero(t ^ last_min_)) / kDigitBits;
  const auto digit = static_cast<int>((last_min_ >> (high * kDigitBits)) &
                                      (kDigits - 1));
  std::vector<Entry>& target = level_buckets_[high * kDigits + digit];
  target.insert(target.end(), bucket0_.begin() + bucket0_cursor_,
                bucket0_.end());
  bucket0_.clear();
  bucket0_cursor_ = 0;
  for (int level = 0; level < high; ++level) {
    for (std::uint64_t dm = digit_mask_[level]; dm != 0; dm &= dm - 1) {
      std::vector<Entry>& bucket =
          level_buckets_[level * kDigits + std::countr_zero(dm)];
      target.insert(target.end(), bucket.begin(), bucket.end());
      // Free, don't just clear: sharded runs lower thousands of times, and
      // every emptied bucket would keep its peak capacity (peak RSS).
      std::vector<Entry>().swap(bucket);
    }
    digit_mask_[level] = 0;
  }
  level_mask_ &= ~((1u << high) - 1);
  if (!target.empty()) {
    digit_mask_[high] |= 1ull << digit;
    level_mask_ |= 1u << high;
  }
  last_min_ = t;
}

void Simulator::sweep() {
  auto filter = [&](std::vector<Entry>& bucket, std::size_t begin) {
    std::size_t kept = 0;
    for (std::size_t i = begin; i < bucket.size(); ++i) {
      if (!stale(bucket[i])) bucket[kept++] = bucket[i];
    }
    bucket.resize(kept);
  };
  filter(bucket0_, bucket0_cursor_);
  bucket0_cursor_ = 0;
  std::uint32_t lm = level_mask_;
  while (lm != 0) {
    const int level = std::countr_zero(lm);
    lm &= lm - 1;
    std::uint64_t dm = digit_mask_[level];
    while (dm != 0) {
      const int digit = std::countr_zero(dm);
      dm &= dm - 1;
      std::vector<Entry>& bucket = level_buckets_[level * kDigits + digit];
      filter(bucket, 0);
      if (bucket.empty()) digit_mask_[level] &= ~(1ull << digit);
    }
    if (digit_mask_[level] == 0) level_mask_ &= ~(1u << level);
  }
  dead_in_queue_ = 0;
}

bool Simulator::refill_bucket0() {
  if (level_mask_ == 0) return false;
  const int level = std::countr_zero(level_mask_);
  const int digit = std::countr_zero(digit_mask_[level]);
  std::vector<Entry>& bucket = level_buckets_[level * kDigits + digit];
  digit_mask_[level] &= digit_mask_[level] - 1;
  if (digit_mask_[level] == 0) level_mask_ &= ~(1u << level);
  if (bucket.size() == 1) {
    // Singleton buckets dominate sparse schedules; skip the scan and the
    // vector swap dance entirely, and start pulling the slot's cache line
    // while the pop loop comes back around.
    const Entry e = bucket.front();
    bucket.clear();
    last_min_ = e.time;
    bucket0_.push_back(e);
    __builtin_prefetch(
        &slot(static_cast<std::uint32_t>(e.seq_slot) & kSlotMask));
    return true;
  }
  if (level == 0) {
    // A level-0 bucket differs from last_min_ only in the low digit, so
    // every entry shares one timestamp: refill is a vector swap, and the
    // drained bucket inherits bucket 0's old capacity for reuse.
    last_min_ = bucket.front().time;
    bucket0_.swap(bucket);
    return true;
  }
  // Pass 1: the minimum (time, then schedule order). Tombstones may define
  // it — harmless: redistribution stays correct and the pop loop discards
  // them; skipping the per-entry slab lookup keeps this a sequential scan.
  const Entry* best = &bucket.front();
  for (const Entry& e : bucket) {
    if (e.time < best->time ||
        (e.time == best->time && e.seq_slot < best->seq_slot)) {
      best = &e;
    }
  }
  last_min_ = best->time;
  // Pass 2: redistribute around the new minimum. Every entry lands
  // strictly below this level (the digit-`level` disagreement with the old
  // last_min_ is resolved by the new one); stable appends preserve FIFO
  // order for equal times. The minimum itself lands in bucket 0.
  moving_.swap(bucket);
  for (const Entry& e : moving_) push_entry(e.time, e.seq_slot);
  moving_.clear();
  return true;
}

bool Simulator::pop_one(SimTime limit) {
  for (;;) {
    if (bucket0_cursor_ >= bucket0_.size()) {
      bucket0_.clear();
      bucket0_cursor_ = 0;
      if (!refill_bucket0()) return false;
      continue;
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
  if (t < now_) t = now_;
  const std::uint32_t index = allocate_slot();
  Slot& s = slot(index);
  s.generation = static_cast<std::uint32_t>(next_seq_++ & kSeqMask);
  s.cb = std::move(cb);
  ++live_count_;
  deliveries_.push_back(
      DeliveryEntry{static_cast<std::uint64_t>(t), key.hi, key.lo, index});
  std::push_heap(deliveries_.begin(), deliveries_.end(), DeliveryAfter{});
}

SimTime Simulator::peek_event_time() {
  for (;;) {
    if (bucket0_cursor_ >= bucket0_.size()) {
      bucket0_.clear();
      bucket0_cursor_ = 0;
      if (!refill_bucket0()) return kNoEventTime;
      continue;
    }
    const Entry e = bucket0_[bucket0_cursor_];
    if (stale(e)) {  // tombstone: discard exactly like pop_one would
      ++bucket0_cursor_;
      --dead_in_queue_;
      continue;
    }
    return static_cast<SimTime>(e.time);
  }
}

void Simulator::pop_delivery() {
  std::pop_heap(deliveries_.begin(), deliveries_.end(), DeliveryAfter{});
  const DeliveryEntry e = deliveries_.back();
  deliveries_.pop_back();
  Slot& s = slot(e.slot);
  --live_count_;
  now_ = static_cast<SimTime>(e.time);
  ++processed_;
  s.cb.invoke_and_reset();
  release_slot(e.slot);
}

bool Simulator::pop_next(SimTime limit) {
  if (deliveries_.empty()) return pop_one(limit);
  const auto td = static_cast<SimTime>(deliveries_.front().time);
  const SimTime te = peek_event_time();
  if (te < td) return pop_one(limit);  // strictly earlier regular event
  if (td > limit) return false;        // both lanes beyond the limit
  pop_delivery();                      // deliveries win ties (td <= te)
  return true;
}

void Simulator::run_until(SimTime t) {
  while (pop_next(t)) {
  }
  if (t > now_) now_ = t;
}

void Simulator::run_all(std::size_t max_events) {
  std::size_t n = 0;
  while (pop_next(std::numeric_limits<SimTime>::max())) {
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
