// Simulated frame executor of an edge node: `cores` parallel workers over a
// FIFO queue. Queueing delay, contention slowdown, burstable-CPU throttling
// (t2/t3-style credits) and host background load all emerge here — this is
// what makes D_proc depend on the node's hardware and current workload.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"
#include "sim/clock.h"

namespace eden::node {

struct ExecutorConfig {
  int cores{1};
  double base_frame_ms{30.0};
  // Memory/cache contention: each additional busy core stretches service
  // time by this fraction.
  double contention_alpha{0.04};
  // Burstable instances (t2/t3): when CPU credits run out, service times
  // stretch by 1/burst_baseline (the instance is throttled to its baseline
  // share).
  bool burstable{false};
  double burst_baseline{0.4};
  double initial_credits_core_sec{30.0};
  // Fraction of compute taken by higher-priority host workloads (volunteer
  // machines run their owners' tasks too).
  double background_load{0.0};
  // Admission bound: jobs arriving at a longer queue are shed — their
  // completion fires immediately with kShedMs. Keeps an overloaded node's
  // backlog — and the latency of whatever it still completes — finite,
  // like a real server shedding stale frames.
  int max_queue{64};
  // When a burstable executor runs out of credits, also shed arrivals
  // beyond the baseline share of the queue (max_queue * burst_baseline):
  // a throttled instance can't drain a full-depth backlog before every
  // entry is stale. Opt-in because it changes admission behavior.
  //
  // The flag also *latches* the throttle: once credits hit zero the
  // executor stays throttled until the balance recovers to rearm_credits
  // (clamped to the initial balance). Instantaneous sampling lets a node
  // under sub-core load ride the zero floor — a few idle milliseconds
  // before each submit earn just enough credit to dodge the throttle
  // forever, which no real burstable instance can do. Legacy mode keeps
  // the historical instantaneous check byte-for-byte.
  bool shed_on_throttle{false};
  double rearm_credits{1.0};
};

class Executor {
 public:
  // `done(proc_ms)` receives queueing + service time for the job, or
  // kShedMs when the executor refused it (queue full / credit throttle).
  // Every submitted job's completion fires exactly once — except across
  // reset(), which deliberately silences the generation it cut off.
  // Capacity 96 because the offload completion nests a whole
  // net::Done<FrameResponse> (a 64-byte object: 56-byte inline buffer +
  // ops pointer) next to the node pointer, frame id and client id (88
  // bytes, plus a word of headroom; see callback.h for the capacity rule)
  // — move-only SBO keeps that chain of callbacks allocation-free end to
  // end, once per frame on every node.
  using Completion = sim::BasicFunc<96, double /*proc_ms*/>;

  // Sentinel passed to a shed job's completion; any negative proc_ms means
  // "not processed".
  static constexpr double kShedMs = -1.0;

  Executor(sim::Scheduler& scheduler, ExecutorConfig config);

  // Submit a job costing `cost` standard frames (1.0 = one app frame).
  void submit(double cost, Completion done);

  // Drop queued jobs and suppress completions of in-flight ones (node
  // death / shutdown).
  void reset();

  void set_background_load(double fraction);

  // Bring the lazy credit/utilization accounting up to now. Telemetry
  // readers (heartbeat status) call this before sampling — an idle
  // executor otherwise reports the credits it had when its last job
  // finished, which can hold a recovered node in the overload set forever.
  void refresh() { account(scheduler_->now()); }

  [[nodiscard]] int busy() const { return busy_; }
  [[nodiscard]] int queued() const { return static_cast<int>(queue_.size()); }
  // Exponentially smoothed busy-core fraction in [0, 1].
  [[nodiscard]] double utilization() const;
  [[nodiscard]] double credits_core_sec() const { return credits_; }
  [[nodiscard]] bool throttled() const;
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  // Jobs shed at admission: queue-full drops plus (when shed_on_throttle)
  // arrivals refused while credit-throttled.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] const ExecutorConfig& config() const { return config_; }

 private:
  struct Job {
    double cost{0};
    Completion done;
    SimTime enqueued_at{0};
  };

  // FIFO ring over a power-of-two vector. A std::deque allocates a fresh
  // node every few pushes as its cursor walks forward — even at constant
  // queue depth — which shows up as steady-state allocations on the frame
  // path. The ring reuses its slots; it only allocates on capacity growth.
  class JobRing {
   public:
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    void push_back(Job job) {
      if (size_ == slots_.size()) grow();
      slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(job);
      ++size_;
    }

    Job pop_front() {
      Job job = std::move(slots_[head_]);
      head_ = (head_ + 1) & (slots_.size() - 1);
      --size_;
      return job;
    }

    // Drops every queued job (destroying its completion) but keeps the
    // slot storage for reuse.
    void clear() {
      for (std::size_t i = 0; i < size_; ++i) {
        slots_[(head_ + i) & (slots_.size() - 1)] = Job{};
      }
      head_ = 0;
      size_ = 0;
    }

   private:
    void grow() {
      std::vector<Job> next(slots_.empty() ? 8 : slots_.size() * 2);
      for (std::size_t i = 0; i < size_; ++i) {
        next[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
      }
      slots_ = std::move(next);
      head_ = 0;
    }

    std::vector<Job> slots_;
    std::size_t head_{0};
    std::size_t size_{0};
  };
  // In-flight jobs parked in a free-listed slab so the scheduled completion
  // event captures only {executor, generation, slot} — small enough to
  // live inline in the scheduler's callback storage.
  struct InFlight {
    Completion done;
    SimTime enqueued_at{0};
    std::uint32_t next_free{0};
  };
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  void start(Job job);
  std::uint32_t acquire_inflight(Completion done, SimTime enqueued_at);
  void finish_inflight(std::uint64_t generation, std::uint32_t slot);
  void on_complete(std::uint64_t generation, SimTime enqueued_at, Completion done);
  // Accrue burst credits and the utilization EMA for the elapsed interval.
  void account(SimTime now);
  [[nodiscard]] double service_multiplier() const;

  sim::Scheduler* scheduler_;
  ExecutorConfig config_;
  JobRing queue_;
  std::vector<InFlight> inflight_;
  std::uint32_t inflight_free_head_{kNoFreeSlot};
  int busy_{0};
  bool throttle_latched_{false};  // shed_on_throttle mode only
  std::uint64_t generation_{0};
  std::uint64_t completed_{0};
  std::uint64_t dropped_{0};
  double credits_;
  double util_ema_{0};
  SimTime last_account_{0};
};

}  // namespace eden::node
