// ParallelRunner: fan independent simulation replicates across a
// std::thread pool. Each replicate (policy, seed, scenario config) builds
// its own Scenario — simulator, network model, RNG streams and all — so
// jobs share no mutable state and every replicate is bitwise identical to
// a sequential run of the same job. Results are deposited by job index,
// which keeps output ordering independent of thread interleaving; the only
// nondeterminism a pool can introduce is *which core* runs a replicate,
// and the discrete-event simulator never reads wall-clock time.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace eden::harness {

// Thread-count contract: requested == 0 means "use the hardware
// parallelism". The standard allows std::thread::hardware_concurrency() to
// return 0 when the platform cannot report a value, so the result is
// clamped to >= 1 — callers may always divide work by the resolved count.
[[nodiscard]] unsigned resolve_thread_count(unsigned requested,
                                            unsigned hardware);
// Convenience overload over std::thread::hardware_concurrency().
[[nodiscard]] unsigned resolve_thread_count(unsigned requested);

class ParallelRunner {
 public:
  // threads == 0 resolves via resolve_thread_count().
  explicit ParallelRunner(unsigned threads = 0);

  [[nodiscard]] unsigned threads() const { return threads_; }

  // Run every job to completion, distributing them across the pool. Jobs
  // must be independent. The first exception thrown by any job is
  // rethrown on the calling thread after all workers finish.
  void run(std::vector<std::function<void()>> jobs) const;

  // Run jobs that produce a value; out[i] is jobs[i]'s result regardless
  // of execution order. R must be default-constructible and movable.
  template <typename R>
  std::vector<R> map(std::vector<std::function<R()>> jobs) const {
    std::vector<R> out(jobs.size());
    std::vector<std::function<void()>> wrapped;
    wrapped.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      wrapped.emplace_back(
          [&out, i, job = std::move(jobs[i])] { out[i] = job(); });
    }
    run(std::move(wrapped));
    return out;
  }

 private:
  unsigned threads_;
};

}  // namespace eden::harness
