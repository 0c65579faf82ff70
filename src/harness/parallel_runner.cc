#include "harness/parallel_runner.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

namespace eden::harness {

unsigned resolve_thread_count(unsigned requested, unsigned hardware) {
  if (requested != 0) return requested;
  return hardware == 0 ? 1u : hardware;
}

unsigned resolve_thread_count(unsigned requested) {
  return resolve_thread_count(requested,
                              std::thread::hardware_concurrency());
}

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(resolve_thread_count(threads)) {}

void ParallelRunner::run(std::vector<std::function<void()>> jobs) const {
  const std::size_t count = jobs.size();
  if (count == 0) return;

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        jobs[i]();
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const std::size_t pool =
      std::min<std::size_t>(threads_, count);
  if (pool <= 1) {
    worker();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) workers.emplace_back(worker);
    for (auto& w : workers) w.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace eden::harness
