// Shared plumbing of the EDEN benchmark: command-line options, the result
// every workload fills in, and small timing/statistics helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace edenbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed{0};
  // Measurement budget: workloads repeat their measured work until it is
  // spent (always at least once).
  double seconds{0};
  // Traced mode: per-layer metrics, spans and isolated timings instead of
  // the end-to-end metrics.
  bool trace{false};
  // Tiny inputs, for the benchmark's self-test only.
  bool tiny{false};
  // Where the traced run writes its span dump.
  std::string span_dir;
};

// What one invocation measured. Metric names are the BENCHMARK.json names;
// units are attached from BENCHMARK.json by run.py.
struct Result {
  std::map<std::string, double> metrics;
  std::vector<std::string> failed_checks;
  // Benchmark operations (fleet runs, discovery queries) issued and the
  // number that errored.
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

  void set(const std::string& name, double value) { metrics[name] = value; }
  // Records a correctness check; a failed check fails the invocation.
  void check(const std::string& name, bool ok) {
    if (!ok) failed_checks.push_back(name);
  }
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// CPU time of the calling thread, in seconds. It excludes the time the
// thread waited to run, including hypervisor steal on a virtual machine,
// so single-threaded host timings use it rather than the wall clock.
double thread_cpu_s();
// CPU time of the whole process (every thread), in seconds: the host time
// of work spread over several threads, with the same exclusions.
double process_cpu_s();

// Linear-interpolated percentile (p in [0, 100]); same convention as
// eden::Samples::percentile. Sorts `values` in place.
double percentile(std::vector<double>& values, double p);
double median(std::vector<double> values);
// Mean of the middle half of `values` (a quarter dropped from each end).
// Where the host alternates between a fast and a slow state for seconds
// at a time, the median of a few repetitions jumps between the two and
// the mean moves smoothly; dropping the quarters keeps a stalled sample
// out, as the median does.
double interquartile_mean(std::vector<double> values);
double peak_rss_mb();

Result run_fleet_steady(const Options& options);
Result run_churn_failover(const Options& options);
Result run_fleet_sharded(const Options& options);
Result run_live_loopback(const Options& options);

}  // namespace edenbench
