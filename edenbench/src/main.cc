// eden_bench: runs one named EDEN workload at a given seed and prints one
// JSON line with its metrics (names as in BENCHMARK.json), the number of
// benchmark operations attempted and failed, and any failed correctness
// check. Exit status 1 names a failed check on stderr; 2 is a usage error.
//
//   eden_bench --workload fleet_steady --seed 1 --seconds 20 --trace 0
//       --span-dir .bench_build/spans
//
// Every option but --tiny is required: edenbench/run.py supplies them.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <string>

#include "bench.h"

namespace edenbench {

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

namespace {

double cpu_clock_s(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace edenbench

namespace {

using edenbench::Options;
using edenbench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: eden_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 --span-dir DIR [--tiny]\n"
               "workloads: fleet_steady churn_failover fleet_sharded "
               "live_loopback\n");
  return 2;
}

void print_result(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"failed_checks\": [",
              result.failed_checks.empty() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.failed_checks.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                result.failed_checks[i].c_str());
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* arg = argv[i];
    const char* v = nullptr;
    if (std::strcmp(arg, "--tiny") == 0) {
      options.tiny = true;
      continue;
    }
    if ((v = value()) == nullptr) return usage();
    if (std::strcmp(arg, "--workload") == 0) {
      options.workload = v;
    } else if (std::strcmp(arg, "--seed") == 0) {
      options.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (std::strcmp(arg, "--seconds") == 0) {
      options.seconds = std::atof(v);
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = std::atoi(v) != 0;
      have_trace = true;
    } else if (std::strcmp(arg, "--span-dir") == 0) {
      options.span_dir = v;
    } else {
      return usage();
    }
  }

  if (!have_seed || !have_trace || !(options.seconds > 0) ||
      options.span_dir.empty()) {
    return usage();
  }

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "fleet_steady") {
    run = edenbench::run_fleet_steady;
  } else if (options.workload == "churn_failover") {
    run = edenbench::run_churn_failover;
  } else if (options.workload == "fleet_sharded") {
    run = edenbench::run_fleet_sharded;
  } else if (options.workload == "live_loopback") {
    run = edenbench::run_live_loopback;
  } else {
    return usage();
  }

  Result result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eden_bench: %s\n", e.what());
    result.check("no_exception", false);
  }
  for (const std::string& check : result.failed_checks) {
    std::fprintf(stderr, "eden_bench: check failed: %s\n", check.c_str());
  }
  print_result(result);
  return result.failed_checks.empty() ? 0 : 1;
}
