// In-memory span recorder for the traced run. A span is a named interval
// of host time around one call the benchmark makes into EDEN, tagged with
// the layer it enters, the span that caused it, a request id (shared by
// the spans of one request) and optional counter deltas. Spans stay in
// memory and are written as JSON lines when the run ends; summarize.py
// reads the dump.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace edenbench {

using Counters = std::vector<std::pair<std::string, double>>;

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  // Opens a span now; returns its id (never 0). `name` and `layer` must
  // be string literals (they are stored as pointers).
  std::uint64_t begin(const char* name, const char* layer,
                      std::uint64_t parent = 0, std::uint64_t request = 0);
  void end(std::uint64_t id, Counters counters = {});
  // Records an already-timed span (e.g. one live rpc, timed by the pump).
  std::uint64_t add(const char* name, const char* layer, std::uint64_t parent,
                    std::uint64_t request, Clock::time_point start,
                    Clock::time_point finish, Counters counters = {});
  void reserve(std::size_t n) { spans_.reserve(spans_.size() + n); }

  // One JSON object per line: {"workload","seed","id","parent","request",
  // "name","layer","start_ns","end_ns","counters":{...}}. False on I/O
  // failure.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  struct Span {
    std::uint64_t parent{0};
    std::uint64_t request{0};
    const char* name{""};
    const char* layer{""};
    std::int64_t start_ns{0};
    std::int64_t end_ns{-1};
    Counters counters;
  };
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Writes `log` to <dir>/<workload>-<seed>.jsonl, creating `dir`. Returns
// the path, or an empty string on failure.
std::string dump_spans(const SpanLog& log, const Options& options);

}  // namespace edenbench
