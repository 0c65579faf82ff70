#include "spans.h"

#include <cstdio>
#include <filesystem>

namespace edenbench {

std::uint64_t SpanLog::begin(const char* name, const char* layer,
                             std::uint64_t parent, std::uint64_t request) {
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.layer = layer;
  span.start_ns = ns(Clock::now());
  spans_.push_back(std::move(span));
  return spans_.size();
}

void SpanLog::end(std::uint64_t id, Counters counters) {
  Span& span = spans_.at(id - 1);
  span.end_ns = ns(Clock::now());
  span.counters = std::move(counters);
}

std::uint64_t SpanLog::add(const char* name, const char* layer,
                           std::uint64_t parent, std::uint64_t request,
                           Clock::time_point start, Clock::time_point finish,
                           Counters counters) {
  Span span;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.layer = layer;
  span.start_ns = ns(start);
  span.end_ns = ns(finish);
  span.counters = std::move(counters);
  spans_.push_back(std::move(span));
  return spans_.size();
}

bool SpanLog::write(const std::string& path, const std::string& workload,
                    std::uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"seed\":%llu,\"id\":%zu,"
                 "\"parent\":%llu,\"request\":%llu,\"name\":\"%s\","
                 "\"layer\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"counters\":{",
                 workload.c_str(), static_cast<unsigned long long>(seed),
                 i + 1, static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name, s.layer,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (std::size_t c = 0; c < s.counters.size(); ++c) {
      std::fprintf(f, "%s\"%s\":%.17g", c == 0 ? "" : ",",
                   s.counters[c].first.c_str(), s.counters[c].second);
    }
    std::fprintf(f, "}}\n");
  }
  return std::fclose(f) == 0;
}

std::string dump_spans(const SpanLog& log, const Options& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.span_dir, ec);
  const std::string path = options.span_dir + "/" + options.workload + "-" +
                           std::to_string(options.seed) + ".jsonl";
  if (ec || !log.write(path, options.workload, options.seed)) return {};
  return path;
}

}  // namespace edenbench
