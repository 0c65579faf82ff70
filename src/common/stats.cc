#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace eden {

void StreamingStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::merge(const StreamingStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::variance() const {
  return count_ >= 2 ? m2_ / static_cast<double>(count_) : 0.0;
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

namespace {
// A series' first allocation holds this many points. Every client keeps a
// per-frame series of each kind, so starting at 16 skips four doubling
// steps (1, 2, 4, 8) per series; past 16 points capacity is what doubling
// would give anyway.
constexpr std::size_t kFirstCapacity = 16;
}  // namespace

void Samples::add(double x) {
  if (values_.capacity() == 0) values_.reserve(kFirstCapacity);
  values_.push_back(x);
  sorted_valid_ = false;
}

void Samples::clear() {
  values_.clear();
  sorted_.clear();
  sorted_valid_ = false;
}

void Samples::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = values_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  double sum = 0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double s = 0;
  for (double v : values_) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(values_.size()));
}

double Samples::min() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.front();
}

double Samples::max() const {
  ensure_sorted();
  return sorted_.empty() ? 0.0 : sorted_.back();
}

double Samples::percentile(double p) const {
  ensure_sorted();
  if (sorted_.empty()) return 0.0;
  if (sorted_.size() == 1) return sorted_[0];
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

std::vector<std::pair<double, double>> Samples::cdf() const {
  ensure_sorted();
  std::vector<std::pair<double, double>> out;
  const auto n = static_cast<double>(sorted_.size());
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    // Collapse runs of equal values to their final cumulative fraction.
    if (i + 1 < sorted_.size() && sorted_[i + 1] == sorted_[i]) continue;
    out.emplace_back(sorted_[i], static_cast<double>(i + 1) / n);
  }
  return out;
}

void TimeSeries::add(SimTime t, double value) {
  if (points_.capacity() == 0) points_.reserve(kFirstCapacity);
  points_.emplace_back(t, value);
}

namespace {

// First point with timestamp >= t; points are time-ordered by contract.
std::vector<std::pair<SimTime, double>>::const_iterator first_at_or_after(
    const std::vector<std::pair<SimTime, double>>& points, SimTime t) {
  return std::lower_bound(
      points.begin(), points.end(), t,
      [](const std::pair<SimTime, double>& p, SimTime v) { return p.first < v; });
}

}  // namespace

StreamingStats TimeSeries::window(SimTime begin, SimTime end) const {
  StreamingStats stats;
  for (auto it = first_at_or_after(points_, begin);
       it != points_.end() && it->first < end; ++it) {
    stats.add(it->second);
  }
  return stats;
}

std::vector<std::pair<SimTime, double>> TimeSeries::bucketed(
    SimTime begin, SimTime end, SimDuration bucket) const {
  std::vector<std::pair<SimTime, double>> out;
  if (bucket <= 0 || end <= begin) return out;
  double last = std::numeric_limits<double>::quiet_NaN();
  // One forward pass: consume each bucket's run of points from where the
  // previous bucket stopped instead of re-scanning the whole vector per
  // bucket (the old O(points x buckets) behaviour).
  auto it = first_at_or_after(points_, begin);
  for (SimTime t = begin; t < end; t += bucket) {
    const SimTime bucket_end = t + bucket;
    StreamingStats w;
    for (; it != points_.end() && it->first < bucket_end; ++it) {
      w.add(it->second);
    }
    if (w.count() > 0) last = w.mean();
    out.emplace_back(t, last);
  }
  return out;
}

}  // namespace eden
