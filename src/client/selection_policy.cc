#include "client/selection_policy.h"

#include <algorithm>

namespace eden::client {

namespace {
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}
}  // namespace

void sort_candidates_in_place(std::vector<ProbeResult>& results,
                              LocalPolicy policy, const QosFilter& qos,
                              std::uint64_t salt) {
  if (qos.max_lo_ms > 0) {
    const auto violates = [&qos](const ProbeResult& r) {
      return !(r.lo() <= qos.max_lo_ms);
    };
    if (!std::all_of(results.begin(), results.end(), violates)) {
      std::erase_if(results, violates);
    } else if (qos.strict) {
      results.clear();  // no node can satisfy the QoS requirement
      return;
    }
  }

  const auto key = [policy](const ProbeResult& r) {
    return policy == LocalPolicy::kLocalOverhead ? r.lo() : r.go();
  };
  std::sort(results.begin(), results.end(),
            [&](const ProbeResult& a, const ProbeResult& b) {
              const double ka = key(a);
              const double kb = key(b);
              if (ka != kb) return ka < kb;
              if (salt == 0) return a.node < b.node;
              return mix(a.node.value ^ salt) < mix(b.node.value ^ salt);
            });
}

}  // namespace eden::client
