// Local (client-side) edge selection: step two of the 2-step approach.
// Implements the LO (local overhead) and GO (global overhead) policies of
// §IV-D over the probing results, plus the QoS-filtered variant.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "common/types.h"
#include "net/protocol.h"

namespace eden::client {

// One candidate's probing outcome (Algorithm 2 lines 4-10).
struct ProbeResult {
  NodeId node;
  double d_prop_ms{0};  // measured RTT propagation delay
  net::ProcessProbeResponse process;
  // This client's per-frame compute cost relative to the standard test
  // frame the what-if cache measures (heterogeneous app types).
  double cost_factor{1.0};

  // LO_j = D_prop_probing + D_proc_probing: predicted end-to-end latency
  // for this client if it joins candidate j.
  [[nodiscard]] double lo() const {
    return d_prop_ms + process.whatif_ms * cost_factor;
  }

  // GO_j = n x (D_proc_probing - D_proc_current) + LO_j: LO plus the
  // aggregate degradation inflicted on candidate j's n existing users. The
  // degradation term is clamped at zero: a stale what-if cache can
  // momentarily sit below the live processing time, and a negative term
  // would make overloaded nodes look attractive.
  [[nodiscard]] double go() const {
    const double degradation =
        std::max(0.0, process.whatif_ms - process.current_ms);
    return static_cast<double>(process.attached_users) * degradation + lo();
  }
};

enum class LocalPolicy {
  kLocalOverhead,   // BLC = argmin LO_j
  kGlobalOverhead,  // BLC = argmin GO_j (the paper's default)
};

struct QosFilter {
  // Candidates whose LO exceeds this are filtered out first (0 = no
  // filter). If nothing survives and `strict` is false, the unfiltered
  // list is used; if `strict` is true the selection returns empty (the
  // user would be rejected from the system, §IV-D).
  double max_lo_ms{0};
  bool strict{false};
};

// SortLocalSelectionPolicy (Algorithm 2 line 11): best candidate first.
// With salt = 0, ties break on node id. A non-zero salt (clients pass
// their own id) breaks ties in a client-specific but deterministic order,
// so a fleet of clients facing identical probing results does not herd
// onto the same node. Sorts in place: the client sorts its pooled probe
// buffer, so a probe cycle allocates nothing.
void sort_candidates_in_place(std::vector<ProbeResult>& results,
                              LocalPolicy policy, const QosFilter& qos = {},
                              std::uint64_t salt = 0);

[[nodiscard]] inline std::vector<ProbeResult> sort_candidates(
    std::vector<ProbeResult> results, LocalPolicy policy,
    const QosFilter& qos = {}, std::uint64_t salt = 0) {
  sort_candidates_in_place(results, policy, qos, salt);
  return results;
}

}  // namespace eden::client
