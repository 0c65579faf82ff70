#include "net/shard_router.h"

#include <stdexcept>

namespace eden::net {

ShardRouter::ShardId ShardRouter::add_shard(SimNetwork* fabric) {
  fabrics_.push_back(fabric);
  return static_cast<ShardId>(fabrics_.size() - 1);
}

void ShardRouter::set_shard(HostId host, ShardId shard) {
  if (host.value >= owner_.size()) owner_.resize(host.value + 1, 0);
  owner_[host.value] = shard;
}

void ShardRouter::open_window(SimTime end) { window_end_ = end; }

void ShardRouter::admit(SimTime arrival) {
  if (arrival < window_end_) {
    throw std::runtime_error(
        "ShardRouter::admit: cross-shard arrival precedes the window end — "
        "the lookahead bound was violated");
  }
  ++routed_;
}

}  // namespace eden::net
