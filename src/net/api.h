// Transport-agnostic async interfaces between the three EDEN roles.
// Clients talk to nodes through NodeApi and to the manager through
// ManagerApi; nodes talk to the manager through ManagerLink. The simulator
// and the TCP runtime each provide implementations, so the protocol state
// machines (EdgeClient, EdgeNode, CentralManager) are written once.
//
// Callback convention: std::nullopt / false means the call failed — the
// peer was unreachable or the call timed out. Callbacks are invoked exactly
// once.
//
// Completion callbacks are sim::Func — a move-only SBO callable — rather
// than std::function: every per-frame and per-probe completion the client
// passes down fits the 56-byte inline buffer, and move-only captures let
// one completion carry another inline instead of through shared_ptr.
#pragma once

#include <optional>

#include "net/protocol.h"
#include "sim/callback.h"

namespace eden::net {

// Completion callback for an api call producing a T.
template <typename T>
using Done = sim::Func<T>;

// A client's handle to one edge node (Table I probing APIs + offload path).
class NodeApi {
 public:
  virtual ~NodeApi() = default;

  [[nodiscard]] virtual NodeId id() const = 0;

  // RTT_probe(): lightweight echo. The caller times the round trip itself;
  // `done(false)` signals timeout/unreachable.
  virtual void rtt_probe(ClientId from, Done<bool> done) = 0;

  // Process_probe(): fetch the cached what-if processing performance.
  virtual void process_probe(
      ClientId from, Done<std::optional<ProcessProbeResponse>> done) = 0;

  // Join(): synchronized attach (Algorithm 1); may be rejected when the
  // node state changed since probing.
  virtual void join(const JoinRequest& request,
                    Done<std::optional<JoinResponse>> done) = 0;

  // Unexpected_join(): failover attach to a backup node; never rejected.
  virtual void unexpected_join(const JoinRequest& request,
                               Done<bool> done) = 0;

  // Leave(): detach notification (best effort, no response needed).
  virtual void leave(ClientId client) = 0;

  // Offload one application frame for processing.
  virtual void offload(const FrameRequest& request,
                       Done<std::optional<FrameResponse>> done) = 0;
};

// A client's handle to the central manager.
class ManagerApi {
 public:
  virtual ~ManagerApi() = default;
  virtual void discover(const DiscoveryRequest& request,
                        Done<std::optional<DiscoveryResponse>> done) = 0;
};

// An edge node's handle to the central manager.
class ManagerLink {
 public:
  virtual ~ManagerLink() = default;
  virtual void register_node(const NodeStatus& status) = 0;
  virtual void heartbeat(const NodeStatus& status) = 0;
  // Load-feedback heartbeat: like heartbeat(), but the manager's ack
  // (rejoin detection, overload phase) is returned to the node. The default
  // forwards to the one-way path and reports "no feedback", so transports
  // that predate the overload loop keep working unchanged.
  virtual void heartbeat_feedback(const NodeStatus& status,
                                  Done<std::optional<HeartbeatAck>> done) {
    heartbeat(status);
    done(std::nullopt);
  }
  virtual void deregister(NodeId node) = 0;
};

}  // namespace eden::net
