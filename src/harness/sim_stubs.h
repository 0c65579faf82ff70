// Transport stubs binding the protocol state machines to the simulated
// network: SimNodeStub exposes an EdgeNode behind net::NodeApi, and
// SimManagerStub / SimManagerLink expose the CentralManager behind
// net::ManagerApi / net::ManagerLink. All delays, jitter, message loss on
// dead hosts and timeouts come from SimNetwork.
//
// Host addressing convention: ClientId/NodeId double as transport HostIds
// (the harness allocates them from one sequence).
#pragma once

#include "manager/central_manager.h"
#include "net/api.h"
#include "net/sim_network.h"
#include "node/edge_node.h"

namespace eden::harness {

// Approximate wire sizes (bytes) of the control messages; only the frame
// payload is big enough to matter, but modelling the rest keeps D_trans
// honest for probe-heavy configurations.
struct WireSizes {
  double probe_request{120};
  double probe_response{280};
  double join_request{200};
  double join_response{120};
  double leave{100};
  double discovery_request{250};
  double discovery_response_per_candidate{150};
  double frame_response{200};
  double heartbeat{300};
  double heartbeat_ack{120};
};

struct StubTimeouts {
  SimDuration probe{msec(400.0)};
  SimDuration join{msec(400.0)};
  // Frames wait much longer: an overloaded node still answers eventually,
  // and node death is detected by the client's keepalive, not by frame
  // timeouts.
  SimDuration frame{msec(3000.0)};
  SimDuration discovery{msec(500.0)};
  // Feedback heartbeats are periodic anyway; a lost ack just waits for the
  // next beat, so the timeout only bounds slot occupancy.
  SimDuration heartbeat{msec(500.0)};
};

class SimNodeStub final : public net::NodeApi {
 public:
  SimNodeStub(net::SimNetwork& network, node::EdgeNode& node, HostId node_host,
              StubTimeouts timeouts = {}, WireSizes sizes = {})
      : network_(&network),
        node_(&node),
        node_host_(node_host),
        timeouts_(timeouts),
        sizes_(sizes) {}

  [[nodiscard]] NodeId id() const override { return node_->id(); }

  void rtt_probe(ClientId from, net::Done<bool> done) override;
  void process_probe(
      ClientId from,
      net::Done<std::optional<net::ProcessProbeResponse>> done) override;
  void join(const net::JoinRequest& request,
            net::Done<std::optional<net::JoinResponse>> done) override;
  void unexpected_join(const net::JoinRequest& request,
                       net::Done<bool> done) override;
  void leave(ClientId client) override;
  void offload(const net::FrameRequest& request,
               net::Done<std::optional<net::FrameResponse>> done) override;

 private:
  net::SimNetwork* network_;
  node::EdgeNode* node_;
  HostId node_host_;
  StubTimeouts timeouts_;
  WireSizes sizes_;
};

// Mutable manager address, owned by the harness and shared by every stub
// and link: each send resolves the manager through it, so flipping the
// route re-targets every subsequent rpc — how clients and nodes re-resolve
// to the warm standby after a failover.
struct ManagerRoute {
  HostId host;
  manager::CentralManager* manager{nullptr};
};

// One stub serves a whole client fleet: the wire source host of each call
// is taken from the request's client id (every client addresses the
// network by its own ClientId == HostId). `default_client_host` only backs
// callers that leave request.client unset.
class SimManagerStub final : public net::ManagerApi {
 public:
  // The route must outlive the stub (the harness owns both).
  SimManagerStub(net::SimNetwork& network, const ManagerRoute& route,
                 ClientId default_client_host = {}, StubTimeouts timeouts = {},
                 WireSizes sizes = {})
      : network_(&network),
        route_(&route),
        default_client_host_(default_client_host),
        timeouts_(timeouts),
        sizes_(sizes) {}

  void discover(
      const net::DiscoveryRequest& request,
      net::Done<std::optional<net::DiscoveryResponse>> done) override;

 private:
  net::SimNetwork* network_;
  const ManagerRoute* route_;
  ClientId default_client_host_;
  StubTimeouts timeouts_;
  WireSizes sizes_;
};

class SimManagerLink final : public net::ManagerLink {
 public:
  // The route must outlive the link (the harness owns both).
  SimManagerLink(net::SimNetwork& network, const ManagerRoute& route,
                 HostId node_host, WireSizes sizes = {},
                 StubTimeouts timeouts = {})
      : network_(&network),
        route_(&route),
        node_host_(node_host),
        sizes_(sizes),
        timeouts_(timeouts) {}

  void register_node(const net::NodeStatus& status) override;
  void heartbeat(const net::NodeStatus& status) override;
  void heartbeat_feedback(const net::NodeStatus& status,
                          net::Done<std::optional<net::HeartbeatAck>> done)
      override;
  void deregister(NodeId node) override;

 private:
  net::SimNetwork* network_;
  const ManagerRoute* route_;
  HostId node_host_;
  WireSizes sizes_;
  StubTimeouts timeouts_;
};

}  // namespace eden::harness
