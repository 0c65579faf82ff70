#include "harness/sim_stubs.h"

namespace eden::harness {

// Every `done` below is a move-only net::Done (sim::Func); it moves whole
// into the network's pooled rpc slot — the stubs add no allocation and no
// wrapper std::function on the request path. Wire sizes and timeouts are
// the only policy the stubs contribute.

namespace {

// Passes a stub's completion through unchanged. A completion that does not
// fit the rpc slot inline would allocate on every call, so it is a compile
// error here rather than a silent regression of allocs/event.
template <typename Resp, typename Done>
Done&& slot_done(Done&& done) {
  static_assert(net::SimNetwork::done_stores_inline<Resp, std::decay_t<Done>>(),
                "rpc completion spills out of its SimNetwork slot");
  return std::forward<Done>(done);
}

}  // namespace

void SimNodeStub::rtt_probe(ClientId from, net::Done<bool> done) {
  network_->rpc<bool>(
      from, node_host_, sizes_.probe_request, sizes_.probe_request,
      timeouts_.probe, [] { return true; },
      slot_done<bool>([done = std::move(done)](std::optional<bool> ok) mutable {
        done(ok.has_value());
      }));
}

void SimNodeStub::process_probe(
    ClientId from, net::Done<std::optional<net::ProcessProbeResponse>> done) {
  network_->rpc<net::ProcessProbeResponse>(
      from, node_host_, sizes_.probe_request, sizes_.probe_response,
      timeouts_.probe,
      [node = node_, from] { return node->handle_process_probe(from); },
      slot_done<net::ProcessProbeResponse>(std::move(done)));
}

void SimNodeStub::join(const net::JoinRequest& request,
                       net::Done<std::optional<net::JoinResponse>> done) {
  network_->rpc<net::JoinResponse>(
      request.client, node_host_, sizes_.join_request, sizes_.join_response,
      timeouts_.join,
      [node = node_, request] { return node->handle_join(request); },
      slot_done<net::JoinResponse>(std::move(done)));
}

void SimNodeStub::unexpected_join(const net::JoinRequest& request,
                                  net::Done<bool> done) {
  network_->rpc<bool>(
      request.client, node_host_, sizes_.join_request, sizes_.join_response,
      timeouts_.join,
      [node = node_, request] { return node->handle_unexpected_join(request); },
      slot_done<bool>([done = std::move(done)](std::optional<bool> ok) mutable {
        done(ok.value_or(false));
      }));
}

void SimNodeStub::leave(ClientId client) {
  network_->deliver(client, node_host_, sizes_.leave,
                    [node = node_, client] { node->handle_leave(client); });
}

void SimNodeStub::offload(const net::FrameRequest& request,
                          net::Done<std::optional<net::FrameResponse>> done) {
  // Capture fields, not the whole FrameRequest: `bytes` is the request's
  // wire size, fully consumed by the transport argument below and never
  // read by the node-side handler. Dropping it keeps the network's
  // request-leg closure within the inline-callback capacity, so the
  // per-frame hot path stays allocation-free.
  network_->rpc_async<net::FrameResponse>(
      request.client, node_host_, request.bytes, sizes_.frame_response,
      timeouts_.frame,
      [node = node_, client = request.client, frame_id = request.frame_id,
       cost = request.cost](auto reply) {
        node->handle_offload(net::FrameRequest{client, frame_id, 0.0, cost},
                             std::move(reply));
      },
      slot_done<net::FrameResponse>(std::move(done)));
}

void SimManagerStub::discover(
    const net::DiscoveryRequest& request,
    net::Done<std::optional<net::DiscoveryResponse>> done) {
  const double response_bytes =
      sizes_.discovery_response_per_candidate * std::max(1, request.top_n);
  const ClientId source =
      request.client.valid() ? request.client : default_client_host_;
  network_->rpc<net::DiscoveryResponse>(
      source, route_->host, sizes_.discovery_request, response_bytes,
      timeouts_.discovery,
      [manager = route_->manager, request] {
        return manager->handle_discover(request);
      },
      slot_done<net::DiscoveryResponse>(std::move(done)));
}

void SimManagerLink::register_node(const net::NodeStatus& status) {
  network_->deliver(node_host_, route_->host, sizes_.heartbeat,
                    [manager = route_->manager, status] {
                      manager->handle_register(status);
                    });
}

void SimManagerLink::heartbeat(const net::NodeStatus& status) {
  network_->deliver(node_host_, route_->host, sizes_.heartbeat,
                    [manager = route_->manager, status] {
                      manager->handle_heartbeat(status);
                    });
}

void SimManagerLink::heartbeat_feedback(
    const net::NodeStatus& status,
    net::Done<std::optional<net::HeartbeatAck>> done) {
  network_->rpc<net::HeartbeatAck>(
      node_host_, route_->host, sizes_.heartbeat, sizes_.heartbeat_ack,
      timeouts_.heartbeat,
      [manager = route_->manager, status] {
        return manager->handle_heartbeat(status);
      },
      slot_done<net::HeartbeatAck>(std::move(done)));
}

void SimManagerLink::deregister(NodeId node) {
  network_->deliver(node_host_, route_->host, sizes_.heartbeat,
                    [manager = route_->manager, node] {
                      manager->handle_deregister(node);
                    });
}

}  // namespace eden::harness
