// RpcClient: one framed connection to a peer with request/response
// correlation and per-call timeouts. Reconnects lazily on the next call
// after a connection failure (volunteer nodes come and go).
//
// Pending requests live in a generation-stamped slab; the wire request id
// packs (instance, slot generation, slot index), where `instance` bumps on
// every reconnect. A response is matched by all three, so a late reply
// from a previous connection — or a re-used slot — can never complete the
// wrong call. Responses are delivered as a borrowed view into the receive
// buffer (valid only during the callback), so the hot path never copies
// the payload into a fresh vector.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "rpc/connection.h"
#include "rpc/messages.h"
#include "sim/callback.h"

namespace eden::rpc {

// Response view: `data/size` borrow the connection's receive buffer and
// are valid only for the duration of the callback (decode immediately).
// ok == false means timeout or connection failure (data is null).
struct RpcResult {
  const std::uint8_t* data{nullptr};
  std::size_t size{0};
  bool ok{false};
};

class RpcClient final : private FrameSink {
 public:
  // Capacity 80: the live proxies capture a protocol completion
  // (net::Done, a 64-byte SBO object) plus up to one owner pointer inside
  // the response callback (72 bytes, plus a word of headroom); 64 would
  // spill the discovery wrapper on every call.
  using ResponseCallback = sim::BasicFunc<80, RpcResult>;

  RpcClient(EventLoop& loop, ConnectionPool& pool, std::string endpoint);
  ~RpcClient();
  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  void call(MessageType type, const std::uint8_t* payload,
            std::size_t payload_size, SimDuration timeout,
            ResponseCallback callback);
  void call(MessageType type, const std::vector<std::uint8_t>& payload,
            SimDuration timeout, ResponseCallback callback) {
    call(type, payload.data(), payload.size(), timeout, std::move(callback));
  }
  void send_one_way(MessageType type, const std::uint8_t* payload,
                    std::size_t payload_size);
  void send_one_way(MessageType type,
                    const std::vector<std::uint8_t>& payload) {
    send_one_way(type, payload.data(), payload.size());
  }

  [[nodiscard]] const std::string& endpoint() const { return endpoint_; }
  [[nodiscard]] std::size_t pending_count() const { return live_; }
  void close();

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct PendingSlot {
    ResponseCallback callback;
    sim::EventId timeout_timer{0};
    std::uint16_t gen{1};
    std::uint16_t instance{0};
    std::uint32_t next_free{kNil};
  };

  static std::uint64_t pack_rid(std::uint16_t instance, std::uint16_t gen,
                                std::uint32_t idx) {
    return (static_cast<std::uint64_t>(instance) << 48) |
           (static_cast<std::uint64_t>(gen) << 32) | (idx + 1ull);
  }

  bool ensure_connected();
  void on_frame(ConnHandle conn, std::uint64_t request_id, std::uint16_t type,
                const std::uint8_t* payload, std::size_t payload_size) override;
  void on_conn_closed(ConnHandle conn) override;
  void on_timeout(std::uint64_t request_id);
  void fail_all_pending(std::uint16_t instance);
  std::uint32_t acquire_slot();
  // Takes the callback out, invalidates the slot, returns it to the
  // freelist. The caller owns cancelling the timer.
  ResponseCallback take_and_release(std::uint32_t idx);

  EventLoop* loop_;
  ConnectionPool* pool_;
  std::string endpoint_;
  ConnHandle conn_{0};
  std::uint16_t instance_{0};
  std::deque<PendingSlot> pending_;
  std::uint32_t free_head_{kNil};
  std::size_t live_{0};
};

}  // namespace eden::rpc
