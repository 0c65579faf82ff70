// Pooled framed non-blocking TCP connections driven by an EventLoop.
// Every frame is [u32 payload_len][u64 request_id][u16 type][payload]; the
// length covers request_id + type + payload.
//
// Connections are slots in a loop-owned ConnectionPool, addressed by
// generation-stamped handles (gen<<32 | slot+1) — the rpc-slot idiom from
// PR 4. There is no per-connection heap object, no shared_ptr control
// block per accept, and a handle held across a close (or even a slot
// re-use) simply stops resolving: use-after-close on the write path
// becomes a silent no-op instead of a race.
//
// Outbound frames are serialized into BufferPool chunks shared by every
// connection on the loop and flushed as one sendmsg (writev-style iovec
// batch) with partial-write resumption. A frame sent from inside the
// pool's read dispatch (a FrameSink::on_frame or on_conn_closed callback)
// only joins its connection's outbox; before the dispatch returns, every
// connection written to is flushed once, so the replies to N pipelined
// requests read together leave in one sendmsg and never wait across an
// epoll_wait. Sends from anywhere else (timers, posted work) flush inline.
// The outbox is bounded: a peer that stops reading while frames keep
// queueing is disconnected instead of growing without bound. EPOLLOUT
// interest is armed only while the outbox is non-empty.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <deque>
#include <vector>

#include "rpc/buffer_pool.h"
#include "rpc/event_loop.h"

namespace eden::rpc {

constexpr std::uint32_t kMaxFrameBytes = 16u << 20;
constexpr std::size_t kFrameHeaderBytes = 4 + 8 + 2;

// Generation-stamped connection handle: gen<<32 | slot+1; 0 is null.
using ConnHandle = std::uint64_t;

// Receives parsed frames and close notifications for connections adopted
// with this sink. on_conn_closed fires for peer closes and protocol/io
// errors, not for owner-initiated ConnectionPool::close() calls.
struct FrameSink {
  virtual void on_frame(ConnHandle conn, std::uint64_t request_id,
                        std::uint16_t type, const std::uint8_t* payload,
                        std::size_t payload_size) = 0;
  virtual void on_conn_closed(ConnHandle conn) = 0;

 protected:
  ~FrameSink() = default;
};

class ConnectionPool final : private EventLoop::IoSink {
 public:
  explicit ConnectionPool(EventLoop& loop) : loop_(&loop) {}
  ~ConnectionPool() { close_all(); }
  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  // Take ownership of a connected (or connecting) socket. Returns 0 on
  // failure.
  ConnHandle adopt(int fd, FrameSink* sink);
  // Non-blocking connect to "host:port" (numeric IPv4) or "port"
  // (localhost). Returns 0 on immediate failure.
  ConnHandle connect(const std::string& endpoint, FrameSink* sink);

  // Serialize one frame into the outbox and flush it now, or at the end
  // of the read dispatch this call runs inside. Returns false if the
  // handle is dead or the send overflowed the outbox bound (which closes
  // the connection and notifies the sink); a write error found by the
  // deferred flush closes and notifies the same way.
  bool send_frame(ConnHandle conn, std::uint64_t request_id,
                  std::uint16_t type, const std::uint8_t* payload,
                  std::size_t payload_size);
  bool send_frame(ConnHandle conn, std::uint64_t request_id,
                  std::uint16_t type,
                  const std::vector<std::uint8_t>& payload) {
    return send_frame(conn, request_id, type, payload.data(), payload.size());
  }

  // Owner-initiated close: silent (no on_conn_closed). Frames still in the
  // outbox, including those deferred by the current read dispatch, are
  // dropped.
  void close(ConnHandle conn);
  void close_all();

  [[nodiscard]] bool alive(ConnHandle conn) const;
  [[nodiscard]] std::size_t open_connections() const { return open_; }
  [[nodiscard]] std::size_t outbox_bytes(ConnHandle conn) const;
  // Number of sendmsg calls made so far, on every connection.
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] const BufferPool& buffers() const { return buffers_; }
  [[nodiscard]] EventLoop& loop() { return *loop_; }

  // Outbox bound in bytes (default 64 MiB — above the 16 MiB max frame,
  // so only sustained backlog trips it). Tests shrink it to force the
  // overflow path.
  void set_outbox_limit(std::size_t bytes) { outbox_limit_ = bytes; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Conn {
    int fd{-1};
    std::uint32_t gen{1};
    std::uint32_t next_free{kNil};
    EventLoop::WatchId watch{0};
    FrameSink* sink{nullptr};
    bool want_write{false};
    // Written to inside the current read dispatch; listed in dirty_.
    bool dirty{false};
    // Inbound: contiguous buffer with a consumed-prefix head (compacted
    // after each parse pass, capacity retained).
    std::vector<std::uint8_t> in;
    std::size_t in_head{0};
    // Outbound: FIFO ring of pool chunk indices. Pending bytes span
    // out[out_head..end), offset front_off into the first chunk, tail_used
    // valid bytes in the last.
    std::vector<std::uint32_t> out;
    std::size_t out_head{0};
    std::size_t front_off{0};
    std::size_t tail_used{0};
    std::size_t out_bytes{0};
  };

  void on_io_event(std::uint64_t tag, bool readable, bool writable) override;
  [[nodiscard]] Conn* resolve(ConnHandle conn);
  [[nodiscard]] const Conn* resolve(ConnHandle conn) const;
  [[nodiscard]] ConnHandle handle_of(std::uint32_t idx) const {
    return (static_cast<std::uint64_t>(conns_[idx].gen) << 32) | (idx + 1ull);
  }
  void append_out(Conn& conn, const void* data, std::size_t size);
  // Returns false if the connection was closed by a write error.
  bool flush(std::uint32_t idx);
  void sync_write_interest(Conn& conn);
  void handle_readable(std::uint32_t idx);
  void flush_dirty();
  void parse_frames(std::uint32_t idx);
  void do_close(std::uint32_t idx, bool notify);

  EventLoop* loop_;
  BufferPool buffers_;
  std::deque<Conn> conns_;
  std::uint32_t free_head_{kNil};
  std::size_t open_{0};
  std::size_t outbox_limit_{64u << 20};
  // Read dispatch nesting depth; sends while it is nonzero are deferred
  // to flush_dirty(). dirty_ keeps its capacity across dispatches.
  std::uint32_t dispatching_{0};
  std::vector<std::uint32_t> dirty_;
  std::uint64_t writes_{0};
};

// Listening socket: accepts connections into the pool and hands out their
// handles. Accepted connections deliver frames to `sink`.
class Listener {
 public:
  using AcceptHandler = std::function<void(ConnHandle)>;

  Listener(ConnectionPool& pool, FrameSink* sink, AcceptHandler on_accept);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  // Bind 127.0.0.1:`port` (0 = ephemeral). Returns false on failure.
  bool listen(std::uint16_t port);
  [[nodiscard]] std::uint16_t port() const { return port_; }
  void close();

 private:
  ConnectionPool* pool_;
  FrameSink* sink_;
  AcceptHandler on_accept_;
  int fd_{-1};
  std::uint16_t port_{0};
};

// Format a localhost endpoint string.
std::string local_endpoint(std::uint16_t port);

}  // namespace eden::rpc
