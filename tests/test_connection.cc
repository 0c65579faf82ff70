// ConnectionPool unit tests against socketpairs: partial-write resumption
// under a tiny SO_SNDBUF, bounded-outbox backpressure, malformed-frame
// rejection, the pool-chunk leak oracle, and the dispatch-scoped flush
// (one sendmsg per connection per read dispatch) with its re-entrant
// closes and write errors.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "rpc/connection.h"

namespace eden::rpc {
namespace {

struct ReceivedFrame {
  std::uint64_t request_id;
  std::uint16_t type;
  std::vector<std::uint8_t> payload;
};

struct TestSink : FrameSink {
  std::vector<ReceivedFrame> frames;
  int closed = 0;

  void on_frame(ConnHandle, std::uint64_t request_id, std::uint16_t type,
                const std::uint8_t* payload, std::size_t size) override {
    frames.push_back(
        {request_id, type, std::vector<std::uint8_t>(payload, payload + size)});
  }
  void on_conn_closed(ConnHandle) override { ++closed; }
};

// Replies to each frame with the same request id, type and payload, then
// runs `after` (still inside the dispatch).
struct EchoSink : FrameSink {
  ConnectionPool* pool = nullptr;
  std::function<void(ConnHandle)> after;
  int closed = 0;

  void on_frame(ConnHandle conn, std::uint64_t request_id, std::uint16_t type,
                const std::uint8_t* payload, std::size_t size) override {
    pool->send_frame(conn, request_id, type, payload, size);
    if (after) after(conn);
  }
  void on_conn_closed(ConnHandle) override { ++closed; }
};

std::vector<std::uint8_t> make_frame(std::uint64_t request_id,
                                     std::uint16_t type,
                                     const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame(kFrameHeaderBytes + payload.size());
  const std::uint32_t length = static_cast<std::uint32_t>(payload.size()) + 10;
  std::memcpy(frame.data(), &length, 4);
  std::memcpy(frame.data() + 4, &request_id, 8);
  std::memcpy(frame.data() + 12, &type, 2);
  std::copy(payload.begin(), payload.end(), frame.begin() + kFrameHeaderBytes);
  return frame;
}

class ConnectionTest : public ::testing::Test {
 protected:
  // Runs the loop until `pred` holds or ~2 s pass.
  template <typename Pred>
  bool run_until(Pred pred) {
    const SimTime end = loop_.now() + sec(2.0);
    while (!pred() && loop_.now() < end) loop_.run_for(msec(5));
    return pred();
  }

  static void shrink_buffers(int fd) {
    const int tiny = 1;  // the kernel clamps to its minimum (a few KiB)
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  }

  EventLoop loop_;
  ConnectionPool pool_{loop_};
};

TEST_F(ConnectionTest, PartialWriteResumesUntilFrameDelivered) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  shrink_buffers(fds[0]);
  TestSink writer_sink, reader_sink;
  const ConnHandle writer = pool_.adopt(fds[0], &writer_sink);
  const ConnHandle reader = pool_.adopt(fds[1], &reader_sink);
  ASSERT_NE(writer, 0u);
  ASSERT_NE(reader, 0u);

  // Far larger than the send buffer: the first flush is necessarily
  // partial, and the rest must go out on EPOLLOUT readiness.
  std::vector<std::uint8_t> payload(256 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(pool_.send_frame(writer, 7, 3, payload));
  EXPECT_GT(pool_.outbox_bytes(writer), 0u)
      << "expected a partial first write against the tiny SO_SNDBUF";

  ASSERT_TRUE(run_until([&] { return !reader_sink.frames.empty(); }));
  ASSERT_EQ(reader_sink.frames.size(), 1u);
  EXPECT_EQ(reader_sink.frames[0].request_id, 7u);
  EXPECT_EQ(reader_sink.frames[0].type, 3u);
  EXPECT_EQ(reader_sink.frames[0].payload, payload);

  // Outbox fully drained: every pool chunk returned.
  EXPECT_EQ(pool_.outbox_bytes(writer), 0u);
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  EXPECT_EQ(writer_sink.closed, 0);
}

TEST_F(ConnectionTest, BoundedOutboxClosesStalledPeer) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  shrink_buffers(fds[0]);
  shrink_buffers(fds[1]);
  TestSink sink;
  // fds[1] is never read: the kernel buffers fill, then the outbox grows
  // until it trips the bound.
  pool_.set_outbox_limit(64 * 1024);
  const ConnHandle conn = pool_.adopt(fds[0], &sink);
  ASSERT_NE(conn, 0u);

  std::vector<std::uint8_t> payload(8 * 1024, 0xAB);
  bool overflowed = false;
  for (int i = 0; i < 200 && !overflowed; ++i) {
    overflowed = !pool_.send_frame(conn, static_cast<std::uint64_t>(i), 1,
                                   payload);
  }
  EXPECT_TRUE(overflowed);
  EXPECT_FALSE(pool_.alive(conn));
  EXPECT_EQ(sink.closed, 1);
  // The overflow close released every queued chunk.
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  // Writes against the dead handle are silent no-ops.
  EXPECT_FALSE(pool_.send_frame(conn, 999, 1, payload));
  EXPECT_EQ(sink.closed, 1);
  ::close(fds[1]);
}

TEST_F(ConnectionTest, OversizedDeclaredLengthClosesConnection) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TestSink sink;
  const ConnHandle conn = pool_.adopt(fds[0], &sink);
  ASSERT_NE(conn, 0u);

  const std::uint32_t bad_length = kMaxFrameBytes + 1;
  std::uint8_t header[4];
  std::memcpy(header, &bad_length, 4);
  ASSERT_EQ(::send(fds[1], header, sizeof(header), 0), 4);

  ASSERT_TRUE(run_until([&] { return sink.closed > 0; }));
  EXPECT_TRUE(sink.frames.empty());
  EXPECT_FALSE(pool_.alive(conn));
  ::close(fds[1]);
}

TEST_F(ConnectionTest, UndersizedDeclaredLengthClosesConnection) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TestSink sink;
  const ConnHandle conn = pool_.adopt(fds[0], &sink);
  ASSERT_NE(conn, 0u);

  // length < 10 cannot even hold request_id + type.
  const std::uint32_t bad_length = 4;
  std::uint8_t bytes[8] = {};
  std::memcpy(bytes, &bad_length, 4);
  ASSERT_EQ(::send(fds[1], bytes, sizeof(bytes), 0), 8);

  ASSERT_TRUE(run_until([&] { return sink.closed > 0; }));
  EXPECT_FALSE(pool_.alive(conn));
  ::close(fds[1]);
}

TEST_F(ConnectionTest, CoalescedFramesParseInOrder) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TestSink sink;
  const ConnHandle conn = pool_.adopt(fds[0], &sink);
  ASSERT_NE(conn, 0u);

  // Three frames in one segment, the middle one empty.
  std::vector<std::uint8_t> wire;
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    const std::vector<std::uint8_t> payload(
        rid == 2 ? 0 : 17, static_cast<std::uint8_t>(rid));
    const auto frame = make_frame(rid, static_cast<std::uint16_t>(rid), payload);
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::send(fds[1], wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  ASSERT_TRUE(run_until([&] { return sink.frames.size() >= 3; }));
  ASSERT_EQ(sink.frames.size(), 3u);
  for (std::uint64_t rid = 1; rid <= 3; ++rid) {
    EXPECT_EQ(sink.frames[rid - 1].request_id, rid);
    EXPECT_EQ(sink.frames[rid - 1].payload.size(), rid == 2 ? 0u : 17u);
  }
  EXPECT_TRUE(pool_.alive(conn));
  ::close(fds[1]);
}

TEST_F(ConnectionTest, ByteAtATimeDeliveryReassembles) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TestSink sink;
  const ConnHandle conn = pool_.adopt(fds[0], &sink);
  ASSERT_NE(conn, 0u);

  const auto frame = make_frame(42, 5, {1, 2, 3, 4, 5});
  for (std::size_t i = 0; i < frame.size(); ++i) {
    ASSERT_EQ(::send(fds[1], &frame[i], 1, 0), 1);
    loop_.run_for(msec(1));
    // Short reads at every boundary must never produce a partial frame.
    if (i + 1 < frame.size()) {
      EXPECT_TRUE(sink.frames.empty());
    }
  }
  ASSERT_TRUE(run_until([&] { return !sink.frames.empty(); }));
  ASSERT_EQ(sink.frames.size(), 1u);
  EXPECT_EQ(sink.frames[0].request_id, 42u);
  EXPECT_EQ(sink.frames[0].payload, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(pool_.alive(conn));
  ::close(fds[1]);
}

TEST_F(ConnectionTest, StaleHandleStopsResolvingAfterClose) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  TestSink sink_a, sink_b;
  const ConnHandle a = pool_.adopt(fds[0], &sink_a);
  ASSERT_NE(a, 0u);
  pool_.close(a);  // owner close: silent
  EXPECT_EQ(sink_a.closed, 0);
  EXPECT_FALSE(pool_.alive(a));
  EXPECT_EQ(pool_.outbox_bytes(a), 0u);
  EXPECT_FALSE(pool_.send_frame(a, 1, 1, nullptr, 0));

  // The slot is re-used by the next adopt; the old handle must still not
  // resolve to the new connection.
  const ConnHandle b = pool_.adopt(fds[1], &sink_b);
  ASSERT_NE(b, 0u);
  EXPECT_NE(a, b);
  EXPECT_FALSE(pool_.alive(a));
  EXPECT_TRUE(pool_.alive(b));
  pool_.close(b);
}

TEST_F(ConnectionTest, CloseAllReleasesEverything) {
  std::vector<TestSink> sinks(4);
  std::vector<ConnHandle> handles;
  std::vector<int> peer_fds;
  for (int i = 0; i < 4; ++i) {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    shrink_buffers(fds[0]);
    const ConnHandle conn = pool_.adopt(fds[0], &sinks[i]);
    ASSERT_NE(conn, 0u);
    handles.push_back(conn);
    peer_fds.push_back(fds[1]);
    // Leave bytes queued so close_all has chunks to release.
    std::vector<std::uint8_t> payload(128 * 1024, 0x5A);
    ASSERT_TRUE(pool_.send_frame(conn, 1, 1, payload));
  }
  EXPECT_EQ(pool_.open_connections(), 4u);
  EXPECT_GT(pool_.buffers().in_use(), 0u);
  pool_.close_all();
  EXPECT_EQ(pool_.open_connections(), 0u);
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  for (const ConnHandle conn : handles) EXPECT_FALSE(pool_.alive(conn));
  for (const int fd : peer_fds) ::close(fd);
}

TEST_F(ConnectionTest, PipelinedRepliesLeaveInOneWrite) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EchoSink server;
  server.pool = &pool_;
  TestSink client;
  const ConnHandle server_conn = pool_.adopt(fds[0], &server);
  const ConnHandle client_conn = pool_.adopt(fds[1], &client);
  ASSERT_NE(server_conn, 0u);
  ASSERT_NE(client_conn, 0u);

  // Eight pipelined requests, sent outside any dispatch: one write each,
  // all queued at the server before the loop first reads them.
  const std::uint64_t before_requests = pool_.writes();
  for (std::uint64_t rid = 1; rid <= 8; ++rid) {
    const std::vector<std::uint8_t> payload(rid, static_cast<std::uint8_t>(rid));
    ASSERT_TRUE(pool_.send_frame(client_conn, rid, 4, payload));
  }
  EXPECT_EQ(pool_.writes() - before_requests, 8u);

  // The server answers all eight inside one read dispatch: one sendmsg.
  const std::uint64_t before_replies = pool_.writes();
  ASSERT_TRUE(run_until([&] { return client.frames.size() >= 8; }));
  EXPECT_EQ(pool_.writes() - before_replies, 1u);
  ASSERT_EQ(client.frames.size(), 8u);
  for (std::uint64_t rid = 1; rid <= 8; ++rid) {
    const ReceivedFrame& reply = client.frames[rid - 1];
    EXPECT_EQ(reply.request_id, rid);
    EXPECT_EQ(reply.type, 4u);
    EXPECT_EQ(reply.payload,
              std::vector<std::uint8_t>(rid, static_cast<std::uint8_t>(rid)));
  }
  EXPECT_EQ(pool_.outbox_bytes(server_conn), 0u);
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
}

TEST_F(ConnectionTest, ReplyThenCloseInsideDispatchWritesNothing) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  EchoSink server;
  server.pool = &pool_;
  server.after = [&](ConnHandle conn) { pool_.close(conn); };
  const ConnHandle conn = pool_.adopt(fds[0], &server);
  ASSERT_NE(conn, 0u);

  const auto request = make_frame(9, 2, {1, 2, 3});
  ASSERT_EQ(::send(fds[1], request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::uint64_t before = pool_.writes();
  ASSERT_TRUE(run_until([&] { return !pool_.alive(conn); }));

  // The deferred reply died with its connection: no write, no close
  // notification for an owner close, every chunk back in the pool.
  EXPECT_EQ(pool_.writes(), before);
  EXPECT_EQ(server.closed, 0);
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fds[1], &byte, 1, MSG_DONTWAIT), 0) << "peer sees EOF only";
  ::close(fds[1]);
}

TEST_F(ConnectionTest, SendOnSecondConnectionIsFlushedBeforeDispatchReturns) {
  int trigger[2];
  int other[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, trigger), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, other), 0);
  TestSink other_sink;
  const ConnHandle other_conn = pool_.adopt(other[0], &other_sink);
  ASSERT_NE(other_conn, 0u);

  // Inside the trigger connection's dispatch, write to the other one.
  std::size_t queued_in_dispatch = 0;
  bool sent = false;
  EchoSink trigger_sink;
  trigger_sink.pool = &pool_;
  trigger_sink.after = [&](ConnHandle) {
    const std::vector<std::uint8_t> payload(100, 0x42);
    sent = pool_.send_frame(other_conn, 77, 6, payload);
    queued_in_dispatch = pool_.outbox_bytes(other_conn);
  };
  const ConnHandle trigger_conn = pool_.adopt(trigger[0], &trigger_sink);
  ASSERT_NE(trigger_conn, 0u);

  const auto request = make_frame(1, 1, {});
  ASSERT_EQ(::send(trigger[1], request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ASSERT_TRUE(run_until([&] { return sent; }));
  EXPECT_EQ(queued_in_dispatch, kFrameHeaderBytes + 100)
      << "a send inside a read dispatch is deferred";
  // on_io_event has returned: both connections are flushed and the
  // frame is on the wire.
  EXPECT_EQ(pool_.outbox_bytes(other_conn), 0u);
  EXPECT_EQ(pool_.outbox_bytes(trigger_conn), 0u);
  std::uint8_t wire[kFrameHeaderBytes + 100];
  EXPECT_EQ(::recv(other[1], wire, sizeof(wire), MSG_DONTWAIT),
            static_cast<ssize_t>(sizeof(wire)));
  std::uint64_t request_id = 0;
  std::memcpy(&request_id, wire + 4, 8);
  EXPECT_EQ(request_id, 77u);
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  ::close(trigger[1]);
  ::close(other[1]);
}

TEST_F(ConnectionTest, PeerResetBeforeDeferredFlushClosesOnce) {
  int trigger[2];
  int victim[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, trigger), 0);
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, victim), 0);
  TestSink victim_sink;
  const ConnHandle victim_conn = pool_.adopt(victim[0], &victim_sink);
  ASSERT_NE(victim_conn, 0u);

  // Inside the dispatch: the victim's peer goes away, then a frame is
  // queued for it. The deferred flush finds the broken pipe.
  bool triggered = false;
  bool sent = false;
  EchoSink trigger_sink;
  trigger_sink.pool = &pool_;
  trigger_sink.after = [&](ConnHandle) {
    ::close(victim[1]);
    sent = pool_.send_frame(victim_conn, 5, 1, nullptr, 0);
    triggered = true;
  };
  ASSERT_NE(pool_.adopt(trigger[0], &trigger_sink), 0u);

  const auto request = make_frame(1, 1, {});
  ASSERT_EQ(::send(trigger[1], request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  ASSERT_TRUE(run_until([&] { return triggered; }));
  // The deferred send reports success; the broken pipe surfaces at the
  // flush, which closes the connection and notifies once.
  EXPECT_TRUE(sent);
  EXPECT_FALSE(pool_.alive(victim_conn));
  EXPECT_EQ(victim_sink.closed, 1);
  loop_.run_for(msec(20));  // a stale hangup event must not notify again
  EXPECT_EQ(victim_sink.closed, 1);
  EXPECT_TRUE(victim_sink.frames.empty());
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  ::close(trigger[1]);
}

}  // namespace
}  // namespace eden::rpc
