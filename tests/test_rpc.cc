// Loopback tests for the framed RPC layer: request/response, async
// responders, one-way messages, timeouts, dead-peer failures (including a
// reset found by the pool's end-of-dispatch flush).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <functional>

#include "common/rng.h"
#include "rpc/rpc_client.h"
#include "rpc/rpc_server.h"

namespace eden::rpc {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<RpcServer>(loop_, pool_);
    ASSERT_TRUE(server_->listen(0));
    client_ = std::make_unique<RpcClient>(loop_, pool_, server_->endpoint());
  }

  // Run the loop until `done` is true or the deadline passes.
  void run_until(const bool& done, SimDuration deadline = sec(2.0)) {
    const SimTime end = loop_.now() + deadline;
    while (!done && loop_.now() < end) loop_.run_for(msec(10));
  }

  EventLoop loop_;
  ConnectionPool pool_{loop_};
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<RpcClient> client_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  server_->handle(MessageType::kRttProbe,
                  [](Reader& reader, RpcServer::Responder respond) {
                    Writer w;
                    w.u32(reader.u32() + 1);
                    respond(w.data());
                  });
  bool done = false;
  std::uint32_t result = 0;
  Writer w;
  w.u32(41);
  client_->call(MessageType::kRttProbe, w.data(), sec(1),
                [&](RpcResult response) {
                  ASSERT_TRUE(response.ok);
                  Reader r(response.data, response.size);
                  result = r.u32();
                  done = true;
                });
  run_until(done);
  EXPECT_TRUE(done);
  EXPECT_EQ(result, 42u);
}

TEST_F(RpcTest, ManyConcurrentRequestsCorrelate) {
  server_->handle(MessageType::kProcessProbe,
                  [](Reader& reader, RpcServer::Responder respond) {
                    Writer w;
                    w.u32(reader.u32() * 10);
                    respond(w.data());
                  });
  int completed = 0;
  bool done = false;
  for (std::uint32_t i = 0; i < 50; ++i) {
    Writer w;
    w.u32(i);
    client_->call(MessageType::kProcessProbe, w.data(), sec(1),
                  [&, i](RpcResult response) {
                    ASSERT_TRUE(response.ok);
                    Reader r(response.data, response.size);
                    EXPECT_EQ(r.u32(), i * 10);
                    if (++completed == 50) done = true;
                  });
  }
  run_until(done);
  EXPECT_EQ(completed, 50);
}

TEST_F(RpcTest, DeferredResponderRepliesLater) {
  // The handler stores the responder and answers from a timer — the
  // pattern used by the live node's asynchronous frame processing.
  server_->handle(MessageType::kOffload,
                  [this](Reader&, RpcServer::Responder respond) {
                    loop_.schedule_after(msec(30), [respond] {
                      Writer w;
                      w.str("late");
                      respond(w.data());
                    });
                  });
  bool done = false;
  std::string result;
  client_->call(MessageType::kOffload, {}, sec(1),
                [&](RpcResult response) {
                  ASSERT_TRUE(response.ok);
                  Reader r(response.data, response.size);
                  result = r.str();
                  done = true;
                });
  run_until(done);
  EXPECT_EQ(result, "late");
}

TEST_F(RpcTest, TimeoutFiresWhenServerSilent) {
  server_->handle(MessageType::kJoin,
                  [](Reader&, RpcServer::Responder) { /* never responds */ });
  bool done = false;
  bool got_value = true;
  client_->call(MessageType::kJoin, {}, msec(50), [&](RpcResult response) {
    got_value = response.ok;
    done = true;
  });
  run_until(done);
  EXPECT_TRUE(done);
  EXPECT_FALSE(got_value);
}

TEST_F(RpcTest, OneWayMessageArrives) {
  bool received = false;
  std::uint32_t value = 0;
  server_->handle_one_way(MessageType::kHeartbeat, [&](Reader& reader) {
    value = reader.u32();
    received = true;
  });
  Writer w;
  w.u32(1234);
  client_->send_one_way(MessageType::kHeartbeat, w.data());
  run_until(received);
  EXPECT_TRUE(received);
  EXPECT_EQ(value, 1234u);
}

TEST_F(RpcTest, CallToDeadPortFails) {
  // A port with nothing listening: connection refused surfaces as !ok
  // (possibly via the timeout).
  RpcClient dead(loop_, pool_, "127.0.0.1:1");
  bool done = false;
  bool got_value = true;
  dead.call(MessageType::kRttProbe, {}, msec(300), [&](RpcResult response) {
    got_value = response.ok;
    done = true;
  });
  run_until(done);
  EXPECT_TRUE(done);
  EXPECT_FALSE(got_value);
}

TEST_F(RpcTest, ServerCloseFailsPendingCalls) {
  server_->handle(MessageType::kJoin,
                  [](Reader&, RpcServer::Responder) { /* hold */ });
  bool done = false;
  client_->call(MessageType::kJoin, {}, sec(5), [&](RpcResult response) {
    EXPECT_FALSE(response.ok);
    done = true;
  });
  loop_.schedule_after(msec(30), [this] { server_->close(); });
  run_until(done);
  EXPECT_TRUE(done);
}

TEST_F(RpcTest, ClientReconnectsAfterServerRestartlessDrop) {
  server_->handle(MessageType::kRttProbe,
                  [](Reader&, RpcServer::Responder respond) { respond({}); });
  // First call establishes a connection.
  bool first = false;
  client_->call(MessageType::kRttProbe, {}, sec(1),
                [&](RpcResult response) { first = response.ok; });
  run_until(first);
  ASSERT_TRUE(first);

  // Server drops every connection; the next call must reconnect.
  bool dropped = false;
  loop_.schedule_after(msec(10), [&] {
    server_->close();
    ASSERT_TRUE(server_->listen(0));
    dropped = true;
  });
  run_until(dropped);
  // Note: new ephemeral port — point a fresh client at it.
  RpcClient retry(loop_, pool_, server_->endpoint());
  bool second = false;
  retry.call(MessageType::kRttProbe, {}, sec(1),
             [&](RpcResult response) { second = response.ok; });
  run_until(second);
  EXPECT_TRUE(second);
}

TEST_F(RpcTest, LatePendingSlotReuseDoesNotMisdeliver) {
  // Force a timeout, then issue a new call that re-uses the freed pending
  // slot. The (instance, gen, idx) triple in the request id must keep the
  // stale response (if any) from completing the new call.
  server_->handle(MessageType::kJoin,
                  [](Reader&, RpcServer::Responder) { /* never responds */ });
  server_->handle(MessageType::kRttProbe,
                  [](Reader& reader, RpcServer::Responder respond) {
                    Writer w;
                    w.u32(reader.u32());
                    respond(w.data());
                  });
  bool timed_out = false;
  client_->call(MessageType::kJoin, {}, msec(30), [&](RpcResult response) {
    EXPECT_FALSE(response.ok);
    timed_out = true;
  });
  run_until(timed_out);
  ASSERT_TRUE(timed_out);

  bool done = false;
  std::uint32_t echoed = 0;
  Writer w;
  w.u32(777);
  client_->call(MessageType::kRttProbe, w.data(), sec(1),
                [&](RpcResult response) {
                  ASSERT_TRUE(response.ok);
                  Reader r(response.data, response.size);
                  echoed = r.u32();
                  done = true;
                });
  run_until(done);
  EXPECT_EQ(echoed, 777u);
  EXPECT_EQ(client_->pending_count(), 0u);
}

// Raw blocking socket to 127.0.0.1:port, for bypassing the framing layer.
int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST_F(RpcTest, GarbageBytesDoNotCrashServer) {
  // Fuzz-ish: raw sockets shovel random bytes at the server; it must drop
  // the connections (bad framing) and keep serving well-formed clients.
  server_->handle(MessageType::kRttProbe,
                  [](Reader&, RpcServer::Responder respond) { respond({}); });
  Rng rng(99);
  for (int conn = 0; conn < 10; ++conn) {
    const int fd = raw_connect(server_->port());
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> noise;
    // Lead with an absurd declared length so the framing check trips,
    // followed by random bytes.
    const std::uint32_t bad_length = 0xfffffff0u;
    noise.resize(4);
    std::memcpy(noise.data(), &bad_length, 4);
    for (int i = 0; i < 256; ++i) {
      noise.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    ASSERT_EQ(::send(fd, noise.data(), noise.size(), 0),
              static_cast<ssize_t>(noise.size()));
    loop_.run_for(msec(5));
    ::close(fd);
    loop_.run_for(msec(5));
  }
  // A well-formed call still succeeds afterwards.
  bool done = false;
  client_->call(MessageType::kRttProbe, {}, sec(1),
                [&](RpcResult response) { done = response.ok; });
  run_until(done);
  EXPECT_TRUE(done);
}

TEST_F(RpcTest, LargePayloadRoundTrip) {
  server_->handle(MessageType::kOffload,
                  [](Reader& reader, RpcServer::Responder respond) {
                    const std::string payload = reader.str();
                    Writer w;
                    w.u32(static_cast<std::uint32_t>(payload.size()));
                    respond(w.data());
                  });
  const std::string big(1 << 20, 'x');  // 1 MiB
  Writer w;
  w.str(big);
  bool done = false;
  std::uint32_t size = 0;
  client_->call(MessageType::kOffload, w.data(), sec(2),
                [&](RpcResult response) {
                  ASSERT_TRUE(response.ok);
                  Reader r(response.data, response.size);
                  size = r.u32();
                  done = true;
                });
  run_until(done);
  EXPECT_EQ(size, big.size());
}

TEST_F(RpcTest, NoPoolChunksLeakAfterTraffic) {
  server_->handle(MessageType::kRttProbe,
                  [](Reader&, RpcServer::Responder respond) { respond({}); });
  int completed = 0;
  bool done = false;
  for (int i = 0; i < 20; ++i) {
    client_->call(MessageType::kRttProbe, {}, sec(1), [&](RpcResult response) {
      EXPECT_TRUE(response.ok);
      if (++completed == 20) done = true;
    });
  }
  run_until(done);
  ASSERT_EQ(completed, 20);
  // All outboxes drained: no chunk should still be held.
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  client_->close();
  server_->close();
  pool_.close_all();
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  EXPECT_EQ(pool_.open_connections(), 0u);
}

// Runs `fn` for every frame its connection delivers.
struct CallbackSink : FrameSink {
  std::function<void()> fn;
  void on_frame(ConnHandle, std::uint64_t, std::uint16_t, const std::uint8_t*,
                std::size_t) override {
    fn();
  }
  void on_conn_closed(ConnHandle) override {}
};

TEST_F(RpcTest, PeerResetBeforeDeferredFlushFailsPendingCalls) {
  // A raw listening socket stands in for the server, so the test holds the
  // accepted fd and can reset it.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listen_fd, 4), 0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                          &addr_len),
            0);
  RpcClient client(loop_, pool_, local_endpoint(ntohs(addr.sin_port)));

  int failed = 0;
  int succeeded = 0;
  bool both_failed = false;
  const auto count = [&](RpcResult response) {
    ++(response.ok ? succeeded : failed);
    both_failed = failed == 2;
  };
  // The first call connects; its request reaches the server, which holds
  // the reply.
  client.call(MessageType::kJoin, {}, sec(5), count);
  const int server_fd = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(server_fd, 0);
  std::uint8_t header[kFrameHeaderBytes];
  const SimTime end = loop_.now() + sec(2.0);
  while (::recv(server_fd, header, sizeof(header), MSG_DONTWAIT | MSG_PEEK) <
             static_cast<ssize_t>(sizeof(header)) &&
         loop_.now() < end) {
    loop_.run_for(msec(5));
  }
  ASSERT_EQ(client.pending_count(), 1u);

  // Inside another connection's read dispatch: the server resets, then
  // the client issues a second call, whose frame waits for the deferred
  // flush.
  int trigger[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, trigger), 0);
  bool triggered = false;
  CallbackSink trigger_sink;
  trigger_sink.fn = [&] {
    const linger abort_close{1, 0};
    ::setsockopt(server_fd, SOL_SOCKET, SO_LINGER, &abort_close,
                 sizeof(abort_close));
    ::close(server_fd);
    client.call(MessageType::kJoin, {}, sec(5), count);
    triggered = true;
  };
  ASSERT_NE(pool_.adopt(trigger[0], &trigger_sink), 0u);
  std::uint8_t frame[kFrameHeaderBytes] = {};
  const std::uint32_t length = 10;
  std::memcpy(frame, &length, 4);
  ASSERT_EQ(::send(trigger[1], frame, sizeof(frame), 0),
            static_cast<ssize_t>(sizeof(frame)));

  run_until(both_failed);
  EXPECT_TRUE(triggered);
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(succeeded, 0);
  EXPECT_EQ(client.pending_count(), 0u);
  loop_.run_for(msec(20));  // nothing fails twice
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(pool_.buffers().in_use(), 0u);
  ::close(trigger[1]);
  ::close(listen_fd);
}

}  // namespace
}  // namespace eden::rpc
