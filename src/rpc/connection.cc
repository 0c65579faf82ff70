#include "rpc/connection.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace eden::rpc {
namespace {

constexpr int kMaxIov = 64;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void set_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---- handle plumbing ----------------------------------------------------

ConnectionPool::Conn* ConnectionPool::resolve(ConnHandle conn) {
  if (conn == 0) return nullptr;
  const std::uint32_t idx = static_cast<std::uint32_t>(conn & 0xffffffffu) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(conn >> 32);
  if (idx >= conns_.size()) return nullptr;
  Conn& c = conns_[idx];
  if (c.gen != gen || c.fd < 0) return nullptr;
  return &c;
}

const ConnectionPool::Conn* ConnectionPool::resolve(ConnHandle conn) const {
  return const_cast<ConnectionPool*>(this)->resolve(conn);
}

bool ConnectionPool::alive(ConnHandle conn) const {
  return resolve(conn) != nullptr;
}

std::size_t ConnectionPool::outbox_bytes(ConnHandle conn) const {
  const Conn* c = resolve(conn);
  return c != nullptr ? c->out_bytes : 0;
}

// ---- open / close -------------------------------------------------------

ConnHandle ConnectionPool::adopt(int fd, FrameSink* sink) {
  if (fd < 0) return 0;
  set_nonblocking(fd);
  set_nodelay(fd);
  std::uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = conns_[idx].next_free;
  } else {
    idx = static_cast<std::uint32_t>(conns_.size());
    conns_.emplace_back();
  }
  Conn& c = conns_[idx];
  c.fd = fd;
  c.sink = sink;
  c.next_free = kNil;
  c.want_write = false;
  const ConnHandle handle = handle_of(idx);
  // The epoll tag carries the full handle so stale events (slot re-used
  // within one epoll batch) are rejected twice: by the loop's watch
  // generation and by the connection generation.
  c.watch = loop_->watch_sink(fd, /*want_read=*/true, /*want_write=*/false,
                              this, handle);
  ++open_;
  return handle;
}

ConnHandle ConnectionPool::connect(const std::string& endpoint,
                                   FrameSink* sink) {
  std::string host = "127.0.0.1";
  std::string port_text = endpoint;
  if (const auto colon = endpoint.rfind(':'); colon != std::string::npos) {
    host = endpoint.substr(0, colon);
    port_text = endpoint.substr(colon + 1);
  }
  const int port = std::atoi(port_text.c_str());
  if (port <= 0 || port > 65535) return 0;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  set_nonblocking(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return 0;
  }
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return 0;
  }
  return adopt(fd, sink);
}

void ConnectionPool::do_close(std::uint32_t idx, bool notify) {
  Conn& c = conns_[idx];
  if (c.fd < 0) return;
  loop_->unwatch_id(c.watch);
  c.watch = 0;
  ::close(c.fd);
  c.fd = -1;
  for (std::size_t i = c.out_head; i < c.out.size(); ++i) {
    buffers_.release(c.out[i]);
  }
  c.out.clear();
  c.out_head = 0;
  c.front_off = 0;
  c.tail_used = 0;
  c.out_bytes = 0;
  c.in.clear();
  c.in_head = 0;
  c.want_write = false;
  c.dirty = false;  // its stale dirty_ entry is skipped
  FrameSink* sink = c.sink;
  c.sink = nullptr;
  const ConnHandle handle = handle_of(idx);
  ++c.gen;
  c.next_free = free_head_;
  free_head_ = idx;
  --open_;
  if (notify && sink != nullptr) sink->on_conn_closed(handle);
}

void ConnectionPool::close(ConnHandle conn) {
  if (resolve(conn) == nullptr) return;
  do_close(static_cast<std::uint32_t>(conn & 0xffffffffu) - 1,
           /*notify=*/false);
}

void ConnectionPool::close_all() {
  for (std::uint32_t idx = 0; idx < conns_.size(); ++idx) {
    if (conns_[idx].fd >= 0) do_close(idx, /*notify=*/false);
  }
}

// ---- outbound path ------------------------------------------------------

void ConnectionPool::append_out(Conn& c, const void* data, std::size_t size) {
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    if (c.out_head == c.out.size() || c.tail_used == BufferPool::kChunkBytes) {
      c.out.push_back(buffers_.acquire());
      c.tail_used = 0;
    }
    const std::size_t take =
        std::min(size, BufferPool::kChunkBytes - c.tail_used);
    std::memcpy(buffers_.data(c.out.back()) + c.tail_used, p, take);
    c.tail_used += take;
    p += take;
    size -= take;
    c.out_bytes += take;
  }
}

bool ConnectionPool::send_frame(ConnHandle conn, std::uint64_t request_id,
                                std::uint16_t type,
                                const std::uint8_t* payload,
                                std::size_t payload_size) {
  Conn* c = resolve(conn);
  if (c == nullptr) return false;
  const std::uint32_t length = static_cast<std::uint32_t>(payload_size) + 10;
  if (c->out_bytes + 4 + length > outbox_limit_) {
    // Sustained backlog: the peer is not draining. Disconnecting is the
    // backpressure signal — the protocol layers treat it like any other
    // connection failure.
    do_close(static_cast<std::uint32_t>(conn & 0xffffffffu) - 1,
             /*notify=*/true);
    return false;
  }
  std::uint8_t header[kFrameHeaderBytes];
  std::memcpy(header, &length, 4);
  std::memcpy(header + 4, &request_id, 8);
  std::memcpy(header + 12, &type, 2);
  append_out(*c, header, sizeof(header));
  if (payload_size > 0) append_out(*c, payload, payload_size);
  const std::uint32_t idx = static_cast<std::uint32_t>(conn & 0xffffffffu) - 1;
  if (c->want_write) return true;  // EPOLLOUT readiness flushes it
  if (dispatching_ > 0) {
    // Inside a read dispatch: flush_dirty() sends once on the way out.
    if (!c->dirty) {
      c->dirty = true;
      dirty_.push_back(idx);
    }
    return true;
  }
  // EPOLLOUT is not armed, so nothing else will flush this — try now.
  return flush(idx);
}

void ConnectionPool::sync_write_interest(Conn& c) {
  const bool want = c.out_bytes > 0;
  if (want == c.want_write) return;
  c.want_write = want;
  loop_->update_watch(c.watch, /*want_read=*/true, want);
}

bool ConnectionPool::flush(std::uint32_t idx) {
  Conn& c = conns_[idx];
  iovec iov[kMaxIov];
  while (c.fd >= 0 && c.out_bytes > 0) {
    int iovcnt = 0;
    std::size_t off = c.front_off;
    for (std::size_t i = c.out_head; i < c.out.size() && iovcnt < kMaxIov;
         ++i) {
      const std::size_t len =
          (i + 1 == c.out.size()) ? c.tail_used : BufferPool::kChunkBytes;
      iov[iovcnt].iov_base = buffers_.data(c.out[i]) + off;
      iov[iovcnt].iov_len = len - off;
      ++iovcnt;
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ++writes_;
    const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      std::size_t remaining = static_cast<std::size_t>(n);
      c.out_bytes -= remaining;
      while (remaining > 0) {
        const bool last = c.out_head + 1 == c.out.size();
        const std::size_t chunk_len =
            (last ? c.tail_used : BufferPool::kChunkBytes) - c.front_off;
        if (remaining < chunk_len) {
          c.front_off += remaining;
          remaining = 0;
        } else {
          remaining -= chunk_len;
          buffers_.release(c.out[c.out_head]);
          ++c.out_head;
          c.front_off = 0;
        }
      }
      if (c.out_head == c.out.size()) {
        c.out.clear();  // capacity retained
        c.out_head = 0;
        c.tail_used = 0;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == ENOTCONN || errno == EINPROGRESS)) {
      break;  // still connecting; EPOLLOUT fires once established
    }
    do_close(idx, /*notify=*/true);
    return false;
  }
  if (c.fd >= 0) sync_write_interest(c);
  return c.fd >= 0;
}

// ---- inbound path -------------------------------------------------------

void ConnectionPool::on_io_event(std::uint64_t tag, bool readable,
                                 bool writable) {
  Conn* c = resolve(tag);
  if (c == nullptr) return;
  const std::uint32_t idx = static_cast<std::uint32_t>(tag & 0xffffffffu) - 1;
  if (writable && !flush(idx)) return;
  if (!readable) return;
  ++dispatching_;
  handle_readable(idx);
  if (--dispatching_ == 0) flush_dirty();
}

void ConnectionPool::flush_dirty() {
  // Sends made while a failed flush notifies its sink go out inline
  // (dispatching_ is 0 here), so the list does not grow under the loop.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    Conn& c = conns_[dirty_[i]];
    if (!c.dirty) continue;  // closed, maybe re-adopted, since it was marked
    c.dirty = false;
    flush(dirty_[i]);
  }
  dirty_.clear();
}

void ConnectionPool::handle_readable(std::uint32_t idx) {
  Conn& c = conns_[idx];
  std::uint8_t buffer[64 * 1024];
  while (c.fd >= 0) {
    const ssize_t n = ::recv(c.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      c.in.insert(c.in.end(), buffer, buffer + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    do_close(idx, /*notify=*/true);  // peer closed or hard error
    return;
  }
  parse_frames(idx);
}

void ConnectionPool::parse_frames(std::uint32_t idx) {
  Conn* c = &conns_[idx];
  const std::uint32_t gen = c->gen;
  const ConnHandle handle = handle_of(idx);
  while (c->fd >= 0) {
    const std::size_t avail = c->in.size() - c->in_head;
    if (avail < 4) break;
    std::uint32_t length = 0;
    std::memcpy(&length, c->in.data() + c->in_head, 4);
    if (length < 10 || length > kMaxFrameBytes) {
      do_close(idx, /*notify=*/true);
      return;
    }
    if (avail < 4 + static_cast<std::size_t>(length)) break;
    std::uint64_t request_id = 0;
    std::uint16_t type = 0;
    std::memcpy(&request_id, c->in.data() + c->in_head + 4, 8);
    std::memcpy(&type, c->in.data() + c->in_head + 12, 2);
    const std::uint8_t* payload = c->in.data() + c->in_head + kFrameHeaderBytes;
    const std::size_t payload_size = length - 10;
    // Advance before dispatch: the sink may close (or the slot may even be
    // re-used for a fresh accept) during the callback — the generation
    // check below catches both.
    c->in_head += 4 + length;
    if (c->sink != nullptr) {
      c->sink->on_frame(handle, request_id, type, payload, payload_size);
    }
    c = &conns_[idx];
    if (c->gen != gen) return;
  }
  // Compact: drop the consumed prefix, keep capacity for the next read.
  if (c->in_head == c->in.size()) {
    c->in.clear();
    c->in_head = 0;
  } else if (c->in_head > 0) {
    const std::size_t remaining = c->in.size() - c->in_head;
    std::memmove(c->in.data(), c->in.data() + c->in_head, remaining);
    c->in.resize(remaining);
    c->in_head = 0;
  }
}

// ---- Listener -----------------------------------------------------------

Listener::Listener(ConnectionPool& pool, FrameSink* sink,
                   AcceptHandler on_accept)
    : pool_(&pool), sink_(sink), on_accept_(std::move(on_accept)) {}

Listener::~Listener() { close(); }

bool Listener::listen(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 64) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(fd_);
  pool_->loop().watch(fd_, true, false, [this](bool readable, bool) {
    if (!readable) return;
    while (true) {
      const int client_fd = ::accept(fd_, nullptr, nullptr);
      if (client_fd < 0) break;
      const ConnHandle conn = pool_->adopt(client_fd, sink_);
      if (conn != 0 && on_accept_) on_accept_(conn);
    }
  });
  return true;
}

void Listener::close() {
  if (fd_ < 0) return;
  pool_->loop().unwatch(fd_);
  ::close(fd_);
  fd_ = -1;
}

std::string local_endpoint(std::uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

}  // namespace eden::rpc
