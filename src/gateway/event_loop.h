// Single-threaded, level-triggered epoll event loop.
//
// One EventLoop hosts every socket of the interop gateway: listeners,
// accepted peers, and outbound client connections (the loopback probe and
// bench drivers reuse it). All sockets are non-blocking; reads are drained
// to EAGAIN on every readiness report, and writes go through a
// per-connection buffered writer — a deque of util::BufferSlice plus a
// head offset — so serving a stored HLS segment queues a refcount
// bump, not a copy. EPOLLOUT interest is registered only while the queue
// is non-empty (the level-triggered idiom that avoids a busy loop).
//
// Back-pressure: each connection carries a write cap. A peer that stops
// draining (zero socket reads) accumulates queued slices only up to the
// cap; one more send marks the connection overflowed and the loop closes
// it — unbounded buffering is impossible by construction
// (tests/test_gateway_bridge.cpp pins this).
//
// Descriptor exhaustion: while listening, the loop holds one reserve fd.
// When accept fails with EMFILE/ENFILE it closes the reserve, accepts and
// drops the waiting peer, and reopens the reserve — so a full descriptor
// table sheds peers instead of spinning on a listener that stays ready.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/buffer.h"
#include "util/bytes.h"
#include "util/result.h"

namespace psc::gateway {

class EventLoop;

/// One live socket. Owned by the loop; handlers receive a reference that
/// is valid only for the duration of the callback (the loop may destroy
/// the connection as soon as the callback returns).
class Connection {
 public:
  std::uint64_t id() const { return id_; }
  int fd() const { return fd_; }

  /// Queue bytes for transmission (refcount bump, no copy) and try to
  /// flush immediately. Returns false if the connection is closed or the
  /// queue would exceed the write cap (the connection is then marked
  /// overflowed and torn down after the handler returns).
  bool send(util::BufferSlice data);
  bool send_copy(BytesView data) {
    return send(util::BufferSlice::copy_of(data));
  }

  /// Bytes queued but not yet accepted by the kernel.
  std::size_t buffered() const { return buffered_; }

  /// Largest allowed backlog of un-flushed bytes (default 4 MiB).
  void set_write_cap(std::size_t cap) { write_cap_ = cap; }
  std::size_t write_cap() const { return write_cap_; }

  /// Close once the write queue drains (keep-alive=false responses).
  /// An already-empty queue closes at the next loop turn.
  void close_after_flush();

  /// Immediate close at the next loop turn (handlers must not destroy
  /// the connection object they were called with).
  void close();
  bool closing() const { return closing_ || overflowed_; }

  /// Free tag for the owner (e.g. the MediaOrigin connection id).
  std::uint64_t user_tag = 0;

 private:
  friend class EventLoop;
  Connection(EventLoop* loop, int fd, std::uint64_t id)
      : loop_(loop), fd_(fd), id_(id) {}

  /// Flush queued slices to the socket; returns false on a fatal error.
  bool flush();

  EventLoop* loop_;
  int fd_;
  std::uint64_t id_;
  std::deque<util::BufferSlice> outq_;
  std::size_t head_off_ = 0;  // bytes of outq_.front() already written
  std::size_t buffered_ = 0;
  std::size_t write_cap_ = 4u << 20;
  bool want_write_ = false;  // EPOLLOUT currently registered
  bool closing_ = false;
  bool close_after_flush_ = false;
  bool overflowed_ = false;
  bool connecting_ = false;  // outbound connect() still in progress
};

struct ConnectionHandlers {
  /// Bytes arrived. The view is valid only during the call.
  std::function<void(Connection&, BytesView)> on_data;
  /// Peer closed, I/O error, write-cap overflow, or loop shutdown. Fires
  /// exactly once, after which the Connection is destroyed.
  std::function<void(Connection&)> on_close;
  /// Outbound connection completed (or failed: on_close fires instead).
  std::function<void(Connection&)> on_connect;
};

class EventLoop {
 public:
  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Listen on 127.0.0.1:`port` (0 = ephemeral). Returns the bound port.
  /// `on_accept` runs after the connection is registered; set per-
  /// connection state (handlers are chosen per listener).
  Result<std::uint16_t> listen(std::uint16_t port, ConnectionHandlers handlers,
                               std::function<void(Connection&)> on_accept);

  /// Non-blocking outbound connect to 127.0.0.1:`port`.
  Result<Connection*> connect(std::uint16_t port, ConnectionHandlers handlers);

  /// One epoll_wait + dispatch. Returns the number of epoll events
  /// handled (0 on timeout).
  int poll(int timeout_ms);

  /// Stop accepting new connections (listeners are closed; existing
  /// connections keep running).
  void stop_listening();

  /// Close every connection (on_close fires for each).
  void close_all();

  std::size_t connection_count() const { return conns_.size(); }
  bool listening() const { return !listeners_.empty(); }

  /// Sum of un-flushed bytes across all connections.
  std::size_t total_buffered() const;

 private:
  struct Listener {
    int fd;
    std::uint16_t port;
    ConnectionHandlers handlers;
    std::function<void(Connection&)> on_accept;
  };
  struct Entry {
    std::unique_ptr<Connection> conn;
    ConnectionHandlers handlers;
  };

  void accept_ready(Listener& l);
  void conn_ready(int fd, std::uint32_t events);
  void update_write_interest(Connection& c);
  void destroy(int fd);

  friend class Connection;

  int ep_ = -1;
  std::uint64_t next_id_ = 1;
  std::map<int, Listener> listeners_;
  std::map<int, Entry> conns_;
  std::vector<int> doomed_;  // fds to destroy after dispatch
  int spare_fd_ = -1;        // reserve fd spent on EMFILE/ENFILE accepts
  std::vector<std::uint8_t> readbuf_;
};

}  // namespace psc::gateway
