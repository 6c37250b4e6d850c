#include "gateway/event_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace psc::gateway {

namespace {

Error errno_error(const char* what) {
  return make_error("gateway_io",
                    std::string(what) + ": " + std::strerror(errno));
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return a;
}

}  // namespace

// ---- Connection --------------------------------------------------------

bool Connection::send(util::BufferSlice data) {
  if (closing_ || overflowed_ || data.empty()) return !closing_ && !overflowed_;
  if (buffered_ + data.size() > write_cap_) {
    // The peer stopped draining: cap the backlog and let the loop tear
    // the connection down instead of buffering without bound. The doomed
    // list matters here — a zero-drain peer never produces an epoll event
    // of its own, so the writer's send is the only chance to reap it.
    overflowed_ = true;
    loop_->doomed_.push_back(fd_);
    return false;
  }
  buffered_ += data.size();
  outq_.push_back(std::move(data));
  if (!connecting_ && !flush()) {
    closing_ = true;
    loop_->doomed_.push_back(fd_);
    return false;
  }
  if (closing_) {  // close_after_flush and the queue just drained
    loop_->doomed_.push_back(fd_);
    return true;
  }
  loop_->update_write_interest(*this);
  return true;
}

void Connection::close() {
  if (closing_) return;
  closing_ = true;
  loop_->doomed_.push_back(fd_);
}

void Connection::close_after_flush() {
  close_after_flush_ = true;
  // Nothing queued means no EPOLLOUT will ever fire to finish the close:
  // doom the connection now instead of idling forever.
  if (outq_.empty() && !closing_) {
    closing_ = true;
    loop_->doomed_.push_back(fd_);
  }
}

bool Connection::flush() {
  while (!outq_.empty()) {
    const util::BufferSlice& head = outq_.front();
    const std::size_t len = head.size() - head_off_;
    const ssize_t n =
        ::send(fd_, head.data() + head_off_, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    buffered_ -= static_cast<std::size_t>(n);
    head_off_ += static_cast<std::size_t>(n);
    if (head_off_ == head.size()) {
      outq_.pop_front();
      head_off_ = 0;
    }
  }
  if (close_after_flush_) closing_ = true;
  return true;
}

// ---- EventLoop ---------------------------------------------------------

EventLoop::EventLoop() : readbuf_(64 * 1024) {
  ep_ = ::epoll_create1(EPOLL_CLOEXEC);
}

EventLoop::~EventLoop() {
  close_all();
  stop_listening();
  if (ep_ >= 0) ::close(ep_);
}

Result<std::uint16_t> EventLoop::listen(
    std::uint16_t port, ConnectionHandlers handlers,
    std::function<void(Connection&)> on_accept) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_error("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Error e = errno_error("bind");
    ::close(fd);
    return e;
  }
  if (::listen(fd, 64) != 0) {
    const Error e = errno_error("listen");
    ::close(fd);
    return e;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t bound = ntohs(addr.sin_port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
  listeners_[fd] =
      Listener{fd, bound, std::move(handlers), std::move(on_accept)};
  if (spare_fd_ < 0) spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return bound;
}

Result<Connection*> EventLoop::connect(std::uint16_t port,
                                       ConnectionHandlers handlers) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_error("socket");
  sockaddr_in addr = loopback(port);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    const Error e = errno_error("connect");
    ::close(fd);
    return e;
  }
  auto conn = std::unique_ptr<Connection>(new Connection(this, fd, next_id_++));
  conn->connecting_ = rc != 0;
  Connection* raw = conn.get();
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->connecting_ ? EPOLLOUT : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
  conns_[fd] = Entry{std::move(conn), std::move(handlers)};
  if (!raw->connecting_ && conns_[fd].handlers.on_connect) {
    conns_[fd].handlers.on_connect(*raw);
  }
  return raw;
}

void EventLoop::update_write_interest(Connection& c) {
  const bool want = !c.outq_.empty() || c.connecting_;
  if (want == c.want_write_) return;
  c.want_write_ = want;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = c.fd_;
  ::epoll_ctl(ep_, EPOLL_CTL_MOD, c.fd_, &ev);
}

void EventLoop::accept_ready(Listener& l) {
  for (;;) {
    const int fd = ::accept4(l.fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EAGAIN, or an error the next readiness report may clear.
      if ((errno != EMFILE && errno != ENFILE) || spare_fd_ < 0) return;
      // Out of descriptors: the peer would sit in the backlog and keep the
      // level-triggered listener ready on every poll. Spend the reserve fd
      // to accept and drop it, then take the reserve back.
      ::close(spare_fd_);
      const int shed = ::accept4(l.fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (shed >= 0) ::close(shed);
      spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (shed < 0) return;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn =
        std::unique_ptr<Connection>(new Connection(this, fd, next_id_++));
    Connection* raw = conn.get();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
    conns_[fd] = Entry{std::move(conn), l.handlers};
    if (l.on_accept) l.on_accept(*raw);
    if (raw->closing()) doomed_.push_back(fd);
  }
}

void EventLoop::conn_ready(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& c = *it->second.conn;
  if (c.connecting_) {
    if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
      doomed_.push_back(fd);
      return;
    }
    if ((events & EPOLLOUT) != 0) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        doomed_.push_back(fd);
        return;
      }
      c.connecting_ = false;
      c.want_write_ = true;  // EPOLLOUT was registered for the connect
      update_write_interest(c);
      if (it->second.handlers.on_connect) it->second.handlers.on_connect(c);
      if (c.closing()) {
        doomed_.push_back(fd);
        return;
      }
    }
  }
  if ((events & EPOLLOUT) != 0 && !c.connecting_) {
    if (!c.flush()) {
      doomed_.push_back(fd);
      return;
    }
    update_write_interest(c);
  }
  if ((events & EPOLLIN) != 0) {
    for (;;) {
      const ssize_t n = ::recv(fd, readbuf_.data(), readbuf_.size(), 0);
      if (n > 0) {
        if (it->second.handlers.on_data) {
          it->second.handlers.on_data(
              c, BytesView(readbuf_.data(), static_cast<std::size_t>(n)));
        }
        if (c.closing()) {
          doomed_.push_back(fd);
          return;
        }
        continue;
      }
      if (n == 0) {  // orderly peer close
        doomed_.push_back(fd);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      doomed_.push_back(fd);
      return;
    }
  }
  if ((events & (EPOLLERR | EPOLLHUP)) != 0 || c.closing()) {
    doomed_.push_back(fd);
  }
}

void EventLoop::destroy(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  // Move the entry out first: on_close may reentrantly inspect the loop.
  Entry entry = std::move(it->second);
  conns_.erase(it);
  ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  if (entry.handlers.on_close) entry.handlers.on_close(*entry.conn);
}

int EventLoop::poll(int timeout_ms) {
  epoll_event events[64];
  const int n = ::epoll_wait(ep_, events, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    auto lit = listeners_.find(fd);
    if (lit != listeners_.end()) {
      accept_ready(lit->second);
    } else {
      conn_ready(fd, events[i].events);
    }
  }
  // Deferred teardown: handlers ran with stable Connection references;
  // doomed fds (possibly queued twice) die here.
  std::sort(doomed_.begin(), doomed_.end());
  doomed_.erase(std::unique(doomed_.begin(), doomed_.end()), doomed_.end());
  std::vector<int> doomed;
  doomed.swap(doomed_);
  for (int fd : doomed) destroy(fd);
  return n < 0 ? 0 : n;
}

void EventLoop::stop_listening() {
  for (auto& [fd, l] : listeners_) {
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  listeners_.clear();
  if (spare_fd_ >= 0) ::close(spare_fd_);
  spare_fd_ = -1;
}

void EventLoop::close_all() {
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, e] : conns_) fds.push_back(fd);
  for (int fd : fds) destroy(fd);
  doomed_.clear();
}

std::size_t EventLoop::total_buffered() const {
  std::size_t total = 0;
  for (const auto& [fd, e] : conns_) total += e.conn->buffered();
  return total;
}

}  // namespace psc::gateway
