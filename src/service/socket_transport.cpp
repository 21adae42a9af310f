#include "service/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace taf::service {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// write() until done; false on any failure (connection is abandoned).
bool write_all(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketListener::SocketListener(GuardbandServer& server, ListenerConfig config)
    : server_(server), config_(std::move(config)) {
  const bool use_unix = !config_.unix_path.empty();
  if (use_unix == (config_.tcp_port >= 0)) {
    throw std::runtime_error("listener: set exactly one of unix_path / tcp_port");
  }
  if (use_unix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("listener: unix socket path too long");
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    ::unlink(config_.unix_path.c_str());  // stale socket from a dead server
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(listen_fd_);
      throw_errno("bind");
    }
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(listen_fd_);
      throw_errno("bind");
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    throw_errno("listen");
  }
}

SocketListener::~SocketListener() { stop(); }

void SocketListener::start() {
  // The thread reads its own copy of the fd: stop() resets listen_fd_
  // while the thread may still be running.
  accept_thread_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

void SocketListener::stop() {
  if (stopping_.exchange(true)) return;
  if (listen_fd_ >= 0) {
    // shutdown() unblocks a blocked accept(); close() alone may not.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conns.swap(conn_threads_);
    // Unblock connection threads parked in read() on peers that keep
    // their end open; they observe EOF and exit. The fds stay registered
    // until each owning thread closes them under the lock.
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : conns) t.join();
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void SocketListener::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket closed (stop()) or fatal
    }
    ++accepted_;
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve_connection(fd); });
  }
}

void SocketListener::serve_connection(int fd) {
  protocol::FrameReader reader;
  char buf[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // peer closed
    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    while (open) {
      if (reader.error() != nullptr) {
        // Unframeable stream: send a final typed error, then close (a
        // corrupt length prefix offers no resynchronization point).
        protocol::ErrorResponse err;
        err.code = protocol::ErrorResponse::kMalformedFrame;
        err.message = reader.error();
        write_all(fd, protocol::frame(protocol::encode_error(err)));
        open = false;
        break;
      }
      const std::optional<std::string> envelope = reader.next();
      if (!envelope.has_value()) break;
      if (!write_all(fd, protocol::frame(server_.serve_payload(*envelope)))) {
        open = false;
      }
    }
  }
  const std::lock_guard<std::mutex> lock(conn_mutex_);
  ::close(fd);
  conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), fd));
}

FrameClient FrameClient::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("client: unix socket path too long");
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("connect");
  }
  return FrameClient(fd);
}

FrameClient FrameClient::connect_tcp(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw_errno("connect");
  }
  return FrameClient(fd);
}

FrameClient::~FrameClient() {
  if (fd_ >= 0) ::close(fd_);
}

FrameClient::FrameClient(FrameClient&& other) noexcept
    : fd_(other.fd_), reader_(std::move(other.reader_)) {
  other.fd_ = -1;
}

void FrameClient::send_envelope(std::string_view envelope) {
  if (!write_all(fd_, protocol::frame(envelope))) throw_errno("write");
}

std::string FrameClient::read_envelope() {
  for (;;) {
    if (reader_.error() != nullptr) {
      throw std::runtime_error(std::string("client: unframeable stream: ") +
                               reader_.error());
    }
    if (std::optional<std::string> envelope = reader_.next()) return *std::move(envelope);
    char buf[4096];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read");
    }
    if (n == 0) throw std::runtime_error("client: connection closed mid-frame");
    reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

std::string FrameClient::roundtrip(std::string_view envelope) {
  send_envelope(envelope);
  return read_envelope();
}

}  // namespace taf::service
