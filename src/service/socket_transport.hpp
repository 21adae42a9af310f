#pragma once
// POSIX socket transport for the guardband service. This header and its
// .cpp are the only sanctioned home of raw socket and frame-stream
// handling — taf-analyze (rule service-socket-seam) bans the socket
// syscalls and headers everywhere outside src/service/, the way
// thermal-backend-seam confines stencil internals.
//
// The transport is deliberately thin: it moves length-prefixed frames
// (protocol.hpp) between file descriptors and GuardbandServer, one
// thread per accepted connection. All protocol-level error handling —
// malformed envelopes, bad parameters — happens in serve_payload() and
// yields a typed error frame on the same connection. Only an unframeable
// byte stream (oversized or zero length prefix) closes a connection, and
// the peer is sent a final error frame first.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/guardband_server.hpp"

namespace taf::service {

/// Where a SocketListener binds. Exactly one of unix_path / tcp_port
/// must be set (tcp_port > 0 binds 127.0.0.1:tcp_port; port 0 asks the
/// kernel for an ephemeral port, readable back via bound_port()).
struct ListenerConfig {
  std::string unix_path;
  int tcp_port = -1;
};

/// Accept loop + per-connection frame pumps over a GuardbandServer.
class SocketListener {
 public:
  /// Binds and listens; throws std::runtime_error on any socket failure.
  SocketListener(GuardbandServer& server, ListenerConfig config);
  ~SocketListener();
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// Start accepting connections (returns immediately).
  void start();
  /// Stop accepting, shut down every live connection (unblocking reads
  /// from peers that keep their end open), close the listening socket,
  /// and join every connection thread. Idempotent; also run by the
  /// destructor.
  void stop();

  /// Port actually bound (TCP mode; after construction).
  int bound_port() const { return bound_port_; }
  std::uint64_t connections_accepted() const { return accepted_.load(); }

 private:
  void accept_loop();
  void serve_connection(int fd);

  GuardbandServer& server_;
  ListenerConfig config_;
  int listen_fd_ = -1;
  int bound_port_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::thread accept_thread_;
  std::mutex conn_mutex_;
  std::vector<std::thread> conn_threads_;  // guarded by conn_mutex_
  // Open connection fds, guarded by conn_mutex_. A connection thread
  // closes and deregisters its fd under the lock, and stop() shuts fds
  // down under the same lock — so stop() can never touch a closed (and
  // possibly kernel-reused) descriptor.
  std::vector<int> conn_fds_;
};

/// Blocking client for one connection: send a request envelope, read the
/// response envelope. Pipelining-safe (requests are answered in order).
class FrameClient {
 public:
  /// Connect to a unix socket path or 127.0.0.1:port; throws
  /// std::runtime_error on failure.
  static FrameClient connect_unix(const std::string& path);
  static FrameClient connect_tcp(int port);
  ~FrameClient();
  FrameClient(FrameClient&& other) noexcept;
  FrameClient& operator=(FrameClient&&) = delete;
  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// Write one framed envelope. Throws on IO failure.
  void send_envelope(std::string_view envelope);
  /// Read the next response envelope. Throws on IO failure, EOF, or an
  /// unframeable stream.
  std::string read_envelope();
  /// send + read.
  std::string roundtrip(std::string_view envelope);

 private:
  explicit FrameClient(int fd) : fd_(fd) {}
  int fd_;
  protocol::FrameReader reader_;
};

}  // namespace taf::service
