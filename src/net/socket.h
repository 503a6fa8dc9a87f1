// RAII TCP socket primitives for the Volley wire runtime (localhost or LAN).
//
// Error policy: construction failures (bind/listen/connect) throw
// std::system_error — a node that cannot come up is a deployment error.
// Runtime I/O reports via return values (0/-1 semantics wrapped into
// optional/bool) so protocol code can treat peer disconnects as data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

namespace volley {

/// Owning file descriptor. Move-only.
class FileDescriptor {
 public:
  FileDescriptor() = default;
  explicit FileDescriptor(int fd) : fd_(fd) {}
  ~FileDescriptor();

  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  FileDescriptor(FileDescriptor&& other) noexcept;
  FileDescriptor& operator=(FileDescriptor&& other) noexcept;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release();
  void reset(int fd = -1);

 private:
  int fd_{-1};
};

/// Connected TCP stream.
class TcpConnection {
 public:
  TcpConnection() = default;
  explicit TcpConnection(FileDescriptor fd) : fd_(std::move(fd)) {}

  /// Connects to host:port (throws std::system_error on failure).
  /// `timeout_ms` bounds the connect itself (non-blocking connect + poll);
  /// < 0 waits for the kernel default, which can be minutes against a dead
  /// host — pass a deadline anywhere responsiveness matters.
  static TcpConnection connect(const std::string& host, std::uint16_t port,
                               int timeout_ms = -1);

  /// Non-throwing connect for retry loops: nullopt on refusal, timeout, or
  /// any other failure.
  static std::optional<TcpConnection> try_connect(const std::string& host,
                                                  std::uint16_t port,
                                                  int timeout_ms);

  /// Starts a non-blocking connect and returns the socket (non-blocking,
  /// TCP_NODELAY). When `in_progress` comes back true the handshake is
  /// still in flight: wait for writability, then read connect_error().
  /// Throws std::system_error when the connect fails at once.
  static TcpConnection start_connect(const std::string& host,
                                     std::uint16_t port, bool& in_progress);

  /// The outcome of a finished non-blocking connect: 0 when connected,
  /// else the errno it failed with.
  int connect_error() const;

  /// Sends the whole buffer (blocking). Returns false on broken peer.
  bool send_all(std::span<const std::byte> data);

  /// Reads up to buf.size() bytes. Returns bytes read, 0 on orderly close,
  /// nullopt when the socket is non-blocking and no data is ready.
  std::optional<std::size_t> recv_some(std::span<std::byte> buf);

  void set_nonblocking(bool enabled);
  bool valid() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  void close() { fd_.reset(); }

 private:
  FileDescriptor fd_;
};

/// Listening TCP socket on 127.0.0.1.
class TcpListener {
 public:
  /// Binds and listens; port 0 picks a free port (see `port()`).
  explicit TcpListener(std::uint16_t port);

  /// Accepts one connection (blocking). nullopt on EINTR/shutdown — or on
  /// an empty backlog when the listener is non-blocking.
  std::optional<TcpConnection> accept();

  void set_nonblocking(bool enabled);

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_.get(); }

 private:
  FileDescriptor fd_;
  std::uint16_t port_{0};
};

}  // namespace volley
