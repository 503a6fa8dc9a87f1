#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "net/io_counters.h"

namespace volley {

namespace {
[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Waits up to `timeout_ms` for a nonblocking connect in flight
/// (EINPROGRESS) to finish, retrying the wait on EINTR with the timeout
/// shrunk by the time already spent (a delivered signal is not a connect
/// failure — test_net's ConnectRetriesAcrossEintr pins this). Throws on
/// timeout or a failed connect.
void await_connect(const TcpConnection& conn, int timeout_ms) {
  pollfd pfd{conn.fd(), POLLOUT, 0};
  timespec start{};
  clock_gettime(CLOCK_MONOTONIC, &start);
  int remaining_ms = timeout_ms;
  int ready = 0;
  for (;;) {
    ready = ::poll(&pfd, 1, remaining_ms);
    if (ready >= 0) break;
    if (errno != EINTR) throw_errno("poll(connect)");
    if (timeout_ms >= 0) {
      timespec now{};
      clock_gettime(CLOCK_MONOTONIC, &now);
      const auto waited_ms =
          static_cast<int>((now.tv_sec - start.tv_sec) * 1000 +
                           (now.tv_nsec - start.tv_nsec) / 1000000);
      remaining_ms = timeout_ms - waited_ms;
      if (remaining_ms <= 0) {
        ready = 0;  // deadline passed while handling signals
        break;
      }
    }
  }
  errno = ready == 0 ? ETIMEDOUT : conn.connect_error();
  if (errno != 0) throw_errno("connect");
}
}  // namespace

FileDescriptor::~FileDescriptor() { reset(); }

FileDescriptor::FileDescriptor(FileDescriptor&& other) noexcept
    : fd_(other.fd_) {
  other.fd_ = -1;
}

FileDescriptor& FileDescriptor::operator=(FileDescriptor&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

int FileDescriptor::release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void FileDescriptor::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

TcpConnection TcpConnection::start_connect(const std::string& host,
                                           std::uint16_t port,
                                           bool& in_progress) {
  FileDescriptor fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    throw_errno("inet_pton");
  }
  // TCP_NODELAY before connect, not after: every connect path — blocking,
  // deadline'd and reactor-driven — carries it, so a small frame
  // (heartbeat, ack) never sits behind Nagle.
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  TcpConnection conn(std::move(fd));
  conn.set_nonblocking(true);
  net::count_io_syscalls();
  const int rc = ::connect(conn.fd(), reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) throw_errno("connect");
  in_progress = rc != 0;
  return conn;
}

int TcpConnection::connect_error() const {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd_.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0)
    return errno;
  return err;
}

TcpConnection TcpConnection::connect(const std::string& host,
                                     std::uint16_t port, int timeout_ms) {
  // Non-blocking connect so a dead host fails at our deadline, not the
  // kernel's (which defaults to minutes of SYN retries).
  bool in_progress = false;
  TcpConnection conn = start_connect(host, port, in_progress);
  if (in_progress) await_connect(conn, timeout_ms);
  conn.set_nonblocking(false);
  return conn;
}

std::optional<TcpConnection> TcpConnection::try_connect(
    const std::string& host, std::uint16_t port, int timeout_ms) {
  try {
    return connect(host, port, timeout_ms);
  } catch (const std::system_error&) {
    return std::nullopt;
  }
}

bool TcpConnection::send_all(std::span<const std::byte> data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    net::count_io_syscalls();
    const ssize_t n = ::send(fd_.get(), data.data() + sent,
                             data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) continue;  // retry
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::size_t> TcpConnection::recv_some(std::span<std::byte> buf) {
  while (true) {
    net::count_io_syscalls();
    const ssize_t n = ::recv(fd_.get(), buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
      return 0;  // treat hard errors as a closed peer
    }
    return static_cast<std::size_t>(n);
  }
}

void TcpConnection::set_nonblocking(bool enabled) {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_.get(), F_SETFL, next) < 0) throw_errno("fcntl(F_SETFL)");
}

TcpListener::TcpListener(std::uint16_t port) {
  fd_.reset(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd_.valid()) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd_.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    throw_errno("bind");
  }
  if (::listen(fd_.get(), 64) != 0) throw_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

void TcpListener::set_nonblocking(bool enabled) {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) throw_errno("fcntl(F_GETFL)");
  const int next = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_.get(), F_SETFL, next) < 0) throw_errno("fcntl(F_SETFL)");
}

std::optional<TcpConnection> TcpListener::accept() {
  net::count_io_syscalls();
  const int fd = ::accept(fd_.get(), nullptr, nullptr);
  if (fd < 0) return std::nullopt;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpConnection(FileDescriptor(fd));
}

}  // namespace volley
