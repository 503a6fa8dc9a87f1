#include "net/request_reply.h"

#include <poll.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <span>

#include "net/framing.h"
#include "net/socket.h"

namespace volley::net {

std::optional<Message> request_reply(const std::string& host,
                                     std::uint16_t port, int timeout_ms,
                                     const Message& request,
                                     RequestError* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  auto conn = TcpConnection::try_connect(host, port, timeout_ms);
  if (error != nullptr) {
    *error = conn ? RequestError::kTransport : RequestError::kConnect;
  }
  if (!conn || !conn->send_all(frame_payload(encode(request)))) {
    return std::nullopt;
  }
  FrameReader reader;
  std::array<std::byte, 8192> buf;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) return std::nullopt;
    pollfd pfd{conn->fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left));
    if (ready < 0 && errno != EINTR) return std::nullopt;
    if (ready <= 0) continue;
    const auto n = conn->recv_some(buf);
    if (!n) continue;
    if (*n == 0) return std::nullopt;  // closed before replying
    reader.feed(std::span<const std::byte>(buf.data(), *n));
    if (auto payload = reader.next()) return decode(*payload);
    if (reader.corrupt()) return std::nullopt;
  }
}

}  // namespace volley::net
