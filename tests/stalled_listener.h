// A loopback listener that never completes another handshake: listen(fd, 0)
// plus one filler connection that is never accepted fill its accept queue,
// so the kernel drops every further SYN and a connect to port() stays in
// flight until the connecting side's own deadline. Tests use it as a root
// or coordinator that is up but unreachable.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <cstdint>
#include <stdexcept>

#include "net/socket.h"

namespace volley::testing {

class StalledListener {
 public:
  StalledListener() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (!fd_.valid() ||
        ::bind(fd_.get(), reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(fd_.get(), 0) != 0 ||
        ::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      throw std::runtime_error("StalledListener: cannot listen");
    }
    port_ = ntohs(addr.sin_port);
    filler_ = TcpConnection::connect("127.0.0.1", port_, 1000);
  }

  std::uint16_t port() const { return port_; }

 private:
  FileDescriptor fd_;
  TcpConnection filler_;  // occupies the one accept-queue slot
  std::uint16_t port_{0};
};

}  // namespace volley::testing
