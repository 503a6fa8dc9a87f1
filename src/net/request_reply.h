// One request/reply exchange on a fresh connection: the client side of the
// coordinator's pre-Hello paths (StatsRequest and the control frames), used
// by volleyctl, volley_stats and the soak's churn driver.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/messages.h"

namespace volley::net {

/// Which side of the exchange failed.
enum class RequestError {
  kConnect,    // refused or connect deadline passed: nothing is listening
  kTransport,  // connected, but no valid reply frame before the deadline
};

/// Connects to host:port, sends `request` and returns the first reply
/// frame. `timeout_ms` bounds the whole exchange: the connect, and the
/// wait for the reply in poll(2), which re-checks the deadline, so a peer
/// that accepts and never answers costs timeout_ms, not forever. nullopt
/// on any failure, with its side in `*error` when `error` is given.
std::optional<Message> request_reply(const std::string& host,
                                     std::uint16_t port, int timeout_ms,
                                     const Message& request,
                                     RequestError* error = nullptr);

}  // namespace volley::net
