//===- server/Transport.h - Client/server transports -----------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request/response transports between the untrusted host runtime and the
/// authentication server. `LoopbackTransport` calls the server in-process
/// (used by tests and benchmarks -- the paper likewise ran client and
/// server on one machine over sockets with "very little network latency");
/// `TcpClientTransport` speaks the same byte protocol over real TCP
/// sockets with length-prefixed frames to a `ReactorServer` running
/// `AuthServer::handle` (server/Reactor.h).
///
/// The paper observes that a missing server is a denial of service on the
/// protected application, so the client is built for failure: it bounds
/// connect/IO time and retries with exponential backoff and deterministic
/// jitter, surfacing a typed `TransportErrc` when the budget is exhausted.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SERVER_TRANSPORT_H
#define SGXELIDE_SERVER_TRANSPORT_H

#include "crypto/Drbg.h"
#include "server/AuthServer.h"

#include <atomic>
#include <mutex>
#include <optional>

namespace elide {

//===----------------------------------------------------------------------===//
// Typed transport errors
//===----------------------------------------------------------------------===//

// `TransportErrc` itself lives in support/Error.h alongside the one
// shared retryable-vs-terminal table (`retryabilityOf`), so the restorer's
// and the transport's failure vocabularies classify in one place.

/// Creates a transport failure tagged with \p Errc.
Error makeTransportError(TransportErrc Errc, std::string Message);

/// The transport error kind of \p E (None for untagged/foreign errors).
TransportErrc transportErrcOf(const Error &E);

/// Same, reading the code of an errored `Expected` without consuming it.
template <typename T> TransportErrc transportErrcOf(const Expected<T> &E) {
  int Code = E.errorCode();
  return (Code >= static_cast<int>(TransportErrc::ConnectFailed) &&
          Code <= static_cast<int>(TransportErrcLast))
             ? static_cast<TransportErrc>(Code)
             : TransportErrc::None;
}

/// Extracts a "retry-after-ms=<n>" hint from an Overloaded error message
/// (the transports embed the server's hint there so it survives the typed
/// error path). nullopt when absent or malformed.
std::optional<uint32_t> retryAfterHintOf(const std::string &Message);

/// Synchronous request/response channel to the authentication server.
class Transport {
public:
  virtual ~Transport();

  /// Sends one request frame and waits for the response frame.
  virtual Expected<Bytes> roundTrip(BytesView Request) = 0;
};

/// Calls an in-process server directly.
class LoopbackTransport : public Transport {
public:
  explicit LoopbackTransport(AuthServer &Server) : Server(Server) {}
  Expected<Bytes> roundTrip(BytesView Request) override;

private:
  AuthServer &Server;
};

//===----------------------------------------------------------------------===//
// TcpClientTransport
//===----------------------------------------------------------------------===//

/// Client-side failure policy: deadlines per operation plus a bounded
/// retry budget with exponential backoff and deterministic jitter.
struct TcpClientConfig {
  /// Deadline for establishing the connection.
  int ConnectTimeoutMs = 2000;
  /// Deadline for each frame read/write.
  int IoTimeoutMs = 5000;
  /// Total connection attempts per roundTrip (1 = no retry).
  int MaxAttempts = 3;
  /// First retry delay; doubles each retry up to a 1 s ceiling.
  int BackoffBaseMs = 25;
  /// Seed for the jitter source (deterministic for reproducible tests).
  uint64_t JitterSeed = 1;
};

/// TCP client side: connects per roundTrip (the restorer makes only a
/// handful of requests, so connection reuse is not worth statefulness --
/// and the session survives across connections because the server keys
/// the session id, not the socket; that same property makes retrying a
/// failed exchange on a fresh connection safe).
///
/// Backpressure is not retried here: an OVERLOADED answer surfaces at once
/// as `TransportErrc::Overloaded` with the server's hint in the message
/// (`retryAfterHintOf`), so the failover layer decides where to go next.
///
/// Deadline-aware: a request wrapped in an envelope frame (see
/// server/Protocol.h) carries its remaining budget through the retry
/// loop -- connect/IO timeouts and backoff waits are clamped to what is
/// left, each attempt's envelope is re-stamped with the true remainder,
/// and a budget that lapses mid-loop surfaces as the terminal
/// `TransportErrc::DeadlineExceeded` instead of burning attempts a
/// caller can no longer use.
class TcpClientTransport : public Transport {
public:
  TcpClientTransport(std::string Host, uint16_t Port,
                     const TcpClientConfig &Config = TcpClientConfig())
      : Host(std::move(Host)), Port(Port), Config(Config),
        Jitter(Config.JitterSeed ^ 0x4a49545445ULL) {}
  Expected<Bytes> roundTrip(BytesView Request) override;

  /// Attempts consumed by the most recent roundTrip (tests read this).
  int lastAttempts() const { return LastAttempts.load(); }

private:
  Expected<Bytes> attemptOnce(BytesView Request, int ConnectTimeoutMs,
                              int IoTimeoutMs);

  std::string Host;
  uint16_t Port;
  TcpClientConfig Config;
  std::mutex JitterMutex;
  Drbg Jitter; ///< Guarded by JitterMutex.
  std::atomic<int> LastAttempts{0};
};

} // namespace elide

#endif // SGXELIDE_SERVER_TRANSPORT_H
