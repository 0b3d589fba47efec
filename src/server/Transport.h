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
/// connect and IO time and surfaces a typed `TransportErrc`. It sends
/// each request once. Deciding to try again belongs to the one retry
/// loop, `ElideHost::restore` under a `RestorePolicy` (elide/HostRuntime.h),
/// because a whole restore is the one unit that is always safe to retry.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SERVER_TRANSPORT_H
#define SGXELIDE_SERVER_TRANSPORT_H

#include "server/AuthServer.h"

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

/// Client-side deadlines for the one attempt each roundTrip makes.
struct TcpClientConfig {
  /// Deadline for establishing the connection.
  int ConnectTimeoutMs = 2000;
  /// Deadline for each frame read/write.
  int IoTimeoutMs = 5000;
  /// Unused: the client makes one attempt, so it has nothing to jitter
  /// (the restore loop's jitter is seeded by `RestorePolicy::JitterSeed`).
  /// It stays only because perfbench/Provisioning.cpp sets it and the
  /// benchmark's sources change only together with the benchmark; delete
  /// it then.
  uint64_t JitterSeed = 1;
};

/// TCP client side: one connection, one request frame and one response
/// frame per roundTrip. The restorer makes only a handful of requests,
/// so connection reuse is not worth statefulness, and the session
/// survives across connections because the server keys the session id,
/// not the socket.
///
/// Backpressure surfaces at once: an OVERLOADED answer becomes
/// `TransportErrc::Overloaded` with the server's hint in the message
/// (`retryAfterHintOf`), so the failover layer decides where to go next.
///
/// Deadline-aware: a request wrapped in an envelope frame (see
/// server/Protocol.h) clamps the connect and IO timeouts to the budget
/// the envelope carries, which is what the restore had left when it sent
/// the request, so no single wait outlives the caller's deadline.
class TcpClientTransport : public Transport {
public:
  TcpClientTransport(std::string Host, uint16_t Port,
                     const TcpClientConfig &Config = TcpClientConfig())
      : Host(std::move(Host)), Port(Port), Config(Config) {}
  Expected<Bytes> roundTrip(BytesView Request) override;

private:
  std::string Host;
  uint16_t Port;
  TcpClientConfig Config;
};

} // namespace elide

#endif // SGXELIDE_SERVER_TRANSPORT_H
