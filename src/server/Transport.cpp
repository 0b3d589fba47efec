//===- server/Transport.cpp - Client/server transports ----------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Transport.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace elide;

Transport::~Transport() = default;

Expected<Bytes> LoopbackTransport::roundTrip(BytesView Request) {
  return Server.handle(Request);
}

Error elide::makeTransportError(TransportErrc Errc, std::string Message) {
  return makeError(static_cast<int>(Errc), std::move(Message));
}

TransportErrc elide::transportErrcOf(const Error &E) {
  int Code = E.code();
  return (Code >= static_cast<int>(TransportErrc::ConnectFailed) &&
          Code <= static_cast<int>(TransportErrcLast))
             ? static_cast<TransportErrc>(Code)
             : TransportErrc::None;
}

std::optional<uint32_t> elide::retryAfterHintOf(const std::string &Message) {
  const std::string Tag = "retry-after-ms=";
  size_t Pos = Message.find(Tag);
  if (Pos == std::string::npos)
    return std::nullopt;
  size_t Start = Pos + Tag.size();
  size_t End = Start;
  while (End < Message.size() && Message[End] >= '0' && Message[End] <= '9')
    ++End;
  if (End == Start || End - Start > 9)
    return std::nullopt;
  return static_cast<uint32_t>(std::stoul(Message.substr(Start, End - Start)));
}

//===----------------------------------------------------------------------===//
// Deadline socket IO
//===----------------------------------------------------------------------===//

namespace {

using Clock = std::chrono::steady_clock;

/// A point in time after which an IO operation gives up.
struct Deadline {
  Clock::time_point At;

  static Deadline in(int Ms) { return {Clock::now() + std::chrono::milliseconds(Ms)}; }

  /// Milliseconds left, rounded up so a poll never wakes before `At`.
  int remainingMs() const {
    auto Left = std::chrono::ceil<std::chrono::milliseconds>(At - Clock::now())
                    .count();
    return Left > 0 ? static_cast<int>(Left) : 0;
  }

  bool expired() const { return Clock::now() >= At; }
};

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

/// Waits until \p Fd is ready for \p Events. Returns +1 ready, 0 deadline
/// expired, -1 socket error.
int waitReady(int Fd, short Events, const Deadline &D) {
  for (;;) {
    pollfd Pfd{Fd, Events, 0};
    int N = ::poll(&Pfd, 1, D.remainingMs());
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    if (N > 0)
      return 1;
    if (D.expired())
      return 0;
  }
}

/// Writes all of \p Data before the deadline, riding out short writes.
Error sendAllDeadline(int Fd, const uint8_t *Data, size_t Len,
                      const Deadline &D) {
  size_t Sent = 0;
  while (Sent < Len) {
    int Ready = waitReady(Fd, POLLOUT, D);
    if (Ready < 0)
      return makeTransportError(TransportErrc::PeerClosed,
                                std::string("send poll failed: ") +
                                    std::strerror(errno));
    if (Ready == 0)
      return makeTransportError(TransportErrc::WriteTimeout,
                                "write deadline exceeded after " +
                                    std::to_string(Sent) + "/" +
                                    std::to_string(Len) + " bytes");
    ssize_t N = ::send(Fd, Data + Sent, Len - Sent, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return makeTransportError(TransportErrc::PeerClosed,
                                std::string("send failed: ") +
                                    std::strerror(errno));
    }
    Sent += static_cast<size_t>(N);
  }
  return Error::success();
}

/// Reads exactly \p Len bytes before the deadline, riding out short reads.
Error recvAllDeadline(int Fd, uint8_t *Data, size_t Len, const Deadline &D) {
  size_t Got = 0;
  while (Got < Len) {
    int Ready = waitReady(Fd, POLLIN, D);
    if (Ready < 0)
      return makeTransportError(TransportErrc::PeerClosed,
                                std::string("recv poll failed: ") +
                                    std::strerror(errno));
    if (Ready == 0)
      return makeTransportError(TransportErrc::ReadTimeout,
                                "read deadline exceeded after " +
                                    std::to_string(Got) + "/" +
                                    std::to_string(Len) + " bytes");
    ssize_t N = ::recv(Fd, Data + Got, Len - Got, 0);
    if (N == 0)
      return makeTransportError(TransportErrc::PeerClosed,
                                "connection closed after " +
                                    std::to_string(Got) + "/" +
                                    std::to_string(Len) + " bytes");
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return makeTransportError(TransportErrc::PeerClosed,
                                std::string("recv failed: ") +
                                    std::strerror(errno));
    }
    Got += static_cast<size_t>(N);
  }
  return Error::success();
}

Error sendFrameDeadline(int Fd, BytesView Frame, const Deadline &D) {
  uint8_t Len[4];
  writeLE32(Len, static_cast<uint32_t>(Frame.size()));
  if (Error E = sendAllDeadline(Fd, Len, 4, D))
    return E;
  return sendAllDeadline(Fd, Frame.data(), Frame.size(), D);
}

Expected<Bytes> recvFrameDeadline(int Fd, const Deadline &D) {
  uint8_t LenBytes[4];
  if (Error E = recvAllDeadline(Fd, LenBytes, 4, D))
    return E;
  uint32_t Len = readLE32(LenBytes);
  if (Len > MaxFrameBytes)
    return makeTransportError(TransportErrc::FrameTooLarge,
                              "frame too large: " + std::to_string(Len));
  Bytes Frame(Len);
  if (Error E = recvAllDeadline(Fd, Frame.data(), Len, D))
    return E;
  return Frame;
}

} // namespace

//===----------------------------------------------------------------------===//
// TcpClientTransport
//===----------------------------------------------------------------------===//

namespace {

/// Ceiling of the exponential retry backoff.
constexpr long long BackoffMaxMs = 1000;

/// RAII socket close.
struct FdGuard {
  int Fd;
  ~FdGuard() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

/// Non-blocking connect bounded by a deadline.
Expected<int> connectDeadline(const std::string &Host, uint16_t Port,
                              int TimeoutMs) {
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1)
    return makeTransportError(TransportErrc::BadAddress,
                              "invalid server address " + Host);

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeTransportError(TransportErrc::ConnectFailed,
                              std::string("socket: ") + std::strerror(errno));
  FdGuard Guard{Fd};
  setNonBlocking(Fd);

  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    if (errno != EINPROGRESS)
      return makeTransportError(TransportErrc::ConnectFailed,
                                std::string("connect: ") +
                                    std::strerror(errno));
    int Ready = waitReady(Fd, POLLOUT, Deadline::in(TimeoutMs));
    if (Ready <= 0)
      return makeTransportError(TransportErrc::ConnectTimeout,
                                "connect timed out after " +
                                    std::to_string(TimeoutMs) + " ms");
    int SoError = 0;
    socklen_t Len = sizeof(SoError);
    ::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &SoError, &Len);
    if (SoError != 0)
      return makeTransportError(TransportErrc::ConnectFailed,
                                std::string("connect: ") +
                                    std::strerror(SoError));
  }
  Guard.Fd = -1; // Ownership passes to the caller.
  return Fd;
}

} // namespace

Expected<Bytes> TcpClientTransport::attemptOnce(BytesView Request,
                                                int ConnectTimeoutMs,
                                                int IoTimeoutMs) {
  ELIDE_TRY(int Fd, connectDeadline(Host, Port, ConnectTimeoutMs));
  FdGuard Guard{Fd};
  if (Error E = sendFrameDeadline(Fd, Request, Deadline::in(IoTimeoutMs)))
    return E;
  return recvFrameDeadline(Fd, Deadline::in(IoTimeoutMs));
}

Expected<Bytes> TcpClientTransport::roundTrip(BytesView Request) {
  int Attempts = Config.MaxAttempts > 0 ? Config.MaxAttempts : 1;

  // An enveloped request carries its remaining budget; track it across
  // the whole loop (attempts, backoff sleeps) and re-stamp each attempt
  // with what is actually left so the server sees the truth, not the
  // budget as of the first try. A malformed envelope is sent as-is: the
  // server owns the canonical rejection.
  uint32_t DeadlineMs = 0;
  Criticality Class = Criticality::Default;
  BytesView Inner = Request;
  if (Expected<RequestEnvelope> Env = unwrapRequest(Request)) {
    DeadlineMs = Env->DeadlineMs;
    Class = Env->Class;
    Inner = Env->Inner;
  }
  Clock::time_point Start = Clock::now();
  auto remainingMs = [&]() -> long long {
    return static_cast<long long>(DeadlineMs) -
           std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                                 Start)
               .count();
  };
  auto deadlineError = [&](const std::string &Where) {
    return makeTransportError(TransportErrc::DeadlineExceeded,
                              "request deadline (" +
                                  std::to_string(DeadlineMs) +
                                  " ms) exceeded " + Where);
  };

  Error Last;
  long long Backoff = 0;
  for (int Attempt = 1; Attempt <= Attempts; ++Attempt) {
    if (Attempt > 1) {
      // Exponential backoff with deterministic jitter: base * 2^(n-1),
      // capped, plus up to 50% random spread so a fleet of clients
      // recovering from the same outage does not reconnect in lockstep.
      // Doubling the capped previous wait stays in range for any number
      // of attempts.
      Backoff = std::min(Attempt == 2
                             ? std::max<long long>(Config.BackoffBaseMs, 0)
                             : 2 * Backoff,
                         BackoffMaxMs);
      long long Spread;
      {
        std::lock_guard<std::mutex> Lock(JitterMutex);
        Spread = Backoff > 1
                     ? static_cast<long long>(Jitter.nextBelow(Backoff / 2 + 1))
                     : 0;
      }
      long long Wait = Backoff + Spread;
      if (DeadlineMs && Wait >= remainingMs())
        return deadlineError("waiting out the retry backoff");
      std::this_thread::sleep_for(std::chrono::milliseconds(Wait));
    }

    int ConnectMs = Config.ConnectTimeoutMs;
    int IoMs = Config.IoTimeoutMs;
    Bytes Stamped;
    BytesView Wire = Request;
    if (DeadlineMs) {
      long long Left = remainingMs();
      if (Left <= 0)
        return deadlineError("before attempt " + std::to_string(Attempt));
      // No single operation may outlive the request: clamp the per-
      // operation timeouts to the remaining budget.
      ConnectMs = static_cast<int>(std::min<long long>(ConnectMs, Left));
      IoMs = static_cast<int>(std::min<long long>(IoMs, Left));
      Stamped = envelopeFrame(static_cast<uint32_t>(Left), Class, Inner);
      Wire = Stamped;
    }

    LastAttempts.store(Attempt);
    Expected<Bytes> Response = attemptOnce(Wire, ConnectMs, IoMs);
    if (Response) {
      // Backpressure is not payload: surface it typed and at once (no
      // retry burn on this endpoint) so a failover layer can move on.
      if (std::optional<uint32_t> After = overloadedRetryAfterMs(*Response))
        return makeTransportError(TransportErrc::Overloaded,
                                  "server shed load; retry-after-ms=" +
                                      std::to_string(*After));
      return Response;
    }
    Error E = Response.takeError();
    TransportErrc Errc = transportErrcOf(E);
    if (!isRetryableTransportErrc(Errc))
      return E;
    Last = std::move(E);
  }
  if (Attempts == 1)
    return Last; // No retry budget: surface the underlying kind directly.
  return makeTransportError(TransportErrc::RetriesExhausted,
                            "retry budget exhausted after " +
                                std::to_string(Attempts) +
                                " attempts; last error: " + Last.message());
}
