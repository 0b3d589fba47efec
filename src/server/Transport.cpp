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

Expected<Bytes> TcpClientTransport::roundTrip(BytesView Request) {
  // An enveloped request carries the caller's deadline: no connect or IO
  // wait may outlive it. A malformed envelope is sent as-is: the server
  // owns the canonical rejection.
  int ConnectMs = Config.ConnectTimeoutMs;
  int IoMs = Config.IoTimeoutMs;
  if (Expected<RequestEnvelope> Env = unwrapRequest(Request);
      Env && Env->DeadlineMs) {
    long long Budget = Env->DeadlineMs;
    ConnectMs = static_cast<int>(std::min<long long>(ConnectMs, Budget));
    IoMs = static_cast<int>(std::min<long long>(IoMs, Budget));
  }

  ELIDE_TRY(int Fd, connectDeadline(Host, Port, ConnectMs));
  FdGuard Guard{Fd};
  if (Error E = sendFrameDeadline(Fd, Request, Deadline::in(IoMs)))
    return E;
  ELIDE_TRY(Bytes Response, recvFrameDeadline(Fd, Deadline::in(IoMs)));
  // Backpressure is not payload: surface it typed, with the server's
  // hint, so a failover layer can move on.
  if (std::optional<uint32_t> After = overloadedRetryAfterMs(Response))
    return makeTransportError(TransportErrc::Overloaded,
                              "server shed load; retry-after-ms=" +
                                  std::to_string(*After));
  return Response;
}
