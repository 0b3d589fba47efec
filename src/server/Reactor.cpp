//===- server/Reactor.cpp - Event-driven frame server ---------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/Reactor.h"

#include "server/Protocol.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace elide;

namespace {

using Clock = std::chrono::steady_clock;

/// listen(2) backlog.
constexpr int ListenBacklog = 64;

/// Retry-after hint carried by the OVERLOADED frames sent to accepted-
/// but-unserved connections during a stop() drain.
constexpr uint32_t DrainRetryAfterMs = 50;

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

} // namespace

/// Per-connection state. Owned by the reactor thread; a worker only ever
/// sees the request bytes, never the connection, so the reactor is free
/// to doom a connection whose peer vanished mid-handler and reap it when
/// the completion comes back.
struct ReactorServer::Conn {
  int Fd = -1;
  enum class Phase {
    ReadFrame,     ///< Accumulating the length prefix + frame body.
    Dispatched,    ///< Handler running on a worker; no IO interest.
    WriteResponse, ///< Flushing the response; EvWrite interest.
    DrainClose,    ///< Half-closed; discarding input until EOF.
  } Ph = Phase::ReadFrame;

  Bytes In;          ///< Prefix + body bytes accumulated so far.
  size_t Need = 4;   ///< Total bytes wanted (4 until the prefix arrives).
  bool HaveHeader = false;

  Bytes Out;         ///< Length-prefixed response being flushed.
  size_t OutOff = 0;

  bool CloseAfterWrite = false;
  bool Shed = false;   ///< Cap-shed: served only an OVERLOADED frame.
  bool Doomed = false; ///< Peer broke while Dispatched; reap on completion.
  bool Closing = false;

  bool HasDeadline = false;
  Clock::time_point Deadline;

  void deadlineIn(int Ms) {
    HasDeadline = true;
    Deadline = Clock::now() + std::chrono::milliseconds(Ms);
  }
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

Expected<std::unique_ptr<ReactorServer>>
ReactorServer::start(FrameHandler Handler, const ReactorConfig &Config) {
  if (!Handler)
    return makeError("ReactorServer requires a frame handler");
  return start(
      [H = std::move(Handler)](BytesView Request, const FrameContext &) {
        return H(Request);
      },
      Config);
}

Expected<std::unique_ptr<ReactorServer>>
ReactorServer::start(ContextFrameHandler Handler, const ReactorConfig &Config) {
  if (!Handler)
    return makeError("ReactorServer requires a frame handler");
  if (Config.WorkerThreads == 0)
    return makeError("ReactorConfig.WorkerThreads must be positive");

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return makeError(std::string("socket: ") + std::strerror(errno));
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = 0; // ephemeral
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return makeError(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(Fd, ListenBacklog) < 0) {
    ::close(Fd);
    return makeError(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t AddrLen = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen) < 0) {
    ::close(Fd);
    return makeError(std::string("getsockname: ") + std::strerror(errno));
  }
  setNonBlocking(Fd);

  Expected<std::unique_ptr<EventLoop>> Loop = EventLoop::create();
  if (!Loop) {
    ::close(Fd);
    return Loop.takeError();
  }

  std::unique_ptr<ReactorServer> S(new ReactorServer());
  S->Handler = std::move(Handler);
  S->Config = Config;
  S->ListenFd = Fd;
  S->Port = ntohs(Addr.sin_port);
  S->Loop = Loop.takeValue();
  // The listener's token is the server itself; connections use Conn*.
  if (Error E = S->Loop->add(Fd, EvRead, S.get())) {
    ::close(Fd);
    return E;
  }
  S->Workers.reserve(Config.WorkerThreads);
  for (size_t I = 0; I < Config.WorkerThreads; ++I)
    S->Workers.emplace_back([Raw = S.get()] { Raw->workerThread(); });
  S->Reactor = std::thread([Raw = S.get()] { Raw->loopThread(); });
  return S;
}

ReactorServer::~ReactorServer() { stop(); }

void ReactorServer::stop() {
  StopRequested.store(true);
  std::lock_guard<std::mutex> Lock(StopMutex);
  if (Loop)
    Loop->wakeup();
  if (Reactor.joinable())
    Reactor.join();
  {
    std::lock_guard<std::mutex> JobLock(JobMutex);
    WorkersStop = true;
  }
  JobCv.notify_all();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
}

ReactorStats ReactorServer::stats() const {
  ReactorStats S;
  S.ConnectionsAccepted = ConnectionsAccepted.load();
  S.ConnectionsShed = ConnectionsShed.load();
  S.FramesServed = FramesServed.load();
  S.ReadTimeouts = ReadTimeouts.load();
  S.WriteTimeouts = WriteTimeouts.load();
  S.DrainNotified = DrainNotified.load();
  S.MaxConcurrentConnections = PeakConns.load();
  S.Wakeups = Loop ? Loop->wakeupsConsumed() : 0;
  return S;
}

//===----------------------------------------------------------------------===//
// Worker pool
//===----------------------------------------------------------------------===//

void ReactorServer::workerThread() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(JobMutex);
      JobCv.wait(Lock, [this] { return WorkersStop || !Jobs.empty(); });
      if (Jobs.empty())
        return; // Stopping and drained.
      J = std::move(Jobs.front());
      Jobs.pop_front();
    }
    FrameContext Ctx;
    Ctx.QueueDelayMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - J.EnqueuedAt)
            .count();
    Bytes Response = Handler(J.Request, Ctx);
    {
      std::lock_guard<std::mutex> Lock(DoneMutex);
      Done.push_back(Completion{J.C, std::move(Response)});
    }
    Loop->wakeup();
  }
}

//===----------------------------------------------------------------------===//
// Reactor thread
//===----------------------------------------------------------------------===//

void ReactorServer::loopThread() {
  std::vector<LoopEvent> Events;
  for (;;) {
    if (StopRequested.load() && !Draining) {
      beginDrain();
      flushCloses();
    }
    if (Draining && Conns.empty())
      break;

    Expected<bool> Woke = Loop->wait(Events, nextWaitTimeoutMs());
    if (!Woke)
      break; // The loop itself broke; bail and let stop() reap.

    processCompletions();
    for (const LoopEvent &Ev : Events)
      handleEvent(Ev);
    flushCloses();
    sweepDeadlines();
    flushCloses();
  }

  // Error-path cleanup; after a clean drain there is nothing left.
  for (auto &[Fd, C] : Conns)
    ::close(Fd);
  Conns.clear();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
}

int ReactorServer::nextWaitTimeoutMs() const {
  bool Any = false;
  Clock::time_point Nearest{};
  for (const auto &[Fd, C] : Conns) {
    if (!C->HasDeadline || C->Closing)
      continue;
    if (!Any || C->Deadline < Nearest) {
      Nearest = C->Deadline;
      Any = true;
    }
  }
  if (!Any)
    return -1; // Park until an event or a wakeup.
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  Nearest - Clock::now())
                  .count();
  if (Left <= 0)
    return 0;
  // +1 rounds up so a sub-millisecond remainder cannot spin the loop.
  return static_cast<int>(Left) + 1;
}

void ReactorServer::handleEvent(const LoopEvent &Ev) {
  if (Ev.Token == this) {
    acceptReady();
    return;
  }
  Conn &C = *static_cast<Conn *>(Ev.Token);
  if (C.Closing)
    return; // Closed earlier in this batch.
  switch (C.Ph) {
  case Conn::Phase::Dispatched:
    // No IO interest while the handler runs; only breakage matters, and
    // the connection cannot be freed until its completion comes back.
    if (Ev.Broken)
      C.Doomed = true;
    return;
  case Conn::Phase::ReadFrame:
    // On Broken, attempt the read anyway: it harvests the real errno and
    // distinguishes "peer sent then closed" from "peer reset".
    readReady(C);
    return;
  case Conn::Phase::WriteResponse:
    writeReady(C);
    return;
  case Conn::Phase::DrainClose:
    drainReady(C);
    return;
  }
}

void ReactorServer::acceptReady() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // EAGAIN: accepted everything pending. Transient failures (EMFILE
      // and friends) also just end the batch; the listener stays armed.
      return;
    }
    ConnectionsAccepted.fetch_add(1);
    setNonBlocking(Fd);

    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    Conn *Raw = C.get();
    Conns.emplace(Fd, std::move(C));
    size_t Open = Conns.size();
    size_t Peak = PeakConns.load();
    while (Open > Peak && !PeakConns.compare_exchange_weak(Peak, Open))
      ;

    if (Config.MaxConnections && ServingConns >= Config.MaxConnections) {
      // Load-shed at the door: an explicit OVERLOADED frame (with a
      // retry-after hint) instead of a silent queue that only turns into
      // a timeout later.
      ConnectionsShed.fetch_add(1);
      Raw->Shed = true;
      Raw->CloseAfterWrite = true;
      armWrite(*Raw, overloadedFrame(Config.OverloadRetryAfterMs));
      if (Loop->add(Fd, EvWrite, Raw)) {
        ::close(Fd);
        Conns.erase(Fd);
        continue;
      }
      writeReady(*Raw);
      continue;
    }

    ++ServingConns;
    Raw->deadlineIn(Config.ReadTimeoutMs);
    if (Loop->add(Fd, EvRead, Raw)) {
      --ServingConns;
      ::close(Fd);
      Conns.erase(Fd);
    }
  }
}

void ReactorServer::readReady(Conn &C) {
  for (;;) {
    size_t Have = C.In.size();
    if (Have < C.Need)
      C.In.resize(C.Need);
    ssize_t N = ::recv(C.Fd, C.In.data() + Have, C.Need - Have, 0);
    if (N == 0) {
      // EOF. Between frames this is the normal keep-alive close; mid-
      // frame the peer vanished. Neither is a deadline hit.
      C.In.resize(Have);
      requestClose(C);
      return;
    }
    if (N < 0) {
      C.In.resize(Have);
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return; // Keep EvRead interest; the deadline is already armed.
      requestClose(C);
      return;
    }
    C.In.resize(Have + static_cast<size_t>(N));
    if (C.In.size() < C.Need)
      continue;

    if (!C.HaveHeader) {
      uint32_t Len = readLE32(C.In.data());
      if (Len > MaxFrameBytes) {
        // An oversized length prefix is a protocol violation, closed
        // without a response.
        requestClose(C);
        return;
      }
      C.HaveHeader = true;
      C.Need = 4 + Len;
      if (Len > 0)
        continue;
    }
    dispatch(C);
    return;
  }
}

void ReactorServer::dispatch(Conn &C) {
  C.Ph = Conn::Phase::Dispatched;
  C.HasDeadline = false; // The handler is not the client's fault.
  (void)!Loop->mod(C.Fd, 0, &C); // Spurious readiness is harmless.

  Bytes Request = std::move(C.In);
  Request.erase(Request.begin(), Request.begin() + 4);
  C.In = Bytes();
  C.HaveHeader = false;
  C.Need = 4;

  {
    std::lock_guard<std::mutex> Lock(JobMutex);
    Jobs.push_back(Job{&C, std::move(Request), std::chrono::steady_clock::now()});
  }
  JobCv.notify_one();
}

void ReactorServer::processCompletions() {
  std::deque<Completion> Local;
  {
    std::lock_guard<std::mutex> Lock(DoneMutex);
    Local.swap(Done);
  }
  for (Completion &D : Local) {
    Conn &C = *D.C;
    if (C.Doomed) {
      requestClose(C);
      continue;
    }
    armWrite(C, D.Response);
    if (Loop->mod(C.Fd, EvWrite, &C)) {
      requestClose(C);
      continue;
    }
    // Optimistic flush: most responses fit the socket buffer and finish
    // without another loop round.
    writeReady(C);
  }
}

void ReactorServer::armWrite(Conn &C, BytesView Frame) {
  C.Ph = Conn::Phase::WriteResponse;
  C.Out.clear();
  appendLE32(C.Out, static_cast<uint32_t>(Frame.size()));
  appendBytes(C.Out, Frame);
  C.OutOff = 0;
  C.deadlineIn(Config.WriteTimeoutMs);
}

void ReactorServer::writeReady(Conn &C) {
  while (C.OutOff < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutOff, C.Out.size() - C.OutOff,
                       MSG_NOSIGNAL);
    if (N > 0) {
      C.OutOff += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return; // Kernel buffer full: park on EvWrite, deadline armed.
    requestClose(C); // Peer reset underneath the write.
    return;
  }
  finishWrite(C);
}

void ReactorServer::finishWrite(Conn &C) {
  if (!C.Shed)
    FramesServed.fetch_add(1);
  C.Out = Bytes();
  C.OutOff = 0;
  if (C.CloseAfterWrite) {
    // A straight close() can RST the connection (unread client bytes in
    // our buffer), destroying the final frame before the client reads
    // it. Half-close and briefly drain so it survives.
    ::shutdown(C.Fd, SHUT_WR);
    C.Ph = Conn::Phase::DrainClose;
    C.deadlineIn(250);
    if (Loop->mod(C.Fd, EvRead, &C)) {
      requestClose(C);
      return;
    }
    drainReady(C);
    return;
  }
  C.Ph = Conn::Phase::ReadFrame;
  C.deadlineIn(Config.ReadTimeoutMs);
  if (Loop->mod(C.Fd, EvRead, &C)) {
    requestClose(C);
    return;
  }
  // Pipelined clients may already have the next frame buffered.
  readReady(C);
}

void ReactorServer::drainReady(Conn &C) {
  uint8_t Sink[4096];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Sink, sizeof(Sink), 0);
    if (N > 0)
      continue;
    if (N == 0) {
      requestClose(C); // Peer finished; the frame got through.
      return;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return; // Wait for more input or the drain deadline.
    requestClose(C);
    return;
  }
}

void ReactorServer::requestClose(Conn &C) {
  if (C.Closing)
    return;
  C.Closing = true;
  ToClose.push_back(&C);
}

void ReactorServer::flushCloses() {
  for (Conn *C : ToClose) {
    (void)!Loop->del(C->Fd);
    ::close(C->Fd);
    if (!C->Shed && ServingConns > 0)
      --ServingConns;
    Conns.erase(C->Fd);
  }
  ToClose.clear();
}

void ReactorServer::sweepDeadlines() {
  Clock::time_point Now = Clock::now();
  for (auto &[Fd, C] : Conns) {
    if (C->Closing || !C->HasDeadline || C->Deadline > Now)
      continue;
    switch (C->Ph) {
    case Conn::Phase::ReadFrame:
      // Only a dangling frame counts: idle keep-alive closes are quiet.
      if (!C->In.empty())
        ReadTimeouts.fetch_add(1);
      requestClose(*C);
      break;
    case Conn::Phase::WriteResponse:
      WriteTimeouts.fetch_add(1);
      requestClose(*C);
      break;
    case Conn::Phase::DrainClose:
      requestClose(*C); // The courtesy window lapsed; close regardless.
      break;
    case Conn::Phase::Dispatched:
      break; // No deadline while the handler runs.
    }
  }
}

void ReactorServer::beginDrain() {
  Draining = true;
  (void)!Loop->del(ListenFd);
  ::close(ListenFd);
  ListenFd = -1;

  for (auto &[Fd, C] : Conns) {
    if (C->Closing)
      continue;
    switch (C->Ph) {
    case Conn::Phase::ReadFrame:
      if (C->In.empty()) {
        // Accepted but unserved: an explicit OVERLOADED beats a silent
        // vanishing act -- the client retries elsewhere immediately
        // instead of burning its read deadline on a dead socket.
        DrainNotified.fetch_add(1);
        C->CloseAfterWrite = true;
        armWrite(*C, overloadedFrame(DrainRetryAfterMs));
        if (Loop->mod(Fd, EvWrite, C.get())) {
          requestClose(*C);
          break;
        }
        writeReady(*C);
      } else {
        // Mid-frame at drain: the exchange never started; close.
        requestClose(*C);
      }
      break;
    case Conn::Phase::Dispatched:
    case Conn::Phase::WriteResponse:
      // In-flight exchanges finish (bounded by their deadlines), then
      // close instead of looping for the next frame.
      C->CloseAfterWrite = true;
      break;
    case Conn::Phase::DrainClose:
      break;
    }
  }
}
