//===- server/EventLoop.cpp - Readiness event loop (epoll) ----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/EventLoop.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

using namespace elide;

namespace {

void setNonBlockingCloexec(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
  int FdFlags = ::fcntl(Fd, F_GETFD, 0);
  if (FdFlags >= 0)
    ::fcntl(Fd, F_SETFD, FdFlags | FD_CLOEXEC);
}

uint32_t toEpoll(uint32_t Events) {
  uint32_t E = 0;
  if (Events & EvRead)
    E |= EPOLLIN;
  if (Events & EvWrite)
    E |= EPOLLOUT;
  return E;
}

} // namespace

Expected<std::unique_ptr<EventLoop>> EventLoop::create() {
  std::unique_ptr<EventLoop> Loop(new EventLoop());

  // The wakeup channel: a plain pipe. The write end stays non-blocking so
  // wakeup() can never stall a worker; a full pipe just means a wakeup is
  // already pending.
  int Pipe[2];
  if (::pipe(Pipe) < 0)
    return makeError(std::string("wakeup pipe: ") + std::strerror(errno));
  setNonBlockingCloexec(Pipe[0]);
  setNonBlockingCloexec(Pipe[1]);
  Loop->WakeRead = Pipe[0];
  Loop->WakeWrite = Pipe[1];

  Loop->EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
  if (Loop->EpollFd < 0)
    return makeError(std::string("epoll_create1: ") + std::strerror(errno));
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.u64 = ~0ull; // sentinel: the wakeup pipe
  if (::epoll_ctl(Loop->EpollFd, EPOLL_CTL_ADD, Loop->WakeRead, &Ev) < 0)
    return makeError(std::string("epoll_ctl(wakeup): ") +
                     std::strerror(errno));
  return Loop;
}

EventLoop::~EventLoop() {
  if (EpollFd >= 0)
    ::close(EpollFd);
  if (WakeRead >= 0)
    ::close(WakeRead);
  if (WakeWrite >= 0)
    ::close(WakeWrite);
}

Error EventLoop::add(int Fd, uint32_t Events, void *Token) {
  if (!Token)
    return makeError("EventLoop tokens must be non-null");
  if (!Tokens.emplace(Fd, Token).second)
    return makeError("fd already watched: " + std::to_string(Fd));
  epoll_event Ev{};
  Ev.events = toEpoll(Events);
  Ev.data.fd = Fd;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) < 0) {
    Tokens.erase(Fd);
    return makeError(std::string("epoll_ctl(add): ") + std::strerror(errno));
  }
  return Error::success();
}

Error EventLoop::mod(int Fd, uint32_t Events, void *Token) {
  auto It = Tokens.find(Fd);
  if (It == Tokens.end())
    return makeError("fd not watched: " + std::to_string(Fd));
  It->second = Token;
  epoll_event Ev{};
  Ev.events = toEpoll(Events);
  Ev.data.fd = Fd;
  if (::epoll_ctl(EpollFd, EPOLL_CTL_MOD, Fd, &Ev) < 0)
    return makeError(std::string("epoll_ctl(mod): ") + std::strerror(errno));
  return Error::success();
}

Error EventLoop::del(int Fd) {
  if (Tokens.erase(Fd) == 0)
    return makeError("fd not watched: " + std::to_string(Fd));
  if (::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr) < 0)
    return makeError(std::string("epoll_ctl(del): ") + std::strerror(errno));
  return Error::success();
}

Expected<bool> EventLoop::wait(std::vector<LoopEvent> &Out, int TimeoutMs) {
  Out.clear();
  bool WokeUp = false;

  // 64 descriptors per wait round: with thousands watched, the kernel
  // round-robins readiness across calls, so a bounded batch bounds the
  // latency any one connection can add to another's.
  epoll_event Evs[64];
  int N = ::epoll_wait(EpollFd, Evs, 64, TimeoutMs);
  if (N < 0) {
    if (errno == EINTR)
      return false;
    return makeError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  Out.reserve(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I) {
    if (Evs[I].data.u64 == ~0ull) {
      uint8_t Sink[64];
      while (::read(WakeRead, Sink, sizeof(Sink)) > 0)
        ;
      WakePending.store(false, std::memory_order_release);
      WakeupsConsumed.fetch_add(1, std::memory_order_relaxed);
      WokeUp = true;
      continue;
    }
    auto It = Tokens.find(Evs[I].data.fd);
    if (It == Tokens.end())
      continue; // Deleted by an earlier event this round.
    LoopEvent E;
    E.Token = It->second;
    E.Readable = (Evs[I].events & EPOLLIN) != 0;
    E.Writable = (Evs[I].events & EPOLLOUT) != 0;
    E.Broken = (Evs[I].events & (EPOLLERR | EPOLLHUP)) != 0;
    Out.push_back(E);
  }
  return WokeUp;
}

void EventLoop::wakeup() {
  // Collapse storms: one pending byte is enough to interrupt the wait,
  // and skipping redundant writes keeps a hot worker pool off the pipe.
  if (WakePending.exchange(true, std::memory_order_acq_rel))
    return;
  uint8_t One = 1;
  (void)!::write(WakeWrite, &One, 1);
}
