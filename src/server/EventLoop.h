//===- server/EventLoop.h - Readiness event loop (epoll) ------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness-notification core under the reactor transport: a thin
/// ownership-free wrapper over epoll(7), plus a self-wakeup channel so
/// other threads (worker pools posting completed responses, `stop()`
/// callers) can interrupt a blocked wait.
///
/// The loop maps file descriptors to opaque caller tokens; it never reads,
/// writes, or closes the descriptors themselves. All methods except
/// `wakeup()` must be called from the owning (loop) thread; `wakeup()` is
/// safe from any thread and is the only cross-thread entry point.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SERVER_EVENTLOOP_H
#define SGXELIDE_SERVER_EVENTLOOP_H

#include "support/Bytes.h"
#include "support/Error.h"

#include <atomic>
#include <memory>
#include <unordered_map>
#include <vector>

namespace elide {

/// Interest/readiness bits (a deliberately tiny vocabulary; mapped onto
/// EPOLLIN/EPOLLOUT internally).
constexpr uint32_t EvRead = 1u << 0;
constexpr uint32_t EvWrite = 1u << 1;

/// One readiness report from `EventLoop::wait`.
struct LoopEvent {
  void *Token = nullptr;
  bool Readable = false;
  bool Writable = false;
  /// Error/hangup on the descriptor (EPOLLERR/EPOLLHUP); the owner should
  /// attempt the pending operation once (to harvest errno) and close.
  bool Broken = false;
};

/// A single-threaded readiness loop. See the file comment for the
/// threading contract.
class EventLoop {
public:
  /// Creates a loop.
  static Expected<std::unique_ptr<EventLoop>> create();
  ~EventLoop();

  EventLoop(const EventLoop &) = delete;
  EventLoop &operator=(const EventLoop &) = delete;

  /// Starts watching \p Fd for \p Events, reporting \p Token on readiness.
  Error add(int Fd, uint32_t Events, void *Token);

  /// Changes the interest set / token of a watched descriptor.
  Error mod(int Fd, uint32_t Events, void *Token);

  /// Stops watching \p Fd. Must be called before closing the descriptor.
  Error del(int Fd);

  /// Number of descriptors currently watched (excludes the wakeup pipe).
  size_t watchedCount() const { return Tokens.size(); }

  /// Blocks until readiness, a wakeup, or \p TimeoutMs (-1 = forever).
  /// Appends readiness reports to \p Out (cleared first) and returns
  /// whether a cross-thread wakeup was consumed this round.
  Expected<bool> wait(std::vector<LoopEvent> &Out, int TimeoutMs);

  /// Interrupts a concurrent (or the next) `wait`. Thread-safe, async-
  /// signal-unsafe, idempotent: multiple wakeups before a wait collapse
  /// into one.
  void wakeup();

  /// Cross-thread wakeups consumed so far (tests assert the wakeup path
  /// actually fires instead of the loop surviving on timeout polling).
  size_t wakeupsConsumed() const {
    return WakeupsConsumed.load(std::memory_order_relaxed);
  }

private:
  EventLoop() = default;

  int EpollFd = -1;
  int WakeRead = -1;       ///< Self-pipe read end, watched internally.
  int WakeWrite = -1;      ///< Self-pipe write end.
  std::atomic<bool> WakePending{false};
  std::atomic<size_t> WakeupsConsumed{0};

  /// Fd -> token. epoll reports the descriptor, and a descriptor deleted
  /// earlier in the same wait round is absent here, so its stale event is
  /// dropped.
  std::unordered_map<int, void *> Tokens;
};

} // namespace elide

#endif // SGXELIDE_SERVER_EVENTLOOP_H
