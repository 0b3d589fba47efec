//===- server/Reactor.h - Event-driven frame server -----------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The authentication server's TCP front end: a `ReactorServer` whose
/// handler calls `AuthServer::handle` serves the clients'
/// `TcpClientTransport`s. One reactor thread multiplexes every connection
/// over an `EventLoop` (epoll), while a fixed worker
/// pool runs the frame handler -- the CPU work of quote verification and
/// GCM -- off the IO path. Concurrency is bounded by memory per
/// connection rather than by threads, so thousands of idle or slow
/// clients cost a few kilobytes each instead of a stack each.
///
/// Per-connection state machine:
///
///   ReadFrame --(frame complete)--> Dispatched --(handler done)-->
///   WriteResponse --(flushed)--> ReadFrame | DrainClose --> closed
///
/// Reads and writes are non-blocking with per-phase deadlines: a slow-
/// loris client dribbling a frame hits the read deadline (counted only
/// when it left a frame dangling -- idle keep-alive closes are quiet),
/// and a stalled reader that never drains a large response hits the
/// write deadline (write backpressure is the kernel socket buffer; the
/// reactor parks the connection on EvWrite and never buffers more than
/// the one in-flight response).
///
/// `stop()` drains rather than drops: the listener closes immediately,
/// accepted-but-unserved connections get an explicit OVERLOADED frame
/// (with a 50 ms retry-after hint) instead of a silent RST, in-flight
/// exchanges finish bounded by their IO deadlines, and only then do the
/// threads join.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SERVER_REACTOR_H
#define SGXELIDE_SERVER_REACTOR_H

#include "server/EventLoop.h"
#include "support/Bytes.h"
#include "support/Error.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace elide {

/// The application layer served by a reactor: one request frame in, one
/// response frame out. Must be thread-safe (the worker pool calls it
/// concurrently). `AuthServer::handle` is the production handler; tests
/// plug in lambdas.
using FrameHandler = std::function<Bytes(BytesView)>;

/// Transport-side context for one dispatched frame: facts the handler
/// cannot measure itself but needs for overload decisions.
struct FrameContext {
  /// Milliseconds the completed frame sat in the worker queue before a
  /// worker picked it up. Queue delay is the canonical congestion signal:
  /// it rises before throughput falls, which is what lets a brownout
  /// controller act before the collapse rather than after.
  double QueueDelayMs = 0.0;
};

/// Context-aware variant of `FrameHandler`; same thread-safety contract.
using ContextFrameHandler =
    std::function<Bytes(BytesView, const FrameContext &)>;

/// Tuning knobs for the reactor transport.
struct ReactorConfig {
  /// Worker threads running the frame handler (the reactor thread itself
  /// never runs application code).
  size_t WorkerThreads = 8;
  /// Deadline for reading one full frame off a connection. Idle
  /// connections that never start a frame are closed quietly when it
  /// lapses; connections mid-frame count a read timeout.
  int ReadTimeoutMs = 5000;
  /// Deadline for flushing one full response to a connection.
  int WriteTimeoutMs = 5000;
  /// Connection cap: accepted connections beyond this many concurrently
  /// served are shed with an OVERLOADED frame. 0 = no cap.
  size_t MaxConnections = 0;
  /// Retry-after hint carried by cap-shed responses.
  uint32_t OverloadRetryAfterMs = 100;
};

/// Usage counters (tests and benches read these).
struct ReactorStats {
  size_t ConnectionsAccepted = 0;
  size_t ConnectionsShed = 0;
  size_t FramesServed = 0;
  size_t ReadTimeouts = 0;
  size_t WriteTimeouts = 0;
  /// Accepted-but-unserved connections notified with OVERLOADED during a
  /// stop() drain (the regression guard for silent drops).
  size_t DrainNotified = 0;
  /// Peak concurrently-open connections.
  size_t MaxConcurrentConnections = 0;
  /// Cross-thread wakeups the event loop consumed (worker completions,
  /// stop requests).
  size_t Wakeups = 0;
};

/// Serves length-prefixed frames over TCP on 127.0.0.1 with an ephemeral
/// port. All public methods are thread-safe.
class ReactorServer {
public:
  static Expected<std::unique_ptr<ReactorServer>>
  start(ContextFrameHandler Handler,
        const ReactorConfig &Config = ReactorConfig());
  /// Convenience overload for handlers that ignore the frame context.
  static Expected<std::unique_ptr<ReactorServer>>
  start(FrameHandler Handler, const ReactorConfig &Config = ReactorConfig());
  ~ReactorServer();

  ReactorServer(const ReactorServer &) = delete;
  ReactorServer &operator=(const ReactorServer &) = delete;

  /// The bound port.
  uint16_t port() const { return Port; }

  /// Stops accepting, drains in-flight connections (see the file
  /// comment), joins all threads. Idempotent.
  void stop();

  /// Snapshot of the usage counters.
  ReactorStats stats() const;

private:
  struct Conn;
  struct Job {
    Conn *C;
    Bytes Request;
    /// When the frame entered the worker queue (queue-delay measurement).
    std::chrono::steady_clock::time_point EnqueuedAt;
  };
  struct Completion {
    Conn *C;
    Bytes Response;
  };

  ReactorServer() = default;

  void loopThread();
  void workerThread();

  // All of the below run on the reactor thread only.
  void acceptReady();
  void readReady(Conn &C);
  void writeReady(Conn &C);
  void drainReady(Conn &C);
  void finishWrite(Conn &C);
  void dispatch(Conn &C);
  void armWrite(Conn &C, BytesView Frame);
  void processCompletions();
  void handleEvent(const LoopEvent &Ev);
  void beginDrain();
  void requestClose(Conn &C);
  void flushCloses();
  void sweepDeadlines();
  int nextWaitTimeoutMs() const;

  ContextFrameHandler Handler;
  ReactorConfig Config;
  int ListenFd = -1;
  uint16_t Port = 0;
  std::unique_ptr<EventLoop> Loop;
  std::thread Reactor;
  std::vector<std::thread> Workers;

  std::atomic<bool> StopRequested{false};
  std::mutex StopMutex; ///< Serializes concurrent stop() calls.
  bool Draining = false; ///< Reactor thread only.

  /// Open connections by fd and the batch-deferred close list (reactor
  /// thread only; closes are deferred to the end of an event batch so a
  /// token freed by one event can never be dereferenced by the next).
  std::unordered_map<int, std::unique_ptr<Conn>> Conns;
  std::vector<Conn *> ToClose;
  size_t ServingConns = 0; ///< Open conns that count against the cap.

  std::mutex JobMutex;
  std::condition_variable JobCv;
  std::deque<Job> Jobs; ///< Guarded by JobMutex.
  bool WorkersStop = false; ///< Guarded by JobMutex.

  std::mutex DoneMutex;
  std::deque<Completion> Done; ///< Guarded by DoneMutex.

  std::atomic<size_t> ConnectionsAccepted{0};
  std::atomic<size_t> ConnectionsShed{0};
  std::atomic<size_t> FramesServed{0};
  std::atomic<size_t> ReadTimeouts{0};
  std::atomic<size_t> WriteTimeouts{0};
  std::atomic<size_t> DrainNotified{0};
  std::atomic<size_t> PeakConns{0};
};

} // namespace elide

#endif // SGXELIDE_SERVER_REACTOR_H
