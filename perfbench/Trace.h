//===- perfbench/Trace.h - Spans recorded around layer calls ---------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder. Spans are taken in the benchmark's own code
/// around each call into a layer's public functions (the program itself is
/// not instrumented). A span carries a name, start, end, parent and op id;
/// spans stay in per-thread memory while the workload runs and are merged
/// and written once it ends. With the recorder off, a `ScopedSpan` costs
/// one relaxed load.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_PERFBENCH_TRACE_H
#define SGXELIDE_PERFBENCH_TRACE_H

#include "support/Error.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed call into a layer.
struct Span {
  const char *Name = ""; ///< Static storage; names a layer call.
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = no parent.
  uint64_t Op = 0;     ///< The op the call served; 0 = none.
  int64_t StartNs = 0; ///< Since the recorder's epoch.
  int64_t EndNs = 0;
  uint32_t Thread = 0;
};

/// The nearest-rank \p Q quantile (0 < Q <= 1) of \p Values; 0 when empty.
double quantile(std::vector<double> Values, double Q);

/// Per-layer summary of a set of spans.
struct LayerSummary {
  size_t Calls = 0;
  double TotalMs = 0;
  double SelfMs = 0;       ///< Total minus the time child spans cover.
  double P50CallMs = 0;    ///< Median duration of one call.
  double P50OpMs = 0;      ///< Median over ops of the op's time in the layer.
  double P50OpSelfMs = 0;  ///< Same, counting self time only.
};

/// Records spans into per-thread buffers while switched on.
class Tracer {
public:
  Tracer() : Epoch(Clock::now()) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool on() const { return On.load(std::memory_order_relaxed); }
  /// Switch only while no op is in flight (between phases).
  void setOn(bool Value) { On.store(Value, std::memory_order_relaxed); }

  uint64_t newId() { return NextId.fetch_add(1, std::memory_order_relaxed); }
  int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Epoch)
        .count();
  }

  /// Appends \p S to the calling thread's buffer.
  void record(const Span &S);

  /// Moves every thread's spans out, merged in start order. Call only
  /// while no thread records (between phases).
  std::vector<Span> drain();

  /// Writes \p Spans as Chrome trace-event JSON (Perfetto opens it).
  static elide::Error writeChromeJson(const std::string &Path,
                                      const std::vector<Span> &Spans);

  /// Summarizes \p Spans by name.
  static std::map<std::string, LayerSummary>
  summarize(const std::vector<Span> &Spans);

private:
  struct Buffer {
    uint32_t Thread = 0;
    std::vector<Span> Spans;
  };
  Buffer &local();

  Clock::time_point Epoch;
  std::atomic<bool> On{false};
  std::atomic<uint64_t> NextId{1};
  std::mutex Mutex;
  std::vector<std::unique_ptr<Buffer>> Buffers; ///< Guarded by Mutex.
};

/// Sets the calling thread's current op id for the scope; spans opened on
/// this thread inside it carry the id.
class OpScope {
public:
  explicit OpScope(uint64_t Op);
  ~OpScope();
  OpScope(const OpScope &) = delete;
  OpScope &operator=(const OpScope &) = delete;

private:
  uint64_t Saved;
};

/// Times the enclosing scope as a span when the recorder is on. Nested
/// scopes on one thread become children of the enclosing span.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const char *Name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  bool active() const { return T != nullptr; }
  uint64_t id() const { return S.Id; }
  uint64_t op() const { return S.Op; }

private:
  Tracer *T = nullptr;
  Span S;
  uint64_t SavedCurrent = 0;
};

} // namespace perfbench

#endif // SGXELIDE_PERFBENCH_TRACE_H
