//===- support/Stats.h - Timing and summary statistics --------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock timing and mean/standard-deviation helpers used by
/// `bench/paper_report` and the other benches (the paper reports
/// avg +/- stddev of 10 runs).
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SUPPORT_STATS_H
#define SGXELIDE_SUPPORT_STATS_H

#include <chrono>
#include <cmath>
#include <cstddef>
#include <vector>

namespace elide {

/// A monotonic stopwatch measuring elapsed milliseconds.
class Timer {
public:
  Timer() : Start(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { Start = Clock::now(); }

  /// Returns milliseconds elapsed since construction or the last reset().
  double elapsedMs() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - Start)
        .count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Start;
};

/// Mean and sample standard deviation of a set of measurements.
struct Summary {
  double Mean = 0.0;
  double StdDev = 0.0;
  size_t Count = 0;
};

/// Computes mean and sample standard deviation (N-1 denominator, matching
/// how the paper reports run-to-run variation).
inline Summary summarize(const std::vector<double> &Samples) {
  Summary S;
  S.Count = Samples.size();
  if (Samples.empty())
    return S;
  double Sum = 0.0;
  for (double V : Samples)
    Sum += V;
  S.Mean = Sum / static_cast<double>(Samples.size());
  if (Samples.size() < 2)
    return S;
  double SqSum = 0.0;
  for (double V : Samples)
    SqSum += (V - S.Mean) * (V - S.Mean);
  S.StdDev = std::sqrt(SqSum / static_cast<double>(Samples.size() - 1));
  return S;
}

} // namespace elide

#endif // SGXELIDE_SUPPORT_STATS_H
