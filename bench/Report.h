//===- bench/Report.h - The bench JSON emitter ------------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One JSON shape for the bench artifacts, the `metrics` object perfbench
/// prints:
///
///   {
///     "bench": "paper_report",
///     "metrics": {
///       "table2.AES.remote.restore_median_ms": {"value": 3.1, "unit": "ms"},
///       ...
///     }
///   }
///
/// Names are dotted paths chosen by the bench; metrics keep the order they
/// were added in. A run's settings (seed, repetitions) are metrics too,
/// under `config.`, so an artifact says how it was made.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_BENCH_REPORT_H
#define SGXELIDE_BENCH_REPORT_H

#include "support/Error.h"

#include <string>
#include <vector>

namespace elide {
namespace bench {

/// The metrics of one bench run, rendered as one JSON document.
class Report {
public:
  explicit Report(std::string Bench) : Bench(std::move(Bench)) {}

  /// Appends a metric. A non-finite value is written as 0, as perfbench
  /// does. \p Name and \p Unit are plain ASCII without quotes.
  void add(std::string Name, double Value, std::string Unit);

  std::string render() const;

  /// Writes render() to \p Path and prints "wrote PATH" to stdout.
  Error write(const std::string &Path) const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::string Bench;
  std::vector<Metric> Metrics;
};

} // namespace bench
} // namespace elide

#endif // SGXELIDE_BENCH_REPORT_H
