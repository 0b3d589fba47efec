//===- bench/LoadGen.h - Stress-SGX-style provisioning load generator -----===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process provisioning load generator in the spirit of Stress-SGX:
/// it stands up a reactor-backed AuthServer, then drives it with a fleet
/// of simulated restore clients -- one attested HELLO minting each
/// session, RECORD exchanges fetching metadata, persistent ballast
/// connections proving the reactor holds thousands of sockets while
/// serving throughput traffic.
///
/// Two load shapes:
///  - **closed loop**: each worker issues its next restore the moment the
///    previous one finishes -- measures capacity;
///  - **open loop**: restores arrive on a fixed schedule regardless of
///    completions -- measures behavior past saturation (queueing, shed).
///
/// The run is summarized as restores/sec, latency percentiles and shed
/// rate, and rendered as the `BENCH_provisioning.json` artifact the CI
/// perf trajectory tracks.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_BENCH_LOADGEN_H
#define SGXELIDE_BENCH_LOADGEN_H

#include "bench/Report.h"
#include "server/AuthServer.h"
#include "server/Reactor.h"

#include <string>

namespace elide {
namespace loadgen {

/// Load shape (see the file comment).
enum class LoadGenMode { Closed, Open };

/// One run's knobs. Defaults give a quick single-digit-seconds run.
struct LoadGenConfig {
  LoadGenMode Mode = LoadGenMode::Closed;
  /// Wall-clock budget for the measured phase.
  int DurationMs = 10000;
  /// Client worker threads driving restores concurrently.
  size_t Workers = 8;
  /// Persistent ballast connections held open across the run (the
  /// reactor must keep serving while holding these).
  size_t Connections = 256;
  /// Stop once this many restores completed successfully (0 = run the
  /// full duration). This is how the 10k-session runs terminate.
  size_t TargetSessions = 0;
  /// Open-loop arrival rate (restores offered per second; ignored in
  /// closed loop).
  double ArrivalPerSec = 200.0;
  /// Server-side session store stripes.
  size_t SessionShards = 64;
  /// Server-side session cap (0 = sized to fit TargetSessions, or 64k).
  size_t MaxSessions = 0;
  /// Server worker threads (handler CPU).
  size_t ServerWorkers = 4;
  /// Server connection cap (0 = uncapped; set to observe shedding).
  size_t MaxConnections = 0;
  /// Seeded fault injection on the record path (0 per-mille = off).
  uint64_t FaultSeed = 1;
  uint32_t FaultPerMille = 0;
  /// Seed for client key material and ids.
  uint64_t Seed = 1;
};

/// Latency percentiles over the successful restores, in milliseconds.
struct LatencySummary {
  double P50 = 0, P95 = 0, P99 = 0, Mean = 0;
};

/// Everything a run measured.
struct LoadGenReport {
  LoadGenConfig Config;
  size_t RestoresTotal = 0;  ///< Successful restores.
  size_t RestoresFailed = 0; ///< Restores that exhausted their retries.
  double DurationS = 0;      ///< Measured-phase wall time.
  double RestoresPerSec = 0;
  LatencySummary LatencyMs;
  /// Overloaded verdicts / restore attempts.
  double ShedRate = 0;
  size_t ShedObserved = 0;
  /// Peak live sessions in the server's store during the run.
  size_t MaxConcurrentSessions = 0;
  /// Peak open sockets at the reactor (ballast + active exchanges).
  size_t MaxConcurrentConnections = 0;
  size_t FaultsInjected = 0;
  AuthServerStats Server;
  ReactorStats Reactor;
};

/// Runs one load generation pass (server + clients, all in-process).
Expected<LoadGenReport> runProvisioningLoadGen(const LoadGenConfig &Config);

/// The report as the BENCH_provisioning.json document, in the shared
/// `{"bench", "metrics"}` shape (bench/Report.h); the run's settings are
/// its `config.*` metrics.
bench::Report provisioningMetrics(const LoadGenReport &Report);

} // namespace loadgen
} // namespace elide

#endif // SGXELIDE_BENCH_LOADGEN_H
