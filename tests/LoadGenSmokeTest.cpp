//===- tests/LoadGenSmokeTest.cpp - provisioning loadgen smoke test --------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A short in-process run of the provisioning load generator: two seconds
/// of closed-loop load (or fewer, once the session target is hit), then
/// structural checks on the report and on the BENCH_provisioning.json
/// document it writes -- the same artifact the CI server job uploads.
///
//===----------------------------------------------------------------------===//

#include "bench/LoadGen.h"
#include "support/File.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

using namespace elide;
using namespace elide::loadgen;

namespace {

TEST(LoadGenSmokeTest, ClosedLoopRunEmitsCompleteReport) {
  LoadGenConfig Config;
  Config.Mode = LoadGenMode::Closed;
  Config.DurationMs = 2000;
  Config.Workers = 4;
  Config.Connections = 32;
  Config.ServerWorkers = 2;
  Config.TargetSessions = 300; // Usually ends the run well before 2s.
  Config.Seed = 42;

  Expected<LoadGenReport> Report = runProvisioningLoadGen(Config);
  ASSERT_TRUE(static_cast<bool>(Report)) << Report.errorMessage();

  // The run did real work.
  EXPECT_GT(Report->RestoresTotal, 0u);
  EXPECT_GT(Report->RestoresPerSec, 0.0);
  EXPECT_GT(Report->DurationS, 0.0);
  EXPECT_GT(Report->MaxConcurrentSessions, 0u);
  // Ballast was held while serving.
  EXPECT_GE(Report->MaxConcurrentConnections, Config.Connections);

  // Latency percentiles are ordered and populated.
  EXPECT_GT(Report->LatencyMs.P50, 0.0);
  EXPECT_LE(Report->LatencyMs.P50, Report->LatencyMs.P95);
  EXPECT_LE(Report->LatencyMs.P95, Report->LatencyMs.P99);

  // Server-side accounting agrees with the client's view: one HELLO per
  // restore, so every success and at most every failure cost a handshake.
  EXPECT_GE(Report->Server.HandshakesCompleted, Report->RestoresTotal);
  EXPECT_LE(Report->Server.HandshakesCompleted,
            Report->RestoresTotal + Report->RestoresFailed);
  EXPECT_EQ(Report->Reactor.ReadTimeouts, 0u);

  // The JSON artifact round-trips through disk in the shared bench shape,
  // with every required metric and the run's settings.
  std::string Path =
      ::testing::TempDir() + "BENCH_provisioning_smoke.json";
  ASSERT_FALSE(static_cast<bool>(provisioningMetrics(*Report).write(Path)));
  Expected<Bytes> Raw = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(Raw)) << Raw.errorMessage();
  std::string Json(Raw->begin(), Raw->end());
  std::remove(Path.c_str());

  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.substr(Json.size() - 2), "}\n");
  EXPECT_NE(
      Json.find("\"bench\": \"provisioning_loadgen\",\n  \"metrics\": {"),
      std::string::npos);
  for (const char *Metric :
       {"restores_total", "restores_failed", "duration_s", "restores_per_sec",
        "latency_ms.p50", "latency_ms.p95", "latency_ms.p99", "shed_rate",
        "server.handshakes_completed", "max_concurrent_sessions",
        "max_concurrent_connections", "config.workers", "config.seed"})
    EXPECT_NE(Json.find("\"" + std::string(Metric) + "\": {\"value\": "),
              std::string::npos)
        << "missing metric " << Metric;

  // Nonzero restores made it into the document (not just the struct).
  EXPECT_EQ(Json.find("\"restores_total\": {\"value\": 0,"),
            std::string::npos);
}

} // namespace
