//===- bench/LoadGenProvisioning.cpp - provisioning loadgen CLI -----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end for the provisioning load generator. Typical
/// runs (see docs/server.md for the full flag reference):
///
///   loadgen_provisioning --smoke
///   loadgen_provisioning --mode open --arrival-per-sec 400 --duration-s 30
///
/// and at scale, all on one command line: `--target-sessions 10000
/// --connections 2000 --workers 64 --duration-s 120`.
///
/// Writes BENCH_provisioning.json (override with --out) and prints the
/// same document to stdout.
///
//===----------------------------------------------------------------------===//

#include "bench/LoadGen.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace elide;
using namespace elide::loadgen;

namespace {

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --mode closed|open        load shape (default closed)\n"
      "  --duration-s N            measured-phase budget in seconds (default 10)\n"
      "  --workers N               client worker threads (default 8)\n"
      "  --connections N           persistent ballast connections (default 256)\n"
      "  --target-sessions N       stop after N successful restores (default 0 = run out the clock)\n"
      "  --arrival-per-sec R       open-loop offered rate (default 200)\n"
      "  --shards N                server session-store stripes (default 64)\n"
      "  --max-sessions N          server session cap (default 0 = sized to fit)\n"
      "  --server-workers N        server handler threads (default 4)\n"
      "  --max-connections N       server connection cap, 0 = uncapped (default 0)\n"
      "  --fault-seed S            fault-injection seed (default 1)\n"
      "  --fault-per-mille N       record-path fault rate, 0 = off (default 0)\n"
      "  --force-poll              use the poll(2) event-loop backend\n"
      "  --seed S                  client randomness seed (default 1)\n"
      "  --out PATH                JSON output path (default BENCH_provisioning.json)\n"
      "  --smoke                   2s closed-loop mini-run (CI smoke profile)\n",
      Argv0);
}

bool parseSize(const char *S, size_t &Out) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (!End || *End)
    return false;
  Out = static_cast<size_t>(V);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  LoadGenConfig Config;
  std::string OutPath = "BENCH_provisioning.json";

  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto NextArg = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    size_t N = 0;
    if (Flag == "--help" || Flag == "-h") {
      usage(Argv[0]);
      return 0;
    } else if (Flag == "--smoke") {
      Config.Mode = LoadGenMode::Closed;
      Config.DurationMs = 2000;
      Config.Workers = 8;
      Config.Connections = 64;
      Config.ServerWorkers = 2;
    } else if (Flag == "--force-poll") {
      Config.ForcePollBackend = true;
    } else if (Flag == "--mode") {
      const char *V = NextArg();
      if (V && std::strcmp(V, "closed") == 0)
        Config.Mode = LoadGenMode::Closed;
      else if (V && std::strcmp(V, "open") == 0)
        Config.Mode = LoadGenMode::Open;
      else {
        std::fprintf(stderr, "bad --mode (want closed|open)\n");
        return 2;
      }
    } else if (Flag == "--duration-s") {
      const char *V = NextArg();
      if (!V || !parseSize(V, N)) {
        usage(Argv[0]);
        return 2;
      }
      Config.DurationMs = static_cast<int>(N * 1000);
    } else if (Flag == "--arrival-per-sec") {
      const char *V = NextArg();
      if (!V) {
        usage(Argv[0]);
        return 2;
      }
      Config.ArrivalPerSec = std::atof(V);
    } else if (Flag == "--out") {
      const char *V = NextArg();
      if (!V) {
        usage(Argv[0]);
        return 2;
      }
      OutPath = V;
    } else {
      const char *V = NextArg();
      if (!V || !parseSize(V, N)) {
        usage(Argv[0]);
        return 2;
      }
      if (Flag == "--workers")
        Config.Workers = N;
      else if (Flag == "--connections")
        Config.Connections = N;
      else if (Flag == "--target-sessions")
        Config.TargetSessions = N;
      else if (Flag == "--shards")
        Config.SessionShards = N;
      else if (Flag == "--max-sessions")
        Config.MaxSessions = N;
      else if (Flag == "--server-workers")
        Config.ServerWorkers = N;
      else if (Flag == "--max-connections")
        Config.MaxConnections = N;
      else if (Flag == "--fault-seed")
        Config.FaultSeed = N;
      else if (Flag == "--fault-per-mille")
        Config.FaultPerMille = static_cast<uint32_t>(N);
      else if (Flag == "--seed")
        Config.Seed = N;
      else {
        usage(Argv[0]);
        return 2;
      }
    }
  }

  Expected<LoadGenReport> Report = runProvisioningLoadGen(Config);
  if (!Report) {
    std::fprintf(stderr, "loadgen failed: %s\n",
                 Report.errorMessage().c_str());
    return 1;
  }
  bench::Report Json = provisioningMetrics(*Report);
  std::fputs(Json.render().c_str(), stdout);
  if (Error E = Json.write(OutPath)) {
    std::fprintf(stderr, "loadgen: %s\n", E.message().c_str());
    return 1;
  }
  return 0;
}
