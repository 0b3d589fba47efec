//===- bench/AblationSealing.cpp - Sealing fast-path ablation -----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the paper's step 7 (which the authors describe but did not
/// implement): restoration latency on the first launch (full attested
/// server exchange) versus relaunches (unseal from disk, no network).
/// "SGX's sealing mechanism ... allows all accesses to the secret code
/// after the first to require no network communications at all."
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/Stats.h"

#include <cstdio>

using namespace elide;
using namespace elide::bench;

namespace {

constexpr int PaperRuns = 10;

/// First-launch restore: fresh host => no sealed blob => server path.
double firstLaunchOnce(BenchScenario &S) {
  BenchScenario::Launch L = S.launchSanitized();
  Timer T;
  Expected<uint64_t> Status = L.Host->restore(*L.E);
  double Ms = T.elapsedMs();
  if (!Status || *Status != 0)
    std::abort();
  return Ms;
}

/// Relaunch restore: the host retains the sealed blob from a priming run.
double relaunchOnce(BenchScenario &S, ElideHost &Host) {
  BenchScenario::Launch L = S.launchSanitized(&Host);
  Timer T;
  Expected<uint64_t> Status = Host.restore(*L.E);
  double Ms = T.elapsedMs();
  if (!Status || *Status != 0)
    std::abort();
  return Ms;
}

} // namespace

int main() {
  printTableHeader("Ablation: sealing fast path (paper step 7) -- restore "
                   "latency, first launch vs relaunch");
  std::printf("%-9s %18s %18s %9s %12s\n", "Bench", "First launch (ms)",
              "Relaunch (ms)", "Speedup", "Server req.");
  std::printf("%.*s\n", 72,
              "---------------------------------------------------------------"
              "-----------");

  for (const apps::AppSpec &App : apps::allApps()) {
    BenchScenario &S = scenarioFor(App.Name, SecretStorage::Remote);

    std::vector<double> First, Relaunch;
    for (int Run = 0; Run < PaperRuns; ++Run)
      First.push_back(firstLaunchOnce(S));

    // Prime one host with a sealed blob, then measure relaunches.
    ElideHost Sticky(S.Link.get(), S.Qe.get());
    {
      BenchScenario::Launch L = S.launchSanitized(&Sticky);
      if (!Sticky.restore(*L.E))
        std::abort();
    }
    size_t HandshakesBefore = S.Server->stats().HandshakesCompleted;
    for (int Run = 0; Run < PaperRuns; ++Run)
      Relaunch.push_back(relaunchOnce(S, Sticky));
    size_t NewHandshakes =
        S.Server->stats().HandshakesCompleted - HandshakesBefore;

    Summary F = summarize(First);
    Summary R = summarize(Relaunch);
    std::printf("%-9s %11.2f±%4.2f %12.2f±%4.2f %8.2fx %12zu\n",
                App.Name.c_str(), F.Mean, F.StdDev, R.Mean, R.StdDev,
                F.Mean / R.Mean, NewHandshakes);
  }
  std::printf("\nExpected shape: relaunches never touch the server (0 new "
              "handshakes) and skip\nthe attestation+transfer cost.\n");
  return 0;
}
