//===- bench/Table2SanitizeRestore.cpp - Reproduces Table 2 -------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Table 2: sanitization time and end-to-end
/// restoration time (attestation handshake + metadata + data transfer +
/// the self-modifying write over the text), for remote-data and local-data
/// modes, reported as the average and standard deviation of 10 runs -- the
/// paper's exact methodology.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "support/Stats.h"

#include <cstdio>

using namespace elide;
using namespace elide::bench;

namespace {

constexpr int PaperRuns = 10;

double sanitizeOnce(BenchScenario &S) {
  Drbg Rng(1);
  Timer T;
  Expected<SanitizedEnclave> Result = sanitizeEnclave(
      S.Artifacts.PlainElf, S.Artifacts.Keep, S.Options.Storage, Rng);
  double Ms = T.elapsedMs();
  if (!Result) {
    std::fprintf(stderr, "sanitize failed: %s\n",
                 Result.errorMessage().c_str());
    std::abort();
  }
  return Ms;
}

double restoreOnce(BenchScenario &S) {
  // A fresh enclave and a fresh host (no sealed state): every run pays
  // the full attested exchange, like the paper's per-launch measurement.
  BenchScenario::Launch L = S.launchSanitized();
  Timer T;
  Expected<uint64_t> Status = L.Host->restore(*L.E);
  double Ms = T.elapsedMs();
  if (!Status || *Status != 0) {
    std::fprintf(stderr, "restore failed for %s\n", S.App->Name.c_str());
    std::abort();
  }
  return Ms;
}

} // namespace

int main() {
  printTableHeader("Table 2: sanitization/restoration execution time (ms), "
                   "avg +/- stddev of 10 runs");
  std::printf("%-9s | %-23s | %-23s\n", "", "Remote data", "Local data");
  std::printf("%-9s | %10s %12s | %10s %12s\n", "Bench", "Sanitize",
              "Restore", "Sanitize", "Restore");
  std::printf("%.*s\n", 64,
              "---------------------------------------------------------------"
              "---");

  for (const apps::AppSpec &App : apps::allApps()) {
    Summary Results[2][2]; // [mode][0=sanitize,1=restore]
    int ModeIdx = 0;
    for (SecretStorage Mode :
         {SecretStorage::Remote, SecretStorage::Local}) {
      BenchScenario &S = scenarioFor(App.Name, Mode);
      std::vector<double> SanMs, ResMs;
      for (int Run = 0; Run < PaperRuns; ++Run) {
        SanMs.push_back(sanitizeOnce(S));
        ResMs.push_back(restoreOnce(S));
      }
      Results[ModeIdx][0] = summarize(SanMs);
      Results[ModeIdx][1] = summarize(ResMs);
      ++ModeIdx;
    }
    std::printf("%-9s | %5.2f±%4.2f %6.2f±%5.2f | %5.2f±%4.2f %6.2f±%5.2f\n",
                App.Name.c_str(), Results[0][0].Mean, Results[0][0].StdDev,
                Results[0][1].Mean, Results[0][1].StdDev, Results[1][0].Mean,
                Results[1][0].StdDev, Results[1][1].Mean,
                Results[1][1].StdDev);
  }
  std::printf("\nPaper shape to check: sanitize ~constant per mode and "
              "slightly slower in local\nmode (the sanitizer also encrypts); "
              "restore a few ms, similar across modes.\n");
  return 0;
}
