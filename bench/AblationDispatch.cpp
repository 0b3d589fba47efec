//===- bench/AblationDispatch.cpp - SVM dispatch-strategy ablation ------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation of the SVM execution backend: the same app kernels, executed
/// by the reference switch-dispatch interpreter and by the pre-decoding
/// threaded engine (superinstruction fusion + computed-goto dispatch).
/// Reports architectural instructions per second per backend per app --
/// the dispatch strategy is invisible to MRENCLAVE and to the ISA, so
/// any output difference is a bug (see `ctest -L vmdiff`), and the only
/// legitimate delta is this one: throughput.
///
/// Writes BENCH_dispatch.json in the shared bench shape (bench/Report.h;
/// override the path with --out); --smoke runs one reduced-rep pass per
/// cell for CI.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "bench/Report.h"
#include "support/Stats.h"
#include "vm/ExecBackend.h"

#include <cmath>
#include <cstdio>
#include <string>

using namespace elide;
using namespace elide::bench;

namespace {

struct Cell {
  uint64_t Instructions = 0; ///< Architectural (pre-fusion) retired count.
  double Seconds = 0;
  double Ips = 0;
};

/// Runs one app's workload suite \p Reps times on \p Kind and returns the
/// measured cell. The enclave is created once per cell: the pre-decoded
/// window persisting across ecalls is part of what the threaded engine
/// is selling.
Cell measureCell(BenchScenario &S, VmBackendKind Kind, int Reps) {
  Cell C;
  BenchScenario::Launch L = S.launchPlain();
  L.E->setVmBackend(Kind);

  // Warm-up: JIT-free, but it faults in pages and (threaded) builds the
  // decode window, which steady-state numbers should not include.
  if (S.App->RunWorkload(*L.E)) {
    std::fprintf(stderr, "%s: warm-up workload failed\n", S.App->Name.c_str());
    std::abort();
  }

  uint64_t Before = L.E->instructionsRetired();
  Timer T;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    if (Error E = S.App->RunWorkload(*L.E)) {
      std::fprintf(stderr, "%s: workload failed: %s\n", S.App->Name.c_str(),
                   E.message().c_str());
      std::abort();
    }
  }
  C.Seconds = T.elapsedMs() / 1000.0;
  C.Instructions = L.E->instructionsRetired() - Before;
  C.Ips = C.Seconds > 0 ? static_cast<double>(C.Instructions) / C.Seconds : 0;
  return C;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_dispatch.json";
  bool Smoke = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--smoke") {
      Smoke = true;
    } else if (Flag == "--out" && I + 1 < argc) {
      OutPath = argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: ablation_dispatch [--smoke] [--out PATH]\n"
                   "  --out PATH   JSON output path (default "
                   "BENCH_dispatch.json)\n"
                   "  --smoke      single-rep cells (CI smoke profile)\n");
      return 2;
    }
  }
  const int Reps = Smoke ? 1 : 5;

  printTableHeader("Dispatch ablation: architectural instructions/sec per "
                   "execution backend");
  std::printf("%-9s %14s %16s %16s %9s\n", "App", "instructions",
              "switch (M/s)", "threaded (M/s)", "speedup");
  std::printf("%.*s\n", 70,
              "---------------------------------------------------------------"
              "-----------");

  Report Json("ablation_dispatch");
  Json.add("config.reps", Reps, "rep");
  double LogSum = 0;
  size_t Apps = 0;
  for (const apps::AppSpec &App : apps::allApps()) {
    if (App.IsGame)
      continue; // Same exclusion as Figures 3/4.
    BenchScenario &S = scenarioFor(App.Name, SecretStorage::Local);

    double SwitchIps = 0, ThreadedIps = 0;
    uint64_t Instructions = 0;
    for (VmBackendKind Kind : allVmBackendKinds()) {
      Cell C = measureCell(S, Kind, Reps);
      std::string Prefix = App.Name + "." + vmBackendKindName(Kind);
      Json.add(Prefix + ".instructions", C.Instructions, "instr");
      Json.add(Prefix + ".seconds", C.Seconds, "s");
      Json.add(Prefix + ".ips", C.Ips, "instr/s");
      if (Kind == VmBackendKind::Switch)
        SwitchIps = C.Ips;
      if (Kind == VmBackendKind::Threaded)
        ThreadedIps = C.Ips;
      Instructions = C.Instructions;
    }
    double Speedup = SwitchIps > 0 ? ThreadedIps / SwitchIps : 0;
    Json.add(App.Name + ".speedup", Speedup, "x");
    LogSum += std::log(Speedup > 0 ? Speedup : 1.0);
    ++Apps;

    std::printf("%-9s %14llu %16.2f %16.2f %8.2fx\n", App.Name.c_str(),
                static_cast<unsigned long long>(Instructions),
                SwitchIps / 1e6, ThreadedIps / 1e6, Speedup);
  }
  double Geomean = Apps ? std::exp(LogSum / static_cast<double>(Apps)) : 0;
  Json.add("geomean_speedup", Geomean, "x");
  std::printf("\ngeomean speedup: %.2fx\n", Geomean);
  if (!Smoke)
    std::printf("%s\n",
                Geomean >= 1.5
                    ? "[shape holds: threaded dispatch >= 1.5x the reference "
                      "switch engine]"
                    : "[WARNING: threaded dispatch under the 1.5x bar]");

  if (Error E = Json.write(OutPath)) {
    std::fprintf(stderr, "%s\n", E.message().c_str());
    return 1;
  }
  return 0;
}
