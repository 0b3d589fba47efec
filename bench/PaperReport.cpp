//===- bench/PaperReport.cpp - The paper's tables and figures -----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's evaluation in one run and checks its shapes:
///
///  - Table 1: the benchmark inventory, measured from the built artifacts;
///  - Table 2: sanitize and restore time per app and storage mode, avg ±
///    stddev of 10 runs, the paper's method;
///  - Figures 3 and 4: the runtime of a protected program run relative to
///    plain SGX, with remote and with local data;
///  - the sealed relaunch (the paper's step 7) against the first launch.
///
/// Figures 3/4 compose a program run from measured parts, because timing
/// whole program runs in pairs is noisier on a shared host than the 3 %
/// under test:
///
///   relative = (create_elide + restore + R * suite * s)
///            / (create_plain + R * suite)
///
/// `create_*` and `restore` are medians over interleaved launches. `s` is
/// the median, over ABBA blocks, of suite time on a restored enclave over
/// suite time on a plain one, both enclaves live side by side; the blocks
/// visit 20 such pairs in turn, because two enclaves of one image can
/// differ by a few percent in steady-state speed. `R` is the smallest suite
/// repetition count that makes a plain program run last at least 1 s, like
/// the paper's multi-second runs.
///
/// Exits 1 when a shape fails:
///  - a Figure 3/4 relative runtime above 103 %;
///  - a suite retiring different instruction counts on the two enclaves;
///  - a Table 2 restore median of 10 ms or more, or remote and local
///    medians more than 2x apart;
///  - a sealed relaunch that completes a server handshake.
///
/// Writes BENCH_paper.json (bench/Report.h) even when a shape fails;
/// `--out PATH` moves it.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "bench/Report.h"
#include "elide/TrustedLib.h"
#include "support/Stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

using namespace elide;
using namespace elide::bench;

namespace {

constexpr int PaperRuns = 10;
/// Launches of each image per figure cell; odd, so the median is a run.
constexpr int FigureLaunches = 21;
/// A plain program run lasts at least this long.
constexpr double ProgramRunMs = 1000;
/// Time spent on ABBA blocks per figure cell.
constexpr double BlockBudgetMs = 10000;
/// Enclave pairs the blocks of a cell visit in turn. One pair's memory
/// layout can make either of its enclaves ~5 % faster than the other; the
/// median over the blocks of many live pairs evens that out.
constexpr int SteadyPairs = 20;
/// Each side of a block repeats the suite until it lasts this long.
constexpr double MinSideMs = 5;
constexpr double FigureBoundPct = 103;
constexpr double RestoreBoundMs = 10;
constexpr double ModeSpreadBound = 2;

std::vector<std::string> Failures;

void check(bool Holds, const std::string &What) {
  if (!Holds)
    Failures.push_back(What);
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

const char *modeName(SecretStorage Mode) {
  return Mode == SecretStorage::Remote ? "remote" : "local";
}

/// Restores \p E through \p Host and returns the restore's milliseconds.
double timedRestore(BenchScenario &S, ElideHost &Host, sgx::Enclave &E) {
  Timer T;
  Expected<uint64_t> Status = Host.restore(E);
  double Ms = T.elapsedMs();
  if (!Status || *Status != 0) {
    std::fprintf(stderr, "paper_report: restore failed for %s\n",
                 S.App->Name.c_str());
    std::abort();
  }
  return Ms;
}

/// Runs the suite \p Reps times on \p E and returns the milliseconds.
double timedSuite(BenchScenario &S, sgx::Enclave &E, int Reps) {
  Timer T;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    if (Error Err = S.App->RunWorkload(E)) {
      std::fprintf(stderr, "paper_report: %s suite failed: %s\n",
                   S.App->Name.c_str(), Err.message().c_str());
      std::abort();
    }
  }
  return T.elapsedMs();
}

//===----------------------------------------------------------------------===//
// Table 1
//===----------------------------------------------------------------------===//

size_t locOf(const std::string &Text) {
  return static_cast<size_t>(std::count(Text.begin(), Text.end(), '\n'));
}

void table1(Report &Json) {
  printTableHeader("Table 1: the ported benchmarks (sizes measured from the "
                   "built artifacts)");
  // The framework adds the same code to every app, as in the paper ("the
  // final untrusted code size is always 50 LOC more, and the trusted
  // component is always 113 LOC more").
  size_t RuntimeLoc = 0;
  for (const elc::SourceFile &File : ElideTrustedLib::runtimeSources())
    RuntimeLoc += locOf(File.Source);
  const int UcElideLoc = 50; // The host runtime's ocalls and restore call.

  std::printf("%-9s %8s %12s %12s %9s %9s %10s %10s\n", "Bench", "TC LOC",
              "TC+Elide", "UC+Elide", "TC fns", "TC bytes", "San. fns",
              "San. bytes");
  std::printf("%.*s\n", 86,
              "---------------------------------------------------------------"
              "-----------------------");
  for (const apps::AppSpec &App : apps::allApps()) {
    const BuildArtifacts &A = scenarioFor(App.Name, SecretStorage::Remote)
                                  .Artifacts;
    size_t TcLoc = App.trustedLoc();
    std::printf("%-9s %8zu %12zu %+12d %9zu %9zu %10zu %10zu\n",
                App.Name.c_str(), TcLoc, TcLoc + RuntimeLoc, UcElideLoc,
                A.TrustedFunctionCount, A.TrustedTextBytes,
                A.Report.SanitizedFunctions, A.Report.SanitizedBytes);
    std::string P = "table1." + App.Name + ".";
    Json.add(P + "tc_loc", TcLoc, "line");
    Json.add(P + "tc_elide_loc", TcLoc + RuntimeLoc, "line");
    Json.add(P + "tc_functions", A.TrustedFunctionCount, "fn");
    Json.add(P + "tc_bytes", A.TrustedTextBytes, "bytes");
    Json.add(P + "sanitized_functions", A.Report.SanitizedFunctions, "fn");
    Json.add(P + "sanitized_bytes", A.Report.SanitizedBytes, "bytes");
  }
  size_t Whitelist =
      scenarioFor("AES", SecretStorage::Remote).Artifacts.Keep.size();
  Json.add("table1.whitelist_functions", Whitelist, "fn");
  std::printf("\nWhitelist: %zu functions derived from the dummy enclave "
              "(paper: 170, dominated by\nstatically linked SDK functions; "
              "see EXPERIMENTS.md).\n",
              Whitelist);
}

//===----------------------------------------------------------------------===//
// Table 2
//===----------------------------------------------------------------------===//

double sanitizeOnce(BenchScenario &S) {
  Drbg Rng(1);
  Timer T;
  Expected<SanitizedEnclave> Result = sanitizeEnclave(
      S.Artifacts.PlainElf, S.Artifacts.Keep, S.Options.Storage, Rng);
  double Ms = T.elapsedMs();
  if (!Result) {
    std::fprintf(stderr, "paper_report: sanitize failed: %s\n",
                 Result.errorMessage().c_str());
    std::abort();
  }
  return Ms;
}

/// A first launch: a fresh enclave and a fresh host with no sealed state,
/// so the restore makes the full attested exchange.
double firstLaunchRestore(BenchScenario &S) {
  BenchScenario::Launch L = S.launchSanitized();
  return timedRestore(S, *L.Host, *L.E);
}

/// Table 2, which also returns each app's remote restore runs: they are
/// the first launches the sealing table compares against.
std::map<std::string, std::vector<double>> table2(Report &Json) {
  printTableHeader("Table 2: sanitization/restoration execution time (ms), "
                   "avg +/- stddev of 10 runs");
  std::printf("%-9s | %-30s | %-30s\n", "", "Remote data", "Local data");
  std::printf("%-9s | %10s %12s %6s | %10s %12s %6s\n", "Bench", "Sanitize",
              "Restore", "p50", "Sanitize", "Restore", "p50");
  std::printf("%.*s\n", 76,
              "---------------------------------------------------------------"
              "-------------");
  std::map<std::string, std::vector<double>> FirstLaunches;
  for (const apps::AppSpec &App : apps::allApps()) {
    std::printf("%-9s", App.Name.c_str());
    double Median[2];
    for (SecretStorage Mode : {SecretStorage::Remote, SecretStorage::Local}) {
      BenchScenario &S = scenarioFor(App.Name, Mode);
      std::vector<double> SanMs, ResMs;
      for (int Run = 0; Run < PaperRuns; ++Run) {
        SanMs.push_back(sanitizeOnce(S));
        ResMs.push_back(firstLaunchRestore(S));
      }
      Summary San = summarize(SanMs), Res = summarize(ResMs);
      double P50 = median(ResMs);
      Median[Mode == SecretStorage::Local] = P50;
      std::printf(" | %5.2f±%4.2f %6.2f±%5.2f %6.2f", San.Mean, San.StdDev,
                  Res.Mean, Res.StdDev, P50);
      std::string P = "table2." + App.Name + "." + modeName(Mode) + ".";
      Json.add(P + "sanitize_ms", San.Mean, "ms");
      Json.add(P + "sanitize_sd_ms", San.StdDev, "ms");
      Json.add(P + "restore_ms", Res.Mean, "ms");
      Json.add(P + "restore_sd_ms", Res.StdDev, "ms");
      Json.add(P + "restore_median_ms", P50, "ms");
      check(P50 < RestoreBoundMs,
            "Table 2: " + App.Name + " " + modeName(Mode) +
                " restore median is not single-digit ms");
      if (Mode == SecretStorage::Remote)
        FirstLaunches[App.Name] = ResMs;
    }
    std::printf("\n");
    double Spread = std::max(Median[0], Median[1]) /
                    std::min(Median[0], Median[1]);
    check(Spread <= ModeSpreadBound,
          "Table 2: " + App.Name + " remote and local restore medians are "
                                   "more than 2x apart");
  }
  std::printf("\nPaper shape: sanitize ~constant per mode and slower in "
              "local mode (the sanitizer\nalso encrypts); restore a few ms, "
              "similar across modes.\n");
  return FirstLaunches;
}

//===----------------------------------------------------------------------===//
// Figures 3 and 4
//===----------------------------------------------------------------------===//

/// One app in one storage mode; see the file comment for the terms.
struct FigureCell {
  double CreatePlainMs = 0;
  double CreateElideMs = 0;
  double RestoreMs = 0;
  double SuiteMs = 0; ///< One suite on the plain enclave.
  double S = 0;
  int R = 0;
  size_t Blocks = 0;
  uint64_t Suites = 0; ///< Suites timed on each side.
  uint64_t PlainInstructions = 0; ///< Retired over those suites.
  uint64_t ElideInstructions = 0;

  double plainRunMs() const { return CreatePlainMs + R * SuiteMs; }
  double elideRunMs() const {
    return CreateElideMs + RestoreMs + R * SuiteMs * S;
  }
  double relativePct() const { return 100 * elideRunMs() / plainRunMs(); }
};

/// The medians of create and restore over launches that alternate which
/// image goes first.
void measureLaunches(BenchScenario &S, FigureCell &C) {
  std::vector<double> CreatePlain, CreateElide, Restore;
  auto Plain = [&] {
    Timer T;
    BenchScenario::Launch L = S.launchPlain();
    CreatePlain.push_back(T.elapsedMs());
  };
  auto Elide = [&] {
    Timer T;
    BenchScenario::Launch L = S.launchSanitized();
    CreateElide.push_back(T.elapsedMs());
    Restore.push_back(timedRestore(S, *L.Host, *L.E));
  };
  for (int I = 0; I < FigureLaunches; ++I) {
    if (I % 2) {
      Plain();
      Elide();
    } else {
      Elide();
      Plain();
    }
  }
  C.CreatePlainMs = median(CreatePlain);
  C.CreateElideMs = median(CreateElide);
  C.RestoreMs = median(Restore);
}

uint64_t instructionsRetired(const std::vector<BenchScenario::Launch> &Ls) {
  uint64_t N = 0;
  for (const BenchScenario::Launch &L : Ls)
    N += L.E->instructionsRetired();
  return N;
}

/// The suite's steady state on plain and restored enclaves, timed in ABBA
/// blocks so that drift hits both alike. Every pair stays live, so each
/// enclave keeps its own memory, and the blocks visit the pairs in turn,
/// so a slow spell of the host touches them all.
void measureSteadyState(BenchScenario &S, FigureCell &C) {
  std::vector<BenchScenario::Launch> Plain, Elide;
  for (int Pair = 0; Pair < SteadyPairs; ++Pair) {
    Plain.push_back(S.launchPlain());
    Elide.push_back(S.launchSanitized());
    timedRestore(S, *Elide.back().Host, *Elide.back().E);
    // Warm-up: the threaded engine decodes the text once per enclave.
    timedSuite(S, *Plain.back().E, 1);
    timedSuite(S, *Elide.back().E, 1);
  }
  int K = 1;
  while (timedSuite(S, *Plain[0].E, K) < MinSideMs)
    K *= 2;

  uint64_t PlainBefore = instructionsRetired(Plain);
  uint64_t ElideBefore = instructionsRetired(Elide);
  std::vector<double> Ratios, PlainSuiteMs;
  Timer Budget;
  for (int Pair = 0; Budget.elapsedMs() < BlockBudgetMs;
       Pair = (Pair + 1) % SteadyPairs) {
    sgx::Enclave &A = *Plain[Pair].E, &B = *Elide[Pair].E;
    double A1 = timedSuite(S, A, K);
    double B1 = timedSuite(S, B, K);
    double B2 = timedSuite(S, B, K);
    double A2 = timedSuite(S, A, K);
    Ratios.push_back((B1 + B2) / (A1 + A2));
    PlainSuiteMs.push_back((A1 + A2) / (2.0 * K));
  }
  C.Blocks = Ratios.size();
  C.Suites = 2 * static_cast<uint64_t>(K) * C.Blocks;
  C.PlainInstructions = instructionsRetired(Plain) - PlainBefore;
  C.ElideInstructions = instructionsRetired(Elide) - ElideBefore;
  C.S = median(Ratios);
  C.SuiteMs = median(PlainSuiteMs);
  C.R = std::max(1, static_cast<int>(std::ceil((ProgramRunMs -
                                                C.CreatePlainMs) /
                                               C.SuiteMs)));
}

void figure(Report &Json, SecretStorage Mode, const char *Title,
            const std::string &Key) {
  printTableHeader(std::string(Title) +
                   ": relative runtime, normalized to the w/ SGX baseline");
  std::printf("%-9s %11s %11s %9s %8s %11s %6s %10s\n", "Bench",
              "w/ SGX (ms)", "w/ Elide", "Relative", "s", "restore ms", "R",
              "instr");
  std::printf("%.*s\n", 82,
              "---------------------------------------------------------------"
              "-------------------");
  for (const apps::AppSpec &App : apps::allApps()) {
    if (App.IsGame)
      continue; // The games run forever; the paper does not time them.
    BenchScenario &S = scenarioFor(App.Name, Mode);
    FigureCell C;
    measureLaunches(S, C);
    measureSteadyState(S, C);
    double Relative = C.relativePct();
    double PlainPerSuite = static_cast<double>(C.PlainInstructions) /
                           static_cast<double>(C.Suites);
    double ElidePerSuite = static_cast<double>(C.ElideInstructions) /
                           static_cast<double>(C.Suites);
    std::printf("%-9s %11.1f %11.1f %8.1f%% %8.4f %11.2f %6d %10.0f\n",
                App.Name.c_str(), C.plainRunMs(), C.elideRunMs(), Relative,
                C.S, C.RestoreMs, C.R, ElidePerSuite);
    std::string P = Key + "." + App.Name + ".";
    Json.add(P + "relative_pct", Relative, "%");
    Json.add(P + "s", C.S, "ratio");
    Json.add(P + "restore_ms", C.RestoreMs, "ms");
    Json.add(P + "create_plain_ms", C.CreatePlainMs, "ms");
    Json.add(P + "create_elide_ms", C.CreateElideMs, "ms");
    Json.add(P + "suite_ms", C.SuiteMs, "ms");
    Json.add(P + "reps", C.R, "rep");
    Json.add(P + "blocks", static_cast<double>(C.Blocks), "block");
    Json.add(P + "suite_instructions_plain", PlainPerSuite, "instr");
    Json.add(P + "suite_instructions_elide", ElidePerSuite, "instr");
    check(Relative <= FigureBoundPct,
          std::string(Title) + ": " + App.Name + " runs above 103 %");
    check(C.PlainInstructions == C.ElideInstructions,
          std::string(Title) + ": " + App.Name +
              " suite retires different instruction counts");
  }
  std::printf("\nPaper shape: every benchmark under 3 %% overhead; the "
              "one-time restore amortizes\nand the steady-state code is the "
              "plain SGX code (s ~ 1, equal instructions).\n");
}

//===----------------------------------------------------------------------===//
// Sealing
//===----------------------------------------------------------------------===//

void sealing(Report &Json,
             const std::map<std::string, std::vector<double>> &FirstLaunches) {
  printTableHeader("Sealing fast path (paper step 7): restore latency, first "
                   "launch vs relaunch");
  std::printf("%-9s %18s %18s %9s %12s\n", "Bench", "First launch (ms)",
              "Relaunch (ms)", "Speedup", "Handshakes");
  std::printf("%.*s\n", 72,
              "---------------------------------------------------------------"
              "-----------");
  for (const apps::AppSpec &App : apps::allApps()) {
    BenchScenario &S = scenarioFor(App.Name, SecretStorage::Remote);
    // One host keeps the sealed blob its first restore stores; every
    // later launch it attaches to unseals instead of asking the server.
    ElideHost Sticky(S.Link.get(), S.Qe.get());
    {
      BenchScenario::Launch L = S.launchSanitized(&Sticky);
      timedRestore(S, Sticky, *L.E);
    }
    size_t HandshakesBefore = S.Server->stats().HandshakesCompleted;
    std::vector<double> Relaunch;
    for (int Run = 0; Run < PaperRuns; ++Run) {
      BenchScenario::Launch L = S.launchSanitized(&Sticky);
      Relaunch.push_back(timedRestore(S, Sticky, *L.E));
    }
    size_t Handshakes =
        S.Server->stats().HandshakesCompleted - HandshakesBefore;

    Summary F = summarize(FirstLaunches.at(App.Name));
    Summary R = summarize(Relaunch);
    std::printf("%-9s %11.2f±%4.2f %12.2f±%4.2f %8.2fx %12zu\n",
                App.Name.c_str(), F.Mean, F.StdDev, R.Mean, R.StdDev,
                F.Mean / R.Mean, Handshakes);
    std::string P = "sealing." + App.Name + ".";
    Json.add(P + "first_launch_ms", F.Mean, "ms");
    Json.add(P + "relaunch_ms", R.Mean, "ms");
    Json.add(P + "relaunch_sd_ms", R.StdDev, "ms");
    Json.add(P + "speedup", F.Mean / R.Mean, "x");
    Json.add(P + "relaunch_handshakes", static_cast<double>(Handshakes),
             "handshake");
    check(Handshakes == 0,
          "Sealing: a relaunch of " + App.Name + " reached the server");
  }
  std::printf("\nPaper shape: relaunches never touch the server and skip the "
              "attestation and\ntransfer cost.\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_paper.json";
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--out" && I + 1 < argc) {
      OutPath = argv[++I];
    } else {
      std::fprintf(stderr, "usage: paper_report [--out PATH]\n"
                           "  --out PATH  JSON output path (default "
                           "BENCH_paper.json)\n");
      return 2;
    }
  }

  Report Json("paper_report");
  table1(Json);
  std::map<std::string, std::vector<double>> FirstLaunches = table2(Json);
  figure(Json, SecretStorage::Remote, "Figure 3 (remote data)", "fig3");
  figure(Json, SecretStorage::Local, "Figure 4 (local data)", "fig4");
  sealing(Json, FirstLaunches);

  Json.add("shapes_failed", static_cast<double>(Failures.size()), "check");
  if (Error E = Json.write(OutPath)) {
    std::fprintf(stderr, "%s\n", E.message().c_str());
    return 1;
  }
  if (!Failures.empty()) {
    std::fflush(stdout); // The tables first, then what failed.
    for (const std::string &F : Failures)
      std::fprintf(stderr, "shape failed: %s\n", F.c_str());
    return 1;
  }
  std::printf("[every paper shape holds]\n");
  return 0;
}
