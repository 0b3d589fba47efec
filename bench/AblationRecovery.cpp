//===- bench/AblationRecovery.cpp - Lifecycle recovery ablation ---------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What enclave supervision buys under execution-side faults: a seeded
/// mixed-fault storm (scribbled ecall entries, instruction-budget
/// runaways, failed restores, corrupted sealed caches) is driven through
/// the EnclaveSupervisor at increasing fault rates, and the bench reports
/// availability (first-try and with bounded retries), recovery latency
/// percentiles, and the per-class fault containment counts.
///
/// Writes BENCH_recovery.json in the shared bench shape (bench/Report.h;
/// override the path with --out); --smoke runs the single mid-rate row
/// with a shorter request train (CI profile).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "bench/Report.h"
#include "elide/Supervisor.h"
#include "server/AuthServer.h"
#include "sgx/EnclaveChaos.h"
#include "sgx/EnclaveLoader.h"
#include "support/File.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace elide;
using namespace elide::bench;

namespace {

/// The secret-bearing app the storm hammers (same transform as the
/// lifecycle suite, so a wrong answer is detectable).
const char *SecretAppSource = R"elc(
fn secret_constant() -> u64 {
  return 0xe11de;
}

export fn run_secret(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  var x: u64 = 0;
  if (inlen >= 8) {
    x = load_le64(inp);
  }
  if (outcap >= 8) {
    store_le64(outp, x * 33 + secret_constant());
  }
  return 0;
}
)elc";

uint64_t referenceSecret(uint64_t X) { return X * 33 + 0xe11de; }

/// One provisioned scenario: enclave image, auth server, elide host.
struct Rig {
  BuildArtifacts Artifacts;
  BuildOptions Options;
  std::unique_ptr<sgx::SgxDevice> Device;
  std::unique_ptr<sgx::AttestationAuthority> Authority;
  std::unique_ptr<sgx::QuotingEnclave> Qe;
  std::unique_ptr<AuthServer> Server;
  std::unique_ptr<LoopbackTransport> Link;
  std::unique_ptr<ElideHost> Host;
};

std::unique_ptr<Rig> makeRig(const std::string &SealedPath) {
  auto R = std::make_unique<Rig>();
  Drbg Rng(77);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);
  R->Options.Storage = SecretStorage::Remote;
  Expected<BuildArtifacts> Artifacts =
      buildProtectedEnclave({{"secret_app.elc", SecretAppSource}}, Vendor,
                            R->Options);
  if (!Artifacts) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 Artifacts.errorMessage().c_str());
    std::abort();
  }
  R->Artifacts = Artifacts.takeValue();
  R->Device = std::make_unique<sgx::SgxDevice>(3001);
  R->Authority = std::make_unique<sgx::AttestationAuthority>(4002);
  R->Qe = std::make_unique<sgx::QuotingEnclave>(*R->Device, *R->Authority);

  ServerProvisioning P = provisioningFor(R->Artifacts, R->Options);
  AuthServerConfig Config;
  Config.AuthorityKey = R->Authority->publicKey();
  Config.ExpectedMrEnclave = P.SanitizedMrEnclave;
  Config.ExpectedMrSigner = P.MrSigner;
  Config.Meta = R->Artifacts.Meta;
  Config.SecretData = R->Artifacts.SecretData;
  Config.RngSeed = 100;
  R->Server = std::make_unique<AuthServer>(std::move(Config));
  R->Link = std::make_unique<LoopbackTransport>(*R->Server);
  R->Host = std::make_unique<ElideHost>(R->Link.get(), R->Qe.get());
  if (!SealedPath.empty())
    R->Host->setSealedPath(SealedPath);
  return R;
}

double percentile(std::vector<long long> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double Rank = P / 100.0 * static_cast<double>(Samples.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Samples.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return static_cast<double>(Samples[Lo]) +
         Frac * static_cast<double>(Samples[Hi] - Samples[Lo]);
}

/// One storm row: availability + recovery latency + containment at a
/// fixed fault rate.
struct Row {
  uint32_t FaultPerMille = 0;
  int Requests = 0;
  int Served = 0;        ///< With bounded retries.
  int ServedFirstTry = 0;
  SupervisorStats Stats;
  FaultCounts Chaos;
  uint64_t Generations = 0;

  double availabilityPct() const { return pctOfRequests(Served); }
  double firstTryPct() const { return pctOfRequests(ServedFirstTry); }
  double pctOfRequests(int N) const {
    return Requests ? 100.0 * N / static_cast<double>(Requests) : 0.0;
  }
};

Row runStorm(uint32_t FaultPerMille, int Requests, uint64_t Seed,
             const std::string &SealedPath) {
  removeFile(SealedPath);
  removeFile(SealedPath + ".quarantine");
  auto R = makeRig(SealedPath);

  SupervisorConfig Config;
  Config.RecoveryBackoffBaseMs = 0; // Measure mechanism, not sleep.
  Config.Restore.MaxAttempts = 1;
  Config.Restore.RetryDelayMs = 0;
  Config.MaxCrashLoops = 50;
  Config.JitterSeed = Seed ^ 0x4a49545445ULL;
  EnclaveSupervisor Sup(
      [&R] {
        return sgx::loadEnclave(*R->Device, R->Artifacts.SanitizedElf,
                                R->Artifacts.SanitizedSig, R->Options.Layout);
      },
      *R->Host, Config);
  if (Error E = Sup.start()) {
    std::fprintf(stderr, "start failed: %s\n", E.message().c_str());
    std::abort();
  }

  FaultPlan Plan;
  Plan.Seed = Seed;
  Plan.FaultPerMille = FaultPerMille;
  sgx::EnclaveChaos Chaos(Plan, /*ClampBudget=*/4);
  Sup.setChaos(&Chaos);

  Row Result;
  Result.FaultPerMille = FaultPerMille;
  Result.Requests = Requests;
  constexpr int MaxAttempts = 5;
  for (int I = 0; I < Requests; ++I) {
    Bytes Input(8);
    writeLE64(Input.data(), static_cast<uint64_t>(I));
    for (int Attempt = 1; Attempt <= MaxAttempts; ++Attempt) {
      Expected<sgx::EcallResult> E = Sup.ecall("run_secret", Input, 8);
      if (E && E->ok()) {
        if (readLE64(E->Output.data()) !=
            referenceSecret(static_cast<uint64_t>(I))) {
          std::fprintf(stderr, "wrong secret output at request %d\n", I);
          std::abort();
        }
        Result.ServedFirstTry += Attempt == 1;
        ++Result.Served;
        break;
      }
    }
  }
  Result.Stats = Sup.stats();
  Result.Chaos = Chaos.counts();
  Result.Generations = Sup.generation();
  removeFile(SealedPath);
  removeFile(SealedPath + ".quarantine");
  return Result;
}

void addRow(Report &Json, const Row &R) {
  const SupervisorStats &S = R.Stats;
  std::string P = "faults_" + std::to_string(R.FaultPerMille) + "_permille.";
  Json.add(P + "requests", R.Requests, "req");
  Json.add(P + "served", R.Served, "req");
  Json.add(P + "availability_pct", R.availabilityPct(), "%");
  Json.add(P + "first_try_pct", R.firstTryPct(), "%");
  Json.add(P + "recoveries", S.Recoveries, "recovery");
  Json.add(P + "recovery_failures", S.RecoveryFailures, "recovery");
  Json.add(P + "recovery_p50_ms", percentile(S.RecoveryMs, 50), "ms");
  Json.add(P + "recovery_p95_ms", percentile(S.RecoveryMs, 95), "ms");
  Json.add(P + "faults.vm_trap", S.FaultsVmTrap, "fault");
  Json.add(P + "faults.budget_runaway", S.FaultsBudgetRunaway, "fault");
  Json.add(P + "faults.restore_failure", S.FaultsRestoreFailure, "fault");
  Json.add(P + "faults.sealed_cache_corruption",
           S.FaultsSealedCacheCorruption, "fault");
  Json.add(P + "generations", static_cast<double>(R.Generations),
           "generation");
  Json.add(P + "crash_loop_tripped", S.CrashLoopTripped, "bool");
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_recovery.json";
  bool Smoke = false;
  uint64_t Seed = 2024;
  int Requests = 400;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--smoke") {
      Smoke = true;
    } else if (Flag == "--out" && I + 1 < argc) {
      OutPath = argv[++I];
    } else if (Flag == "--seed" && I + 1 < argc) {
      Seed = std::strtoull(argv[++I], nullptr, 0);
    } else if (Flag == "--requests" && I + 1 < argc) {
      Requests = std::atoi(argv[++I]);
    } else {
      std::fprintf(stderr,
                   "usage: ablation_recovery [--smoke] [--out PATH] "
                   "[--seed N] [--requests N]\n"
                   "  --out PATH   JSON output path (default "
                   "BENCH_recovery.json)\n"
                   "  --seed N     chaos seed (default 2024)\n"
                   "  --requests N requests per row (default 400)\n"
                   "  --smoke      one mid-rate row, short train (CI)\n");
      return 2;
    }
  }
  if (Smoke)
    Requests = std::min(Requests, 150);

  const std::vector<uint32_t> Rates =
      Smoke ? std::vector<uint32_t>{100}
            : std::vector<uint32_t>{0, 50, 100, 200};
  const std::string SealedPath = "/tmp/sgxelide_bench_recovery.sealed";

  printTableHeader("Recovery ablation: availability and recovery latency "
                   "under a seeded mixed-fault storm");
  std::printf("%10s %9s %8s %10s %10s %7s %8s %8s\n", "faults ‰", "reqs",
              "avail%", "first-try%", "recoveries", "gens", "p50 ms",
              "p95 ms");
  std::printf("%.*s\n", 78,
              "------------------------------------------------------------"
              "--------------------");

  Report Json("ablation_recovery");
  Json.add("config.seed", static_cast<double>(Seed), "seed");
  Json.add("config.requests", Requests, "req");
  for (uint32_t Rate : Rates) {
    Row R = runStorm(Rate, Requests, Seed, SealedPath);
    std::printf("%10u %9d %8.2f %10.2f %10zu %7llu %8.2f %8.2f\n", Rate,
                R.Requests, R.availabilityPct(), R.firstTryPct(),
                R.Stats.Recoveries,
                static_cast<unsigned long long>(R.Generations),
                percentile(R.Stats.RecoveryMs, 50),
                percentile(R.Stats.RecoveryMs, 95));
    // The storm must stay contained: every class accounted for, the host
    // alive, and availability at the bar once retries ride the recovery.
    if (R.Stats.FaultsVmTrap != R.Chaos.of(FaultKind::TrapScribble) ||
        R.Stats.FaultsBudgetRunaway != R.Chaos.of(FaultKind::BudgetClamp) ||
        R.Stats.FaultsRestoreFailure != R.Chaos.of(FaultKind::RestoreFail) ||
        R.Stats.FaultsSealedCacheCorruption !=
            R.Chaos.of(FaultKind::SealedCorrupt)) {
      std::fprintf(stderr, "fault containment mismatch at %u permille\n",
                   Rate);
      return 1;
    }
    if (R.availabilityPct() < 99.0) {
      std::fprintf(stderr, "availability under 99%% at %u permille\n", Rate);
      return 1;
    }
    addRow(Json, R);
  }

  if (Error E = Json.write(OutPath)) {
    std::fprintf(stderr, "%s\n", E.message().c_str());
    return 1;
  }
  return 0;
}
