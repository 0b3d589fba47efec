//===- bench/AblationFailover.cpp - Provisioning failover ablation ------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What resilience costs when nothing is wrong, and what degradation
/// costs when something is. Three restore paths through the Provisioner
/// chain: every endpoint healthy (failover machinery on the hot path but
/// idle), first endpoint dead (one failed attempt + breaker bookkeeping
/// before the fallback answers), and cache-only (every endpoint down, the
/// sealed blob on disk is the only source -- the paper's offline-relaunch
/// case, which never touches the network at all).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "elide/Provisioner.h"
#include "sgx/EnclaveLoader.h"
#include "support/File.h"
#include "support/Stats.h"

#include <cstdio>

using namespace elide;
using namespace elide::bench;

namespace {

constexpr int PaperRuns = 10;

/// An endpoint that is down: every round trip fails immediately, the way
/// a refused TCP connect does.
class DeadTransport : public Transport {
public:
  Expected<Bytes> roundTrip(BytesView) override {
    return makeTransportError(TransportErrc::ConnectFailed,
                              "bench endpoint is down: connection refused");
  }
};

/// Like BenchScenario::launchSanitized, but over an arbitrary transport
/// and with an optional sealed-cache path.
BenchScenario::Launch launchOver(BenchScenario &S, Transport *Link,
                                 const std::string &SealedPath) {
  BenchScenario::Launch L;
  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(*S.Device, S.Artifacts.SanitizedElf,
                       S.Artifacts.SanitizedSig, S.Options.Layout);
  if (!E)
    std::abort();
  L.E = E.takeValue();
  L.Host = std::make_unique<ElideHost>(Link, S.Qe.get());
  if (!SealedPath.empty())
    L.Host->setSealedPath(SealedPath);
  L.Host->attach(*L.E);
  return L;
}

/// One cold restore over \p Link; returns wall milliseconds.
double restoreOnce(BenchScenario &S, Transport *Link,
                   const std::string &SealedPath = "") {
  BenchScenario::Launch L = launchOver(S, Link, SealedPath);
  Timer T;
  Expected<uint64_t> Status = L.Host->restore(*L.E, RestorePolicy{});
  double Ms = T.elapsedMs();
  if (!Status || *Status != 0)
    std::abort();
  return Ms;
}

ProvisionerConfig benchBreakers() {
  ProvisionerConfig Config;
  // A threshold of 1 makes the dead-first-endpoint runs representative of
  // steady state: after the first cold restore the breaker is open and
  // later restores skip the dead endpoint without re-probing it (cooldown
  // far beyond the benchmark's runtime).
  Config.Breaker.FailureThreshold = 1;
  Config.Breaker.CooldownMs = 600000;
  return Config;
}

std::string cachePathFor(const std::string &AppName) {
  return "/tmp/sgxelide_bench_failover_" + AppName + ".sealed";
}

/// Seeds the sealed cache for \p S by running one healthy restore with
/// persistence on, so the cache-only runs have a blob to unseal.
void seedCache(BenchScenario &S, const std::string &Path) {
  removeFile(Path);
  Provisioner Healthy;
  Healthy.addEndpoint("loopback", S.Link.get());
  if (restoreOnce(S, &Healthy, Path) < 0 || !fileExists(Path))
    std::abort();
}

} // namespace

int main() {
  printTableHeader("Ablation: provisioning failover -- restore latency by "
                   "degradation level");
  std::printf("%-9s %14s %18s %16s\n", "Bench", "Healthy (ms)",
              "First dead (ms)", "Cache only (ms)");
  std::printf("%.*s\n", 62,
              "---------------------------------------------------------------"
              "-----------");

  for (const apps::AppSpec &App : apps::allApps()) {
    BenchScenario &S = scenarioFor(App.Name, SecretStorage::Remote);

    std::vector<double> Healthy, FirstDead, CacheOnly;
    {
      Provisioner Chain(benchBreakers());
      Chain.addEndpoint("primary", S.Link.get());
      Chain.addEndpoint("secondary", S.Link.get());
      for (int Run = 0; Run < PaperRuns; ++Run)
        Healthy.push_back(restoreOnce(S, &Chain));
    }
    {
      DeadTransport Dead;
      Provisioner Chain(benchBreakers());
      Chain.addEndpoint("dead-primary", &Dead);
      Chain.addEndpoint("secondary", S.Link.get());
      for (int Run = 0; Run < PaperRuns; ++Run)
        FirstDead.push_back(restoreOnce(S, &Chain));
    }
    {
      std::string Path = cachePathFor(App.Name);
      seedCache(S, Path);
      DeadTransport Dead;
      Provisioner Chain(benchBreakers());
      Chain.addEndpoint("dead-primary", &Dead);
      Chain.addEndpoint("dead-secondary", &Dead);
      for (int Run = 0; Run < PaperRuns; ++Run)
        CacheOnly.push_back(restoreOnce(S, &Chain, Path));
      removeFile(Path);
    }

    Summary H = summarize(Healthy);
    Summary D = summarize(FirstDead);
    Summary C = summarize(CacheOnly);
    std::printf("%-9s %8.2f±%4.2f %12.2f±%4.2f %10.2f±%4.2f\n",
                App.Name.c_str(), H.Mean, H.StdDev, D.Mean, D.StdDev, C.Mean,
                C.StdDev);
  }
  std::printf("\nExpected shape: a healthy chain prices the failover machinery "
              "at ~zero; a dead\nfirst endpoint costs one failed attempt on "
              "the cold run and a breaker skip after;\ncache-only restores "
              "unseal from disk and never pay a network round trip.\n");
  return 0;
}
