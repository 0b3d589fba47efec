//===- bench/AblationTransport.cpp - Transport-path restore ablation ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the network path adds to restoration latency. The paper measures
/// restore cost over a live socket to the developer's authentication
/// server; this ablation separates the layers: in-process loopback (pure
/// protocol cost), real TCP on localhost (framing + sockets + the
/// concurrent server), and TCP under injected faults with the restore
/// loop retrying (the paper's flaky-network / denial-of-service edge,
/// short of a full outage).
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "server/FaultInjection.h"
#include "server/Reactor.h"
#include "sgx/EnclaveLoader.h"
#include "support/Stats.h"

#include <cstdio>

using namespace elide;
using namespace elide::bench;

namespace {

constexpr int PaperRuns = 10;

/// Like BenchScenario::launchSanitized, but over an arbitrary transport.
BenchScenario::Launch launchOver(BenchScenario &S, Transport *Link) {
  BenchScenario::Launch L;
  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(*S.Device, S.Artifacts.SanitizedElf,
                       S.Artifacts.SanitizedSig, S.Options.Layout);
  if (!E)
    std::abort();
  L.E = E.takeValue();
  L.Host = std::make_unique<ElideHost>(Link, S.Qe.get());
  L.Host->attach(*L.E);
  return L;
}

/// One cold restore over \p Link; returns wall milliseconds.
double restoreOnce(BenchScenario &S, Transport *Link,
                   const RestorePolicy &Policy) {
  BenchScenario::Launch L = launchOver(S, Link);
  Timer T;
  Expected<uint64_t> Status = L.Host->restore(*L.E, Policy);
  double Ms = T.elapsedMs();
  if (!Status || *Status != 0)
    std::abort();
  return Ms;
}

FaultPlan lossyPlan(uint64_t Seed) {
  FaultPlan Plan;
  Plan.Seed = Seed;
  Plan.FaultPerMille = 200; // One call in five suffers.
  Plan.RateKinds = {FaultKind::Drop, FaultKind::Delay, FaultKind::Truncate,
                    FaultKind::DisconnectMidFrame};
  return Plan;
}

RestorePolicy patientPolicy() {
  RestorePolicy Policy;
  Policy.MaxAttempts = 16;
  Policy.RetryDelayMs = 1;
  return Policy;
}

} // namespace

int main() {
  printTableHeader("Ablation: transport path -- first-launch restore latency "
                   "by channel");
  std::printf("%-9s %14s %14s %18s %10s\n", "Bench", "Loopback (ms)",
              "TCP (ms)", "TCP lossy (ms)", "Faults");
  std::printf("%.*s\n", 70,
              "---------------------------------------------------------------"
              "-----------");

  for (const apps::AppSpec &App : apps::allApps()) {
    BenchScenario &S = scenarioFor(App.Name, SecretStorage::Remote);

    std::vector<double> Loop, Tcp, Lossy;
    for (int Run = 0; Run < PaperRuns; ++Run)
      Loop.push_back(restoreOnce(S, S.Link.get(), RestorePolicy{}));

    Expected<std::unique_ptr<ReactorServer>> Net = ReactorServer::start(
        [&S](BytesView Request, const FrameContext &Ctx) {
          return S.Server->handle(Request, Ctx);
        });
    if (!Net)
      std::abort();
    TcpClientTransport Client("127.0.0.1", (*Net)->port());
    for (int Run = 0; Run < PaperRuns; ++Run)
      Tcp.push_back(restoreOnce(S, &Client, RestorePolicy{}));

    FaultInjectingTransport Faulty(Client, lossyPlan(7), /*DelayMs=*/1);
    for (int Run = 0; Run < PaperRuns; ++Run)
      Lossy.push_back(restoreOnce(S, &Faulty, patientPolicy()));
    size_t Injected = Faulty.counts().injected();
    (*Net)->stop();

    Summary L = summarize(Loop);
    Summary T = summarize(Tcp);
    Summary F = summarize(Lossy);
    std::printf("%-9s %8.2f±%4.2f %8.2f±%4.2f %12.2f±%4.2f %10zu\n",
                App.Name.c_str(), L.Mean, L.StdDev, T.Mean, T.StdDev, F.Mean,
                F.StdDev, Injected);
  }
  std::printf("\nExpected shape: TCP adds connect+framing cost over loopback; "
              "the lossy channel\npays extra round trips but every run still "
              "converges to a successful restore.\n");
  return 0;
}
