//===- bench/AblationOverload.cpp - Overload-resilience ablation --------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the overload-control stack buys, measured two ways:
///
///  1. **Metastable soak** (the tentpole ablation): a deterministic
///     backlog model of an overloaded cluster is driven through the
///     three-endpoint Provisioner with the chain-wide retry budget off
///     and on. Off, retry amplification holds the backlog above the shed
///     threshold long after the load spike has passed -- the classic
///     metastable failure where the recovery traffic *is* the sustaining
///     load. On, amplification collapses to ~1 once the bucket drains and
///     the run recovers to full availability.
///
///  2. **Criticality/deadline sweep**: a queue-delay ramp is replayed
///     against a real AuthServer with the brownout controller enabled,
///     with requests cycling through the criticality classes under a
///     stamped deadline -- measuring per-class shed counts (Sheddable
///     first, Critical never) and the deadline-miss rate from admission
///     control.
///
/// Self-checking: the run exits 1 unless the budget-off row shows the
/// collapse (amplification > 3x, availability floor) and the budget-on
/// row shows the defense (amplification <= 2x, recovery >= 99%).
///
/// Writes BENCH_overload.json in the shared bench shape (bench/Report.h;
/// override the path with --out); --smoke shortens both phases (CI
/// profile). --seed replays a specific soak.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "bench/Report.h"
#include "crypto/Drbg.h"
#include "elide/Provisioner.h"
#include "server/AuthServer.h"
#include "server/Transport.h"
#include "sgx/Attestation.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace elide;
using namespace elide::bench;

namespace {

//===----------------------------------------------------------------------===//
// Phase 1: the metastable soak
//===----------------------------------------------------------------------===//

/// Deterministic backlog model of an overloaded cluster (the same model
/// the overload test suite pins): ticks drain fixed capacity, every call
/// -- accepted or shed -- adds work, and a load spike in the middle of
/// the run pushes the backlog over the shed threshold.
struct SimCluster {
  double Backlog = 0.0;
  double DrainPerTick = 3.0;
  double ShedThreshold = 40.0;
  double CostNormal = 1.0;
  double CostSpike = 8.0;
  double RejectCost = 0.6;
  int SpikeBegin = 0;
  int SpikeEnd = 0;
  int Tick = 0;
  size_t Calls = 0;
  size_t Served = 0;
  size_t Shed = 0;
  Drbg Jitter;

  explicit SimCluster(uint64_t Seed) : Jitter(Seed ^ 0x534f414bULL) {}

  void beginTick() {
    ++Tick;
    Backlog = std::max(0.0, Backlog - DrainPerTick);
  }

  Expected<Bytes> call() {
    ++Calls;
    if (Backlog > ShedThreshold) {
      ++Shed;
      Backlog += RejectCost;
      return overloadedFrame(0);
    }
    double Cost = (Tick >= SpikeBegin && Tick < SpikeEnd) ? CostSpike
                                                          : CostNormal;
    Cost += 0.1 * static_cast<double>(Jitter.next64() % 4);
    Backlog += Cost;
    ++Served;
    return Bytes{FrameRecord, 0x01};
  }
};

struct SimEndpoint : Transport {
  SimCluster &Sim;
  explicit SimEndpoint(SimCluster &Sim) : Sim(Sim) {}
  Expected<Bytes> roundTrip(BytesView) override { return Sim.call(); }
};

/// One soak row: offered load, goodput, amplification, and recovery.
struct SoakRow {
  bool Budgets = false;
  size_t Offered = 0;
  size_t Succeeded = 0;
  size_t ServerCalls = 0;
  size_t ServerShed = 0;
  double Amplification = 0.0;
  double GoodputPct = 0.0;
  double RecoveryAvailPct = 0.0;
  /// Ticks past the spike's end until the last failed request (how long
  /// the overload outlived its cause). Pinned to the window end when the
  /// run never recovers.
  int TimeToRecoverTicks = 0;
  double FinalBudget = 0.0;
};

SoakRow runSoak(bool Budgets, uint64_t Seed, int Ticks) {
  SimCluster Sim(Seed);
  Sim.SpikeBegin = Ticks / 4;
  Sim.SpikeEnd = Sim.SpikeBegin + Ticks / 10;
  const int RecoveryFrom = (Ticks * 3) / 4;

  SimEndpoint E0(Sim), E1(Sim), E2(Sim);
  ProvisionerConfig Config;
  Config.Breaker.FailureThreshold = 1000;
  Config.Breaker.CooldownMs = 0;
  Config.Breaker.DefaultOverloadCooldownMs = 0;
  Config.Breaker.JitterSeed = Seed;
  if (Budgets)
    Config.RetryBudgetInitial = 10.0;

  Provisioner Prov(Config);
  Prov.addEndpoint("vip-0", &E0);
  Prov.addEndpoint("vip-1", &E1);
  Prov.addEndpoint("vip-2", &E2);

  constexpr int ClientRetries = 3;
  const Bytes Request{FrameRecord, 0x2a};

  SoakRow Row;
  Row.Budgets = Budgets;
  size_t WindowOffered = 0, WindowSucceeded = 0;
  int LastFailTick = -1;
  for (int T = 0; T < Ticks; ++T) {
    Sim.beginTick();
    bool Ok = false;
    for (int A = 0; A < ClientRetries && !Ok; ++A) {
      Expected<Bytes> R = Prov.roundTrip(Request);
      if (R)
        Ok = true;
      else if (!isRetryableTransportErrc(transportErrcOf(R)))
        break;
    }
    ++Row.Offered;
    Row.Succeeded += Ok;
    if (!Ok)
      LastFailTick = T;
    if (T >= RecoveryFrom) {
      ++WindowOffered;
      WindowSucceeded += Ok;
    }
  }
  Row.ServerCalls = Sim.Calls;
  Row.ServerShed = Sim.Shed;
  Row.Amplification =
      static_cast<double>(Row.ServerCalls) / static_cast<double>(Row.Offered);
  Row.GoodputPct =
      100.0 * static_cast<double>(Row.Succeeded) /
      static_cast<double>(Row.Offered);
  Row.RecoveryAvailPct = WindowOffered
                             ? 100.0 * static_cast<double>(WindowSucceeded) /
                                   static_cast<double>(WindowOffered)
                             : 0.0;
  Row.TimeToRecoverTicks =
      LastFailTick >= Sim.SpikeEnd ? LastFailTick - Sim.SpikeEnd + 1 : 0;
  Row.FinalBudget = Prov.retryBudget();
  return Row;
}

//===----------------------------------------------------------------------===//
// Phase 2: criticality/deadline sweep against a real AuthServer
//===----------------------------------------------------------------------===//

struct SweepRow {
  size_t Requests = 0;
  size_t ShedCritical = 0;
  size_t ShedDefault = 0;
  size_t ShedSheddable = 0;
  size_t DeadlineExpired = 0;
  size_t BrownoutTransitions = 0;
  double DeadlineMissRate = 0.0;
};

SweepRow runSweep(int Requests) {
  static const sgx::AttestationAuthority Authority(2002);
  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  Config.ExpectedMrEnclave.fill(0x42);
  Config.Meta.DataLength = 64;
  Config.SecretData = Bytes(64, 0xaa);
  Config.BrownoutDegradedMs = 20.0;
  Config.BrownoutShedMs = 80.0;
  Config.EwmaAlpha = 0.3;
  AuthServer Server(std::move(Config));

  // A triangular queue-delay ramp: calm -> saturated -> calm, replayed
  // through the FrameContext exactly as the reactor would report it.
  const Bytes Inner{FrameRecord, 0x00, 0x01, 0x02};
  for (int I = 0; I < Requests; ++I) {
    double Phase = static_cast<double>(I) / static_cast<double>(Requests);
    double QueueDelayMs =
        Phase < 0.5 ? 300.0 * Phase : 300.0 * (1.0 - Phase);
    Criticality Class = static_cast<Criticality>(I % 3);
    Bytes Frame = envelopeFrame(/*DeadlineMs=*/50, Class, Inner);
    FrameContext Ctx;
    Ctx.QueueDelayMs = QueueDelayMs;
    (void)Server.handle(Frame, Ctx);
  }

  AuthServerStats S = Server.stats();
  SweepRow Row;
  Row.Requests = static_cast<size_t>(Requests);
  Row.ShedCritical = S.ShedCritical;
  Row.ShedDefault = S.ShedDefault;
  Row.ShedSheddable = S.ShedSheddable;
  Row.DeadlineExpired = S.DeadlineExpired;
  Row.BrownoutTransitions = S.BrownoutTransitions;
  Row.DeadlineMissRate = Requests ? static_cast<double>(S.DeadlineExpired) /
                                        static_cast<double>(Requests)
                                  : 0.0;
  return Row;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

void addSoak(Report &Json, const SoakRow &R) {
  std::string P = R.Budgets ? "soak.budget_on." : "soak.budget_off.";
  Json.add(P + "offered", R.Offered, "req");
  Json.add(P + "succeeded", R.Succeeded, "req");
  Json.add(P + "server_calls", R.ServerCalls, "call");
  Json.add(P + "server_shed", R.ServerShed, "call");
  Json.add(P + "retry_amplification", R.Amplification, "x");
  Json.add(P + "goodput_pct", R.GoodputPct, "%");
  Json.add(P + "recovery_availability_pct", R.RecoveryAvailPct, "%");
  Json.add(P + "time_to_recover_ticks", R.TimeToRecoverTicks, "tick");
  Json.add(P + "final_budget", R.FinalBudget, "token");
}

void addSweep(Report &Json, const SweepRow &S) {
  Json.add("sweep.requests", S.Requests, "req");
  Json.add("sweep.deadline_missed", S.DeadlineExpired, "req");
  Json.add("sweep.deadline_miss_rate", S.DeadlineMissRate, "ratio");
  Json.add("sweep.brownout_transitions", S.BrownoutTransitions, "transition");
  Json.add("sweep.shed_critical", S.ShedCritical, "req");
  Json.add("sweep.shed_default", S.ShedDefault, "req");
  Json.add("sweep.shed_sheddable", S.ShedSheddable, "req");
}

} // namespace

int main(int argc, char **argv) {
  std::string OutPath = "BENCH_overload.json";
  bool Smoke = false;
  uint64_t Seed = 97;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (Flag == "--smoke") {
      Smoke = true;
    } else if (Flag == "--out" && I + 1 < argc) {
      OutPath = argv[++I];
    } else if (Flag == "--seed" && I + 1 < argc) {
      Seed = std::strtoull(argv[++I], nullptr, 0);
    } else {
      std::fprintf(stderr,
                   "usage: ablation_overload [--smoke] [--out PATH] "
                   "[--seed N]\n"
                   "  --out PATH  JSON output path (default "
                   "BENCH_overload.json)\n"
                   "  --seed N    soak seed (default 97)\n"
                   "  --smoke     shorter soak and sweep (CI)\n");
      return 2;
    }
  }
  const int SoakTicks = Smoke ? 400 : 1200;
  const int SweepRequests = Smoke ? 300 : 1000;

  printTableHeader("Overload ablation: the retry budget vs the metastable "
                   "failure, and criticality-aware shedding");

  SoakRow Off = runSoak(/*Budgets=*/false, Seed, SoakTicks);
  SoakRow On = runSoak(/*Budgets=*/true, Seed, SoakTicks);

  std::printf("%8s %8s %10s %8s %8s %10s %8s\n", "budget", "offered",
              "amplif.", "goodput", "recov%", "ttr ticks", "shed");
  std::printf("%.*s\n", 70,
              "------------------------------------------------------------"
              "----------");
  for (const SoakRow *R : {&Off, &On})
    std::printf("%8s %8zu %10.2f %7.1f%% %7.1f%% %10d %8zu\n",
                R->Budgets ? "on" : "off", R->Offered, R->Amplification,
                R->GoodputPct, R->RecoveryAvailPct, R->TimeToRecoverTicks,
                R->ServerShed);

  SweepRow Sweep = runSweep(SweepRequests);
  std::printf("\nsweep: %zu requests, %zu deadline-expired (%.1f%%), "
              "shed critical/default/sheddable = %zu/%zu/%zu, "
              "%zu brownout transitions\n",
              Sweep.Requests, Sweep.DeadlineExpired,
              100.0 * Sweep.DeadlineMissRate, Sweep.ShedCritical,
              Sweep.ShedDefault, Sweep.ShedSheddable,
              Sweep.BrownoutTransitions);

  // The bars the artifact asserts. Off must demonstrate the failure mode
  // (otherwise the soak is not actually metastable and proves nothing);
  // on must demonstrate the defense.
  bool Failed = false;
  if (Off.Amplification <= 3.0) {
    std::fprintf(stderr, "budget-off amplification %.2f not > 3x\n",
                 Off.Amplification);
    Failed = true;
  }
  if (Off.RecoveryAvailPct >= 50.0) {
    std::fprintf(stderr,
                 "budget-off run recovered (%.1f%%): soak not metastable\n",
                 Off.RecoveryAvailPct);
    Failed = true;
  }
  if (On.Amplification > 2.0) {
    std::fprintf(stderr, "budget-on amplification %.2f exceeds 2x\n",
                 On.Amplification);
    Failed = true;
  }
  if (On.RecoveryAvailPct < 99.0) {
    std::fprintf(stderr, "budget-on recovery availability %.1f%% under 99%%\n",
                 On.RecoveryAvailPct);
    Failed = true;
  }
  if (Sweep.ShedCritical != 0 || Sweep.ShedSheddable < Sweep.ShedDefault ||
      Sweep.ShedSheddable == 0) {
    std::fprintf(stderr,
                 "shed ordering violated: critical=%zu default=%zu "
                 "sheddable=%zu\n",
                 Sweep.ShedCritical, Sweep.ShedDefault, Sweep.ShedSheddable);
    Failed = true;
  }
  if (Sweep.DeadlineExpired == 0 || Sweep.BrownoutTransitions < 2) {
    std::fprintf(stderr,
                 "sweep exercised nothing: %zu deadline misses, %zu "
                 "transitions\n",
                 Sweep.DeadlineExpired, Sweep.BrownoutTransitions);
    Failed = true;
  }
  if (Failed)
    return 1;

  Report Json("ablation_overload");
  Json.add("config.seed", static_cast<double>(Seed), "seed");
  Json.add("config.soak_ticks", SoakTicks, "tick");
  Json.add("config.sweep_requests", SweepRequests, "req");
  addSoak(Json, Off);
  addSoak(Json, On);
  addSweep(Json, Sweep);
  if (Error E = Json.write(OutPath)) {
    std::fprintf(stderr, "%s\n", E.message().c_str());
    return 1;
  }
  return 0;
}
