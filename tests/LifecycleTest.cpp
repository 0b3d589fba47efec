//===- tests/LifecycleTest.cpp - Enclave lifecycle supervision suite ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-side twin of the provisioning chaos suite (`ctest -L
/// lifecycle`): enclaves get their ecall entries scribbled over, their
/// instruction budgets clamped, their restores failed, and their sealed
/// caches corrupted -- and the supervisor must classify every fault into
/// its typed class, quarantine, and recover by rebuild-and-restore
/// without the host ever dying. Orderliness violations (ecalls into
/// redacted code, re-entrant ecalls, double loads, stale session
/// tickets) must be rejected with typed `LifecycleErrc` errors before
/// anything runs.
///
/// Every seeded test routes its randomness through `ChaosSeedScope`, so a
/// failure prints a one-line `ELIDE_CHAOS_SEED=...` reproduction recipe.
///
//===----------------------------------------------------------------------===//

#include "elide/Pipeline.h"
#include "elide/Supervisor.h"
#include "server/AuthServer.h"
#include "server/Transport.h"
#include "sgx/EnclaveChaos.h"
#include "sgx/EnclaveLoader.h"
#include "support/File.h"
#include "tests/framework/ChaosSeed.h"

#include <gtest/gtest.h>

#include <thread>

using namespace elide;
using elide::testing::ChaosSeedScope;

namespace {

//===----------------------------------------------------------------------===//
// Shared scaffolding
//===----------------------------------------------------------------------===//

/// A secret-bearing enclave plus an ocall-making probe (for the
/// re-entrancy test).
const char *AppSource = R"elc(
extern ocall fn elide_read_file(req: *u8, reqlen: u64, resp: *u8, cap: u64) -> u64;

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

export fn probe_ocall(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  var buf: u8[8];
  return elide_read_file(inp, 0, &buf[0], 8);
}
)elc";

uint64_t referenceSecret(uint64_t X) { return X * 33 + 0xe11de; }

Bytes le64Bytes(uint64_t V) {
  Bytes B(8);
  writeLE64(B.data(), V);
  return B;
}

/// One protected enclave image, one auth server, one elide host -- and a
/// factory the supervisor uses for generation 1 and every rebuild.
struct Rig {
  BuildArtifacts Artifacts;
  BuildOptions Options;
  std::unique_ptr<sgx::SgxDevice> Device;
  std::unique_ptr<sgx::AttestationAuthority> Authority;
  std::unique_ptr<sgx::QuotingEnclave> Qe;
  std::unique_ptr<AuthServer> Server;
  std::unique_ptr<LoopbackTransport> Link;
  std::unique_ptr<ElideHost> Host;

  EnclaveFactory factory() {
    return [this] {
      return sgx::loadEnclave(*Device, Artifacts.SanitizedElf,
                              Artifacts.SanitizedSig, Options.Layout);
    };
  }
};

std::unique_ptr<Rig> makeRig(const std::string &SealedPath = "") {
  auto R = std::make_unique<Rig>();
  Drbg Rng(77);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);
  R->Options.Storage = SecretStorage::Remote;
  Expected<BuildArtifacts> Artifacts =
      buildProtectedEnclave({{"app.elc", AppSource}}, Vendor, R->Options);
  if (!Artifacts) {
    ADD_FAILURE() << "pipeline failed: " << Artifacts.errorMessage();
    return nullptr;
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

/// A supervisor config recovery-friendly for tests: recover on the very
/// next call, no real sleeping.
SupervisorConfig fastRecovery() {
  SupervisorConfig C;
  C.RecoveryBackoffBaseMs = 0;
  C.Restore.MaxAttempts = 1;
  C.Restore.RetryDelayMs = 0;
  return C;
}

void expectServed(EnclaveSupervisor &Sup, uint64_t X) {
  Expected<sgx::EcallResult> R = Sup.ecall("run_secret", le64Bytes(X), 8);
  ASSERT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  ASSERT_TRUE(R->ok()) << R->Exec.Message;
  EXPECT_EQ(readLE64(R->Output.data()), referenceSecret(X));
}

//===----------------------------------------------------------------------===//
// The shared classification table (compile-time)
//===----------------------------------------------------------------------===//

static_assert(retryabilityOf(LifecycleErrc::QuarantinedRetryLater) ==
                  Retryability::Retryable,
              "a quarantined enclave heals; callers may retry");
static_assert(retryabilityOf(LifecycleErrc::StaleGeneration) ==
                  Retryability::Retryable,
              "stale tickets are cured by re-attesting");
static_assert(retryabilityOf(LifecycleErrc::CrashLoop) ==
                  Retryability::Terminal,
              "a tripped breaker stays tripped");
static_assert(retryabilityOf(LifecycleErrc::NotRestored) ==
                  Retryability::Terminal,
              "retrying into redacted code loses the same way every time");
static_assert(retryabilityOf(LifecycleErrc::ReentrantEcall) ==
                  Retryability::Terminal,
              "re-entrancy is a structural bug, not a transient");

//===----------------------------------------------------------------------===//
// Orderliness enforcement
//===----------------------------------------------------------------------===//

TEST(LifecycleOrderlinessTest, EcallBeforeLoadIsTyped) {
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  EXPECT_EQ(Sup.state(), LifecycleState::Created);

  Expected<sgx::EcallResult> E = Sup.ecall("run_secret", le64Bytes(1), 8);
  ASSERT_FALSE(static_cast<bool>(E));
  EXPECT_EQ(lifecycleErrcOf(E), LifecycleErrc::NotLoaded);

  EXPECT_EQ(lifecycleErrcOf(Sup.restoreNow()), LifecycleErrc::NotLoaded);
  EXPECT_EQ(Sup.stats().OrderlinessRejections, 1u);
}

TEST(LifecycleOrderlinessTest, EcallIntoRedactedCodeIsTyped) {
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  ASSERT_FALSE(Sup.load());
  EXPECT_EQ(Sup.state(), LifecycleState::Loaded);

  // The text section is still zero-filled; the gate must reject before
  // the VM ever sees the redacted bytes.
  Expected<sgx::EcallResult> E = Sup.ecall("run_secret", le64Bytes(1), 8);
  ASSERT_FALSE(static_cast<bool>(E));
  EXPECT_EQ(lifecycleErrcOf(E), LifecycleErrc::NotRestored);

  ASSERT_FALSE(Sup.restoreNow());
  expectServed(Sup, 5);
  EXPECT_EQ(Sup.state(), LifecycleState::Serving);
}

TEST(LifecycleOrderlinessTest, DoubleLoadIsTyped) {
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  ASSERT_FALSE(Sup.load());
  EXPECT_EQ(lifecycleErrcOf(Sup.load()), LifecycleErrc::AlreadyLoaded);
}

TEST(LifecycleOrderlinessTest, ReentrantEcallFromOcallHandlerIsTyped) {
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  ASSERT_FALSE(Sup.start());

  // Hijack the ocall path: while probe_ocall waits on its ocall, the
  // handler calls back into the supervisor on the same thread. That
  // re-entry must be a typed rejection, not a deadlock or a nested VM.
  LifecycleErrc Seen = LifecycleErrc::None;
  ASSERT_NE(Sup.enclave(), nullptr);
  Sup.enclave()->setOcallHandler(
      [&](uint32_t, BytesView) -> Expected<Bytes> {
        Expected<sgx::EcallResult> Inner =
            Sup.ecall("run_secret", le64Bytes(1), 8);
        if (!Inner)
          Seen = lifecycleErrcOf(Inner);
        return Bytes(); // "file missing" -- a valid read_file answer.
      });

  Expected<sgx::EcallResult> Outer = Sup.ecall("probe_ocall", Bytes(), 8);
  ASSERT_TRUE(static_cast<bool>(Outer)) << Outer.errorMessage();
  ASSERT_TRUE(Outer->ok()) << Outer->Exec.Message;
  EXPECT_EQ(Seen, LifecycleErrc::ReentrantEcall);
  EXPECT_EQ(Sup.stats().OrderlinessRejections, 1u);
}

//===----------------------------------------------------------------------===//
// Fault classification and recovery
//===----------------------------------------------------------------------===//

TEST(LifecycleFaultTest, ScribbledEntryClassifiesAsVmTrapAndRecovers) {
  ChaosSeedScope Seed("scribble-recovery", 11);
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  ASSERT_FALSE(Sup.start());

  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.Script = {FaultKind::TrapScribble};
  sgx::EnclaveChaos Chaos(Plan);
  Sup.setChaos(&Chaos);

  // The scribbled entry traps for real: opcode 0 is the illegal
  // encoding, and the trap PC is the entry the injector zeroed.
  Expected<sgx::EcallResult> Faulted =
      Sup.ecall("run_secret", le64Bytes(5), 8);
  ASSERT_FALSE(static_cast<bool>(Faulted));
  EXPECT_EQ(lifecycleErrcOf(Faulted), LifecycleErrc::QuarantinedRetryLater);
  EXPECT_EQ(Sup.state(), LifecycleState::Quarantined);

  std::optional<FaultRecord> F = Sup.lastFault();
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Class, EnclaveFaultClass::VmTrap);
  EXPECT_EQ(F->Trap, TrapKind::IllegalInstruction);
  EXPECT_NE(F->Pc, 0u);
  EXPECT_EQ(F->Generation, 1u);

  // The next caller drives recovery inline: teardown, rebuild from the
  // image, restore from the provisioning chain -- then serves.
  expectServed(Sup, 5);
  EXPECT_EQ(Sup.generation(), 2u);
  SupervisorStats S = Sup.stats();
  EXPECT_EQ(S.FaultsVmTrap, 1u);
  EXPECT_EQ(S.Recoveries, 1u);
  EXPECT_EQ(S.RecoveryMs.size(), 1u);
}

TEST(LifecycleFaultTest, BudgetRunawayIsCaughtByWatchdog) {
  ChaosSeedScope Seed("budget-runaway", 12);
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  ASSERT_FALSE(Sup.start());

  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.Script = {FaultKind::BudgetClamp};
  sgx::EnclaveChaos Chaos(Plan, /*ClampBudget=*/4);
  Sup.setChaos(&Chaos);

  Expected<sgx::EcallResult> Faulted =
      Sup.ecall("run_secret", le64Bytes(5), 8);
  ASSERT_FALSE(static_cast<bool>(Faulted));
  EXPECT_EQ(lifecycleErrcOf(Faulted), LifecycleErrc::QuarantinedRetryLater);
  std::optional<FaultRecord> F = Sup.lastFault();
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->Class, EnclaveFaultClass::BudgetRunaway);
  EXPECT_EQ(F->Trap, TrapKind::BudgetExhausted);

  // Recovery replaces the clamped enclave; the watchdog budget was a
  // one-call clamp, so the rebuilt generation serves normally.
  expectServed(Sup, 5);
  EXPECT_EQ(Sup.stats().FaultsBudgetRunaway, 1u);
}

TEST(LifecycleFaultTest, FailedRestoreQuarantinesThenRecovers) {
  ChaosSeedScope Seed("restore-fail", 13);
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());

  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.Script = {FaultKind::RestoreFail};
  sgx::EnclaveChaos Chaos(Plan);
  Sup.setChaos(&Chaos);

  ASSERT_FALSE(Sup.load());
  Error E = Sup.restoreNow();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_EQ(lifecycleErrcOf(E), LifecycleErrc::QuarantinedRetryLater);
  EXPECT_EQ(Sup.stats().FaultsRestoreFailure, 1u);

  // recoverNow rebuilds and restores (the script is spent, so this
  // attempt goes through to the server).
  ASSERT_FALSE(Sup.recoverNow());
  EXPECT_EQ(Sup.state(), LifecycleState::Restored);
  expectServed(Sup, 7);
  EXPECT_EQ(Sup.generation(), 2u);
}

TEST(LifecycleFaultTest, SealedCacheCorruptionIsContained) {
  ChaosSeedScope Seed("sealed-corrupt", 14);
  std::string Sealed =
      ::testing::TempDir() + "lifecycle_sealed_corrupt.bin";
  removeFile(Sealed);
  auto R = makeRig(Sealed);
  ASSERT_NE(R, nullptr);

  size_t HostQuarantines = 0;
  R->Host->setEventCallback([&](const ProvisionEvent &Event) {
    HostQuarantines += Event.Kind == ProvisionEventKind::CacheQuarantined;
  });

  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  ASSERT_FALSE(Sup.start());
  ASSERT_TRUE(fileExists(Sealed)); // The restore sealed its secrets.

  FaultPlan Plan;
  Plan.Seed = Seed.value();
  // Point 0: the ecall is scribbled (forcing a recovery). Point 1: the
  // recovery's restore finds its sealed cache corrupted.
  Plan.Script = {FaultKind::TrapScribble, FaultKind::SealedCorrupt};
  sgx::EnclaveChaos Chaos(Plan);
  Sup.setChaos(&Chaos);

  Expected<sgx::EcallResult> Faulted =
      Sup.ecall("run_secret", le64Bytes(5), 8);
  ASSERT_FALSE(static_cast<bool>(Faulted));

  // Recovery hits the corrupted cache: the host quarantines the blob
  // (moved aside for forensics) and falls back down the chain --
  // contained, recovery still lands, the caller is served.
  expectServed(Sup, 5);
  SupervisorStats S = Sup.stats();
  EXPECT_EQ(S.FaultsSealedCacheCorruption, 1u);
  EXPECT_EQ(S.Recoveries, 1u);
  EXPECT_EQ(HostQuarantines, 1u); // The application's callback saw it.
  EXPECT_EQ(Chaos.counts().of(FaultKind::SealedCorrupt), 1u);
  // The corrupt container was moved aside, not deleted, and the recovery's
  // restore, which fell through to the server, sealed a valid one at the
  // path again.
  EXPECT_TRUE(fileExists(Sealed + ".quarantine"));
  Expected<Bytes> Fresh = readFileBytes(Sealed);
  ASSERT_TRUE(static_cast<bool>(Fresh)) << Fresh.errorMessage();
  EXPECT_TRUE(static_cast<bool>(decodeVersionedBlob(*Fresh)));
  removeFile(Sealed + ".quarantine");
  removeFile(Sealed);
}

TEST(LifecycleFaultTest, QuarantineBackoffGatesRecovery) {
  ChaosSeedScope Seed("quarantine-backoff", 15);
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  SupervisorConfig Config = fastRecovery();
  Config.RecoveryBackoffBaseMs = 100;
  Config.JitterSeed = Seed.derived(1);
  EnclaveSupervisor Sup(R->factory(), *R->Host, Config);
  long long Now = 10'000;
  Sup.setClock([&] { return Now; });
  ASSERT_FALSE(Sup.start());

  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.Script = {FaultKind::TrapScribble};
  sgx::EnclaveChaos Chaos(Plan);
  Sup.setChaos(&Chaos);

  ASSERT_FALSE(
      static_cast<bool>(Sup.ecall("run_secret", le64Bytes(5), 8)));

  // Inside the backoff window: typed retry-later with a machine-readable
  // hint, and NO recovery work happens.
  Expected<sgx::EcallResult> Held = Sup.ecall("run_secret", le64Bytes(5), 8);
  ASSERT_FALSE(static_cast<bool>(Held));
  EXPECT_EQ(lifecycleErrcOf(Held), LifecycleErrc::QuarantinedRetryLater);
  std::optional<uint32_t> Hint = retryAfterHintOf(Held.errorMessage());
  ASSERT_TRUE(Hint.has_value());
  EXPECT_GE(*Hint, 1u);
  EXPECT_LE(*Hint, 150u); // base 100 + <=50% jitter
  EXPECT_EQ(Sup.generation(), 1u);

  // Past the deadline the next caller recovers and is served.
  Now += 2'000;
  expectServed(Sup, 5);
  EXPECT_EQ(Sup.generation(), 2u);
  EXPECT_GE(Sup.stats().RetryLaterRejections, 1u);
}

TEST(LifecycleFaultTest, CrashLoopBreakerRetiresTheEnclave) {
  ChaosSeedScope Seed("crash-loop", 16);
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  SupervisorConfig Config = fastRecovery();
  Config.MaxCrashLoops = 2;
  EnclaveSupervisor Sup(R->factory(), *R->Host, Config);
  ASSERT_FALSE(Sup.start());

  // Every ecall point faults (restore points pass: TrapScribble is not
  // applicable there), so recoveries land but service never does -- the
  // definition of a crash loop.
  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.FaultPerMille = 1000;
  Plan.RateKinds = {FaultKind::TrapScribble};
  sgx::EnclaveChaos Chaos(Plan);
  Sup.setChaos(&Chaos);

  LifecycleErrc Last = LifecycleErrc::None;
  for (int I = 0; I < 4; ++I) {
    Expected<sgx::EcallResult> E = Sup.ecall("run_secret", le64Bytes(5), 8);
    ASSERT_FALSE(static_cast<bool>(E));
    Last = lifecycleErrcOf(E);
  }
  EXPECT_EQ(Last, LifecycleErrc::CrashLoop);
  EXPECT_TRUE(Sup.stats().CrashLoopTripped);
  EXPECT_EQ(Sup.state(), LifecycleState::Quarantined);
  EXPECT_EQ(Sup.enclave(), nullptr); // Retirement freed the EPC.
  EXPECT_EQ(lifecycleErrcOf(Sup.recoverNow()), LifecycleErrc::CrashLoop);
  EXPECT_EQ(Sup.stats().FaultsVmTrap, 3u); // Faults 1,2 quarantine; 3 trips.
}

//===----------------------------------------------------------------------===//
// Session generations
//===----------------------------------------------------------------------===//

TEST(LifecycleSessionTest, RecycledEnclaveStalesOldTickets) {
  ChaosSeedScope Seed("stale-ticket", 17);
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  ASSERT_FALSE(Sup.start());

  Expected<SupervisorTicket> Ticket = Sup.openSession();
  ASSERT_TRUE(static_cast<bool>(Ticket));
  EXPECT_EQ(Ticket->Generation, 1u);
  ASSERT_TRUE(static_cast<bool>(
      Sup.ecall(*Ticket, "run_secret", le64Bytes(3), 8)));

  // The enclave faults and is recycled out from under the session.
  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.Script = {FaultKind::TrapScribble};
  sgx::EnclaveChaos Chaos(Plan);
  Sup.setChaos(&Chaos);
  ASSERT_FALSE(
      static_cast<bool>(Sup.ecall("run_secret", le64Bytes(3), 8)));
  expectServed(Sup, 3); // Drives recovery; generation 2 now serves.
  ASSERT_EQ(Sup.generation(), 2u);

  // The old ticket is typed-stale (retryable: the cure is re-attesting),
  // and a fresh session against generation 2 works.
  Expected<sgx::EcallResult> Stale =
      Sup.ecall(*Ticket, "run_secret", le64Bytes(3), 8);
  ASSERT_FALSE(static_cast<bool>(Stale));
  EXPECT_EQ(lifecycleErrcOf(Stale), LifecycleErrc::StaleGeneration);
  EXPECT_TRUE(isRetryableLifecycleErrc(LifecycleErrc::StaleGeneration));
  EXPECT_EQ(Sup.stats().StaleTicketRejections, 1u);

  Expected<SupervisorTicket> Fresh = Sup.openSession();
  ASSERT_TRUE(static_cast<bool>(Fresh));
  EXPECT_EQ(Fresh->Generation, 2u);
  ASSERT_TRUE(static_cast<bool>(
      Sup.ecall(*Fresh, "run_secret", le64Bytes(3), 8)));
}

//===----------------------------------------------------------------------===//
// Concurrency (the TSan run earns its keep here)
//===----------------------------------------------------------------------===//

TEST(LifecycleConcurrencyTest, ParallelCallersSerializeAndAllGetServed) {
  auto R = makeRig();
  ASSERT_NE(R, nullptr);
  EnclaveSupervisor Sup(R->factory(), *R->Host, fastRecovery());
  ASSERT_FALSE(Sup.start());

  constexpr int Threads = 4, PerThread = 25;
  std::atomic<int> Served{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int I = 0; I < PerThread; ++I) {
        uint64_t X = static_cast<uint64_t>(T) * 1000 + I;
        Expected<sgx::EcallResult> E =
            Sup.ecall("run_secret", le64Bytes(X), 8);
        if (E && E->ok() && readLE64(E->Output.data()) == referenceSecret(X))
          Served.fetch_add(1);
      }
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(Served.load(), Threads * PerThread);
  SupervisorStats S = Sup.stats();
  EXPECT_EQ(S.EcallsServed, static_cast<size_t>(Threads * PerThread));
  EXPECT_EQ(S.FaultsVmTrap + S.FaultsBudgetRunaway, 0u);
}

//===----------------------------------------------------------------------===//
// The mixed-fault soak (the acceptance scenario)
//===----------------------------------------------------------------------===//

TEST(LifecycleSoakTest, MixedFaultStormStaysAvailableAndClassifiesEverything) {
  ChaosSeedScope Seed("lifecycle-soak", 2024);
  std::string Sealed = ::testing::TempDir() + "lifecycle_soak_sealed.bin";
  removeFile(Sealed);
  auto R = makeRig(Sealed);
  ASSERT_NE(R, nullptr);

  SupervisorConfig Config = fastRecovery();
  Config.MaxCrashLoops = 10;
  Config.JitterSeed = Seed.derived(2);
  EnclaveSupervisor Sup(R->factory(), *R->Host, Config);
  ASSERT_FALSE(Sup.start());

  // ~10% of injection points fault, all four classes eligible. The chaos
  // engine attaches after start() so the storm begins with a healthy,
  // sealed-cache-backed enclave.
  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.FaultPerMille = 100;
  sgx::EnclaveChaos Chaos(Plan, /*ClampBudget=*/4);
  Sup.setChaos(&Chaos);

  constexpr int Requests = 300, MaxAttempts = 5;
  int ServedFirstTry = 0, ServedEventually = 0;
  for (int I = 0; I < Requests; ++I) {
    uint64_t X = static_cast<uint64_t>(I);
    for (int Attempt = 1; Attempt <= MaxAttempts; ++Attempt) {
      Expected<sgx::EcallResult> E =
          Sup.ecall("run_secret", le64Bytes(X), 8);
      if (E && E->ok()) {
        ASSERT_EQ(readLE64(E->Output.data()), referenceSecret(X));
        ServedFirstTry += Attempt == 1;
        ++ServedEventually;
        break;
      }
      // Every failure must be typed: the supervised host never sees a
      // raw trap and never dies.
      ASSERT_FALSE(static_cast<bool>(E));
      ASSERT_NE(lifecycleErrcOf(E), LifecycleErrc::None)
          << E.errorMessage();
    }
  }

  // Availability: >= 99% once recovery converges (retries ride through
  // the quarantine-recover cycle).
  EXPECT_GE(ServedEventually, (Requests * 99) / 100)
      << "first-try: " << ServedFirstTry;

  // Every injected fault maps 1:1 onto its typed class -- nothing is
  // misclassified, dropped, or double-counted.
  SupervisorStats S = Sup.stats();
  FaultCounts C = Chaos.counts();
  EXPECT_EQ(S.FaultsVmTrap, C.of(FaultKind::TrapScribble));
  EXPECT_EQ(S.FaultsBudgetRunaway, C.of(FaultKind::BudgetClamp));
  EXPECT_EQ(S.FaultsRestoreFailure, C.of(FaultKind::RestoreFail));
  EXPECT_EQ(S.FaultsSealedCacheCorruption, C.of(FaultKind::SealedCorrupt));
  EXPECT_GT(C.injected(), 0u) << "the storm never fired; dead soak";

  // The breaker never tripped and the enclave kept regenerating.
  EXPECT_FALSE(S.CrashLoopTripped);
  EXPECT_GE(S.Recoveries, 1u);
  EXPECT_EQ(Sup.generation(), 1 + S.Recoveries + S.RecoveryFailures);
  removeFile(Sealed);
}

} // namespace
