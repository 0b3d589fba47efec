//===- tests/OverloadTest.cpp - End-to-end overload resilience suite ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The overload-resilience suite (`ctest -L overload`): deadline
/// propagation through the request envelope and the restore loop,
/// criticality-aware admission control and brownout shedding on the
/// server, the chain-wide retry budget on the provisioning client, the
/// supervisor marking recovery traffic Sheddable -- and a deterministic
/// metastable-failure soak proving the budget is what separates a
/// transient overload spike from a self-sustaining congestion collapse.
///
/// Every seeded test routes its randomness through `ChaosSeedScope`, so a
/// failure prints a one-line `ELIDE_CHAOS_SEED=...` reproduction recipe.
///
//===----------------------------------------------------------------------===//

#include "elide/Pipeline.h"
#include "elide/Provisioner.h"
#include "elide/Supervisor.h"
#include "server/AuthServer.h"
#include "server/FaultInjection.h"
#include "server/Transport.h"
#include "sgx/EnclaveChaos.h"
#include "sgx/EnclaveLoader.h"
#include "support/AtomicFile.h"
#include "support/File.h"
#include "tests/framework/ChaosSeed.h"
#include "tests/framework/RestoreRig.h"
#include "tests/framework/TestNet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

using namespace elide;
using elide::testing::AcceptAndClose;
using elide::testing::ChaosSeedScope;
using elide::testing::ClosedPort;
using elide::testing::RestoreRig;

namespace {

//===----------------------------------------------------------------------===//
// Shared scaffolding
//===----------------------------------------------------------------------===//

/// A minimal server whose trust anchors are real but whose clients are
/// garbage frames: enough to exercise shedding, admission control, and
/// envelope handling without paying a pipeline build per test.
AuthServerConfig bareServerConfig(double DegradedMs = 0.0,
                                  double ShedMs = 0.0) {
  static const sgx::AttestationAuthority Authority(2002);
  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  Config.ExpectedMrEnclave.fill(0x42);
  Config.Meta.DataLength = 64;
  Config.SecretData = Bytes(64, 0xaa);
  Config.BrownoutDegradedMs = DegradedMs;
  Config.BrownoutShedMs = ShedMs;
  Config.EwmaAlpha = 1.0; // EWMA == last sample: tests pick exact modes.
  return Config;
}

FrameContext delayed(double QueueDelayMs) {
  FrameContext Ctx;
  Ctx.QueueDelayMs = QueueDelayMs;
  return Ctx;
}

/// A scriptable in-process endpoint for Provisioner budget tests.
struct StubTransport : Transport {
  std::function<Expected<Bytes>(BytesView)> Fn;
  explicit StubTransport(std::function<Expected<Bytes>(BytesView)> Fn)
      : Fn(std::move(Fn)) {}
  Expected<Bytes> roundTrip(BytesView Request) override {
    return Fn(Request);
  }
};

Bytes garbageRecord() { return Bytes{FrameRecord, 0x00, 0x01, 0x02}; }
Bytes garbageHello() { return Bytes{FrameHello, 0x13, 0x37}; }

//===----------------------------------------------------------------------===//
// Envelope round-trip and strict rejection
//===----------------------------------------------------------------------===//

TEST(OverloadEnvelopeTest, RoundTripPreservesDeadlineClassAndInner) {
  Bytes Inner = garbageRecord();
  Bytes Frame = envelopeFrame(1500, Criticality::Sheddable, Inner);
  ASSERT_EQ(Frame.size(), EnvelopeHeaderSize + Inner.size());
  EXPECT_EQ(Frame[0], FrameEnvelope);
  EXPECT_EQ(Frame[1], EnvelopeVersion);

  Expected<RequestEnvelope> Env = parseEnvelopeFrame(Frame);
  ASSERT_TRUE(static_cast<bool>(Env)) << Env.errorMessage();
  EXPECT_EQ(Env->DeadlineMs, 1500u);
  EXPECT_EQ(Env->Class, Criticality::Sheddable);
  EXPECT_EQ(toBytes(Env->Inner), Inner);

  // unwrapRequest agrees on envelopes and defaults bare frames.
  Expected<RequestEnvelope> Bare = unwrapRequest(Inner);
  ASSERT_TRUE(static_cast<bool>(Bare));
  EXPECT_EQ(Bare->DeadlineMs, 0u);
  EXPECT_EQ(Bare->Class, Criticality::Default);
  EXPECT_EQ(toBytes(Bare->Inner), Inner);
}

TEST(OverloadEnvelopeTest, StrictParserRejectsEveryMalformation) {
  Bytes Good = envelopeFrame(100, Criticality::Default, garbageRecord());

  Bytes BadVersion = Good;
  BadVersion[1] = 2;
  EXPECT_FALSE(static_cast<bool>(parseEnvelopeFrame(BadVersion)));

  Bytes BadClass = Good;
  BadClass[6] = 3; // One past Sheddable.
  EXPECT_FALSE(static_cast<bool>(parseEnvelopeFrame(BadClass)));

  Bytes Truncated(Good.begin(), Good.begin() + EnvelopeHeaderSize - 2);
  EXPECT_FALSE(static_cast<bool>(parseEnvelopeFrame(Truncated)));

  Bytes Empty(Good.begin(), Good.begin() + EnvelopeHeaderSize);
  EXPECT_FALSE(static_cast<bool>(parseEnvelopeFrame(Empty)));

  Bytes Nested = envelopeFrame(100, Criticality::Default, Good);
  EXPECT_FALSE(static_cast<bool>(parseEnvelopeFrame(Nested)));

  // The server answers a malformed envelope with a typed verdict and
  // counts it -- it never half-parses into a default.
  AuthServer Server(bareServerConfig());
  Bytes Response = Server.handle(BadClass);
  ASSERT_FALSE(Response.empty());
  EXPECT_EQ(Response[0], FrameError);
  EXPECT_EQ(Server.stats().EnvelopeRejected, 1u);
}

//===----------------------------------------------------------------------===//
// Server-side admission control
//===----------------------------------------------------------------------===//

TEST(OverloadAdmissionTest, QueueDelayPastDeadlineRefusedBeforeCrypto) {
  AuthServer Server(bareServerConfig());

  // A request whose budget the queue already ate: refused with the typed
  // marker, before quote parsing ever runs.
  Bytes Expired = envelopeFrame(2, Criticality::Default, garbageHello());
  Bytes Response = Server.handle(Expired, delayed(10.0));
  ASSERT_FALSE(Response.empty());
  ASSERT_EQ(Response[0], FrameError);
  std::string Message(Response.begin() + 1, Response.end());
  EXPECT_TRUE(errorSaysDeadlineExpired(Message)) << Message;
  EXPECT_EQ(Server.stats().DeadlineExpired, 1u);
  EXPECT_EQ(Server.stats().HandshakesRejected, 0u); // Never reached crypto.

  // A generous budget passes admission and reaches the handshake (which
  // rejects the garbage quote -- but *after* being served).
  Bytes Fresh = envelopeFrame(60000, Criticality::Default, garbageHello());
  Bytes Served = Server.handle(Fresh, delayed(10.0));
  ASSERT_FALSE(Served.empty());
  EXPECT_EQ(Served[0], FrameError);
  std::string ServedMessage(Served.begin() + 1, Served.end());
  EXPECT_FALSE(errorSaysDeadlineExpired(ServedMessage));
  EXPECT_EQ(Server.stats().DeadlineExpired, 1u);
  EXPECT_EQ(Server.stats().HandshakesRejected, 1u);

  // No deadline means no admission gate, whatever the queue delay says.
  Bytes NoDeadline = Server.handle(garbageHello(), delayed(5000.0));
  ASSERT_FALSE(NoDeadline.empty());
  std::string NoDeadlineMessage(NoDeadline.begin() + 1, NoDeadline.end());
  EXPECT_FALSE(errorSaysDeadlineExpired(NoDeadlineMessage));
  EXPECT_EQ(Server.stats().DeadlineExpired, 1u);
}

//===----------------------------------------------------------------------===//
// Brownout controller
//===----------------------------------------------------------------------===//

TEST(OverloadBrownoutTest, HysteresisEntersOnThresholdExitsOnHalf) {
  AuthServer Server(bareServerConfig(/*DegradedMs=*/10.0, /*ShedMs=*/100.0));
  // Critical requests are never class-shed, so the same probe frame walks
  // the controller through every mode without its answers changing shape.
  Bytes Probe = envelopeFrame(0, Criticality::Critical, garbageRecord());

  EXPECT_EQ(Server.brownoutMode(), BrownoutMode::Normal);
  Server.handle(Probe, delayed(50.0)); // Above Degraded, below Shed.
  EXPECT_EQ(Server.brownoutMode(), BrownoutMode::Degraded);
  Server.handle(Probe, delayed(200.0)); // Above Shed.
  EXPECT_EQ(Server.brownoutMode(), BrownoutMode::Shed);
  Server.handle(Probe, delayed(60.0)); // Below Shed but above Shed/2: held.
  EXPECT_EQ(Server.brownoutMode(), BrownoutMode::Shed);
  Server.handle(Probe, delayed(30.0)); // Below Shed/2: one step down.
  EXPECT_EQ(Server.brownoutMode(), BrownoutMode::Degraded);
  Server.handle(Probe, delayed(30.0)); // Above Degraded/2: held.
  EXPECT_EQ(Server.brownoutMode(), BrownoutMode::Degraded);
  Server.handle(Probe, delayed(2.0)); // Below Degraded/2: recovered.
  EXPECT_EQ(Server.brownoutMode(), BrownoutMode::Normal);

  AuthServerStats S = Server.stats();
  EXPECT_EQ(S.BrownoutTransitions, 4u);
  EXPECT_DOUBLE_EQ(S.QueueDelayEwmaMs, 2.0);
}

TEST(OverloadBrownoutTest, RetryAfterHintScalesWithMode) {
  AuthServer Server(bareServerConfig(/*DegradedMs=*/10.0, /*ShedMs=*/100.0));
  Bytes Sheddable = envelopeFrame(0, Criticality::Sheddable, garbageRecord());
  Bytes Default = garbageRecord(); // Bare frame: Default class.

  // Degraded: Sheddable is shed with a 4x hint.
  Bytes R1 = Server.handle(Sheddable, delayed(50.0));
  std::optional<uint32_t> H1 = overloadedRetryAfterMs(R1);
  ASSERT_TRUE(H1.has_value());
  EXPECT_EQ(*H1, 400u); // OverloadRetryAfterMs default 100, x4.

  // Shed: Default is shed too, with a 16x hint.
  Bytes R2 = Server.handle(Default, delayed(200.0));
  std::optional<uint32_t> H2 = overloadedRetryAfterMs(R2);
  ASSERT_TRUE(H2.has_value());
  EXPECT_EQ(*H2, 1600u);
}

//===----------------------------------------------------------------------===//
// Criticality-aware shedding
//===----------------------------------------------------------------------===//

TEST(OverloadShedTest, SheddableGoesFirstDefaultNextCriticalLast) {
  AuthServer Server(bareServerConfig(/*DegradedMs=*/10.0, /*ShedMs=*/100.0));
  Bytes Critical = envelopeFrame(0, Criticality::Critical, garbageRecord());
  Bytes Default = garbageRecord();
  Bytes Sheddable = envelopeFrame(0, Criticality::Sheddable, garbageRecord());

  // Degraded (samples hold the EWMA at 50): only Sheddable is shed.
  EXPECT_FALSE(overloadedRetryAfterMs(Server.handle(Critical, delayed(50))));
  EXPECT_FALSE(overloadedRetryAfterMs(Server.handle(Default, delayed(50))));
  EXPECT_TRUE(overloadedRetryAfterMs(Server.handle(Sheddable, delayed(50))));

  // Shed (EWMA at 200): Default drops too; Critical still answers.
  EXPECT_FALSE(overloadedRetryAfterMs(Server.handle(Critical, delayed(200))));
  EXPECT_TRUE(overloadedRetryAfterMs(Server.handle(Default, delayed(200))));
  EXPECT_TRUE(overloadedRetryAfterMs(Server.handle(Sheddable, delayed(200))));

  AuthServerStats S = Server.stats();
  EXPECT_EQ(S.ShedCritical, 0u);
  EXPECT_EQ(S.ShedDefault, 1u);
  EXPECT_EQ(S.ShedSheddable, 2u);
  EXPECT_EQ(S.RequestsShed, 3u);
}

//===----------------------------------------------------------------------===//
// Client-side deadline propagation
//===----------------------------------------------------------------------===//

/// The restore loop's verdicts, as the host's event callback reports
/// them.
struct HostEvents {
  std::vector<ProvisionEvent> Seen;
  size_t count(TransportErrc Errc) const {
    size_t N = 0;
    for (const ProvisionEvent &E : Seen)
      N += E.Errc == Errc;
    return N;
  }
};

TEST(OverloadClientDeadlineTest, DeadlineStopsRetriesWithTypedError) {
  // Fifty attempts are far more than a 120 ms deadline can fund: the
  // restore loop, which keeps the deadline, must stop for time.
  auto Rig = RestoreRig::make();
  ASSERT_NE(Rig, nullptr);
  ClosedPort Port;
  ASSERT_TRUE(Port.ok());
  TcpClientConfig Config;
  Config.ConnectTimeoutMs = 1000;
  TcpClientTransport Client("127.0.0.1", Port.port(), Config);
  FaultInjectingTransport Counted(Client, FaultPlan());

  Expected<std::unique_ptr<sgx::Enclave>> E = Rig->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Counted, Rig->qe());
  Host.attach(**E);
  Host.setRequestClass(Criticality::Default, /*DeadlineMs=*/120);
  HostEvents Events;
  Host.setEventCallback(
      [&Events](const ProvisionEvent &Event) { Events.Seen.push_back(Event); });

  RestorePolicy Policy{50, 30};
  auto T0 = std::chrono::steady_clock::now();
  Expected<uint64_t> Status = Host.restore(**E, Policy);
  double ElapsedMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreServerUnreachable);
  // The deadline, not the attempt budget, ended the loop -- quickly, and
  // said so once.
  EXPECT_GE(Counted.counts().Points, 1u);
  EXPECT_LT(Counted.counts().Points, static_cast<size_t>(Policy.MaxAttempts));
  EXPECT_LT(ElapsedMs, 2000.0);
  EXPECT_EQ(Events.count(TransportErrc::DeadlineExceeded), 1u);
  // The shared table agrees this is terminal: no caller loops on it.
  EXPECT_FALSE(isRetryableTransportErrc(TransportErrc::DeadlineExceeded));
}

TEST(OverloadClientDeadlineTest, BareFramesKeepRetryingToExhaustion) {
  auto Rig = RestoreRig::make();
  ASSERT_NE(Rig, nullptr);
  ClosedPort Port;
  ASSERT_TRUE(Port.ok());
  TcpClientTransport Client("127.0.0.1", Port.port());
  FaultInjectingTransport Counted(Client, FaultPlan());

  // No envelope, no deadline: the loop spends its whole budget, one
  // request per attempt, and reports the last status.
  Expected<std::unique_ptr<sgx::Enclave>> E = Rig->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Counted, Rig->qe());
  Host.attach(**E);
  HostEvents Events;
  Host.setEventCallback(
      [&Events](const ProvisionEvent &Event) { Events.Seen.push_back(Event); });
  Expected<uint64_t> Status = Host.restore(**E, RestorePolicy{3});
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreServerUnreachable);
  EXPECT_EQ(Counted.counts().Points, 3u);
  EXPECT_EQ(Events.count(TransportErrc::DeadlineExceeded), 0u);
}

TEST(OverloadClientDeadlineTest, DeadServerCostsOneConnectionPerAttempt) {
  // One retry owner: a server that dies after accept costs exactly one
  // connection per restore attempt, through a one-endpoint chain and the
  // TCP client alike -- neither layer below the loop tries again.
  auto Rig = RestoreRig::make();
  ASSERT_NE(Rig, nullptr);
  AcceptAndClose Server;
  ASSERT_TRUE(Server.ok());
  TcpClientTransport Client("127.0.0.1", Server.port());
  Provisioner Chain;
  Chain.addEndpoint("closing", &Client);

  Expected<std::unique_ptr<sgx::Enclave>> E = Rig->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Chain, Rig->qe());
  Host.attach(**E);
  Expected<uint64_t> Status = Host.restore(**E, RestorePolicy{3, 0});
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreServerUnreachable);
  EXPECT_EQ(Server.accepted(), 3);
}

//===----------------------------------------------------------------------===//
// Chain-wide retry budget
//===----------------------------------------------------------------------===//

ProvisionerConfig budgetConfig(double Initial) {
  ProvisionerConfig Config;
  Config.Breaker.FailureThreshold = 1000; // Keep breakers out of the way.
  Config.RetryBudgetInitial = Initial;
  return Config;
}

TEST(OverloadBudgetTest, FailoverRetriesSpendTokensAndExhaust) {
  StubTransport Dead([](BytesView) -> Expected<Bytes> {
    return makeTransportError(TransportErrc::ConnectFailed, "down");
  });

  Provisioner Prov(budgetConfig(/*Initial=*/1.0));
  Prov.addEndpoint("a", &Dead);
  Prov.addEndpoint("b", &Dead);

  size_t Spent = 0, Exhausted = 0;
  Prov.setEventCallback([&](const ProvisionEvent &Event) {
    Spent += Event.Kind == ProvisionEventKind::RetryBudgetSpent;
    Exhausted += Event.Kind == ProvisionEventKind::RetryBudgetExhausted;
  });

  // Walk 1: endpoint a is free, the failover to b costs the only token.
  Expected<Bytes> R1 = Prov.roundTrip(garbageRecord());
  ASSERT_FALSE(static_cast<bool>(R1));
  EXPECT_EQ(transportErrcOf(R1), TransportErrc::AllEndpointsFailed);
  EXPECT_DOUBLE_EQ(Prov.retryBudget(), 0.0);
  EXPECT_EQ(Spent, 1u);

  // Walk 2: the bucket is dry, so the walk stops after the free attempt
  // with the terminal budget verdict instead of amplifying the outage.
  Expected<Bytes> R2 = Prov.roundTrip(garbageRecord());
  ASSERT_FALSE(static_cast<bool>(R2));
  EXPECT_EQ(transportErrcOf(R2), TransportErrc::RetryBudgetExhausted);
  EXPECT_EQ(Exhausted, 1u);
  EXPECT_FALSE(isRetryableTransportErrc(TransportErrc::RetryBudgetExhausted));
}

TEST(OverloadBudgetTest, SuccessesEarnTokensBackUpToTheCap) {
  StubTransport Healthy(
      [](BytesView) -> Expected<Bytes> { return Bytes{FrameRecord, 0x01}; });

  Provisioner Prov(budgetConfig(/*Initial=*/9.5));
  Prov.addEndpoint("a", &Healthy);

  for (int I = 0; I < 2; ++I)
    ASSERT_TRUE(static_cast<bool>(Prov.roundTrip(garbageRecord())));
  EXPECT_NEAR(Prov.retryBudget(), 9.7, 1e-9);

  // The cap of 10 tokens bounds the post-recovery burst.
  for (int I = 0; I < 10; ++I)
    ASSERT_TRUE(static_cast<bool>(Prov.roundTrip(garbageRecord())));
  EXPECT_NEAR(Prov.retryBudget(), 10.0, 1e-9);

  // A disabled budget reports the sentinel, not a balance.
  Provisioner Unbounded((ProvisionerConfig()));
  EXPECT_DOUBLE_EQ(Unbounded.retryBudget(), -1.0);
}

//===----------------------------------------------------------------------===//
// Supervisor recovery rides the Sheddable class
//===----------------------------------------------------------------------===//

const char *AppSource = R"elc(
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

/// Records the criticality class of every frame that crosses it, then
/// forwards unchanged -- the probe for "who sent envelope-marked traffic".
struct ClassRecordingTransport : Transport {
  Transport *Inner;
  std::mutex M;
  std::vector<Criticality> Seen;

  explicit ClassRecordingTransport(Transport *Inner) : Inner(Inner) {}

  Expected<Bytes> roundTrip(BytesView Request) override {
    Expected<RequestEnvelope> Env = unwrapRequest(Request);
    {
      std::lock_guard<std::mutex> Lock(M);
      Seen.push_back(Env ? Env->Class : Criticality::Default);
    }
    return Inner->roundTrip(Request);
  }
};

TEST(OverloadSupervisorTest, RecoveryRestoresAreMarkedSheddable) {
  ChaosSeedScope Seed("recovery-sheddable", 21);

  // A full provisioning rig (pipeline build, auth server, elide host)
  // with the class recorder wedged between host and server.
  Drbg Rng(77);
  Ed25519Seed VendorSeed{};
  Rng.fill(MutableBytesView(VendorSeed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(VendorSeed);
  BuildOptions Options;
  Options.Storage = SecretStorage::Remote;
  Expected<BuildArtifacts> Artifacts =
      buildProtectedEnclave({{"app.elc", AppSource}}, Vendor, Options);
  ASSERT_TRUE(static_cast<bool>(Artifacts)) << Artifacts.errorMessage();

  sgx::SgxDevice Device(3001);
  sgx::AttestationAuthority Authority(4002);
  sgx::QuotingEnclave Qe(Device, Authority);
  ServerProvisioning P = provisioningFor(*Artifacts, Options);
  AuthServerConfig ServerConfig;
  ServerConfig.AuthorityKey = Authority.publicKey();
  ServerConfig.ExpectedMrEnclave = P.SanitizedMrEnclave;
  ServerConfig.ExpectedMrSigner = P.MrSigner;
  ServerConfig.Meta = Artifacts->Meta;
  ServerConfig.SecretData = Artifacts->SecretData;
  ServerConfig.RngSeed = 100;
  AuthServer Server(std::move(ServerConfig));
  LoopbackTransport Link(Server);
  ClassRecordingTransport Recorder(&Link);
  ElideHost Host(&Recorder, &Qe);
  // On-disk sealed cache so the recovery restore can be forced back onto
  // the provisioning chain (below) instead of unsealing from memory.
  std::string SealedPath = ::testing::TempDir() + "overload_sheddable_sealed.bin";
  std::remove(SealedPath.c_str());
  Host.setSealedPath(SealedPath);

  SupervisorConfig Config;
  Config.RecoveryBackoffBaseMs = 0;
  Config.Restore.MaxAttempts = 1;
  Config.Restore.RetryDelayMs = 0;
  EnclaveSupervisor Sup(
      [&] {
        return sgx::loadEnclave(Device, Artifacts->SanitizedElf,
                                Artifacts->SanitizedSig, Options.Layout);
      },
      Host, Config);
  ASSERT_FALSE(Sup.start());

  // The initial (application-driven) restore ran at Default class with
  // bare frames: nothing was marked Sheddable.
  size_t StartupFrames;
  {
    std::lock_guard<std::mutex> Lock(Recorder.M);
    StartupFrames = Recorder.Seen.size();
    ASSERT_GT(StartupFrames, 0u);
    for (Criticality C : Recorder.Seen)
      EXPECT_EQ(C, Criticality::Default);
  }

  // Swap the sealed cache for a validly-wrapped garbage payload: the
  // rebuilt enclave will fail to unseal it and fall through to the
  // server, so the recovery restore actually rides the transport.
  ASSERT_FALSE(writeFileBytes(SealedPath, encodeVersionedBlob(Bytes(64, 0x5a))));

  // Fault the enclave; the next caller drives quarantine -> recovery.
  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.Script = {FaultKind::TrapScribble};
  sgx::EnclaveChaos Chaos(Plan);
  Sup.setChaos(&Chaos);

  Bytes Input(8);
  writeLE64(Input.data(), 5);
  Expected<sgx::EcallResult> Faulted = Sup.ecall("run_secret", Input, 8);
  ASSERT_FALSE(static_cast<bool>(Faulted));

  Expected<sgx::EcallResult> Recovered = Sup.ecall("run_secret", Input, 8);
  ASSERT_TRUE(static_cast<bool>(Recovered)) << Recovered.errorMessage();
  ASSERT_TRUE(Recovered->ok()) << Recovered->Exec.Message;
  EXPECT_EQ(Sup.generation(), 2u);

  // The recovery's restore traffic -- and only it -- rode the Sheddable
  // class, so a rebuild storm queues behind live traffic, not ahead of it.
  {
    std::lock_guard<std::mutex> Lock(Recorder.M);
    ASSERT_GT(Recorder.Seen.size(), StartupFrames);
    size_t RecoverySheddable = 0;
    for (size_t I = StartupFrames; I < Recorder.Seen.size(); ++I)
      RecoverySheddable += Recorder.Seen[I] == Criticality::Sheddable;
    EXPECT_GT(RecoverySheddable, 0u);
  }

  // The hook is restored: post-recovery application traffic is Default.
  EXPECT_EQ(Host.requestClass(), Criticality::Default);
  EXPECT_EQ(Host.requestDeadlineMs(), 0u);
}

//===----------------------------------------------------------------------===//
// The metastable-failure soak
//===----------------------------------------------------------------------===//

/// A deterministic backlog model of an overloaded server cluster: every
/// tick drains fixed capacity; every call (accepted *or* rejected) adds
/// work. Rejections are cheaper than service but not free -- which is
/// exactly the property that lets unbudgeted retries hold a server under
/// water long after the original spike has passed.
struct SimCluster {
  double Backlog = 0.0;
  double DrainPerTick = 3.0;
  double ShedThreshold = 40.0;
  double CostNormal = 1.0;
  double CostSpike = 8.0;
  double RejectCost = 0.6;
  int SpikeBegin = 100;
  int SpikeEnd = 140;
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

/// One cluster address: all endpoints land on the same shared backlog,
/// like three VIPs in front of one drowning fleet.
struct SimEndpoint : Transport {
  SimCluster &Sim;
  explicit SimEndpoint(SimCluster &Sim) : Sim(Sim) {}
  Expected<Bytes> roundTrip(BytesView) override { return Sim.call(); }
};

struct SoakOutcome {
  size_t Offered = 0;
  size_t Succeeded = 0;
  size_t ServerCalls = 0;
  size_t WindowOffered = 0;   ///< Offered in the recovery window.
  size_t WindowSucceeded = 0; ///< Succeeded in the recovery window.
  double Amplification = 0.0; ///< Server calls per offered request.
  double WindowAvailability = 0.0;
};

/// Drives one soak: a fixed open-loop schedule of requests through a
/// three-endpoint Provisioner into the shared backlog model, with the
/// client stack retrying retryable verdicts -- the amplifying loop the
/// budget exists to break.
SoakOutcome runSoak(bool Budgets, uint64_t Seed) {
  SimCluster Sim(Seed);
  SimEndpoint E0(Sim), E1(Sim), E2(Sim);

  ProvisionerConfig Config;
  Config.Breaker.FailureThreshold = 1000;
  Config.Breaker.CooldownMs = 0;
  Config.Breaker.DefaultOverloadCooldownMs = 0; // Deterministic re-admit.
  Config.Breaker.JitterSeed = Seed;
  if (Budgets)
    Config.RetryBudgetInitial = 10.0;

  Provisioner Prov(Config);
  Prov.addEndpoint("vip-0", &E0);
  Prov.addEndpoint("vip-1", &E1);
  Prov.addEndpoint("vip-2", &E2);

  constexpr int Ticks = 400;
  constexpr int RecoveryFrom = 300; // Well past the spike's end (140).
  constexpr int ClientRetries = 3;  // roundTrips per offered request.
  const Bytes Request{FrameRecord, 0x2a};

  SoakOutcome Out;
  for (int T = 0; T < Ticks; ++T) {
    Sim.beginTick();
    bool Ok = false;
    for (int A = 0; A < ClientRetries && !Ok; ++A) {
      Expected<Bytes> R = Prov.roundTrip(Request);
      if (R) {
        Ok = true;
      } else if (!isRetryableTransportErrc(transportErrcOf(R))) {
        break; // The shared table says stop; the budget's verdict lands here.
      }
    }
    ++Out.Offered;
    Out.Succeeded += Ok;
    if (T >= RecoveryFrom) {
      ++Out.WindowOffered;
      Out.WindowSucceeded += Ok;
    }
  }
  Out.ServerCalls = Sim.Calls;
  Out.Amplification =
      static_cast<double>(Out.ServerCalls) / static_cast<double>(Out.Offered);
  Out.WindowAvailability = 100.0 * static_cast<double>(Out.WindowSucceeded) /
                           static_cast<double>(Out.WindowOffered);
  return Out;
}

TEST(OverloadSoakTest, RetryBudgetBreaksMetastableCollapse) {
  ChaosSeedScope Seed("metastable-soak", 97);

  // Same seed, same spike, same client stack -- the only difference is
  // the budget. Without it, retry amplification keeps the backlog above
  // the shed threshold forever (the classic metastable failure: the
  // *recovery* traffic is the sustaining load). With it, amplification
  // collapses to ~1 once the bucket drains, the backlog empties, and the
  // last quarter of the run serves at full availability.
  SoakOutcome Off = runSoak(/*Budgets=*/false, Seed.value());
  SoakOutcome On = runSoak(/*Budgets=*/true, Seed.value());

  // Budgets off: amplified load (3 endpoints x client retries) and a
  // collapse that outlives the spike.
  EXPECT_GT(Off.Amplification, 3.0);
  EXPECT_LT(Off.WindowAvailability, 50.0);

  // Budgets on: bounded amplification and full recovery.
  EXPECT_LE(On.Amplification, 2.0);
  EXPECT_GE(On.WindowAvailability, 99.0);

  // The healthy phase (pre-spike) was identical: the budget costs nothing
  // when nothing is failing.
  EXPECT_EQ(Off.Offered, On.Offered);
  EXPECT_GT(On.Succeeded, Off.Succeeded);

  // Determinism: replaying the same seed reproduces the run exactly
  // (this is what makes ELIDE_CHAOS_SEED replay trustworthy).
  SoakOutcome Replay = runSoak(/*Budgets=*/true, Seed.value());
  EXPECT_EQ(Replay.ServerCalls, On.ServerCalls);
  EXPECT_EQ(Replay.Succeeded, On.Succeeded);
}

} // namespace
