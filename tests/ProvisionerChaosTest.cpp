//===- tests/ProvisionerChaosTest.cpp - Provisioning resilience chaos suite -===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaos validation of the provisioning resilience layer (`ctest -L
/// chaos`): endpoints die mid-handshake, every endpoint goes down at once,
/// the host crashes between temp-file write and rename, cached blobs
/// arrive torn, servers shed load, breakers trip and recover. Each
/// scenario is driven by seeded fault injection or explicit crash points,
/// so failures reproduce deterministically.
///
//===----------------------------------------------------------------------===//

#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "server/AuthServer.h"
#include "server/FaultInjection.h"
#include "server/Reactor.h"
#include "server/Transport.h"
#include "sgx/EnclaveLoader.h"
#include "support/AtomicFile.h"
#include "support/File.h"
#include "tests/framework/ChaosSeed.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace elide;
using elide::testing::ChaosSeedScope;

namespace {

//===----------------------------------------------------------------------===//
// Shared scaffolding
//===----------------------------------------------------------------------===//

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

/// A scriptable endpoint stand-in: succeeds (echoing through a wrapped
/// transport or a fixed reply), fails hard, or sheds load.
class StubTransport : public Transport {
public:
  enum class Mode { Ok, Fail, Overload };

  explicit StubTransport(Transport *Inner = nullptr) : Inner(Inner) {}

  Expected<Bytes> roundTrip(BytesView Request) override {
    Calls.fetch_add(1);
    switch (M.load()) {
    case Mode::Ok:
      break;
    case Mode::Fail:
      return makeTransportError(TransportErrc::ConnectFailed,
                                "stub endpoint is dead");
    case Mode::Overload:
      return overloadedFrame(RetryAfterMs);
    }
    if (Inner)
      return Inner->roundTrip(Request);
    return toBytes(Request); // Echo.
  }

  Transport *Inner;
  std::atomic<Mode> M{Mode::Ok};
  std::atomic<int> Calls{0};
  uint32_t RetryAfterMs = 40;
};

/// Thread-safe ProvisionEvent recorder.
struct EventLog {
  void operator()(const ProvisionEvent &Event) {
    std::lock_guard<std::mutex> Lock(M);
    Events.push_back(Event);
  }
  size_t count(ProvisionEventKind Kind) const {
    std::lock_guard<std::mutex> Lock(M);
    size_t N = 0;
    for (const ProvisionEvent &E : Events)
      N += E.Kind == Kind;
    return N;
  }
  bool has(ProvisionEventKind Kind) const { return count(Kind) > 0; }

  mutable std::mutex M;
  std::vector<ProvisionEvent> Events;
};

/// One protected enclave plus N independent (but identically provisioned)
/// auth servers, modeling a replicated provisioning fleet.
struct Fleet {
  BuildArtifacts Artifacts;
  BuildOptions Options;
  std::unique_ptr<sgx::SgxDevice> Device;
  std::unique_ptr<sgx::AttestationAuthority> Authority;
  std::unique_ptr<sgx::QuotingEnclave> Qe;
  std::vector<std::unique_ptr<AuthServer>> Servers;
  std::vector<std::unique_ptr<LoopbackTransport>> Links;

  Expected<std::unique_ptr<sgx::Enclave>> load() {
    return sgx::loadEnclave(*Device, Artifacts.SanitizedElf,
                            Artifacts.SanitizedSig, Options.Layout);
  }
};

std::unique_ptr<Fleet> makeFleet(size_t ServerCount,
                                 size_t MaxRequestsPerSession = 0) {
  auto F = std::make_unique<Fleet>();
  Drbg Rng(77);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);
  F->Options.Storage = SecretStorage::Remote;
  Expected<BuildArtifacts> Artifacts = buildProtectedEnclave(
      {{"secret_app.elc", SecretAppSource}}, Vendor, F->Options);
  if (!Artifacts) {
    ADD_FAILURE() << "pipeline failed: " << Artifacts.errorMessage();
    return nullptr;
  }
  F->Artifacts = Artifacts.takeValue();
  F->Device = std::make_unique<sgx::SgxDevice>(3001);
  F->Authority = std::make_unique<sgx::AttestationAuthority>(4002);
  F->Qe = std::make_unique<sgx::QuotingEnclave>(*F->Device, *F->Authority);

  ServerProvisioning P = provisioningFor(F->Artifacts, F->Options);
  for (size_t I = 0; I < ServerCount; ++I) {
    AuthServerConfig Config;
    Config.AuthorityKey = F->Authority->publicKey();
    Config.ExpectedMrEnclave = P.SanitizedMrEnclave;
    Config.ExpectedMrSigner = P.MrSigner;
    Config.Meta = F->Artifacts.Meta;
    Config.SecretData = F->Artifacts.SecretData;
    Config.RngSeed = 100 + I;
    Config.MaxRequestsPerSession = MaxRequestsPerSession;
    F->Servers.push_back(std::make_unique<AuthServer>(std::move(Config)));
    F->Links.push_back(std::make_unique<LoopbackTransport>(*F->Servers[I]));
  }
  return F;
}

Bytes le64Bytes(uint64_t V) {
  Bytes B(8);
  writeLE64(B.data(), V);
  return B;
}

void expectRestored(sgx::Enclave &E) {
  Expected<sgx::EcallResult> R = E.ecall("run_secret", le64Bytes(5), 8);
  ASSERT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  ASSERT_TRUE(R->ok()) << R->Exec.Message;
  EXPECT_EQ(readLE64(R->Output.data()), referenceSecret(5));
}

//===----------------------------------------------------------------------===//
// Failover across endpoints
//===----------------------------------------------------------------------===//

TEST(FailoverChaosTest, DeadFirstEndpointFailsOverTransparently) {
  auto F = makeFleet(1);
  ASSERT_NE(F, nullptr);

  StubTransport Dead;
  Dead.M = StubTransport::Mode::Fail;
  Provisioner Chain;
  Chain.addEndpoint("dead", &Dead);
  Chain.addEndpoint("alive", F->Links[0].get());
  EventLog Log;
  Chain.setEventCallback(std::ref(Log));

  auto E = F->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Chain, F->Qe.get());
  Host.attach(**E);

  Expected<uint64_t> Status = Host.restore(**E);
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreOk);
  expectRestored(**E);

  // The chain reported both the failure and the failover, per exchange.
  EXPECT_GT(Dead.Calls.load(), 0);
  EXPECT_GT(Log.count(ProvisionEventKind::EndpointFailure), 0u);
  EXPECT_GT(Log.count(ProvisionEventKind::EndpointSuccess), 0u);
  EXPECT_EQ(Log.count(ProvisionEventKind::FailoverExhausted), 0u);
}

TEST(FailoverChaosTest, EndpointKilledMidHandshakeRecoversOnRetry) {
  // Endpoint 0 answers the HELLO, then dies (seeded injection kills every
  // later exchange). The session is pinned to server 0, so failing over
  // the META fetch to server 1 yields a typed server error -- and the
  // *retry* re-attests at endpoint 1 and completes.
  ChaosSeedScope Seed("endpoint-killed-midhandshake", 99);
  auto F = makeFleet(2);
  ASSERT_NE(F, nullptr);

  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.Script = {FaultKind::None}; // HELLO passes...
  Plan.FaultPerMille = 1000;       // ...everything after is eaten.
  Plan.RateKinds = {FaultKind::Drop};
  FaultInjectingTransport Dying(*F->Links[0], Plan);

  ProvisionerConfig Config;
  Config.Breaker.FailureThreshold = 1; // First death opens the breaker.
  Config.Breaker.CooldownMs = 10000;   // Stays open for the whole test.
  Provisioner Chain(Config);
  Chain.addEndpoint("dying", &Dying);
  Chain.addEndpoint("healthy", F->Links[1].get());
  EventLog Log;
  Chain.setEventCallback(std::ref(Log));

  auto E = F->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Chain, F->Qe.get());
  Host.attach(**E);

  RestorePolicy Policy;
  Policy.MaxAttempts = 3;
  Policy.RetryDelayMs = 1;
  Expected<uint64_t> Status = Host.restore(**E, Policy);
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreOk);
  expectRestored(**E);

  // The dying endpoint's breaker opened and later exchanges skipped it.
  EXPECT_EQ(Chain.breakerState(0), BreakerState::Open);
  EXPECT_TRUE(Log.has(ProvisionEventKind::BreakerOpened));
  EXPECT_TRUE(Log.has(ProvisionEventKind::EndpointSkipped));
  EXPECT_EQ(F->Servers[1]->stats().HandshakesCompleted, 1u);
}

//===----------------------------------------------------------------------===//
// Degradation to the sealed cache
//===----------------------------------------------------------------------===//

TEST(CacheChaosTest, AllEndpointsDownRestoresFromSealedCache) {
  auto F = makeFleet(1);
  ASSERT_NE(F, nullptr);
  std::string Path = "/tmp/sgxelide_chaos_cache.bin";
  removeFile(Path);
  removeFile(atomicTempPath(Path));

  // Launch 1: healthy network seeds the cache.
  {
    auto E = F->load();
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    Provisioner Chain;
    Chain.addEndpoint("alive", F->Links[0].get());
    ElideHost Host(&Chain, F->Qe.get());
    EventLog Log;
    Host.setEventCallback(std::ref(Log));
    Host.setSealedPath(Path);
    Host.attach(**E);
    ASSERT_EQ(*Host.restore(**E), RestoreOk);
    EXPECT_TRUE(Log.has(ProvisionEventKind::CacheWritten));
    ASSERT_TRUE(fileExists(Path));
  }

  // Launch 2: the entire fleet is down; the cache carries the restore
  // without a single network call.
  StubTransport DeadA, DeadB;
  DeadA.M = StubTransport::Mode::Fail;
  DeadB.M = StubTransport::Mode::Fail;
  Provisioner Chain;
  Chain.addEndpoint("dead-a", &DeadA);
  Chain.addEndpoint("dead-b", &DeadB);

  auto E = F->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Chain, F->Qe.get());
  Host.setSealedPath(Path);
  Host.attach(**E);

  Expected<uint64_t> Status = Host.restore(**E);
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreOk);
  expectRestored(**E);
  EXPECT_EQ(DeadA.Calls.load(), 0);
  EXPECT_EQ(DeadB.Calls.load(), 0);
  removeFile(Path);
}

TEST(CacheChaosTest, CrashBetweenTempWriteAndRenameIsInvisible) {
  auto F = makeFleet(1);
  ASSERT_NE(F, nullptr);
  std::string Path = "/tmp/sgxelide_chaos_crash.bin";
  removeFile(Path);
  removeFile(atomicTempPath(Path));

  // Launch 1: the host "crashes" after the temp fsync, before the rename.
  // The restore itself still succeeds (sealing is best-effort) and the
  // cache write failure is reported, not swallowed.
  {
    auto E = F->load();
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    Provisioner Chain;
    Chain.addEndpoint("alive", F->Links[0].get());
    ElideHost Host(&Chain, F->Qe.get());
    EventLog Log;
    Host.setEventCallback(std::ref(Log));
    Host.setSealedPath(Path);
    Host.setSealedCrashPoint(AtomicCrashPoint::AfterTempWrite);
    Host.attach(**E);
    ASSERT_EQ(*Host.restore(**E), RestoreOk);
    expectRestored(**E);
    EXPECT_TRUE(Log.has(ProvisionEventKind::CacheWriteFailed));
    EXPECT_FALSE(fileExists(Path));            // The rename never happened.
    EXPECT_TRUE(fileExists(atomicTempPath(Path))); // The crash's orphan.
  }

  // Launch 2 (same for a torn temp from a MidTempWrite crash): the orphan
  // must never be mistaken for a cache. The restore falls through to the
  // network, succeeds, and this time the cache lands -- discarding the
  // stale temp.
  {
    auto E = F->load();
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    Provisioner Chain;
    Chain.addEndpoint("alive", F->Links[0].get());
    ElideHost Host(&Chain, F->Qe.get());
    EventLog Log;
    Host.setEventCallback(std::ref(Log));
    Host.setSealedPath(Path);
    Host.attach(**E);
    ASSERT_EQ(*Host.restore(**E), RestoreOk);
    expectRestored(**E);
    EXPECT_EQ(Log.count(ProvisionEventKind::CacheQuarantined), 0u);
    EXPECT_TRUE(Log.has(ProvisionEventKind::CacheWritten));
    EXPECT_TRUE(fileExists(Path));
    EXPECT_FALSE(fileExists(atomicTempPath(Path)));
  }
  removeFile(Path);
}

TEST(CacheChaosTest, TornCacheIsQuarantinedAndChainFallsThrough) {
  auto F = makeFleet(1);
  ASSERT_NE(F, nullptr);
  std::string Path = "/tmp/sgxelide_chaos_torn.bin";
  removeFile(Path);
  removeFile(Path + ".quarantine");

  // Seed a valid cache, then corrupt it on disk (bit rot / torn write).
  {
    auto E = F->load();
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    Provisioner Chain;
    Chain.addEndpoint("alive", F->Links[0].get());
    ElideHost Host(&Chain, F->Qe.get());
    Host.setSealedPath(Path);
    Host.attach(**E);
    ASSERT_EQ(*Host.restore(**E), RestoreOk);
  }
  Expected<Bytes> OnDisk = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(OnDisk));
  ASSERT_GT(OnDisk->size(), VersionedBlobHeaderSize + 4);
  (*OnDisk)[VersionedBlobHeaderSize + 3] ^= 0x40;
  ASSERT_FALSE(static_cast<bool>(writeFileBytes(Path, *OnDisk)));

  // Relaunch: the corrupt blob is detected, moved aside, and the restore
  // falls through to the (healthy) network instead of failing.
  auto E = F->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  Provisioner Chain;
  Chain.addEndpoint("alive", F->Links[0].get());
  ElideHost Host(&Chain, F->Qe.get());
  EventLog Log;
  Host.setEventCallback(std::ref(Log));
  Host.setSealedPath(Path);
  Host.attach(**E);

  Expected<uint64_t> Status = Host.restore(**E);
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreOk);
  expectRestored(**E);
  EXPECT_EQ(Log.count(ProvisionEventKind::CacheQuarantined), 1u);
  EXPECT_TRUE(fileExists(Path + ".quarantine"));
  // The fresh restore re-sealed a clean cache over the quarantined one.
  EXPECT_TRUE(Log.has(ProvisionEventKind::CacheWritten));
  Expected<Bytes> Fresh = readFileBytes(Path);
  ASSERT_TRUE(static_cast<bool>(Fresh));
  EXPECT_TRUE(static_cast<bool>(decodeVersionedBlob(*Fresh)));
  removeFile(Path);
  removeFile(Path + ".quarantine");
}

//===----------------------------------------------------------------------===//
// Circuit breaker state machine
//===----------------------------------------------------------------------===//

TEST(BreakerChaosTest, OpensAtThresholdAndRecoversViaProbe) {
  StubTransport Stub;
  Stub.M = StubTransport::Mode::Fail;
  ProvisionerConfig Config;
  Config.Breaker.FailureThreshold = 2;
  Config.Breaker.CooldownMs = 60;
  Config.Breaker.JitterSeed = 5;
  Provisioner Chain(Config);
  Chain.addEndpoint("flaky", &Stub);
  EventLog Log;
  Chain.setEventCallback(std::ref(Log));
  Bytes Ping = {0x42};

  // Failures one and two: the endpoint is tried, then the breaker trips.
  for (int I = 0; I < 2; ++I) {
    Expected<Bytes> R = Chain.roundTrip(Ping);
    ASSERT_FALSE(static_cast<bool>(R));
    EXPECT_EQ(transportErrcOf(R), TransportErrc::AllEndpointsFailed);
  }
  EXPECT_EQ(Stub.Calls.load(), 2);
  EXPECT_EQ(Chain.breakerState(0), BreakerState::Open);
  EXPECT_TRUE(Log.has(ProvisionEventKind::BreakerOpened));

  // While open, requests are refused without touching the endpoint.
  Expected<Bytes> Refused = Chain.roundTrip(Ping);
  ASSERT_FALSE(static_cast<bool>(Refused));
  EXPECT_EQ(transportErrcOf(Refused), TransportErrc::BreakerOpen);
  EXPECT_EQ(Stub.Calls.load(), 2);
  EXPECT_TRUE(Log.has(ProvisionEventKind::EndpointSkipped));

  // Cool-down (60ms base + at most 50% jitter) elapses; the endpoint has
  // recovered; the half-open probe closes the breaker.
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  Stub.M = StubTransport::Mode::Ok;
  Expected<Bytes> R = Chain.roundTrip(Ping);
  ASSERT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  EXPECT_EQ(*R, Ping);
  EXPECT_EQ(Chain.breakerState(0), BreakerState::Closed);
  EXPECT_TRUE(Log.has(ProvisionEventKind::BreakerHalfOpen));
  EXPECT_TRUE(Log.has(ProvisionEventKind::BreakerClosed));
}

TEST(BreakerChaosTest, FailedProbeReopensForAnotherCooldown) {
  StubTransport Stub;
  Stub.M = StubTransport::Mode::Fail;
  ProvisionerConfig Config;
  Config.Breaker.FailureThreshold = 1;
  Config.Breaker.CooldownMs = 40;
  Provisioner Chain(Config);
  Chain.addEndpoint("down-for-good", &Stub);
  Bytes Ping = {7};

  ASSERT_FALSE(static_cast<bool>(Chain.roundTrip(Ping)));
  EXPECT_EQ(Chain.breakerState(0), BreakerState::Open);

  // Probe after cool-down fails: straight back to Open, one call spent.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  int Before = Stub.Calls.load();
  ASSERT_FALSE(static_cast<bool>(Chain.roundTrip(Ping)));
  EXPECT_EQ(Stub.Calls.load(), Before + 1);
  EXPECT_EQ(Chain.breakerState(0), BreakerState::Open);

  // And the immediate next call is refused unprobed.
  Expected<Bytes> R = Chain.roundTrip(Ping);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(transportErrcOf(R), TransportErrc::BreakerOpen);
  EXPECT_EQ(Stub.Calls.load(), Before + 1);
}

//===----------------------------------------------------------------------===//
// Overload is backpressure, not death
//===----------------------------------------------------------------------===//

TEST(OverloadChaosTest, SheddingParksBreakerWithoutCountingFailures) {
  StubTransport Stub;
  Stub.M = StubTransport::Mode::Overload;
  Stub.RetryAfterMs = 50;
  ProvisionerConfig Config;
  Config.Breaker.FailureThreshold = 3;
  Config.Breaker.CooldownMs = 5000; // Hard-failure cool-down; unused here.
  Provisioner Chain(Config);
  Chain.addEndpoint("drowning", &Stub);
  EventLog Log;
  Chain.setEventCallback(std::ref(Log));
  Bytes Ping = {1, 2, 3};

  Expected<Bytes> R = Chain.roundTrip(Ping);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(transportErrcOf(R), TransportErrc::Overloaded);
  EXPECT_EQ(retryAfterHintOf(R.errorMessage()).value_or(0), 50u);

  // The breaker parked (Open) but no failure was counted, and the events
  // say "overloaded", not "failed".
  EXPECT_EQ(Chain.breakerState(0), BreakerState::Open);
  EXPECT_TRUE(Log.has(ProvisionEventKind::EndpointOverloaded));
  EXPECT_EQ(Log.count(ProvisionEventKind::EndpointFailure), 0u);

  // It parks for the *advertised* 50ms (+ jitter), not the 5s
  // hard-failure cool-down: after ~100ms the endpoint is probed again.
  Stub.M = StubTransport::Mode::Ok;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Expected<Bytes> Recovered = Chain.roundTrip(Ping);
  ASSERT_TRUE(static_cast<bool>(Recovered)) << Recovered.errorMessage();
  EXPECT_EQ(*Recovered, Ping);
  EXPECT_EQ(Chain.breakerState(0), BreakerState::Closed);
}

TEST(OverloadChaosTest, AuthServerShedsConcurrentLoadTyped) {
  // A threshold-1 server under 8 spamming clients must shed, and every
  // shed answer must be a well-formed OVERLOADED frame carrying the
  // configured retry-after hint.
  sgx::AttestationAuthority Authority(1);
  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  Config.ExpectedMrEnclave.fill(0x42);
  Config.OverloadThreshold = 1;
  Config.OverloadRetryAfterMs = 77;
  AuthServer Server(std::move(Config));

  std::atomic<size_t> ObservedSheds{0};
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Clients;
  for (int T = 0; T < 8; ++T)
    Clients.emplace_back([&] {
      Bytes Garbage = {FrameHello, 0xde, 0xad};
      while (!Stop.load()) {
        Bytes Resp = Server.handle(Garbage);
        ASSERT_FALSE(Resp.empty());
        if (std::optional<uint32_t> After = overloadedRetryAfterMs(Resp)) {
          EXPECT_EQ(*After, 77u);
          ObservedSheds.fetch_add(1);
        } else {
          EXPECT_EQ(Resp[0], FrameError); // Garbage never handshakes.
        }
      }
    });

  // Run until shedding is observed (multi-threaded overlap under a
  // threshold of one is a near-certainty within the bound).
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (ObservedSheds.load() == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Stop.store(true);
  for (std::thread &T : Clients)
    T.join();

  EXPECT_GT(ObservedSheds.load(), 0u);
  EXPECT_EQ(Server.stats().RequestsShed, ObservedSheds.load());
  EXPECT_EQ(Server.stats().HandshakesCompleted, 0u);
}

TEST(OverloadChaosTest, TcpServerShedsBeyondConnectionCap) {
  sgx::AttestationAuthority Authority(1);
  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  Config.ExpectedMrEnclave.fill(0x42);
  AuthServer Server(std::move(Config));

  ReactorConfig Net;
  Net.MaxConnections = 1;
  Net.OverloadRetryAfterMs = 99;
  Net.WorkerThreads = 2;
  Expected<std::unique_ptr<ReactorServer>> Tcp = ReactorServer::start(
      [&Server](BytesView Request, const FrameContext &Ctx) {
        return Server.handle(Request, Ctx);
      },
      Net);
  ASSERT_TRUE(static_cast<bool>(Tcp)) << Tcp.errorMessage();

  // Connection A occupies the single slot (connected, never sends).
  int Holder = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Holder, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons((*Tcp)->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(Holder, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
      0);
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*Tcp)->stats().ConnectionsAccepted < 1 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_GE((*Tcp)->stats().ConnectionsAccepted, 1u);

  // Connection B is shed with the typed verdict and the hint.
  TcpClientTransport Client("127.0.0.1", (*Tcp)->port());
  Expected<Bytes> R = Client.roundTrip(Bytes{0x01});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(transportErrcOf(R), TransportErrc::Overloaded);
  EXPECT_EQ(retryAfterHintOf(R.errorMessage()).value_or(0), 99u);
  EXPECT_GE((*Tcp)->stats().ConnectionsShed, 1u);

  ::close(Holder);
  (*Tcp)->stop();
}

TEST(OverloadChaosTest, SessionBudgetForcesReattestation) {
  // Remote-data restores spend two RECORD exchanges (META + DATA). A
  // budget of two admits exactly one restore; a budget of one starves the
  // DATA fetch and the session is dropped for re-attestation.
  auto Starved = makeFleet(1, /*MaxRequestsPerSession=*/1);
  ASSERT_NE(Starved, nullptr);
  {
    auto E = Starved->load();
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    ElideHost Host(Starved->Links[0].get(), Starved->Qe.get());
    Host.attach(**E);
    Expected<uint64_t> Status = Host.restore(**E);
    ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
    EXPECT_EQ(*Status, RestoreDataFetchFailed);
    EXPECT_GE(Starved->Servers[0]->stats().SessionBudgetsExhausted, 1u);
  }

  auto Budgeted = makeFleet(1, /*MaxRequestsPerSession=*/2);
  ASSERT_NE(Budgeted, nullptr);
  auto E = Budgeted->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(Budgeted->Links[0].get(), Budgeted->Qe.get());
  Host.attach(**E);
  EXPECT_EQ(*Host.restore(**E), RestoreOk);
  expectRestored(**E);
  EXPECT_EQ(Budgeted->Servers[0]->stats().SessionBudgetsExhausted, 0u);
}

//===----------------------------------------------------------------------===//
// Whole-chain soak under seeded chaos
//===----------------------------------------------------------------------===//

TEST(ChaosSoakTest, LossyFleetWithCacheAlwaysConvergesDeterministically) {
  // Two lossy endpoints (seeded 40% fault rate each) plus the sealed
  // cache: a persistent client must always converge to a restore, and
  // identical seeds must take identical event paths.
  ChaosSeedScope Seed("provisioner-soak", 21);
  auto F = makeFleet(2);
  ASSERT_NE(F, nullptr);
  std::string Path = "/tmp/sgxelide_chaos_soak.bin";

  std::vector<std::string> EventTraces;
  for (int Round = 0; Round < 2; ++Round) {
    removeFile(Path);
    removeFile(atomicTempPath(Path));
    FaultPlan PlanA, PlanB;
    PlanA.Seed = Seed.value();
    PlanB.Seed = Seed.derived(1);
    PlanA.FaultPerMille = PlanB.FaultPerMille = 400;
    PlanA.RateKinds = PlanB.RateKinds = {FaultKind::Drop, FaultKind::Delay,
                                         FaultKind::Truncate,
                                         FaultKind::DisconnectMidFrame};
    FaultInjectingTransport LossyA(*F->Links[0], PlanA, /*DelayMs=*/0);
    FaultInjectingTransport LossyB(*F->Links[1], PlanB, /*DelayMs=*/0);

    ProvisionerConfig Config;
    Config.Breaker.FailureThreshold = 2;
    // Zero cool-down keeps wall-clock time out of the breaker's admit
    // decisions, so the event path depends only on the seeds.
    Config.Breaker.CooldownMs = 0;
    Config.Breaker.JitterSeed = Seed.derived(2);
    Provisioner Chain(Config);
    Chain.addEndpoint("lossy-a", &LossyA);
    Chain.addEndpoint("lossy-b", &LossyB);
    std::string Trace;
    Chain.setEventCallback([&Trace](const ProvisionEvent &Event) {
      Trace += provisionEventKindName(Event.Kind);
      Trace += '.';
    });

    auto E = F->load();
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    ElideHost Host(&Chain, F->Qe.get());
    Host.setSealedPath(Path);
    Host.attach(**E);

    RestorePolicy Policy;
    Policy.MaxAttempts = 64;
    Policy.RetryDelayMs = 0;
    Expected<uint64_t> Status = Host.restore(**E, Policy);
    ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
    EXPECT_EQ(*Status, RestoreOk)
        << "round " << Round << ": " << restoreStatusName(*Status);
    expectRestored(**E);
    EventTraces.push_back(Trace);
  }
  EXPECT_EQ(EventTraces[0], EventTraces[1])
      << "same seeds must walk the same failover path";
  removeFile(Path);
  removeFile(atomicTempPath(Path));
}

} // namespace
