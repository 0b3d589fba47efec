//===- tests/TransportFaultTest.cpp - Fault-injection matrix ----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The restore path under induced network failure. The paper observes
/// that a developer who controls the authentication server can deny
/// service; a flaky network can do the same by accident. These tests
/// pin down the contract: every injected fault either resolves through
/// retry or fails with a typed status that leaves the enclave fully
/// sanitized and retryable -- never half-restored.
///
//===----------------------------------------------------------------------===//

#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "server/AuthServer.h"
#include "server/FaultInjection.h"
#include "server/Reactor.h"
#include "server/Transport.h"
#include "sgx/EnclaveLoader.h"
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

namespace {

const char *SecretAppSource = R"elc(
fn secret_constant() -> u64 {
  return 0xc0ffee;
}

fn secret_transform(x: u64) -> u64 {
  var acc: u64 = secret_constant();
  for (var i: u64 = 0; i < 16; i = i + 1) {
    acc = acc * 31 + (x ^ (acc >> 7));
  }
  return acc;
}

export fn run_secret(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  var x: u64 = 0;
  if (inlen >= 8) {
    x = load_le64(inp);
  }
  var r: u64 = secret_transform(x);
  if (outcap >= 8) {
    store_le64(outp, r);
  }
  return 0;
}
)elc";

uint64_t referenceTransform(uint64_t X) {
  uint64_t Acc = 0xc0ffee;
  for (int I = 0; I < 16; ++I)
    Acc = Acc * 31 + (X ^ (Acc >> 7));
  return Acc;
}

struct Scenario {
  BuildArtifacts Artifacts;
  BuildOptions Options;
  std::unique_ptr<sgx::SgxDevice> Device;
  std::unique_ptr<sgx::AttestationAuthority> Authority;
  std::unique_ptr<sgx::QuotingEnclave> Qe;
  std::unique_ptr<AuthServer> Server;
  std::unique_ptr<LoopbackTransport> Link;
};

std::unique_ptr<Scenario> makeScenario() {
  auto S = std::make_unique<Scenario>();
  Drbg Rng(42);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), 32));
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(Seed);
  S->Options.Storage = SecretStorage::Remote;
  Expected<BuildArtifacts> Artifacts = buildProtectedEnclave(
      {{"secret_app.elc", SecretAppSource}}, Vendor, S->Options);
  if (!Artifacts) {
    ADD_FAILURE() << "pipeline failed: " << Artifacts.errorMessage();
    return nullptr;
  }
  S->Artifacts = Artifacts.takeValue();
  S->Device = std::make_unique<sgx::SgxDevice>(1001);
  S->Authority = std::make_unique<sgx::AttestationAuthority>(2002);
  S->Qe = std::make_unique<sgx::QuotingEnclave>(*S->Device, *S->Authority);

  AuthServerConfig Config;
  Config.AuthorityKey = S->Authority->publicKey();
  ServerProvisioning P = provisioningFor(S->Artifacts, S->Options);
  Config.ExpectedMrEnclave = P.SanitizedMrEnclave;
  Config.ExpectedMrSigner = P.MrSigner;
  Config.Meta = S->Artifacts.Meta;
  Config.SecretData = S->Artifacts.SecretData;
  S->Server = std::make_unique<AuthServer>(std::move(Config));
  S->Link = std::make_unique<LoopbackTransport>(*S->Server);
  return S;
}

Bytes le64Bytes(uint64_t V) {
  Bytes B(8);
  writeLE64(B.data(), V);
  return B;
}

/// Asserts the enclave runs the real secret (fully restored).
void expectRestored(sgx::Enclave &E) {
  Expected<sgx::EcallResult> R = E.ecall("run_secret", le64Bytes(7), 8);
  ASSERT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  ASSERT_TRUE(R->ok()) << R->Exec.Message;
  EXPECT_EQ(readLE64(R->Output.data()), referenceTransform(7));
}

/// Asserts the secret function still traps (still sanitized).
void expectSanitized(sgx::Enclave &E) {
  Expected<sgx::EcallResult> R = E.ecall("run_secret", le64Bytes(7), 8);
  ASSERT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  EXPECT_FALSE(R->ok());
  EXPECT_EQ(R->Exec.Kind, TrapKind::IllegalInstruction);
}

//===----------------------------------------------------------------------===//
// The fault matrix: one injected fault per restore round trip
//===----------------------------------------------------------------------===//

class FaultMatrixTest : public ::testing::TestWithParam<FaultKind> {};

/// Faults that resolve transparently (the exchange still completes).
bool isTransparent(FaultKind Kind) {
  return Kind == FaultKind::Delay || Kind == FaultKind::DuplicateRequest;
}

TEST_P(FaultMatrixTest, FaultOnHandshakeFailsCleanlyOrResolves) {
  const FaultKind Kind = GetParam();
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);

  FaultPlan Plan;
  Plan.Seed = 7;
  Plan.Script = {Kind}; // Round trip 0 (the HELLO) suffers; rest are clean.
  FaultInjectingTransport Faulty(*S->Link, Plan);

  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                       S->Artifacts.SanitizedSig, S->Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Faulty, S->Qe.get());
  Host.attach(**E);

  Expected<uint64_t> First = Host.restore(**E);
  ASSERT_TRUE(static_cast<bool>(First)) << First.errorMessage();
  EXPECT_EQ(Faulty.counts().injected(), 1u);

  if (isTransparent(Kind)) {
    EXPECT_EQ(*First, 0u) << faultKindName(Kind)
                          << " should not break the exchange";
    expectRestored(**E);
    return;
  }

  // The fault broke the exchange: a typed nonzero status, and the text
  // section must be untouched (no half-restore).
  EXPECT_NE(*First, 0u);
  EXPECT_STRNE(restoreStatusName(*First), "unknown")
      << "status " << *First << " is not in the RestoreStatus vocabulary";
  expectSanitized(**E);

  // The enclave stays retryable: the next attempt (clean network) wins.
  Expected<uint64_t> Second = Host.restore(**E);
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.errorMessage();
  EXPECT_EQ(*Second, 0u) << "restore after " << faultKindName(Kind)
                         << " fault: " << restoreStatusName(*Second);
  expectRestored(**E);
}

TEST_P(FaultMatrixTest, FaultOnDataFetchNeverHalfRestores) {
  const FaultKind Kind = GetParam();
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);
  auto load = [&S]() -> std::unique_ptr<sgx::Enclave> {
    Expected<std::unique_ptr<sgx::Enclave>> E =
        sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                         S->Artifacts.SanitizedSig, S->Options.Layout);
    EXPECT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    return E ? E.takeValue() : nullptr;
  };

  // A clean restore counts its round trips: the HELLO, then the META and
  // DATA exchanges.
  size_t RoundTrips = 0;
  {
    FaultInjectingTransport Counter(*S->Link, FaultPlan());
    std::unique_ptr<sgx::Enclave> E = load();
    ASSERT_NE(E, nullptr);
    ElideHost Host(&Counter, S->Qe.get());
    Host.attach(*E);
    Expected<uint64_t> Clean = Host.restore(*E);
    ASSERT_TRUE(static_cast<bool>(Clean)) << Clean.errorMessage();
    ASSERT_EQ(*Clean, 0u);
    RoundTrips = Counter.counts().Points;
  }
  ASSERT_GE(RoundTrips, 3u);

  // Every round trip after the HELLO suffers the fault alone. A truncated
  // or corrupted body there is the half-restore hazard.
  for (size_t K = 1; K < RoundTrips; ++K) {
    SCOPED_TRACE("fault on round trip " + std::to_string(K));
    FaultPlan Plan;
    Plan.Seed = 11;
    Plan.Script.assign(K, FaultKind::None);
    Plan.Script.push_back(Kind);
    FaultInjectingTransport Faulty(*S->Link, Plan);
    std::unique_ptr<sgx::Enclave> E = load();
    ASSERT_NE(E, nullptr);
    ElideHost Host(&Faulty, S->Qe.get());
    Host.attach(*E);

    Expected<uint64_t> First = Host.restore(*E);
    ASSERT_TRUE(static_cast<bool>(First)) << First.errorMessage();
    EXPECT_EQ(Faulty.counts().of(Kind), 1u);

    if (isTransparent(Kind)) {
      EXPECT_EQ(*First, 0u);
      expectRestored(*E);
      continue;
    }
    EXPECT_NE(*First, 0u);
    EXPECT_STRNE(restoreStatusName(*First), "unknown")
        << "status " << *First << " is not in the RestoreStatus vocabulary";
    expectSanitized(*E); // All-or-nothing: no partial text write.

    Expected<uint64_t> Second = Host.restore(*E);
    ASSERT_TRUE(static_cast<bool>(Second)) << Second.errorMessage();
    EXPECT_EQ(*Second, 0u);
    expectRestored(*E);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, FaultMatrixTest,
                         ::testing::ValuesIn(TransportFaultKinds),
                         [](const auto &Info) {
                           std::string Name = faultKindName(Info.param);
                           for (char &C : Name)
                             if (C == '-')
                               C = '_';
                           return Name;
                         });

//===----------------------------------------------------------------------===//
// Host-side retry policy rides through transient faults
//===----------------------------------------------------------------------===//

TEST(FaultRecoveryTest, RestorePolicyRetriesThroughTransientFaults) {
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);

  // Two consecutive dropped HELLOs, then a clean network: a 3-attempt
  // policy must come out restored.
  FaultPlan Plan;
  Plan.Script = {FaultKind::Drop, FaultKind::Drop};
  FaultInjectingTransport Faulty(*S->Link, Plan);

  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                       S->Artifacts.SanitizedSig, S->Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Faulty, S->Qe.get());
  Host.attach(**E);

  RestorePolicy Policy;
  Policy.MaxAttempts = 3;
  Policy.RetryDelayMs = 1;
  Expected<uint64_t> Status = Host.restore(**E, Policy);
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, 0u);
  EXPECT_EQ(Faulty.counts().of(FaultKind::Drop), 2u);
  expectRestored(**E);
}

TEST(FaultRecoveryTest, ExhaustedPolicyReportsLastStatus) {
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);
  FaultPlan Plan;
  Plan.Script = {FaultKind::Drop, FaultKind::Drop, FaultKind::Drop};
  FaultInjectingTransport Faulty(*S->Link, Plan);

  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                       S->Artifacts.SanitizedSig, S->Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Faulty, S->Qe.get());
  Host.attach(**E);

  RestorePolicy Policy;
  Policy.MaxAttempts = 3;
  Policy.RetryDelayMs = 1;
  Expected<uint64_t> Status = Host.restore(**E, Policy);
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreServerUnreachable);
  expectSanitized(**E);

  // And even after a fully exhausted budget, a later attempt still works.
  EXPECT_EQ(*Host.restore(**E), 0u);
  expectRestored(**E);
}

TEST(FaultRecoveryTest, RateModeSoakEventuallyRestores) {
  // A lossy-but-not-dead network: every call faults with p = 0.35 from
  // the retryable vocabulary. A generous policy must converge.
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);
  FaultPlan Plan;
  Plan.Seed = 1234;
  Plan.FaultPerMille = 350;
  Plan.RateKinds = {FaultKind::Drop, FaultKind::Delay, FaultKind::Truncate,
                    FaultKind::DisconnectMidFrame};
  FaultInjectingTransport Faulty(*S->Link, Plan, /*DelayMs=*/1);

  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                       S->Artifacts.SanitizedSig, S->Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Faulty, S->Qe.get());
  Host.attach(**E);

  RestorePolicy Policy;
  Policy.MaxAttempts = 32;
  Policy.RetryDelayMs = 0;
  Expected<uint64_t> Status = Host.restore(**E, Policy);
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, 0u) << "final status: " << restoreStatusName(*Status);
  expectRestored(**E);
}

TEST(FaultRecoveryTest, LossyPlanConvergesOnEveryRestore) {
  // bench/ablation_transport's lossy channel: one call in five is
  // dropped, stalled, cut short or loses its answer. Under the bench's
  // 16-attempt policy every restore converges -- those whose HELLO-OK
  // arrives truncated included, since a garbled answer is a transient,
  // not a rejected attestation.
  elide::testing::ChaosSeedScope Seed("lossy-plan", 3);
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);
  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.FaultPerMille = 200;
  Plan.RateKinds = {FaultKind::Drop, FaultKind::Delay, FaultKind::Truncate,
                    FaultKind::DisconnectMidFrame};
  FaultInjectingTransport Faulty(*S->Link, Plan, /*DelayMs=*/1);

  for (int Run = 0; Run < 40; ++Run) {
    Expected<std::unique_ptr<sgx::Enclave>> E =
        sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                         S->Artifacts.SanitizedSig, S->Options.Layout);
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    ElideHost Host(&Faulty, S->Qe.get());
    Host.attach(**E);
    Expected<uint64_t> Status = Host.restore(**E, RestorePolicy{16, 1});
    ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
    EXPECT_EQ(*Status, 0u) << "restore " << Run << ": "
                           << restoreStatusName(*Status);
  }
  EXPECT_GT(Faulty.counts().of(FaultKind::Truncate), 0u);
}

//===----------------------------------------------------------------------===//
// The HELLO verdict: only the server's word on the quote is terminal
//===----------------------------------------------------------------------===//

/// Hands every frame to the server as if it had waited \p QueueDelayMs in
/// the reactor's queue, so an enveloped request whose deadline the queue
/// ate is refused for time.
struct QueuedLink : Transport {
  AuthServer &Server;
  double QueueDelayMs;
  QueuedLink(AuthServer &Server, double QueueDelayMs)
      : Server(Server), QueueDelayMs(QueueDelayMs) {}
  Expected<Bytes> roundTrip(BytesView Request) override {
    FrameContext Ctx;
    Ctx.QueueDelayMs = QueueDelayMs;
    return Server.handle(Request, Ctx);
  }
};

TEST(HelloVerdictTest, HelloRefusedForTimeIsRetryable) {
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);
  QueuedLink Late(*S->Server, /*QueueDelayMs=*/100);
  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                       S->Artifacts.SanitizedSig, S->Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Late, S->Qe.get());
  Host.attach(**E);
  Host.setRequestClass(Criticality::Default, /*DeadlineMs=*/50);

  Expected<uint64_t> First = Host.restore(**E);
  ASSERT_TRUE(static_cast<bool>(First)) << First.errorMessage();
  EXPECT_EQ(*First, RestoreServerUnreachable)
      << restoreStatusName(*First);
  EXPECT_TRUE(isRetryableRestoreStatus(*First));
  EXPECT_EQ(S->Server->stats().DeadlineExpired, 1u);
  EXPECT_EQ(S->Server->stats().HandshakesRejected, 0u);
  expectSanitized(**E);

  // Once the queue drains, the same host restores.
  Late.QueueDelayMs = 0;
  Expected<uint64_t> Second = Host.restore(**E);
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.errorMessage();
  EXPECT_EQ(*Second, 0u);
  expectRestored(**E);
}

TEST(HelloVerdictTest, TruncatedHelloOkIsUnreachable) {
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);
  // Each seed cuts the HELLO-OK at a different length.
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.Script = {FaultKind::Truncate};
    FaultInjectingTransport Faulty(*S->Link, Plan);
    Expected<std::unique_ptr<sgx::Enclave>> E =
        sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                         S->Artifacts.SanitizedSig, S->Options.Layout);
    ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
    ElideHost Host(&Faulty, S->Qe.get());
    Host.attach(**E);
    Expected<uint64_t> Status = Host.restore(**E);
    ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
    EXPECT_EQ(*Status, RestoreServerUnreachable)
        << "seed " << Seed << ": " << restoreStatusName(*Status);
    EXPECT_EQ(Faulty.counts().of(FaultKind::Truncate), 1u);
    expectSanitized(**E);
  }
}

TEST(HelloVerdictTest, WrongMrEnclaveIsStillRejected) {
  // A server pinned to another enclave answers the HELLO with an ERROR:
  // that is a verdict, so the restore loop stops after one attempt.
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);
  ServerProvisioning P = provisioningFor(S->Artifacts, S->Options);
  AuthServerConfig Config;
  Config.AuthorityKey = S->Authority->publicKey();
  Config.ExpectedMrEnclave = P.SanitizedMrEnclave;
  Config.ExpectedMrEnclave[0] ^= 1;
  Config.ExpectedMrSigner = P.MrSigner;
  Config.Meta = S->Artifacts.Meta;
  Config.SecretData = S->Artifacts.SecretData;
  AuthServer Strict(std::move(Config));
  LoopbackTransport Link(Strict);
  FaultInjectingTransport Counted(Link, FaultPlan());

  Expected<std::unique_ptr<sgx::Enclave>> E =
      sgx::loadEnclave(*S->Device, S->Artifacts.SanitizedElf,
                       S->Artifacts.SanitizedSig, S->Options.Layout);
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Counted, S->Qe.get());
  Host.attach(**E);
  Expected<uint64_t> Status = Host.restore(**E, RestorePolicy{5, 0});
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreRejected) << restoreStatusName(*Status);
  EXPECT_EQ(Counted.counts().Points, 1u);
  EXPECT_EQ(Strict.stats().HandshakesRejected, 1u);
  expectSanitized(**E);
}

//===----------------------------------------------------------------------===//
// Short reads/writes on frame boundaries (satellite c)
//===----------------------------------------------------------------------===//

/// Sends all of \p Data over \p Fd one byte per send() call.
void sendByteByByte(int Fd, const uint8_t *Data, size_t Len) {
  for (size_t I = 0; I < Len; ++I) {
    ASSERT_EQ(::send(Fd, Data + I, 1, MSG_NOSIGNAL), 1);
    if (I % 7 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

TEST(FrameSplitTest, ServerReassemblesByteByByteFrames) {
  // A client that dribbles its frame one byte at a time must still be
  // served: the server's reads ride out arbitrarily short chunks.
  auto S = makeScenario();
  ASSERT_NE(S, nullptr);
  Expected<std::unique_ptr<ReactorServer>> Tcp = ReactorServer::start(
      [&S](BytesView Request, const FrameContext &Ctx) {
        return S->Server->handle(Request, Ctx);
      });
  ASSERT_TRUE(static_cast<bool>(Tcp)) << Tcp.errorMessage();

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons((*Tcp)->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr), 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);

  // Frame: garbage payload the server answers with an ERROR frame.
  Bytes Payload = {0x99, 0xaa, 0xbb};
  uint8_t Len[4];
  writeLE32(Len, static_cast<uint32_t>(Payload.size()));
  sendByteByByte(Fd, Len, 4);
  sendByteByByte(Fd, Payload.data(), Payload.size());

  // Read the response (normally); it must be a complete ERROR frame.
  uint8_t RespLenBytes[4];
  size_t Got = 0;
  while (Got < 4) {
    ssize_t N = ::recv(Fd, RespLenBytes + Got, 4 - Got, 0);
    ASSERT_GT(N, 0);
    Got += static_cast<size_t>(N);
  }
  uint32_t RespLen = readLE32(RespLenBytes);
  ASSERT_GT(RespLen, 0u);
  ASSERT_LT(RespLen, 4096u);
  Bytes Resp(RespLen);
  Got = 0;
  while (Got < RespLen) {
    ssize_t N = ::recv(Fd, Resp.data() + Got, RespLen - Got, 0);
    ASSERT_GT(N, 0);
    Got += static_cast<size_t>(N);
  }
  EXPECT_EQ(Resp[0], FrameError);
  ::close(Fd);
  (*Tcp)->stop();
}

TEST(FrameSplitTest, ClientReassemblesByteByByteResponses) {
  // A server that dribbles its response one byte at a time: the client's
  // reads must reassemble the frame instead of failing on a short read.
  int Listen = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Listen, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = 0;
  ASSERT_EQ(::bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listen, 1), 0);
  socklen_t AddrLen = sizeof(Addr);
  ASSERT_EQ(::getsockname(Listen, reinterpret_cast<sockaddr *>(&Addr),
                          &AddrLen),
            0);
  uint16_t Port = ntohs(Addr.sin_port);

  const Bytes Response = {FrameError, 'd', 'r', 'i', 'b', 'b', 'l', 'e'};
  std::thread Server([Listen, &Response] {
    int Client = ::accept(Listen, nullptr, nullptr);
    ASSERT_GE(Client, 0);
    // Drain the request (length-prefixed), then dribble the response.
    uint8_t LenBytes[4];
    size_t Got = 0;
    while (Got < 4) {
      ssize_t N = ::recv(Client, LenBytes + Got, 4 - Got, 0);
      ASSERT_GT(N, 0);
      Got += static_cast<size_t>(N);
    }
    uint32_t ReqLen = readLE32(LenBytes);
    Bytes Request(ReqLen);
    Got = 0;
    while (Got < ReqLen) {
      ssize_t N = ::recv(Client, Request.data() + Got, ReqLen - Got, 0);
      ASSERT_GT(N, 0);
      Got += static_cast<size_t>(N);
    }
    uint8_t RespLen[4];
    writeLE32(RespLen, static_cast<uint32_t>(Response.size()));
    sendByteByByte(Client, RespLen, 4);
    sendByteByByte(Client, Response.data(), Response.size());
    ::close(Client);
  });

  TcpClientTransport Client("127.0.0.1", Port);
  Expected<Bytes> R = Client.roundTrip(Bytes{0x42});
  Server.join();
  ::close(Listen);
  ASSERT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  EXPECT_EQ(*R, Response);
}

TEST(FrameSplitTest, OverloadedSurfacesTypedWithoutRetryOptIn) {
  // A shed answer surfaces at once as the typed Overloaded error carrying
  // the hint, on the one connection the client made -- the failover
  // chain, not this endpoint, decides what to do with the wait.
  Expected<std::unique_ptr<ReactorServer>> Tcp =
      ReactorServer::start([](BytesView) { return overloadedFrame(250); });
  ASSERT_TRUE(static_cast<bool>(Tcp)) << Tcp.errorMessage();

  TcpClientTransport Client("127.0.0.1", (*Tcp)->port());
  Expected<Bytes> R = Client.roundTrip(Bytes{0x42});
  (*Tcp)->stop();
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(transportErrcOf(R), TransportErrc::Overloaded);
  std::optional<uint32_t> Hint = retryAfterHintOf(R.errorMessage());
  ASSERT_TRUE(Hint.has_value());
  EXPECT_EQ(*Hint, 250u);
  EXPECT_EQ((*Tcp)->stats().ConnectionsAccepted, 1u);
}

TEST(FrameSplitTest, TruncatedLengthPrefixTimesOutTyped) {
  // A peer that sends half a length prefix and stalls: the client's read
  // deadline must fire with a typed timeout, not hang.
  int Listen = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Listen, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = 0;
  ASSERT_EQ(::bind(Listen, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listen, 1), 0);
  socklen_t AddrLen = sizeof(Addr);
  ASSERT_EQ(::getsockname(Listen, reinterpret_cast<sockaddr *>(&Addr),
                          &AddrLen),
            0);

  std::atomic<bool> Done{false};
  std::thread Server([Listen, &Done] {
    int Client = ::accept(Listen, nullptr, nullptr);
    if (Client < 0)
      return;
    uint8_t Half[2] = {0x08, 0x00}; // Two bytes of a four-byte prefix.
    (void)::send(Client, Half, 2, MSG_NOSIGNAL);
    while (!Done.load()) // Stall without closing.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ::close(Client);
  });

  TcpClientConfig Config;
  Config.IoTimeoutMs = 150;
  TcpClientTransport Client("127.0.0.1", ntohs(Addr.sin_port), Config);
  Expected<Bytes> R = Client.roundTrip(Bytes{0x42});
  Done.store(true);
  Server.join();
  ::close(Listen);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(transportErrcOf(R), TransportErrc::ReadTimeout);
}

} // namespace
