//===- tests/TransportStressTest.cpp - Concurrent restore stress ------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Many clients restoring against one authentication server at once: the
/// paper's deployment story is one developer server provisioning a fleet
/// of user machines. Each test thread models one machine (its own SGX
/// device, quoting enclave, and TCP connection); the server must keep
/// every concurrent session separate and never cross-contaminate key
/// material or secret payloads.
///
//===----------------------------------------------------------------------===//

#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "server/AuthServer.h"
#include "server/Reactor.h"
#include "server/Transport.h"
#include "sgx/EnclaveLoader.h"
#include "tests/framework/ChaosSeed.h"
#include "tests/framework/TestNet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

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

/// Shared read-only provisioning: one build, one server, many machines.
struct Fleet {
  BuildArtifacts Artifacts;
  BuildOptions Options;
  std::unique_ptr<AuthServer> Server;

  /// The authority seed every machine's QE certifies under (the same seed
  /// yields the same key pair, which the server pins).
  static constexpr uint64_t AuthoritySeed = 2002;

  static std::unique_ptr<Fleet> make() {
    auto F = std::make_unique<Fleet>();
    Drbg Rng(42);
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

    sgx::AttestationAuthority Authority(AuthoritySeed);
    AuthServerConfig Config;
    Config.AuthorityKey = Authority.publicKey();
    ServerProvisioning P = provisioningFor(F->Artifacts, F->Options);
    Config.ExpectedMrEnclave = P.SanitizedMrEnclave;
    Config.ExpectedMrSigner = P.MrSigner;
    Config.Meta = F->Artifacts.Meta;
    Config.SecretData = F->Artifacts.SecretData;
    F->Server = std::make_unique<AuthServer>(std::move(Config));
    return F;
  }
};

/// One user machine: runs \p Rounds full launch+restore cycles over \p
/// Client under \p Policy, each with a fresh enclave and host (so every
/// round pays the whole handshake, never the sealing fast path).
void runMachine(const Fleet &F, Transport &Client, uint64_t MachineId,
                int Rounds, std::atomic<size_t> &Failures,
                const RestorePolicy &Policy = RestorePolicy()) {
  // Distinct device seed per machine; the same authority seed everywhere
  // so the fleet's quotes verify against the server's pinned key.
  sgx::SgxDevice Device(10000 + MachineId);
  sgx::AttestationAuthority Authority(Fleet::AuthoritySeed);
  sgx::QuotingEnclave Qe(Device, Authority);

  for (int Round = 0; Round < Rounds; ++Round) {
    Expected<std::unique_ptr<sgx::Enclave>> E =
        sgx::loadEnclave(Device, F.Artifacts.SanitizedElf,
                         F.Artifacts.SanitizedSig, F.Options.Layout);
    if (!E) {
      ADD_FAILURE() << "machine " << MachineId << ": " << E.errorMessage();
      Failures.fetch_add(1);
      return;
    }
    ElideHost Host(&Client, &Qe);
    Host.attach(**E);
    Expected<uint64_t> Status = Host.restore(**E, Policy);
    if (!Status || *Status != 0) {
      ADD_FAILURE() << "machine " << MachineId << " round " << Round
                    << ": restore failed: "
                    << (Status ? restoreStatusName(*Status)
                               : Status.errorMessage().c_str());
      Failures.fetch_add(1);
      continue;
    }

    // A machine-unique input: a cross-contaminated session (wrong keys or
    // another client's payload spliced in) would show up as a GCM failure
    // above or a wrong transform output here.
    uint64_t Input = MachineId * 1000 + static_cast<uint64_t>(Round);
    Bytes In(8);
    writeLE64(In.data(), Input);
    Expected<sgx::EcallResult> R = (*E)->ecall("run_secret", In, 8);
    if (!R || !R->ok() ||
        readLE64(R->Output.data()) != referenceTransform(Input)) {
      ADD_FAILURE() << "machine " << MachineId << " round " << Round
                    << ": restored code produced wrong output";
      Failures.fetch_add(1);
    }
  }
}

TEST(TransportStressTest, SixteenMachinesRestoreConcurrentlyOverTcp) {
  elide::testing::ChaosSeedScope Seed("transport-stress", 100);
  constexpr int Machines = 16;
  constexpr int Rounds = 2;

  auto F = Fleet::make();
  ASSERT_NE(F, nullptr);
  ReactorConfig ServerConfig;
  ServerConfig.WorkerThreads = 8;
  Expected<std::unique_ptr<ReactorServer>> Tcp = ReactorServer::start(
      [&F](BytesView Request, const FrameContext &Ctx) {
        return F->Server->handle(Request, Ctx);
      },
      ServerConfig);
  ASSERT_TRUE(static_cast<bool>(Tcp)) << Tcp.errorMessage();

  std::atomic<size_t> Failures{0};
  std::vector<std::unique_ptr<TcpClientTransport>> Clients;
  std::vector<std::thread> Threads;
  for (int I = 0; I < Machines; ++I)
    Clients.push_back(
        std::make_unique<TcpClientTransport>("127.0.0.1", (*Tcp)->port()));
  for (int I = 0; I < Machines; ++I) {
    // The restore loop retries; each machine jitters its waits apart.
    RestorePolicy Policy{3};
    Policy.JitterSeed = Seed.derived(static_cast<uint64_t>(I));
    Threads.emplace_back([&, I, Policy] {
      runMachine(*F, *Clients[I], static_cast<uint64_t>(I), Rounds, Failures,
                 Policy);
    });
  }
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0u);

  // Every round was a full exchange: handshake + meta + data, no drops.
  constexpr size_t Total = Machines * Rounds;
  AuthServerStats Stats = F->Server->stats();
  EXPECT_EQ(Stats.HandshakesCompleted, Total);
  EXPECT_EQ(Stats.HandshakesRejected, 0u);
  EXPECT_EQ(Stats.MetaRequests, Total);
  EXPECT_EQ(Stats.DataRequests, Total);
  EXPECT_EQ(Stats.LiveSessions, Total);

  // The reactor counts a frame after its last byte left, which can be
  // after the client read it: stop (joining the reactor) before reading.
  (*Tcp)->stop();
  ReactorStats Net = (*Tcp)->stats();
  EXPECT_GE(Net.ConnectionsAccepted, Total);
  EXPECT_GE(Net.FramesServed, Total * 3);
  EXPECT_EQ(Net.ReadTimeouts, 0u);
  EXPECT_EQ(Net.WriteTimeouts, 0u);
}

TEST(TransportStressTest, ConcurrentLoopbackSessionsStaySeparate) {
  // The same fleet without sockets: isolates the AuthServer's session
  // bookkeeping from transport effects.
  constexpr int Machines = 8;
  constexpr int Rounds = 2;
  auto F = Fleet::make();
  ASSERT_NE(F, nullptr);
  LoopbackTransport Link(*F->Server);

  std::atomic<size_t> Failures{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < Machines; ++I)
    Threads.emplace_back([&, I] {
      runMachine(*F, Link, static_cast<uint64_t>(I), Rounds, Failures);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(F->Server->stats().HandshakesCompleted,
            static_cast<size_t>(Machines * Rounds));
}

TEST(TransportStressTest, StopDrainsWithClientsMidSession) {
  // stop() while clients are connected: in-flight exchanges finish,
  // nothing hangs, and the server refuses new work afterwards.
  auto F = Fleet::make();
  ASSERT_NE(F, nullptr);
  Expected<std::unique_ptr<ReactorServer>> Tcp = ReactorServer::start(
      [&F](BytesView Request, const FrameContext &Ctx) {
        return F->Server->handle(Request, Ctx);
      });
  ASSERT_TRUE(static_cast<bool>(Tcp)) << Tcp.errorMessage();
  uint16_t Port = (*Tcp)->port();

  std::atomic<bool> Quit{false};
  std::vector<std::thread> Threads;
  for (int I = 0; I < 4; ++I)
    Threads.emplace_back([&] {
      TcpClientTransport Client("127.0.0.1", Port);
      while (!Quit.load())
        (void)Client.roundTrip(Bytes{0x99}); // Garbage; server answers ERROR.
    });

  // Let the hammering run briefly, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  (*Tcp)->stop();
  Quit.store(true);
  for (std::thread &T : Threads)
    T.join();

  // The listener is gone: fresh connections now fail with a typed error.
  // Park the freed port ourselves first (bound, not listening) so a
  // parallel test adopting the same ephemeral port cannot turn this
  // refusal into an accidental success. If the port was already taken,
  // the refusal claim is unprovable -- skip it rather than flake.
  int Parked = elide::testing::tryBindPort(Port);
  if (Parked < 0)
    GTEST_SKIP() << "freed port already re-bound by another process";
  TcpClientTransport After("127.0.0.1", Port);
  Expected<Bytes> R = After.roundTrip(Bytes{1});
  ::close(Parked);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(transportErrcOf(R), TransportErrc::None);
}

} // namespace
