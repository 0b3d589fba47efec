//===- tests/ReactorTest.cpp - Reactor transport core tests ----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `ctest -L server` suite: the event-driven reactor under adversarial
/// clients (slow-loris dribble, stalled readers, connection floods,
/// mid-drain shutdowns), the mutex-striped session store under
/// contention, and a seeded fault-injection soak that doubles as the TSan
/// exercise for the whole transport core.
///
/// Reactor tests drive raw sockets rather than TcpClientTransport where
/// the *misbehavior* is the point -- a well-behaved client cannot
/// dribble half a frame.
///
//===----------------------------------------------------------------------===//

#include "server/AuthServer.h"
#include "server/FaultInjection.h"
#include "server/Reactor.h"
#include "server/SessionStore.h"
#include "server/Transport.h"
#include "sgx/Attestation.h"
#include "sgx/SgxDevice.h"
#include "tests/framework/ChaosSeed.h"
#include "tests/framework/TestNet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <cstring>
#include <netinet/in.h>
#include <optional>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace elide;

namespace {

//===----------------------------------------------------------------------===//
// Raw-socket helpers
//===----------------------------------------------------------------------===//

int rawConnect(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendAll(int Fd, const uint8_t *Data, size_t Len) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::send(Fd, Data + Off, Len - Off, MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool sendFrame(int Fd, BytesView Frame) {
  uint8_t Prefix[4];
  uint32_t Len = static_cast<uint32_t>(Frame.size());
  Prefix[0] = static_cast<uint8_t>(Len);
  Prefix[1] = static_cast<uint8_t>(Len >> 8);
  Prefix[2] = static_cast<uint8_t>(Len >> 16);
  Prefix[3] = static_cast<uint8_t>(Len >> 24);
  return sendAll(Fd, Prefix, 4) && sendAll(Fd, Frame.data(), Frame.size());
}

/// Reads exactly \p Len bytes; false on EOF/error.
bool recvExact(int Fd, uint8_t *Out, size_t Len) {
  size_t Off = 0;
  while (Off < Len) {
    ssize_t N = ::recv(Fd, Out + Off, Len - Off, 0);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool recvFrame(int Fd, Bytes &Out) {
  uint8_t Prefix[4];
  if (!recvExact(Fd, Prefix, 4))
    return false;
  uint32_t Len = static_cast<uint32_t>(Prefix[0]) |
                 (static_cast<uint32_t>(Prefix[1]) << 8) |
                 (static_cast<uint32_t>(Prefix[2]) << 16) |
                 (static_cast<uint32_t>(Prefix[3]) << 24);
  Out.resize(Len);
  return Len == 0 || recvExact(Fd, Out.data(), Len);
}

/// Drains the socket to EOF; true iff EOF (not ECONNRESET) ended it.
bool drainToEof(int Fd, Bytes &Out) {
  uint8_t Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N == 0)
      return true;
    if (N < 0)
      return false;
    Out.insert(Out.end(), Buf, Buf + N);
  }
}

Bytes echoHandler(BytesView Req) { return Bytes(Req.begin(), Req.end()); }

//===----------------------------------------------------------------------===//
// Reactor behavior
//===----------------------------------------------------------------------===//

TEST(ReactorTest, ServesPipelinedFramesOnOneConnection) {
  ReactorConfig Config;
  Config.WorkerThreads = 2;
  Expected<std::unique_ptr<ReactorServer>> S =
      ReactorServer::start(echoHandler, Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Fd = rawConnect((*S)->port());
  ASSERT_GE(Fd, 0);
  for (int I = 0; I < 3; ++I) {
    Bytes Req = {0x10, static_cast<uint8_t>(I)};
    ASSERT_TRUE(sendFrame(Fd, Req));
    Bytes Resp;
    ASSERT_TRUE(recvFrame(Fd, Resp));
    EXPECT_EQ(Resp, Req);
  }
  ::close(Fd);
  (*S)->stop();
  ReactorStats St = (*S)->stats();
  EXPECT_EQ(St.ConnectionsAccepted, 1u);
  EXPECT_EQ(St.FramesServed, 3u);
  // Handler completions are delivered to the reactor via the wakeup
  // pipe; a served frame proves the pipe fired (not timeout polling).
  EXPECT_GE(St.Wakeups, 1u);
}

TEST(ReactorTest, SlowLorisDanglingFrameCountsReadTimeout) {
  ReactorConfig Config;
  Config.WorkerThreads = 1;
  Config.ReadTimeoutMs = 100;
  Expected<std::unique_ptr<ReactorServer>> S =
      ReactorServer::start(echoHandler, Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Fd = rawConnect((*S)->port());
  ASSERT_GE(Fd, 0);
  // Two bytes of the four-byte length prefix, then silence.
  uint8_t Dribble[2] = {0x08, 0x00};
  ASSERT_TRUE(sendAll(Fd, Dribble, 2));
  Bytes Rest;
  (void)drainToEof(Fd, Rest); // Server reaps the connection.
  ::close(Fd);
  (*S)->stop();
  EXPECT_EQ((*S)->stats().ReadTimeouts, 1u);
}

TEST(ReactorTest, IdleConnectionReapedQuietly) {
  ReactorConfig Config;
  Config.WorkerThreads = 1;
  Config.ReadTimeoutMs = 100;
  Expected<std::unique_ptr<ReactorServer>> S =
      ReactorServer::start(echoHandler, Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Fd = rawConnect((*S)->port());
  ASSERT_GE(Fd, 0);
  Bytes Rest;
  EXPECT_TRUE(drainToEof(Fd, Rest)); // Clean close, no RST.
  EXPECT_TRUE(Rest.empty());
  ::close(Fd);
  (*S)->stop();
  // An idle keep-alive that never started a frame is not a timeout.
  EXPECT_EQ((*S)->stats().ReadTimeouts, 0u);
}

TEST(ReactorTest, StalledReaderHitsWriteBackpressureDeadline) {
  ReactorConfig Config;
  Config.WorkerThreads = 1;
  Config.WriteTimeoutMs = 200;
  Config.ReadTimeoutMs = 10000;
  // Response far larger than loopback socket buffering: the reactor must
  // park on EvWrite and eventually give up on the stalled reader.
  Bytes Big(32u << 20, 0xab);
  Expected<std::unique_ptr<ReactorServer>> S = ReactorServer::start(
      [&Big](BytesView) { return Big; }, Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Fd = rawConnect((*S)->port());
  ASSERT_GE(Fd, 0);
  Bytes Req = {0x01};
  auto Sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(sendFrame(Fd, Req));
  // Never read. The server's write deadline must fire. The wait is long
  // because a sanitizer build can take seconds to build the response
  // before the deadline is even armed.
  auto GiveUp = Sent + std::chrono::seconds(10);
  while ((*S)->stats().WriteTimeouts == 0 &&
         std::chrono::steady_clock::now() < GiveUp)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto Waited = std::chrono::steady_clock::now() - Sent;
  EXPECT_EQ((*S)->stats().WriteTimeouts, 1u);
  EXPECT_GE(Waited, std::chrono::milliseconds(Config.WriteTimeoutMs));
  ::close(Fd);
  (*S)->stop();
}

TEST(ReactorTest, PollFallbackServes) {
  ReactorConfig Config;
  Config.WorkerThreads = 1;
  Config.ForcePollBackend = true;
  Expected<std::unique_ptr<ReactorServer>> S =
      ReactorServer::start(echoHandler, Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Fd = rawConnect((*S)->port());
  ASSERT_GE(Fd, 0);
  Bytes Req = {0x5a, 0xa5};
  ASSERT_TRUE(sendFrame(Fd, Req));
  Bytes Resp;
  ASSERT_TRUE(recvFrame(Fd, Resp));
  EXPECT_EQ(Resp, Req);
  ::close(Fd);
  (*S)->stop();
  ReactorStats St = (*S)->stats();
  EXPECT_FALSE(St.UsedEpoll);
  EXPECT_EQ(St.FramesServed, 1u);
}

TEST(ReactorTest, ConnectionCapShedsWithRetryHint) {
  ReactorConfig Config;
  Config.WorkerThreads = 1;
  Config.MaxConnections = 1;
  Config.OverloadRetryAfterMs = 321;
  Expected<std::unique_ptr<ReactorServer>> S =
      ReactorServer::start(echoHandler, Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Kept = rawConnect((*S)->port());
  ASSERT_GE(Kept, 0);
  // Wait until the first connection is accepted and counts against the
  // cap, so the second is deterministically over it.
  for (int I = 0; I < 200 && (*S)->stats().ConnectionsAccepted < 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GE((*S)->stats().ConnectionsAccepted, 1u);

  int Shed = rawConnect((*S)->port());
  ASSERT_GE(Shed, 0);
  Bytes Frame;
  ASSERT_TRUE(recvFrame(Shed, Frame));
  std::optional<uint32_t> Hint = overloadedRetryAfterMs(Frame);
  ASSERT_TRUE(Hint.has_value());
  EXPECT_EQ(*Hint, 321u);
  Bytes Rest;
  EXPECT_TRUE(drainToEof(Shed, Rest)); // Half-close, not RST.
  ::close(Shed);
  ::close(Kept);
  (*S)->stop();
  EXPECT_GE((*S)->stats().ConnectionsShed, 1u);
}

// The shutdown-ordering regression guard: a reactor stopped mid-drain
// must never silently lose an accepted-but-unserved connection. Every
// such connection gets an explicit OVERLOADED frame (with the drain
// retry hint) or at minimum a clean EOF -- never a bare RST.
TEST(ReactorTest, DrainNotifiesAcceptedUnservedConnections) {
  constexpr size_t N = 8;
  ReactorConfig Config;
  Config.WorkerThreads = 2;
  Expected<std::unique_ptr<ReactorServer>> S =
      ReactorServer::start(echoHandler, Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Conns[N];
  for (size_t I = 0; I < N; ++I) {
    Conns[I] = rawConnect((*S)->port());
    ASSERT_GE(Conns[I], 0);
  }
  // All N must be *accepted* (not parked in the listen backlog) before
  // the drain, or the test would measure the backlog instead.
  for (int I = 0; I < 400 && (*S)->stats().ConnectionsAccepted < N; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_EQ((*S)->stats().ConnectionsAccepted, N);

  (*S)->stop();

  size_t Notified = 0;
  for (size_t I = 0; I < N; ++I) {
    Bytes All;
    EXPECT_TRUE(drainToEof(Conns[I], All)) << "connection " << I
                                           << " was reset, not drained";
    if (!All.empty()) {
      // Length prefix + OVERLOADED frame carrying the drain hint.
      ASSERT_GE(All.size(), 4 + OverloadedFrameSize);
      Bytes Frame(All.begin() + 4, All.end());
      std::optional<uint32_t> Hint = overloadedRetryAfterMs(Frame);
      ASSERT_TRUE(Hint.has_value());
      EXPECT_EQ(*Hint, 50u); // The fixed drain hint.
      ++Notified;
    }
    ::close(Conns[I]);
  }
  EXPECT_EQ(Notified, N);
  EXPECT_EQ((*S)->stats().DrainNotified, N);
}

TEST(ReactorTest, MidDrainInFlightExchangeCompletes) {
  ReactorConfig Config;
  Config.WorkerThreads = 1;
  Expected<std::unique_ptr<ReactorServer>> S = ReactorServer::start(
      [](BytesView Req) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return Bytes(Req.begin(), Req.end());
      },
      Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Fd = rawConnect((*S)->port());
  ASSERT_GE(Fd, 0);
  Bytes Req = {0x77, 0x88};
  ASSERT_TRUE(sendFrame(Fd, Req));
  // Stop lands while the handler is still sleeping on the request.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  (*S)->stop();

  Bytes Resp;
  ASSERT_TRUE(recvFrame(Fd, Resp)) << "in-flight exchange was dropped";
  EXPECT_EQ(Resp, Req);
  ::close(Fd);
  EXPECT_EQ((*S)->stats().FramesServed, 1u);
}

TEST(ReactorTest, OversizedFrameClosesWithoutResponse) {
  ReactorConfig Config;
  Config.WorkerThreads = 1;
  Expected<std::unique_ptr<ReactorServer>> S =
      ReactorServer::start(echoHandler, Config);
  ASSERT_TRUE(static_cast<bool>(S)) << S.errorMessage();

  int Fd = rawConnect((*S)->port());
  ASSERT_GE(Fd, 0);
  uint8_t Prefix[4] = {0xff, 0xff, 0xff, 0x7f};
  ASSERT_TRUE(sendAll(Fd, Prefix, 4));
  Bytes Rest;
  (void)drainToEof(Fd, Rest);
  EXPECT_TRUE(Rest.empty());
  ::close(Fd);
  (*S)->stop();
  EXPECT_EQ((*S)->stats().FramesServed, 0u);
}

//===----------------------------------------------------------------------===//
// Sharded session store
//===----------------------------------------------------------------------===//

TEST(SessionStoreTest, ShardStripingInvariantHolds) {
  SessionStoreConfig Config;
  Config.Shards = 8;
  Config.MaxSessions = 1024;
  SessionStore Store(Config);
  ASSERT_EQ(Store.shardCount(), 8u);

  SessionKeys Keys{};
  std::vector<uint64_t> Sids;
  for (int I = 0; I < 200; ++I)
    Sids.push_back(Store.mint(Keys));
  EXPECT_EQ(Store.size(), 200u);

  std::vector<size_t> PerShard(8, 0);
  for (uint64_t Sid : Sids) {
    EXPECT_NE(Sid, 0u);
    EXPECT_EQ(Store.shardOf(Sid), Sid & 7u); // Low bits name the shard.
    ++PerShard[Store.shardOf(Sid)];
  }
  // Minting round-robins the shards: no stripe is starved.
  for (size_t Count : PerShard)
    EXPECT_GT(Count, 0u);
  // Uniqueness across the whole store.
  std::sort(Sids.begin(), Sids.end());
  EXPECT_EQ(std::adjacent_find(Sids.begin(), Sids.end()), Sids.end());
}

TEST(SessionStoreTest, ShardCountRoundsToPowerOfTwo) {
  SessionStoreConfig Config;
  Config.Shards = 5;
  SessionStore Store(Config);
  EXPECT_EQ(Store.shardCount(), 8u);
}

TEST(SessionStoreTest, StripedStoreSurvivesContention) {
  SessionStoreConfig Config;
  Config.Shards = 16;
  Config.MaxSessions = 1 << 14; // Roomy: this test is about locking.
  SessionStore Store(Config);

  constexpr int Threads = 8;
  constexpr int PerThread = 200;
  std::atomic<size_t> Erased{0};
  std::atomic<size_t> TouchOk{0};
  std::vector<std::thread> Crew;
  for (int T = 0; T < Threads; ++T)
    Crew.emplace_back([&, T] {
      SessionKeys Keys{};
      Keys.ClientToServer[0] = static_cast<uint8_t>(T);
      std::vector<uint64_t> Mine;
      for (int I = 0; I < PerThread; ++I) {
        uint64_t Sid = Store.mint(Keys);
        Mine.push_back(Sid);
        SessionKeys Out{};
        if (Store.touch(Sid, 0, Out) == SessionTouch::Ok) {
          TouchOk.fetch_add(1);
          // Striping kept the stripes separate: our keys, not a
          // neighbor's, came back.
          if (Out.ClientToServer[0] != static_cast<uint8_t>(T))
            ADD_FAILURE() << "cross-session key leak under contention";
        }
        if (I % 2 == 0 && Store.erase(Sid)) {
          Erased.fetch_add(1);
          Mine.pop_back();
        }
      }
    });
  for (std::thread &T : Crew)
    T.join();

  EXPECT_EQ(TouchOk.load(), static_cast<size_t>(Threads * PerThread));
  EXPECT_EQ(Store.size() + Erased.load(),
            static_cast<size_t>(Threads * PerThread));
  EXPECT_EQ(Store.evictions(), 0u);
}

//===----------------------------------------------------------------------===//
// Seeded fault soak (the TSan exercise for the whole transport core)
//===----------------------------------------------------------------------===//

/// Forges quotes the way ServerTest does: a scratch enclave on a
/// simulated device, measured at build time, quoted by the device's QE.
struct QuoteRig {
  sgx::SgxDevice Device{1};
  sgx::AttestationAuthority Authority{2};
  sgx::QuotingEnclave Qe{Device, Authority};
  std::unique_ptr<sgx::Enclave> Enclave;
  sgx::Measurement Mr{};
  std::mutex Mutex;

  QuoteRig() {
    sgx::SgxDevice::Builder B(Device, 0x4000);
    EXPECT_FALSE(static_cast<bool>(
        B.addPage(0x1000, sgx::PermRead, Bytes(8, 0x33))));
    Drbg VendorRng(9);
    Ed25519Seed Seed{};
    VendorRng.fill(MutableBytesView(Seed.data(), 32));
    sgx::SigStruct Sig = sgx::SigStruct::sign(
        ed25519KeyPairFromSeed(Seed), B.currentMeasurement(), 0);
    Expected<std::unique_ptr<sgx::Enclave>> E = B.init(Sig);
    EXPECT_TRUE(static_cast<bool>(E));
    Enclave = std::move(*E);
    Mr = Enclave->mrEnclave();
  }

  AuthServer makeServer(size_t Shards = 16) {
    SecretMeta Meta;
    Bytes Data = bytesOfString("SECRET-TEXT-SECTION-BYTES");
    Meta.DataLength = Data.size();
    Meta.RestoreOffset = 0x40;
    AuthServerConfig Config;
    Config.AuthorityKey = Authority.publicKey();
    Config.ExpectedMrEnclave = Mr;
    Config.Meta = Meta;
    Config.SecretData = Data;
    Config.SessionShards = Shards;
    return AuthServer(std::move(Config));
  }

  /// The HELLO the shipped restorer sends: a quote whose report data
  /// leads with the channel key \p ClientPub.
  Expected<Bytes> helloFor(const X25519Key &ClientPub) {
    std::lock_guard<std::mutex> Lock(Mutex);
    sgx::ReportData Rd{};
    std::memcpy(Rd.data(), ClientPub.data(), 32);
    sgx::Report R = Enclave->createReport(Qe.targetInfo(), Rd);
    ELIDE_TRY(sgx::Quote Q, Qe.quoteReport(R));
    Bytes Hello{FrameHello};
    appendBytes(Hello, Q.serialize());
    return Hello;
  }
};

TEST(ReactorSoakTest, SeededFaultsOverRealSocketsStayCoherent) {
  elide::testing::ChaosSeedScope Seed("reactor-soak", 0xdeadbeef);
  QuoteRig Rig;
  AuthServer Server = Rig.makeServer(/*Shards=*/8);
  ReactorConfig RC;
  RC.WorkerThreads = 2;
  Expected<std::unique_ptr<ReactorServer>> Tcp = ReactorServer::start(
      [&Server](BytesView Request, const FrameContext &Ctx) {
        return Server.handle(Request, Ctx);
      },
      RC);
  ASSERT_TRUE(static_cast<bool>(Tcp)) << Tcp.errorMessage();

  TcpClientTransport Wire("127.0.0.1", (*Tcp)->port());
  FaultPlan Plan;
  Plan.Seed = Seed.value();
  Plan.FaultPerMille = 150;
  FaultInjectingTransport Link(Wire, Plan);

  auto hello = [&](const X25519Key &Pub) -> Expected<HelloOk> {
    ELIDE_TRY(Bytes Hello, Rig.helloFor(Pub));
    ELIDE_TRY(Bytes Resp, Link.roundTrip(Hello));
    return parseHelloOkFrame(Resp);
  };

  constexpr int Threads = 4;
  constexpr int PerThread = 20;
  std::atomic<size_t> Restored{0};
  std::vector<std::thread> Crew;
  for (int T = 0; T < Threads; ++T)
    Crew.emplace_back([&, T] {
      Drbg Rng(Seed.derived(500 + T));
      for (int I = 0; I < PerThread; ++I) {
        X25519Key Priv;
        Rng.fill(MutableBytesView(Priv.data(), 32));
        X25519Key Pub = x25519PublicKey(Priv);
        Expected<HelloOk> Ok = hello(Pub);
        if (!Ok)
          Ok = hello(Pub); // One retry after a fault.
        if (!Ok)
          continue;
        SessionKeys Keys = deriveSessionKeys(x25519(Priv, Ok->ServerPub),
                                             Pub, Ok->ServerPub);
        for (int A = 0; A < 3; ++A) {
          Expected<Bytes> Req = sealSessionRecord(
              Ok->Sid, Keys.ClientToServer, Bytes{RequestMeta}, Rng);
          if (!Req)
            break;
          Expected<Bytes> Resp = Link.roundTrip(*Req);
          if (!Resp)
            continue;
          Expected<Bytes> Meta = openRecord(Keys.ServerToClient, *Resp);
          if (Meta && !Meta->empty()) {
            Restored.fetch_add(1);
            break;
          }
        }
      }
    });
  for (std::thread &T : Crew)
    T.join();

  // Faults really flowed, and most restores still made it through.
  EXPECT_GT(Link.counts().injected(), 0u);
  EXPECT_GT(Restored.load(), static_cast<size_t>(Threads * PerThread / 2));

  // The server is still coherent after the storm: a clean exchange works.
  TcpClientTransport Clean("127.0.0.1", (*Tcp)->port());
  Expected<Bytes> R = Clean.roundTrip(Bytes{0x99});
  ASSERT_TRUE(static_cast<bool>(R)) << R.errorMessage();
  EXPECT_EQ((*R)[0], FrameError);
  (*Tcp)->stop();
}

} // namespace
