//===- tests/ServerTest.cpp - Protocol and AuthServer unit tests --------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/AuthServer.h"
#include "server/FaultInjection.h"
#include "server/Reactor.h"
#include "server/Transport.h"
#include "sgx/Attestation.h"
#include "tests/framework/RestoreRig.h"
#include "tests/framework/TestNet.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

using namespace elide;

namespace {

//===----------------------------------------------------------------------===//
// Record layer
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, SessionKeysAreDirectional) {
  Drbg Rng(1);
  X25519Key A{}, B{};
  Rng.fill(MutableBytesView(A.data(), 32));
  Rng.fill(MutableBytesView(B.data(), 32));
  X25519Key APub = x25519PublicKey(A);
  X25519Key BPub = x25519PublicKey(B);
  X25519Key Shared = x25519(A, BPub);
  X25519Key Shared2 = x25519(B, APub);
  ASSERT_EQ(Shared, Shared2);

  SessionKeys Keys = deriveSessionKeys(Shared, APub, BPub);
  EXPECT_NE(Keys.ClientToServer, Keys.ServerToClient);

  // Keys bind the transcript: swapping the public keys changes them.
  SessionKeys Swapped = deriveSessionKeys(Shared, BPub, APub);
  EXPECT_NE(Keys.ClientToServer, Swapped.ClientToServer);
}

TEST(ProtocolTest, RecordRoundTrip) {
  Aes128Key Key{};
  Key[0] = 1;
  Drbg Rng(2);
  Bytes Plain = bytesOfString("REQUEST_META");
  Expected<Bytes> Frame = sealRecord(Key, Plain, Rng);
  ASSERT_TRUE(static_cast<bool>(Frame));
  EXPECT_EQ((*Frame)[0], FrameRecord);
  Expected<Bytes> Back = openRecord(Key, *Frame);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Plain);
}

TEST(ProtocolTest, RecordRejectsTamperAndWrongKey) {
  Aes128Key Key{}, Other{};
  Other[5] = 9;
  Drbg Rng(3);
  Expected<Bytes> Frame = sealRecord(Key, bytesOfString("x"), Rng);
  ASSERT_TRUE(static_cast<bool>(Frame));

  Bytes Bad = *Frame;
  Bad.back() ^= 1;
  EXPECT_FALSE(static_cast<bool>(openRecord(Key, Bad)));
  EXPECT_FALSE(static_cast<bool>(openRecord(Other, *Frame)));
  EXPECT_FALSE(static_cast<bool>(openRecord(Key, Bytes(5, 0))));
}

TEST(ProtocolTest, ErrorFramesSurfaceAsErrors) {
  Aes128Key Key{};
  Bytes Frame = errorFrame("nope");
  Expected<Bytes> R = openRecord(Key, Frame);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_NE(R.errorMessage().find("nope"), std::string::npos);
}

TEST(ProtocolTest, SessionRecordRoundTripAndPeek) {
  Aes128Key Key{};
  Key[3] = 7;
  Drbg Rng(5);
  Bytes Plain = Bytes{RequestMeta};
  Expected<Bytes> Frame = sealSessionRecord(0x1122334455667788ULL, Key,
                                            Plain, Rng);
  ASSERT_TRUE(static_cast<bool>(Frame));
  Expected<uint64_t> Sid = peekSessionId(*Frame);
  ASSERT_TRUE(static_cast<bool>(Sid));
  EXPECT_EQ(*Sid, 0x1122334455667788ULL);
  Expected<Bytes> Back = openSessionRecord(Key, *Frame);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.errorMessage();
  EXPECT_EQ(*Back, Plain);
}

TEST(ProtocolTest, SessionIdIsAuthenticated) {
  // The id is a selector, not a capability -- but it is still bound into
  // the GCM AAD, so redirecting a record to another session id fails.
  Aes128Key Key{};
  Drbg Rng(6);
  Expected<Bytes> Frame = sealSessionRecord(42, Key, Bytes{RequestData}, Rng);
  ASSERT_TRUE(static_cast<bool>(Frame));
  Bytes Redirected = *Frame;
  Redirected[1] ^= 0x01; // Session id 42 -> 43.
  EXPECT_FALSE(static_cast<bool>(openSessionRecord(Key, Redirected)));
}

//===----------------------------------------------------------------------===//
// AuthServer protocol behavior (driven without an enclave: we forge the
// client side directly to probe edge cases)
//===----------------------------------------------------------------------===//

struct ServerFixture {
  sgx::SgxDevice Device{1};
  sgx::AttestationAuthority Authority{2};
  sgx::QuotingEnclave Qe{Device, Authority};
  SecretMeta Meta;
  Bytes Data = bytesOfString("SECRET-TEXT-SECTION-BYTES");
  sgx::Measurement GoodMr{};

  AuthServer makeServer() {
    Meta.DataLength = Data.size();
    Meta.RestoreOffset = 0x40;
    AuthServerConfig Config;
    Config.AuthorityKey = Authority.publicKey();
    GoodMr.fill(0x11);
    Config.ExpectedMrEnclave = GoodMr;
    Config.Meta = Meta;
    Config.SecretData = Data;
    return AuthServer(std::move(Config));
  }

  /// Produces a valid HELLO for a given measurement, plus the client's
  /// ephemeral keys.
  Bytes makeHello(const sgx::Measurement &Mr, X25519Key &PrivOut) {
    Drbg Rng(7);
    Rng.fill(MutableBytesView(PrivOut.data(), 32));
    X25519Key Pub = x25519PublicKey(PrivOut);

    // Forge the report path the way a real enclave on this device would:
    // derive the QE report key via an enclave stand-in. We construct the
    // report by hand using an enclave built with measurement-shaping --
    // simpler: use the device key derivation through a scratch enclave is
    // overkill; instead access the quote path via a real tiny enclave.
    // For protocol-level tests it is enough to produce a quote signed by
    // the real QE for a report we can mint. We mint it through a scratch
    // enclave whose measurement we cannot choose -- so for the
    // *matching* case we instead set the server's expectation to the
    // scratch enclave's measurement.
    (void)Mr;
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
    ScratchMr = (*E)->mrEnclave();

    sgx::ReportData Rd{};
    std::memcpy(Rd.data(), Pub.data(), 32);
    sgx::Report R = (*E)->createReport(Qe.targetInfo(), Rd);
    Expected<sgx::Quote> Q = Qe.quoteReport(R);
    EXPECT_TRUE(static_cast<bool>(Q));

    Bytes Hello;
    Hello.push_back(FrameHello);
    appendBytes(Hello, Q->serialize());
    return Hello;
  }

  sgx::Measurement ScratchMr{};
};

TEST(AuthServerTest, RejectsRequestsBeforeHandshake) {
  ServerFixture F;
  AuthServer Server = F.makeServer();
  Aes128Key Junk{};
  Drbg Rng(1);
  Expected<Bytes> Frame = sealRecord(Junk, Bytes{RequestMeta}, Rng);
  ASSERT_TRUE(static_cast<bool>(Frame));
  Bytes Resp = Server.handle(*Frame);
  EXPECT_EQ(Resp[0], FrameError);
}

TEST(AuthServerTest, RejectsGarbageFrames) {
  ServerFixture F;
  AuthServer Server = F.makeServer();
  EXPECT_EQ(Server.handle(Bytes{})[0], FrameError);
  EXPECT_EQ(Server.handle(Bytes{0x77, 1, 2})[0], FrameError);
  Bytes BadHello = {FrameHello, 1, 2, 3};
  EXPECT_EQ(Server.handle(BadHello)[0], FrameError);
  EXPECT_EQ(Server.stats().HandshakesRejected, 1u);

  // 0x03 was the retired HELLO-BATCH frame. Bare or enveloped, it is an
  // unknown frame type now, never a handshake attempt.
  Bytes Retired = {0x03, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00};
  for (const Bytes &Frame :
       {Retired, envelopeFrame(0, Criticality::Critical, Retired)}) {
    Bytes Resp = Server.handle(Frame);
    ASSERT_EQ(Resp[0], FrameError);
    EXPECT_NE(stringOfBytes(BytesView(Resp).subspan(1))
                  .find("unknown frame type 3"),
              std::string::npos);
  }
  EXPECT_EQ(Server.stats().HandshakesCompleted, 0u);
  EXPECT_EQ(Server.stats().HandshakesRejected, 1u);
}

TEST(AuthServerTest, RejectsWrongMeasurementAndAcceptsRight) {
  ServerFixture F;
  X25519Key Priv;
  Bytes Hello = F.makeHello({}, Priv);

  // Server pinned to a different measurement: reject.
  {
    AuthServer Server = F.makeServer(); // expects 0x11... measurement
    Bytes Resp = Server.handle(Hello);
    EXPECT_EQ(Resp[0], FrameError);
    EXPECT_EQ(Server.stats().HandshakesRejected, 1u);
  }

  // Server pinned to the scratch enclave's measurement: full exchange.
  {
    F.Meta.DataLength = F.Data.size();
    AuthServerConfig Config;
    Config.AuthorityKey = F.Authority.publicKey();
    Config.ExpectedMrEnclave = F.ScratchMr;
    Config.Meta = F.Meta;
    Config.SecretData = F.Data;
    AuthServer Server(std::move(Config));

    Bytes Resp = Server.handle(Hello);
    ASSERT_EQ(Resp[0], FrameHello);
    ASSERT_EQ(Resp.size(), HelloOkSize);
    uint64_t Sid = 0;
    for (size_t I = 0; I < SessionIdSize; ++I)
      Sid |= static_cast<uint64_t>(Resp[1 + I]) << (8 * I);
    EXPECT_NE(Sid, 0u);
    X25519Key ServerPub;
    std::memcpy(ServerPub.data(), Resp.data() + 1 + SessionIdSize, 32);
    X25519Key Shared = x25519(Priv, ServerPub);
    SessionKeys Keys =
        deriveSessionKeys(Shared, x25519PublicKey(Priv), ServerPub);

    // REQUEST_META.
    Drbg Rng(8);
    Expected<Bytes> Req =
        sealSessionRecord(Sid, Keys.ClientToServer, Bytes{RequestMeta}, Rng);
    ASSERT_TRUE(static_cast<bool>(Req));
    Bytes MetaResp = Server.handle(*Req);
    Expected<Bytes> MetaPlain = openRecord(Keys.ServerToClient, MetaResp);
    ASSERT_TRUE(static_cast<bool>(MetaPlain)) << MetaPlain.errorMessage();
    Expected<SecretMeta> Meta = SecretMeta::deserialize(*MetaPlain);
    ASSERT_TRUE(static_cast<bool>(Meta));
    EXPECT_EQ(Meta->DataLength, F.Data.size());

    // REQUEST_DATA.
    Expected<Bytes> Req2 =
        sealSessionRecord(Sid, Keys.ClientToServer, Bytes{RequestData}, Rng);
    ASSERT_TRUE(static_cast<bool>(Req2));
    Expected<Bytes> DataPlain =
        openRecord(Keys.ServerToClient, Server.handle(*Req2));
    ASSERT_TRUE(static_cast<bool>(DataPlain));
    EXPECT_EQ(*DataPlain, F.Data);

    // Unknown request byte and oversized requests are rejected.
    Expected<Bytes> Req3 =
        sealSessionRecord(Sid, Keys.ClientToServer, Bytes{0x7a}, Rng);
    ASSERT_TRUE(static_cast<bool>(Req3));
    EXPECT_EQ(Server.handle(*Req3)[0], FrameError);
    Expected<Bytes> Req4 =
        sealSessionRecord(Sid, Keys.ClientToServer, Bytes{RequestMeta, 0},
                          Rng);
    ASSERT_TRUE(static_cast<bool>(Req4));
    EXPECT_EQ(Server.handle(*Req4)[0], FrameError);

    // A record aimed at a different session id fails cleanly: the id
    // selects no session (or the AAD check fails), never another
    // client's keys. The error carries the typed re-attest marker -- the
    // session is stale (unknown/evicted/recycled), and the cure is a
    // fresh HELLO, not a retry of this frame.
    Expected<Bytes> Req5 =
        sealSessionRecord(Sid + 1, Keys.ClientToServer, Bytes{RequestData},
                          Rng);
    ASSERT_TRUE(static_cast<bool>(Req5));
    Bytes StaleResp = Server.handle(*Req5);
    ASSERT_FALSE(StaleResp.empty());
    EXPECT_EQ(StaleResp[0], FrameError);
    EXPECT_TRUE(errorAsksReattest(
        std::string(StaleResp.begin() + 1, StaleResp.end())));
    EXPECT_EQ(Server.stats().StaleSessionRequests, 1u);

    EXPECT_EQ(Server.stats().HandshakesCompleted, 1u);
    EXPECT_EQ(Server.stats().MetaRequests, 1u);
    EXPECT_EQ(Server.stats().DataRequests, 1u);
    EXPECT_EQ(Server.stats().LiveSessions, 1u);
  }
}

TEST(AuthServerTest, LocalModeRefusesDataRequests) {
  ServerFixture F;
  X25519Key Priv;
  Bytes Hello = F.makeHello({}, Priv);

  AuthServerConfig Config;
  Config.AuthorityKey = F.Authority.publicKey();
  Config.ExpectedMrEnclave = F.ScratchMr;
  F.Meta.Encrypted = true; // local-data mode
  Config.Meta = F.Meta;
  AuthServer Server(std::move(Config));

  Bytes Resp = Server.handle(Hello);
  ASSERT_EQ(Resp[0], FrameHello);
  ASSERT_EQ(Resp.size(), HelloOkSize);
  uint64_t Sid = 0;
  for (size_t I = 0; I < SessionIdSize; ++I)
    Sid |= static_cast<uint64_t>(Resp[1 + I]) << (8 * I);
  X25519Key ServerPub;
  std::memcpy(ServerPub.data(), Resp.data() + 1 + SessionIdSize, 32);
  SessionKeys Keys = deriveSessionKeys(x25519(Priv, ServerPub),
                                       x25519PublicKey(Priv), ServerPub);
  Drbg Rng(4);
  Expected<Bytes> Req =
      sealSessionRecord(Sid, Keys.ClientToServer, Bytes{RequestData}, Rng);
  ASSERT_TRUE(static_cast<bool>(Req));
  EXPECT_EQ(Server.handle(*Req)[0], FrameError);
}

//===----------------------------------------------------------------------===//
// TCP transport
//===----------------------------------------------------------------------===//

TEST(TcpTransportTest, FramesSurviveTheWire) {
  ServerFixture F;
  AuthServer Server = F.makeServer();
  Expected<std::unique_ptr<ReactorServer>> Tcp = ReactorServer::start(
      [&Server](BytesView Request, const FrameContext &Ctx) {
        return Server.handle(Request, Ctx);
      });
  ASSERT_TRUE(static_cast<bool>(Tcp)) << Tcp.errorMessage();

  TcpClientTransport Client("127.0.0.1", (*Tcp)->port());
  // A garbage frame must come back as a server ERROR frame, intact.
  Expected<Bytes> Resp = Client.roundTrip(Bytes{0x99});
  ASSERT_TRUE(static_cast<bool>(Resp)) << Resp.errorMessage();
  EXPECT_EQ((*Resp)[0], FrameError);

  // Several sequential round trips on separate connections.
  for (int I = 0; I < 5; ++I) {
    Expected<Bytes> R = Client.roundTrip(Bytes{0x42});
    ASSERT_TRUE(static_cast<bool>(R));
    EXPECT_EQ((*R)[0], FrameError);
  }
  (*Tcp)->stop();
}

TEST(TcpTransportTest, ConnectToClosedPortFailsTyped) {
  // A port this process owns (bound, never listened): connecting to it is
  // refused deterministically even under ctest -j. The client makes one
  // attempt and surfaces the kind it met.
  elide::testing::ClosedPort Closed;
  ASSERT_TRUE(Closed.ok());
  TcpClientTransport Client("127.0.0.1", Closed.port());
  Expected<Bytes> R = Client.roundTrip(Bytes{1});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(transportErrcOf(R), TransportErrc::ConnectFailed);
}

TEST(TcpTransportTest, SingleAttemptSurfacesUnderlyingError) {
  // A server that closes every connection it accepts: the client sends
  // the frame once, on one connection, and hands back the peer's close.
  elide::testing::AcceptAndClose Server;
  ASSERT_TRUE(Server.ok());
  TcpClientTransport Client("127.0.0.1", Server.port());
  Expected<Bytes> R = Client.roundTrip(Bytes{1});
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(transportErrcOf(R), TransportErrc::PeerClosed);
  EXPECT_EQ(Server.accepted(), 1);
}

TEST(TcpTransportTest, BadAddressIsNotRetried) {
  // The restore loop owns retry, and a bad address is a verdict, not a
  // transient: under a five-attempt policy the host asks once.
  auto Rig = elide::testing::RestoreRig::make();
  ASSERT_NE(Rig, nullptr);
  TcpClientTransport Client("definitely-not-a-host.invalid", 9);
  FaultInjectingTransport Counted(Client, FaultPlan());
  Expected<std::unique_ptr<sgx::Enclave>> E = Rig->load();
  ASSERT_TRUE(static_cast<bool>(E)) << E.errorMessage();
  ElideHost Host(&Counted, Rig->qe());
  Host.attach(**E);
  Expected<uint64_t> Status = Host.restore(**E, RestorePolicy{5});
  ASSERT_TRUE(static_cast<bool>(Status)) << Status.errorMessage();
  EXPECT_EQ(*Status, RestoreServerUnreachable);
  EXPECT_EQ(Counted.counts().Points, 1u);
  EXPECT_EQ(transportErrcOf(Client.roundTrip(Bytes{1})),
            TransportErrc::BadAddress);
}

} // namespace
