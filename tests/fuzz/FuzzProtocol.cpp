//===- tests/fuzz/FuzzProtocol.cpp - Protocol frame fuzz target -------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzz target for the wire-protocol decode surface: `AuthServer::handle`
/// (the server's single entry point for attacker-controlled frames) plus
/// the client-side record openers. Properties: no crash on any byte
/// string, the server always answers (an ERROR frame at worst), and no
/// single unauthenticated frame ever completes a handshake or extracts
/// secret data.
///
//===----------------------------------------------------------------------===//

#include "tests/fuzz/FuzzCommon.h"

#include "server/AuthServer.h"
#include "server/Protocol.h"
#include "sgx/Attestation.h"

namespace {

using namespace elide;

void fuzzProtocolOne(BytesView Input) {
  // Server side: a fresh server per input keeps replay deterministic.
  static const sgx::AttestationAuthority Authority(2002);
  AuthServerConfig Config;
  Config.AuthorityKey = Authority.publicKey();
  Config.ExpectedMrEnclave.fill(0x42);
  Config.Meta.DataLength = 64;
  Config.SecretData = Bytes(64, 0xaa);
  AuthServer Server(std::move(Config));

  Bytes Response = Server.handle(Input);
  FUZZ_ASSERT(!Response.empty());
  // One unauthenticated frame can never finish the attested handshake,
  // and data only flows over a session that a handshake created.
  FUZZ_ASSERT(Server.stats().HandshakesCompleted == 0);
  FUZZ_ASSERT(Server.stats().DataRequests == 0);
  FUZZ_ASSERT(Server.stats().MetaRequests == 0);

  // Client side: both record openers under a fixed key must reject or
  // cleanly decode attacker bytes, never crash.
  Aes128Key Key{};
  Key.fill(0x5c);
  (void)openRecord(Key, Input);
  (void)openSessionRecord(Key, Input);
  (void)peekSessionId(Input);
  // The restorer's HELLO-OK parser accepts exactly one fixed-size shape.
  if (parseHelloOkFrame(Input))
    FUZZ_ASSERT(Input.size() == HelloOkSize && Input[0] == FrameHello);

  // Load-shed frame parser: must reject everything except the exact
  // 5-byte OVERLOADED shape, and round-trip the advertised hint when the
  // input happens to be one.
  std::optional<uint32_t> RetryAfter = overloadedRetryAfterMs(Input);
  if (RetryAfter) {
    FUZZ_ASSERT(Input.size() == OverloadedFrameSize);
    FUZZ_ASSERT(toBytes(overloadedFrame(*RetryAfter)) == toBytes(Input));
  }

  // Request-envelope parser: strict or nothing. A successful parse
  // guarantees the version byte is the one we speak, the criticality is
  // in range, the inner frame is non-empty and not itself an envelope,
  // and re-encoding reproduces the input byte-for-byte (no hidden
  // normalization for an attacker to smuggle state through).
  Expected<RequestEnvelope> Env = parseEnvelopeFrame(Input);
  if (Env) {
    FUZZ_ASSERT(Input.size() > EnvelopeHeaderSize);
    FUZZ_ASSERT(Input[0] == FrameEnvelope);
    FUZZ_ASSERT(Input[1] == EnvelopeVersion);
    FUZZ_ASSERT(static_cast<uint8_t>(Env->Class) <=
                static_cast<uint8_t>(Criticality::Sheddable));
    FUZZ_ASSERT(!Env->Inner.empty());
    FUZZ_ASSERT(Env->Inner[0] != FrameEnvelope);
    FUZZ_ASSERT(toBytes(envelopeFrame(Env->DeadlineMs, Env->Class,
                                      Env->Inner)) == toBytes(Input));
  } else if (!Input.empty() && Input[0] == FrameEnvelope) {
    // A rejected envelope must still draw an ERROR verdict from the
    // server, never service or silence.
    FUZZ_ASSERT(!Response.empty() && Response[0] == FrameError);
  }
  // unwrapRequest must accept every non-envelope frame verbatim.
  if (Input.empty() || Input[0] != FrameEnvelope) {
    Expected<RequestEnvelope> Bare = unwrapRequest(Input);
    FUZZ_ASSERT(static_cast<bool>(Bare));
    FUZZ_ASSERT(Bare->DeadlineMs == 0);
    FUZZ_ASSERT(Bare->Class == Criticality::Default);
    FUZZ_ASSERT(Bare->Inner.size() == Input.size());
  }
}

} // namespace

#ifdef ELIDE_LIBFUZZER_DRIVER

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  fuzzProtocolOne(elide::BytesView(Data, Size));
  return 0;
}

#else // gtest replay + generative sweep

#include "tests/framework/Builders.h"
#include "tests/framework/FuzzHarness.h"

#include <gtest/gtest.h>

TEST(ProtocolFuzz, CorpusReplay) {
  elide::Expected<size_t> N =
      elide::fuzz::replayCorpus("protocol", fuzzProtocolOne);
  ASSERT_TRUE(static_cast<bool>(N)) << N.errorMessage();
  EXPECT_GE(*N, 10u) << "protocol corpus lost its seed entries";
}

TEST(ProtocolFuzz, GeneratedSweep) {
  elide::fuzz::generativeSweep(fuzzProtocolOne,
                               elide::fuzz::buildProtocolFrame,
                               /*Seed=*/0x50524f544f434f4cull,
                               /*Iterations=*/400);
}

#endif // ELIDE_LIBFUZZER_DRIVER
