//===- apps/Sha1App.cpp - The SHA-1 benchmark (RFC 3174 port) --------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "apps/App.h"
#include "apps/AppUtil.h"

#include "crypto/Drbg.h"
#include "support/Hex.h"

#include <cstring>

using namespace elide;
using namespace elide::apps;

namespace {

const char *Sha1Algorithm = R"elc(
// SHA-1 (RFC 3174), message padded and hashed inside the enclave.

var sha1_msg: u8[4480];
var sha1_h: u64[5];

fn sha1_process(block: *u8) {
  var w: u64[80];
  for (var t: u64 = 0; t < 16; t = t + 1) {
    w[t] = load_be32(block + 4 * t);
  }
  for (var t: u64 = 16; t < 80; t = t + 1) {
    w[t] = rotl32(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  }
  var a: u64 = sha1_h[0];
  var b: u64 = sha1_h[1];
  var c: u64 = sha1_h[2];
  var d: u64 = sha1_h[3];
  var e: u64 = sha1_h[4];
  for (var t: u64 = 0; t < 80; t = t + 1) {
    var f: u64 = 0;
    var k: u64 = 0;
    if (t < 20) {
      f = (b & c) | ((~b) & d);
      k = 0x5a827999;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ed9eba1;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8f1bbcdc;
    } else {
      f = b ^ c ^ d;
      k = 0xca62c1d6;
    }
    var temp: u64 = (rotl32(a, 5) + f + e + k + w[t]) & 0xffffffff;
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = temp;
  }
  sha1_h[0] = (sha1_h[0] + a) & 0xffffffff;
  sha1_h[1] = (sha1_h[1] + b) & 0xffffffff;
  sha1_h[2] = (sha1_h[2] + c) & 0xffffffff;
  sha1_h[3] = (sha1_h[3] + d) & 0xffffffff;
  sha1_h[4] = (sha1_h[4] + e) & 0xffffffff;
}

fn sha1_pad(len: u64) -> u64 {
  sha1_msg[len] = 0x80;
  var padded: u64 = len + 1;
  while (padded % 64 != 56) {
    sha1_msg[padded] = 0;
    padded = padded + 1;
  }
  var bits: u64 = len * 8;
  store_be32(&sha1_msg[padded], bits >> 32);
  store_be32(&sha1_msg[padded + 4], bits & 0xffffffff);
  return padded + 8;
}

// Ecall: input = message (up to 4096 bytes), output = 20-byte digest.
export fn sha1_run(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  if (inlen > 4096) {
    return 1;
  }
  if (outcap < 20) {
    return 2;
  }
  memcpy8(&sha1_msg[0], inp, inlen);
  var total: u64 = sha1_pad(inlen);
  sha1_h[0] = 0x67452301;
  sha1_h[1] = 0xefcdab89;
  sha1_h[2] = 0x98badcfe;
  sha1_h[3] = 0x10325476;
  sha1_h[4] = 0xc3d2e1f0;
  for (var off: u64 = 0; off < total; off = off + 64) {
    sha1_process(&sha1_msg[off]);
  }
  for (var i: u64 = 0; i < 5; i = i + 1) {
    store_be32(outp + 4 * i, sha1_h[i]);
  }
  return 0;
}
)elc";

/// Host-side SHA-1 oracle (kept deliberately independent of the Elc code).
void hostSha1(BytesView Message, uint8_t Digest[20]) {
  uint32_t H[5] = {0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476,
                   0xc3d2e1f0};
  Bytes Padded(Message.begin(), Message.end());
  Padded.push_back(0x80);
  while (Padded.size() % 64 != 56)
    Padded.push_back(0);
  uint64_t Bits = static_cast<uint64_t>(Message.size()) * 8;
  for (int I = 7; I >= 0; --I)
    Padded.push_back(static_cast<uint8_t>(Bits >> (8 * I)));

  auto Rotl = [](uint32_t X, int N) { return (X << N) | (X >> (32 - N)); };
  for (size_t Off = 0; Off < Padded.size(); Off += 64) {
    uint32_t W[80];
    for (int T = 0; T < 16; ++T)
      W[T] = readBE32(Padded.data() + Off + 4 * T);
    for (int T = 16; T < 80; ++T)
      W[T] = Rotl(W[T - 3] ^ W[T - 8] ^ W[T - 14] ^ W[T - 16], 1);
    uint32_t A = H[0], B = H[1], C = H[2], D = H[3], E = H[4];
    for (int T = 0; T < 80; ++T) {
      uint32_t F, K;
      if (T < 20) {
        F = (B & C) | (~B & D);
        K = 0x5a827999;
      } else if (T < 40) {
        F = B ^ C ^ D;
        K = 0x6ed9eba1;
      } else if (T < 60) {
        F = (B & C) | (B & D) | (C & D);
        K = 0x8f1bbcdc;
      } else {
        F = B ^ C ^ D;
        K = 0xca62c1d6;
      }
      uint32_t Temp = Rotl(A, 5) + F + E + K + W[T];
      E = D;
      D = C;
      C = Rotl(B, 30);
      B = A;
      A = Temp;
    }
    H[0] += A;
    H[1] += B;
    H[2] += C;
    H[3] += D;
    H[4] += E;
  }
  for (int I = 0; I < 5; ++I)
    writeBE32(Digest + 4 * I, H[I]);
}

Error sha1Workload(sgx::Enclave &E) {
  // RFC 3174 test cases.
  struct Kat {
    const char *Message;
    const char *Digest;
  };
  const Kat Kats[] = {
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
      {"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
  };
  for (const Kat &V : Kats) {
    Bytes Msg = bytesOfString(V.Message);
    ELIDE_TRY(Bytes Digest, runEcall(E, "sha1_run", Msg, 20));
    if (toHex(Digest) != V.Digest)
      return makeError(std::string("SHA1 enclave failed KAT for '") +
                       V.Message + "': " + toHex(Digest));
  }

  // Lengths straddling the padding boundaries, checked against the host
  // oracle.
  Drbg Rng(0x5a1);
  for (size_t Len : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u, 1000u,
                     4096u}) {
    Bytes Msg = Rng.bytes(Len);
    ELIDE_TRY(Bytes Digest, runEcall(E, "sha1_run", Msg, 20));
    uint8_t Expect[20];
    hostSha1(Msg, Expect);
    if (std::memcmp(Digest.data(), Expect, 20) != 0)
      return makeError("SHA1 enclave disagrees with the oracle at length " +
                       std::to_string(Len));
  }
  return Error::success();
}

} // namespace

AppSpec apps::makeSha1App() {
  AppSpec Spec;
  Spec.Name = "Sha1";
  Spec.TrustedSources = {{"sha1.elc", Sha1Algorithm}};
  Spec.RunWorkload = sha1Workload;
  Spec.IsGame = false;
  return Spec;
}
