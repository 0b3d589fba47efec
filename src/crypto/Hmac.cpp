//===- crypto/Hmac.cpp - HMAC-SHA256 (RFC 2104) ----------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "crypto/Hmac.h"

#include <cstring>

using namespace elide;

Sha256Digest elide::hmacSha256(BytesView Key, BytesView Data) {
  uint8_t BlockKey[64] = {0};
  if (Key.size() > 64) {
    Sha256Digest KeyDigest = Sha256::hash(Key);
    std::memcpy(BlockKey, KeyDigest.data(), KeyDigest.size());
  } else if (!Key.empty()) {
    std::memcpy(BlockKey, Key.data(), Key.size());
  }

  uint8_t Ipad[64], Opad[64];
  for (int I = 0; I < 64; ++I) {
    Ipad[I] = BlockKey[I] ^ 0x36;
    Opad[I] = BlockKey[I] ^ 0x5c;
  }

  Sha256 Inner;
  Inner.update(BytesView(Ipad, 64));
  Inner.update(Data);
  Sha256Digest InnerDigest = Inner.final();

  Sha256 Outer;
  Outer.update(BytesView(Opad, 64));
  Outer.update(BytesView(InnerDigest.data(), InnerDigest.size()));
  return Outer.final();
}
