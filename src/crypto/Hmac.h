//===- crypto/Hmac.h - HMAC-SHA256 (RFC 2104) ------------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HMAC-SHA256, the MAC and PRF underlying HKDF key derivation and the
/// report-key MAC fallback.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_CRYPTO_HMAC_H
#define SGXELIDE_CRYPTO_HMAC_H

#include "crypto/Sha256.h"

namespace elide {

/// Computes HMAC-SHA256(Key, Data).
Sha256Digest hmacSha256(BytesView Key, BytesView Data);

} // namespace elide

#endif // SGXELIDE_CRYPTO_HMAC_H
