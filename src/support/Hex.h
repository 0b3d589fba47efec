//===- support/Hex.h - Hex encoding and decoding --------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hexadecimal encode/decode for test vectors, tool output and metadata.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SUPPORT_HEX_H
#define SGXELIDE_SUPPORT_HEX_H

#include "support/Bytes.h"
#include "support/Error.h"

namespace elide {

/// Encodes \p Data as lowercase hex.
std::string toHex(BytesView Data);

/// Decodes a hex string (case-insensitive). Fails on odd length or
/// non-hex characters.
Expected<Bytes> fromHex(const std::string &Hex);

/// Formats an address or offset for diagnostics: "0x" and lowercase hex
/// digits, e.g. "0x17fc".
std::string hexAddress(uint64_t V);

} // namespace elide

#endif // SGXELIDE_SUPPORT_HEX_H
