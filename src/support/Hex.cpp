//===- support/Hex.cpp - Hex encoding and decoding ------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Hex.h"

#include <cstdio>

using namespace elide;

static const char HexDigits[] = "0123456789abcdef";

std::string elide::toHex(BytesView Data) {
  std::string Out;
  Out.reserve(Data.size() * 2);
  for (uint8_t B : Data) {
    Out.push_back(HexDigits[B >> 4]);
    Out.push_back(HexDigits[B & 0xf]);
  }
  return Out;
}

std::string elide::hexAddress(uint64_t V) {
  char Buf[19]; // "0x", 16 digits, NUL.
  std::snprintf(Buf, sizeof(Buf), "0x%llx", static_cast<unsigned long long>(V));
  return Buf;
}

/// Returns the value of one hex digit, or -1 if \p C is not a hex digit.
static int hexValue(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

Expected<Bytes> elide::fromHex(const std::string &Hex) {
  if (Hex.size() % 2 != 0)
    return makeError("hex string has odd length " +
                     std::to_string(Hex.size()));
  Bytes Out;
  Out.reserve(Hex.size() / 2);
  for (size_t I = 0; I < Hex.size(); I += 2) {
    int Hi = hexValue(Hex[I]);
    int Lo = hexValue(Hex[I + 1]);
    if (Hi < 0 || Lo < 0)
      return makeError("invalid hex digit at offset " + std::to_string(I));
    Out.push_back(static_cast<uint8_t>(Hi << 4 | Lo));
  }
  return Out;
}
