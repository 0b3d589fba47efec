//===- crypto/Aes.h - AES block cipher (FIPS 197) --------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AES-128/192/256 block encryption and decryption. This is the primitive
/// under AES-GCM (the paper's client-server channel and local secret-data
/// cipher), AES-CTR (EPC eviction encryption, the MEE stand-in), and
/// AES-CMAC (report MACs).
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_CRYPTO_AES_H
#define SGXELIDE_CRYPTO_AES_H

#include "support/Bytes.h"
#include "support/Error.h"

#include <array>

namespace elide {

/// A 16-byte AES key (the size the SGX SDK crypto library uses).
using Aes128Key = std::array<uint8_t, 16>;

/// An expanded AES key schedule for one key of 128, 192, or 256 bits.
class Aes {
public:
  /// Expands \p Key. Fails unless the key is 16, 24, or 32 bytes.
  static Expected<Aes> create(BytesView Key);

  /// Convenience constructor for the 128-bit key type.
  explicit Aes(const Aes128Key &Key);

  /// Encrypts one 16-byte block in place-compatible fashion
  /// (\p In and \p Out may alias).
  void encryptBlock(const uint8_t In[16], uint8_t Out[16]) const;

  /// Decrypts one 16-byte block.
  void decryptBlock(const uint8_t In[16], uint8_t Out[16]) const;

  /// Number of rounds (10/12/14 for 128/192/256-bit keys).
  unsigned rounds() const { return Rounds; }

  /// Writes round key \p Round (0..rounds()) as the 16 bytes AddRoundKey
  /// XORs into the state, the layout AES-NI takes its round keys in.
  void roundKey(unsigned Round, uint8_t Out[16]) const;

private:
  Aes() = default;
  void expandKey(BytesView Key);

  uint32_t RoundKeys[60];
  unsigned Rounds = 0;
};

} // namespace elide

#endif // SGXELIDE_CRYPTO_AES_H
