//===- crypto/AesGcm.cpp - AES-GCM and AES-CTR (NIST SP 800-38D) ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "crypto/AesGcm.h"

#include "crypto/CryptoEqual.h"

#include <cstring>

using namespace elide;

namespace {

/// A 128-bit value in GCM's bit-reflected representation: Hi holds bytes
/// 0..7 (bit 0 of the block is the MSB of Hi).
struct Block128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  static Block128 load(const uint8_t *P) {
    return {readBE64(P), readBE64(P + 8)};
  }
  void store(uint8_t *P) const {
    writeBE64(P, Hi);
    writeBE64(P + 8, Lo);
  }
  void operator^=(const Block128 &O) {
    Hi ^= O.Hi;
    Lo ^= O.Lo;
  }
};

/// GF(2^128) multiplication with the GCM polynomial (SP 800-38D alg. 1).
Block128 gfMul(const Block128 &X, const Block128 &Y) {
  Block128 Z;
  Block128 V = Y;
  for (int I = 0; I < 128; ++I) {
    uint64_t Word = I < 64 ? X.Hi : X.Lo;
    int Bit = 63 - (I & 63);
    if ((Word >> Bit) & 1)
      Z ^= V;
    bool Lsb = V.Lo & 1;
    V.Lo = (V.Lo >> 1) | (V.Hi << 63);
    V.Hi >>= 1;
    if (Lsb)
      V.Hi ^= 0xe100000000000000ULL;
  }
  return Z;
}

/// Streaming GHASH accumulator.
class Ghash {
public:
  explicit Ghash(const std::array<uint8_t, 16> &HKey)
      : H(Block128::load(HKey.data())) {}

  /// Absorbs \p Data, zero-padding the final partial block.
  void updatePadded(BytesView Data) {
    size_t Full = Data.size() / 16 * 16;
    for (size_t I = 0; I < Full; I += 16)
      absorbBlock(Data.data() + I);
    if (Full < Data.size()) {
      uint8_t Last[16] = {0};
      std::memcpy(Last, Data.data() + Full, Data.size() - Full);
      absorbBlock(Last);
    }
  }

  /// Absorbs the 64-bit bit lengths of AAD and ciphertext.
  void updateLengths(uint64_t AadBytes, uint64_t TextBytes) {
    uint8_t LenBlock[16];
    writeBE64(LenBlock, AadBytes * 8);
    writeBE64(LenBlock + 8, TextBytes * 8);
    absorbBlock(LenBlock);
  }

  std::array<uint8_t, 16> final() const {
    std::array<uint8_t, 16> Out;
    Y.store(Out.data());
    return Out;
  }

private:
  void absorbBlock(const uint8_t *P) {
    Y ^= Block128::load(P);
    Y = gfMul(Y, H);
  }

  Block128 H;
  Block128 Y;
};

/// Increments the low 32 bits of a counter block (GCM's inc32).
void inc32(uint8_t Counter[16]) {
  uint32_t C = readBE32(Counter + 12);
  writeBE32(Counter + 12, C + 1);
}

/// Generates CTR keystream starting at inc32(J0) and XORs it over Data.
Bytes gctr(const Aes &Cipher, const uint8_t J0[16], BytesView Data) {
  Bytes Out(Data.begin(), Data.end());
  uint8_t Counter[16];
  std::memcpy(Counter, J0, 16);
  for (size_t Off = 0; Off < Out.size(); Off += 16) {
    inc32(Counter);
    uint8_t Keystream[16];
    Cipher.encryptBlock(Counter, Keystream);
    size_t N = Out.size() - Off < 16 ? Out.size() - Off : 16;
    for (size_t I = 0; I < N; ++I)
      Out[Off + I] ^= Keystream[I];
  }
  return Out;
}

/// Computes the pre-counter block J0 for \p Iv.
void deriveJ0(const std::array<uint8_t, 16> &HKey, BytesView Iv,
              uint8_t J0[16]) {
  if (Iv.size() == 12) {
    std::memcpy(J0, Iv.data(), 12);
    J0[12] = J0[13] = J0[14] = 0;
    J0[15] = 1;
    return;
  }
  Ghash G(HKey);
  G.updatePadded(Iv);
  G.updateLengths(0, Iv.size());
  std::array<uint8_t, 16> R = G.final();
  std::memcpy(J0, R.data(), 16);
}

} // namespace

std::array<uint8_t, 16> elide::ghash(const std::array<uint8_t, 16> &H,
                                     BytesView Data) {
  assert(Data.size() % 16 == 0 && "GHASH input must be block-aligned");
  Ghash G(H);
  G.updatePadded(Data);
  return G.final();
}

Expected<GcmSealed> elide::aesGcmEncrypt(BytesView Key, BytesView Iv,
                                         BytesView Plaintext, BytesView Aad) {
  ELIDE_TRY(Aes Cipher, Aes::create(Key));
  if (Iv.empty())
    return makeError("GCM IV must not be empty");

  std::array<uint8_t, 16> HKey;
  uint8_t Zero[16] = {0};
  Cipher.encryptBlock(Zero, HKey.data());

  uint8_t J0[16];
  deriveJ0(HKey, Iv, J0);

  GcmSealed Out;
  Out.Ciphertext = gctr(Cipher, J0, Plaintext);

  Ghash G(HKey);
  G.updatePadded(Aad);
  G.updatePadded(BytesView(Out.Ciphertext));
  G.updateLengths(Aad.size(), Out.Ciphertext.size());
  std::array<uint8_t, 16> S = G.final();

  uint8_t TagMask[16];
  Cipher.encryptBlock(J0, TagMask);
  for (int I = 0; I < 16; ++I)
    Out.Tag[I] = S[I] ^ TagMask[I];
  return Out;
}

Expected<Bytes> elide::aesGcmDecrypt(BytesView Key, BytesView Iv,
                                     BytesView Ciphertext, BytesView Aad,
                                     const GcmTag &Tag) {
  ELIDE_TRY(Aes Cipher, Aes::create(Key));
  if (Iv.empty())
    return makeError("GCM IV must not be empty");

  std::array<uint8_t, 16> HKey;
  uint8_t Zero[16] = {0};
  Cipher.encryptBlock(Zero, HKey.data());

  uint8_t J0[16];
  deriveJ0(HKey, Iv, J0);

  Ghash G(HKey);
  G.updatePadded(Aad);
  G.updatePadded(Ciphertext);
  G.updateLengths(Aad.size(), Ciphertext.size());
  std::array<uint8_t, 16> S = G.final();

  uint8_t TagMask[16];
  Cipher.encryptBlock(J0, TagMask);
  GcmTag Expected;
  for (int I = 0; I < 16; ++I)
    Expected[I] = S[I] ^ TagMask[I];

  if (!cryptoEqual(Expected.data(), Tag.data(), Expected.size()))
    return makeError("GCM authentication tag mismatch");

  return gctr(Cipher, J0, Ciphertext);
}

Expected<Bytes> elide::aesCtrCrypt(BytesView Key,
                                   const std::array<uint8_t, 16> &Counter,
                                   BytesView Data) {
  ELIDE_TRY(Aes Cipher, Aes::create(Key));
  Bytes Out(Data.begin(), Data.end());
  uint8_t Ctr[16];
  std::memcpy(Ctr, Counter.data(), 16);
  for (size_t Off = 0; Off < Out.size(); Off += 16) {
    uint8_t Keystream[16];
    Cipher.encryptBlock(Ctr, Keystream);
    size_t N = Out.size() - Off < 16 ? Out.size() - Off : 16;
    for (size_t I = 0; I < N; ++I)
      Out[Off + I] ^= Keystream[I];
    // 128-bit big-endian increment.
    for (int I = 15; I >= 0; --I)
      if (++Ctr[I] != 0)
        break;
  }
  return Out;
}
