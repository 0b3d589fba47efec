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
/// Branch-free: each data bit becomes an all-ones or all-zero mask, so the
/// time does not depend on X, Y or the reduction carries.
Block128 gfMul(const Block128 &X, const Block128 &Y) {
  Block128 Z;
  Block128 V = Y;
  for (uint64_t Word : {X.Hi, X.Lo}) {
    for (int Bit = 63; Bit >= 0; --Bit) {
      uint64_t Take = 0 - ((Word >> Bit) & 1);
      Z.Hi ^= V.Hi & Take;
      Z.Lo ^= V.Lo & Take;
      uint64_t Carry = 0 - (V.Lo & 1);
      V.Lo = (V.Lo >> 1) | (V.Hi << 63);
      V.Hi = (V.Hi >> 1) ^ (0xe100000000000000ULL & Carry);
    }
  }
  return Z;
}

void portableGhash(const uint8_t HBytes[16], uint8_t YBytes[16],
                   const uint8_t *Data, size_t Len) {
  Block128 H = Block128::load(HBytes);
  Block128 Y = Block128::load(YBytes);
  for (; Len >= 16; Data += 16, Len -= 16) {
    Y ^= Block128::load(Data);
    Y = gfMul(Y, H);
  }
  if (Len != 0) {
    uint8_t Last[16] = {0};
    std::memcpy(Last, Data, Len);
    Y ^= Block128::load(Last);
    Y = gfMul(Y, H);
  }
  Y.store(YBytes);
}

/// Increments the low 32 bits of a counter block (GCM's inc32).
void inc32(uint8_t Counter[16]) {
  uint32_t C = readBE32(Counter + 12);
  writeBE32(Counter + 12, C + 1);
}

void portableCtr(const Aes &Cipher, const uint8_t J0[16], const uint8_t *In,
                 uint8_t *Out, size_t Len) {
  uint8_t Counter[16];
  std::memcpy(Counter, J0, 16);
  for (size_t Off = 0; Off < Len; Off += 16) {
    inc32(Counter);
    uint8_t Keystream[16];
    Cipher.encryptBlock(Counter, Keystream);
    size_t N = Len - Off < 16 ? Len - Off : 16;
    for (size_t I = 0; I < N; ++I)
      Out[Off + I] = In[Off + I] ^ Keystream[I];
  }
}

/// The kernel `aesGcmEncrypt` and `aesGcmDecrypt` use, picked once.
const GcmKernel &activeKernel() {
  static const GcmKernel Active =
      x86GcmKernel().value_or(portableGcmKernel());
  return Active;
}

/// Absorbs \p Data into \p Y; an empty view may have no storage at all.
void absorb(const GcmKernel &K, const uint8_t H[16], uint8_t Y[16],
            BytesView Data) {
  if (!Data.empty())
    K.Ghash(H, Y, Data.data(), Data.size());
}

/// Absorbs the 64-bit bit lengths of two inputs, the last GHASH block.
void absorbLengths(const GcmKernel &K, const uint8_t H[16], uint8_t Y[16],
                   uint64_t FirstBytes, uint64_t SecondBytes) {
  uint8_t LenBlock[16];
  writeBE64(LenBlock, FirstBytes * 8);
  writeBE64(LenBlock + 8, SecondBytes * 8);
  K.Ghash(H, Y, LenBlock, 16);
}

/// What every kernel shares for one key and IV: the key schedule, the hash
/// subkey H = E(0) and the pre-counter block J0.
struct GcmContext {
  GcmContext(const GcmKernel &Kernel, const Aes &Schedule, BytesView Iv)
      : K(Kernel), Cipher(Schedule) {
    Cipher.encryptBlock(H, H);
    if (Iv.size() == 12) {
      std::memcpy(J0, Iv.data(), 12);
      J0[15] = 1;
    } else {
      absorb(K, H, J0, Iv);
      absorbLengths(K, H, J0, 0, Iv.size());
    }
  }

  /// GHASH over \p Aad and \p Ciphertext, masked with E(J0).
  GcmTag tag(BytesView Aad, BytesView Ciphertext) const {
    uint8_t S[16] = {0};
    absorb(K, H, S, Aad);
    absorb(K, H, S, Ciphertext);
    absorbLengths(K, H, S, Aad.size(), Ciphertext.size());
    uint8_t TagMask[16];
    Cipher.encryptBlock(J0, TagMask);
    GcmTag Tag;
    for (int I = 0; I < 16; ++I)
      Tag[I] = S[I] ^ TagMask[I];
    return Tag;
  }

  /// The kernel's CTR over \p Data, into a new buffer.
  Bytes ctr(BytesView Data) const {
    Bytes Out(Data.size());
    if (!Data.empty())
      K.Ctr(Cipher, J0, Data.data(), Out.data(), Data.size());
    return Out;
  }

  const GcmKernel &K;
  Aes Cipher;
  uint8_t H[16] = {0};
  uint8_t J0[16] = {0};
};

} // namespace

GcmKernel elide::portableGcmKernel() { return {portableCtr, portableGhash}; }

std::array<uint8_t, 16> elide::ghash(const GcmKernel &K,
                                     const std::array<uint8_t, 16> &H,
                                     BytesView Data) {
  assert(Data.size() % 16 == 0 && "GHASH input must be block-aligned");
  std::array<uint8_t, 16> Y{};
  absorb(K, H.data(), Y.data(), Data);
  return Y;
}

Expected<GcmSealed> elide::aesGcmEncrypt(const GcmKernel &K, BytesView Key,
                                         BytesView Iv, BytesView Plaintext,
                                         BytesView Aad) {
  ELIDE_TRY(Aes Cipher, Aes::create(Key));
  if (Iv.empty())
    return makeError("GCM IV must not be empty");
  GcmContext C(K, Cipher, Iv);
  GcmSealed Out;
  Out.Ciphertext = C.ctr(Plaintext);
  Out.Tag = C.tag(Aad, Out.Ciphertext);
  return Out;
}

Expected<Bytes> elide::aesGcmDecrypt(const GcmKernel &K, BytesView Key,
                                     BytesView Iv, BytesView Ciphertext,
                                     BytesView Aad, const GcmTag &Tag) {
  ELIDE_TRY(Aes Cipher, Aes::create(Key));
  if (Iv.empty())
    return makeError("GCM IV must not be empty");
  GcmContext C(K, Cipher, Iv);
  GcmTag Expected = C.tag(Aad, Ciphertext);
  if (!cryptoEqual(Expected.data(), Tag.data(), Expected.size()))
    return makeError("GCM authentication tag mismatch");
  return C.ctr(Ciphertext);
}

Expected<GcmSealed> elide::aesGcmEncrypt(BytesView Key, BytesView Iv,
                                         BytesView Plaintext, BytesView Aad) {
  return aesGcmEncrypt(activeKernel(), Key, Iv, Plaintext, Aad);
}

Expected<Bytes> elide::aesGcmDecrypt(BytesView Key, BytesView Iv,
                                     BytesView Ciphertext, BytesView Aad,
                                     const GcmTag &Tag) {
  return aesGcmDecrypt(activeKernel(), Key, Iv, Ciphertext, Aad, Tag);
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
