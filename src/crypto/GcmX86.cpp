//===- crypto/GcmX86.cpp - AES-NI + PCLMULQDQ GCM kernel ------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The x86-64 GCM kernel: an AES-NI CTR keystream with several blocks in
/// flight and a PCLMULQDQ GHASH. Only the functions marked
/// `ELIDE_X86_GCM` use the instructions, so the rest of the binary stays
/// baseline x86-64; `x86GcmKernel` hands the kernel out only after CPUID
/// reports the features. Partial blocks go through a stack block, so no
/// 16-byte load or store reaches past the caller's buffers.
///
//===----------------------------------------------------------------------===//

#include "crypto/AesGcm.h"

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

#include <cstring>

using namespace elide;

#define ELIDE_X86_GCM __attribute__((target("aes,pclmul,sse4.1")))

namespace {

/// Keystream blocks the CTR loop keeps in flight: one AESENC takes several
/// cycles, but a new one can start every cycle or two, so independent
/// blocks fill the gap.
constexpr size_t CtrLanes = 8;

ELIDE_X86_GCM inline __m128i load(const uint8_t *P) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i *>(P));
}

ELIDE_X86_GCM inline void store(uint8_t *P, __m128i V) {
  _mm_storeu_si128(reinterpret_cast<__m128i *>(P), V);
}

/// Counter block \p Ctr: J0's first 12 bytes, then \p Ctr big-endian.
ELIDE_X86_GCM inline __m128i counterBlock(__m128i J0, uint32_t Ctr) {
  return _mm_insert_epi32(J0, static_cast<int>(__builtin_bswap32(Ctr)), 3);
}

ELIDE_X86_GCM inline __m128i encryptBlock(const __m128i *Keys,
                                          unsigned Rounds, __m128i B) {
  B = _mm_xor_si128(B, Keys[0]);
  for (unsigned R = 1; R < Rounds; ++R)
    B = _mm_aesenc_si128(B, Keys[R]);
  return _mm_aesenclast_si128(B, Keys[Rounds]);
}

ELIDE_X86_GCM void x86Ctr(const Aes &Cipher, const uint8_t J0Bytes[16],
                          const uint8_t *In, uint8_t *Out, size_t Len) {
  unsigned Rounds = Cipher.rounds();
  __m128i Keys[15];
  for (unsigned R = 0; R <= Rounds; ++R) {
    uint8_t Key[16];
    Cipher.roundKey(R, Key);
    Keys[R] = load(Key);
  }
  __m128i J0 = load(J0Bytes);
  // inc32 wraps the low word without carrying into byte 11.
  uint32_t Ctr = readBE32(J0Bytes + 12);

  size_t Off = 0;
  for (; Len - Off >= CtrLanes * 16; Off += CtrLanes * 16) {
    __m128i B[CtrLanes];
    for (size_t L = 0; L < CtrLanes; ++L)
      B[L] = _mm_xor_si128(counterBlock(J0, ++Ctr), Keys[0]);
    for (unsigned R = 1; R < Rounds; ++R)
      for (size_t L = 0; L < CtrLanes; ++L)
        B[L] = _mm_aesenc_si128(B[L], Keys[R]);
    for (size_t L = 0; L < CtrLanes; ++L) {
      B[L] = _mm_aesenclast_si128(B[L], Keys[Rounds]);
      store(Out + Off + 16 * L, _mm_xor_si128(B[L], load(In + Off + 16 * L)));
    }
  }
  for (; Len - Off >= 16; Off += 16) {
    __m128i B = encryptBlock(Keys, Rounds, counterBlock(J0, ++Ctr));
    store(Out + Off, _mm_xor_si128(B, load(In + Off)));
  }
  if (Off < Len) {
    uint8_t Tail[16] = {0};
    std::memcpy(Tail, In + Off, Len - Off);
    __m128i B = encryptBlock(Keys, Rounds, counterBlock(J0, ++Ctr));
    store(Tail, _mm_xor_si128(B, load(Tail)));
    std::memcpy(Out + Off, Tail, Len - Off);
  }
}

/// GHASH works on byte-reversed blocks: reversed, a block's bit order is
/// the one PCLMULQDQ multiplies in.
ELIDE_X86_GCM inline __m128i reverseBytes(__m128i V) {
  return _mm_shuffle_epi8(
      V, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

/// Multiplies two byte-reversed field elements modulo the GCM polynomial:
/// the carry-less multiply, shift and two-phase reduction of Gueron and
/// Kounavis, "Intel Carry-Less Multiplication Instruction and its Usage
/// for Computing the GCM Mode" (2010), algorithms 1, 4 and 5.
ELIDE_X86_GCM __m128i gfMul(__m128i A, __m128i B) {
  __m128i Lo = _mm_clmulepi64_si128(A, B, 0x00);
  __m128i Hi = _mm_clmulepi64_si128(A, B, 0x11);
  __m128i Mid = _mm_xor_si128(_mm_clmulepi64_si128(A, B, 0x10),
                              _mm_clmulepi64_si128(A, B, 0x01));
  Lo = _mm_xor_si128(Lo, _mm_slli_si128(Mid, 8));
  Hi = _mm_xor_si128(Hi, _mm_srli_si128(Mid, 8));

  // The operands are bit-reflected, so the 256-bit product [Hi:Lo] comes
  // out one bit short: shift it left by one.
  __m128i LoTop = _mm_srli_epi32(Lo, 31);
  __m128i HiTop = _mm_srli_epi32(Hi, 31);
  Lo = _mm_or_si128(_mm_slli_epi32(Lo, 1), _mm_slli_si128(LoTop, 4));
  Hi = _mm_or_si128(_mm_slli_epi32(Hi, 1), _mm_slli_si128(HiTop, 4));
  Hi = _mm_or_si128(Hi, _mm_srli_si128(LoTop, 12));

  // Reduce modulo x^128 + x^7 + x^2 + x + 1 in two phases.
  __m128i T = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(Lo, 31), _mm_slli_epi32(Lo, 30)),
      _mm_slli_epi32(Lo, 25));
  Lo = _mm_xor_si128(Lo, _mm_slli_si128(T, 12));
  __m128i U = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(Lo, 1), _mm_srli_epi32(Lo, 2)),
      _mm_srli_epi32(Lo, 7));
  U = _mm_xor_si128(U, _mm_srli_si128(T, 4));
  return _mm_xor_si128(Hi, _mm_xor_si128(Lo, U));
}

ELIDE_X86_GCM void x86Ghash(const uint8_t HBytes[16], uint8_t YBytes[16],
                            const uint8_t *Data, size_t Len) {
  __m128i H = reverseBytes(load(HBytes));
  __m128i Y = reverseBytes(load(YBytes));
  for (; Len >= 16; Data += 16, Len -= 16)
    Y = gfMul(_mm_xor_si128(Y, reverseBytes(load(Data))), H);
  if (Len != 0) {
    uint8_t Last[16] = {0};
    std::memcpy(Last, Data, Len);
    Y = gfMul(_mm_xor_si128(Y, reverseBytes(load(Last))), H);
  }
  store(YBytes, reverseBytes(Y));
}

/// CPUID leaf 1, ECX: AES (bit 25), PCLMULQDQ (bit 1), SSE4.1 (bit 19).
/// Read with `__get_cpuid`: `__builtin_cpu_supports` would link libgcc's
/// CPU-model initializer into every binary that uses GCM.
bool cpuHasGcmFeatures() {
  unsigned Eax, Ebx, Ecx, Edx;
  if (!__get_cpuid(1, &Eax, &Ebx, &Ecx, &Edx))
    return false;
  unsigned Needed = bit_AES | bit_PCLMUL | bit_SSE4_1;
  return (Ecx & Needed) == Needed;
}

} // namespace

std::optional<GcmKernel> elide::x86GcmKernel() {
  if (!cpuHasGcmFeatures())
    return std::nullopt;
  return GcmKernel{x86Ctr, x86Ghash};
}

#else

std::optional<elide::GcmKernel> elide::x86GcmKernel() { return std::nullopt; }

#endif
