//===- tests/GcmKernelTest.cpp - Both GCM kernels, side by side -----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cryptodiff` suite. Every known answer runs on the portable kernel
/// and on the AES-NI + PCLMULQDQ kernel, and a seeded differential holds
/// the hardware kernel to byte-identical ciphertexts and tags against the
/// portable reference. On a CPU or build without the hardware kernel its
/// tests report SKIPPED, never pass silently.
///
//===----------------------------------------------------------------------===//

#include "crypto/AesGcm.h"
#include "crypto/Drbg.h"
#include "support/Hex.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <ostream>

using namespace elide;

namespace {

Bytes hexBytes(const std::string &H) {
  Expected<Bytes> B = fromHex(H);
  EXPECT_TRUE(static_cast<bool>(B)) << "bad hex in test: " << H;
  return B ? B.takeValue() : Bytes();
}

enum class KernelId { Portable, X86 };

void PrintTo(KernelId Id, std::ostream *OS) {
  *OS << (Id == KernelId::Portable ? "Portable" : "X86");
}

constexpr const char *NoHardwareKernel =
    "no AES-NI + PCLMULQDQ + SSE4.1 GCM kernel on this CPU or build";

class GcmKernelTest : public testing::TestWithParam<KernelId> {
protected:
  void SetUp() override {
    K = GetParam() == KernelId::Portable ? portableGcmKernel()
                                         : x86GcmKernel();
    if (!K)
      GTEST_SKIP() << NoHardwareKernel;
  }

  std::optional<GcmKernel> K;
};

//===----------------------------------------------------------------------===//
// Known answers (McGrew and Viega, "The Galois/Counter Mode of Operation",
// appendix B test cases)
//===----------------------------------------------------------------------===//

const char *const SpecKey =
    "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
const char *const SpecIv = "cafebabefacedbaddecaf888";
const char *const SpecPlaintext =
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";

/// Test cases 3, 9 and 15: the 64-byte plaintext with no AAD under the
/// 128-, 192- and 256-bit prefix of one key.
struct SpecCase {
  size_t KeyBytes;
  const char *Ciphertext;
  const char *Tag;
};

const SpecCase SpecCases[] = {
    {16,
     "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
     "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
     "4d5c2af327cd64a62cf35abd2ba6fab4"},
    {24,
     "3980ca0b3c00e841eb06fac4872a2757859e1ceaa6efd984628593b40ca1e19c"
     "7d773d00c144c525ac619d18c84a3f4718e2448b2fe324d9ccda2710acade256",
     "9924a7c8587336bfb118024db8674a14"},
    {32,
     "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
     "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
     "b094dac5d93471bdec1a502270e3cc6c"},
};

TEST_P(GcmKernelTest, SpecCases3And9And15SealAndOpen) {
  Bytes Iv = hexBytes(SpecIv);
  Bytes Pt = hexBytes(SpecPlaintext);
  for (const SpecCase &C : SpecCases) {
    SCOPED_TRACE(testing::Message() << C.KeyBytes * 8 << "-bit key");
    Bytes Key = hexBytes(SpecKey);
    Key.resize(C.KeyBytes);
    Expected<GcmSealed> Sealed = aesGcmEncrypt(*K, Key, Iv, Pt, {});
    ASSERT_TRUE(static_cast<bool>(Sealed));
    EXPECT_EQ(toHex(Sealed->Ciphertext), C.Ciphertext);
    EXPECT_EQ(toHex(BytesView(Sealed->Tag.data(), 16)), C.Tag);

    Expected<Bytes> Opened =
        aesGcmDecrypt(*K, Key, Iv, Sealed->Ciphertext, {}, Sealed->Tag);
    ASSERT_TRUE(static_cast<bool>(Opened));
    EXPECT_EQ(*Opened, Pt);

    GcmTag BadTag = Sealed->Tag;
    BadTag[0] ^= 1;
    EXPECT_FALSE(static_cast<bool>(
        aesGcmDecrypt(*K, Key, Iv, Sealed->Ciphertext, {}, BadTag)));
  }
}

TEST_P(GcmKernelTest, GhashOfSpecCase4) {
  // Test case 4: H = E(K, 0^128); GHASH runs over the 20-byte AAD and the
  // 60-byte ciphertext, each zero-padded to whole blocks, then the length
  // block (160 and 480 bits).
  std::array<uint8_t, 16> H{};
  Bytes HBytes = hexBytes("b83b533708bf535d0aa6e52980d53b78");
  std::copy(HBytes.begin(), HBytes.end(), H.begin());
  Bytes Blocks = hexBytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  Blocks.resize(32);
  Bytes Ct = hexBytes(
      "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  Ct.resize(64);
  Blocks.insert(Blocks.end(), Ct.begin(), Ct.end());
  Bytes Lengths = hexBytes("00000000000000a000000000000001e0");
  Blocks.insert(Blocks.end(), Lengths.begin(), Lengths.end());

  std::array<uint8_t, 16> Y = ghash(*K, H, Blocks);
  EXPECT_EQ(toHex(BytesView(Y.data(), 16)),
            "698e57f70e6ecc7fd9463b7260a9ae5f");
  EXPECT_EQ(toHex(BytesView(ghash(*K, H, {}).data(), 16)),
            "00000000000000000000000000000000");
}

INSTANTIATE_TEST_SUITE_P(Kernels, GcmKernelTest,
                         testing::Values(KernelId::Portable, KernelId::X86),
                         testing::PrintToStringParamName());

//===----------------------------------------------------------------------===//
// Seeded differential: the hardware kernel against the portable reference
//===----------------------------------------------------------------------===//

constexpr uint64_t DiffSeed = 0x6c636d2d64696666; // "gcm-diff"
constexpr int DiffCases = 12000;

/// \p Len random bytes at a random offset 0..15 into a larger buffer, so
/// the kernels see views that start on every alignment.
BytesView misaligned(Drbg &Rng, Bytes &Storage, size_t Len) {
  size_t Offset = Rng.nextBelow(16);
  Storage = Rng.bytes(Offset + Len);
  return BytesView(Storage.data() + Offset, Len);
}

TEST(GcmKernelDiffTest, X86MatchesPortableOnSeededCases) {
  std::optional<GcmKernel> X86 = x86GcmKernel();
  if (!X86)
    GTEST_SKIP() << NoHardwareKernel;
  GcmKernel Ref = portableGcmKernel();
  const size_t KeySizes[] = {16, 24, 32};

  Drbg Rng(DiffSeed);
  int Failures = 0;
  for (int Case = 0; Case < DiffCases && Failures < 5; ++Case) {
    SCOPED_TRACE(testing::Message() << "seed " << DiffSeed << " case " << Case);
    // Every length 0..80 many times over, then lengths up to 299 with an
    // occasional one past the eight-block batches of the CTR loop.
    size_t PtLen;
    if (Case < 81 * 40)
      PtLen = static_cast<size_t>(Case % 81);
    else if (Case % 50 == 0)
      PtLen = Rng.nextBelow(2049);
    else
      PtLen = Rng.nextBelow(300);
    Bytes Key = Rng.bytes(KeySizes[Case % 3]);
    Bytes Iv = Rng.bytes(Rng.nextBelow(2) ? 12 : 1 + Rng.nextBelow(40));
    Bytes PtStore, AadStore;
    BytesView Pt = misaligned(Rng, PtStore, PtLen);
    BytesView Aad = misaligned(Rng, AadStore, Rng.nextBelow(70));

    Expected<GcmSealed> Want = aesGcmEncrypt(Ref, Key, Iv, Pt, Aad);
    Expected<GcmSealed> Got = aesGcmEncrypt(*X86, Key, Iv, Pt, Aad);
    ASSERT_TRUE(Want && Got);
    bool Same = Got->Ciphertext == Want->Ciphertext && Got->Tag == Want->Tag;
    EXPECT_TRUE(Same) << "pt " << PtLen << " aad " << Aad.size() << " iv "
                      << Iv.size() << " key " << Key.size();
    Failures += !Same;

    // Open a misaligned copy of the ciphertext on both kernels.
    Bytes CtStore(Want->Ciphertext.size() + 1);
    std::copy(Want->Ciphertext.begin(), Want->Ciphertext.end(),
              CtStore.begin() + 1);
    BytesView Ct(CtStore.data() + 1, Want->Ciphertext.size());
    for (const GcmKernel &K : {Ref, *X86}) {
      Expected<Bytes> Opened = aesGcmDecrypt(K, Key, Iv, Ct, Aad, Want->Tag);
      ASSERT_TRUE(static_cast<bool>(Opened));
      EXPECT_TRUE(std::equal(Opened->begin(), Opened->end(), Pt.begin(),
                             Pt.end()));
    }
    if (Case % 16 == 0) {
      GcmTag BadTag = Want->Tag;
      BadTag[Rng.nextBelow(16)] ^= static_cast<uint8_t>(1 + Rng.nextBelow(255));
      for (const GcmKernel &K : {Ref, *X86})
        EXPECT_FALSE(
            static_cast<bool>(aesGcmDecrypt(K, Key, Iv, Ct, Aad, BadTag)));
    }
  }
}

TEST(GcmKernelDiffTest, CounterLowWordWrapsWithoutCarry) {
  std::optional<GcmKernel> X86 = x86GcmKernel();
  if (!X86)
    GTEST_SKIP() << NoHardwareKernel;
  GcmKernel Ref = portableGcmKernel();
  const size_t KeySizes[] = {16, 24, 32};

  Drbg Rng(DiffSeed + 1);
  for (uint32_t Low : {0xfffffffdU, 0xfffffffeU, 0xffffffffU}) {
    for (size_t KeyBytes : KeySizes) {
      SCOPED_TRACE(testing::Message() << "low word " << std::hex << Low
                                      << std::dec << ", " << KeyBytes * 8
                                      << "-bit key");
      Expected<Aes> Cipher = Aes::create(Rng.bytes(KeyBytes));
      ASSERT_TRUE(static_cast<bool>(Cipher));
      uint8_t J0[16];
      Rng.fill(MutableBytesView(J0, 12));
      writeBE32(J0 + 12, Low);
      Bytes InStore;
      BytesView In = misaligned(Rng, InStore, 16 * 20 + 7);

      Bytes Want(In.size()), Got(In.size());
      Ref.Ctr(*Cipher, J0, In.data(), Want.data(), In.size());
      X86->Ctr(*Cipher, J0, In.data(), Got.data(), In.size());
      EXPECT_EQ(toHex(Got), toHex(Want));

      // The block after the wrap is E(J0[0..11] || 00000000): bytes 0..11
      // never take a carry.
      uint8_t Wrapped[16];
      std::memcpy(Wrapped, J0, 12);
      writeBE32(Wrapped + 12, 0);
      uint8_t Keystream[16];
      Cipher->encryptBlock(Wrapped, Keystream);
      size_t At = 16 * (0xffffffffU - Low);
      for (int I = 0; I < 16; ++I)
        EXPECT_EQ(Got[At + I], In[At + I] ^ Keystream[I]) << "byte " << I;
    }
  }
}

} // namespace
