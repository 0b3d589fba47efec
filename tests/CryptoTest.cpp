//===- tests/CryptoTest.cpp - Known-answer and property tests for crypto --===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "crypto/Aes.h"
#include "crypto/AesGcm.h"
#include "crypto/Cmac.h"
#include "crypto/CryptoEqual.h"
#include "crypto/Drbg.h"
#include "crypto/Ed25519.h"
#include "crypto/Field25519.h"
#include "crypto/Hkdf.h"
#include "crypto/Hmac.h"
#include "crypto/Sha256.h"
#include "crypto/Sha512.h"
#include "crypto/X25519.h"
#include "support/Hex.h"

#include <gtest/gtest.h>

using namespace elide;

namespace {

Bytes hexBytes(const std::string &H) {
  Expected<Bytes> B = fromHex(H);
  EXPECT_TRUE(static_cast<bool>(B)) << "bad hex in test: " << H;
  return B ? B.takeValue() : Bytes();
}

template <size_t N> std::array<uint8_t, N> hexArray(const std::string &H) {
  Bytes B = hexBytes(H);
  EXPECT_EQ(B.size(), N);
  std::array<uint8_t, N> Out{};
  std::copy(B.begin(), B.end(), Out.begin());
  return Out;
}

//===----------------------------------------------------------------------===//
// SHA-256 (FIPS 180-4 / NIST CAVP vectors)
//===----------------------------------------------------------------------===//

TEST(Sha256Test, EmptyMessage) {
  EXPECT_EQ(toHex(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  Bytes Msg = bytesOfString("abc");
  EXPECT_EQ(toHex(Sha256::hash(Msg)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  Bytes Msg = bytesOfString(
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(toHex(Sha256::hash(Msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 Ctx;
  Bytes Chunk(1000, static_cast<uint8_t>('a'));
  for (int I = 0; I < 1000; ++I)
    Ctx.update(Chunk);
  EXPECT_EQ(toHex(Ctx.final()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  Drbg Rng(42);
  Bytes Msg = Rng.bytes(1031);
  Sha256 Ctx;
  // Feed in awkward chunk sizes to cross block boundaries.
  size_t Off = 0;
  size_t Sizes[] = {1, 63, 64, 65, 130, 708};
  for (size_t Sz : Sizes) {
    Ctx.update(BytesView(Msg.data() + Off, Sz));
    Off += Sz;
  }
  ASSERT_EQ(Off, Msg.size());
  EXPECT_EQ(Ctx.final(), Sha256::hash(Msg));
}

//===----------------------------------------------------------------------===//
// SHA-512
//===----------------------------------------------------------------------===//

TEST(Sha512Test, EmptyMessage) {
  EXPECT_EQ(toHex(Sha512::hash({})),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512Test, Abc) {
  Bytes Msg = bytesOfString("abc");
  EXPECT_EQ(toHex(Sha512::hash(Msg)),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512Test, TwoBlockMessage) {
  Bytes Msg = bytesOfString(
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
      "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  EXPECT_EQ(toHex(Sha512::hash(Msg)),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

//===----------------------------------------------------------------------===//
// HMAC-SHA256 (RFC 4231)
//===----------------------------------------------------------------------===//

TEST(HmacTest, Rfc4231Case1) {
  Bytes Key(20, 0x0b);
  Bytes Msg = bytesOfString("Hi There");
  EXPECT_EQ(toHex(hmacSha256(Key, Msg)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes Key = bytesOfString("Jefe");
  Bytes Msg = bytesOfString("what do ya want for nothing?");
  EXPECT_EQ(toHex(hmacSha256(Key, Msg)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes Key(131, 0xaa);
  Bytes Msg = bytesOfString("Test Using Larger Than Block-Size Key - "
                            "Hash Key First");
  EXPECT_EQ(toHex(hmacSha256(Key, Msg)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(CryptoEqualTest, PointerFormMatchesEquality) {
  uint8_t A[32], B[32];
  for (size_t I = 0; I < 32; ++I)
    A[I] = B[I] = (uint8_t)(I * 7 + 3);
  EXPECT_TRUE(cryptoEqual(A, B, 32));
  EXPECT_TRUE(cryptoEqual(A, B, 0)); // Empty ranges are equal.
  // A difference anywhere -- first, middle, last byte -- is caught; the
  // loop must not exit early on the first mismatch.
  for (size_t Flip : {size_t(0), size_t(15), size_t(31)}) {
    B[Flip] ^= 0x80;
    EXPECT_FALSE(cryptoEqual(A, B, 32)) << "flip at " << Flip;
    B[Flip] ^= 0x80;
  }
}

TEST(CryptoEqualTest, ViewFormRejectsLengthMismatch) {
  Bytes A = hexBytes("deadbeef");
  Bytes B = hexBytes("deadbeef");
  Bytes LastFlipped = hexBytes("deadbeee");
  Bytes Short = hexBytes("deadbe");
  EXPECT_TRUE(cryptoEqual(BytesView(A), BytesView(B)));
  EXPECT_FALSE(cryptoEqual(BytesView(A), BytesView(LastFlipped)));
  EXPECT_FALSE(cryptoEqual(BytesView(A), BytesView(Short)));
  EXPECT_TRUE(cryptoEqual(BytesView(A.data(), 0), BytesView(B.data(), 0)));
}

//===----------------------------------------------------------------------===//
// HKDF (RFC 5869)
//===----------------------------------------------------------------------===//

TEST(HkdfTest, Rfc5869Case1) {
  Bytes Ikm(22, 0x0b);
  Bytes Salt = hexBytes("000102030405060708090a0b0c");
  Bytes Info = hexBytes("f0f1f2f3f4f5f6f7f8f9");
  Bytes Okm = hkdf(Salt, Ikm, Info, 42);
  EXPECT_EQ(toHex(Okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, Rfc5869Case3EmptySaltInfo) {
  Bytes Ikm(22, 0x0b);
  Bytes Okm = hkdf({}, Ikm, {}, 42);
  EXPECT_EQ(toHex(Okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

//===----------------------------------------------------------------------===//
// AES (FIPS 197 appendix vectors)
//===----------------------------------------------------------------------===//

TEST(AesTest, Fips197Aes128) {
  Bytes Key = hexBytes("000102030405060708090a0b0c0d0e0f");
  Bytes Pt = hexBytes("00112233445566778899aabbccddeeff");
  Expected<Aes> Cipher = Aes::create(Key);
  ASSERT_TRUE(static_cast<bool>(Cipher));
  uint8_t Ct[16];
  Cipher->encryptBlock(Pt.data(), Ct);
  EXPECT_EQ(toHex(BytesView(Ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t Back[16];
  Cipher->decryptBlock(Ct, Back);
  EXPECT_EQ(toHex(BytesView(Back, 16)), toHex(Pt));
}

TEST(AesTest, Fips197Aes192) {
  Bytes Key = hexBytes("000102030405060708090a0b0c0d0e0f1011121314151617");
  Bytes Pt = hexBytes("00112233445566778899aabbccddeeff");
  Expected<Aes> Cipher = Aes::create(Key);
  ASSERT_TRUE(static_cast<bool>(Cipher));
  uint8_t Ct[16];
  Cipher->encryptBlock(Pt.data(), Ct);
  EXPECT_EQ(toHex(BytesView(Ct, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(AesTest, Fips197Aes256) {
  Bytes Key = hexBytes(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes Pt = hexBytes("00112233445566778899aabbccddeeff");
  Expected<Aes> Cipher = Aes::create(Key);
  ASSERT_TRUE(static_cast<bool>(Cipher));
  uint8_t Ct[16];
  Cipher->encryptBlock(Pt.data(), Ct);
  EXPECT_EQ(toHex(BytesView(Ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t Back[16];
  Cipher->decryptBlock(Ct, Back);
  EXPECT_EQ(toHex(BytesView(Back, 16)), toHex(Pt));
}

TEST(AesTest, RejectsBadKeySizes) {
  EXPECT_FALSE(static_cast<bool>(Aes::create(Bytes(15))));
  EXPECT_FALSE(static_cast<bool>(Aes::create(Bytes(0))));
  EXPECT_FALSE(static_cast<bool>(Aes::create(Bytes(33))));
}

//===----------------------------------------------------------------------===//
// AES-GCM (NIST GCM spec test cases)
//===----------------------------------------------------------------------===//

TEST(AesGcmTest, NistCase1EmptyEverything) {
  Bytes Key(16, 0);
  Bytes Iv(12, 0);
  Expected<GcmSealed> Sealed = aesGcmEncrypt(Key, Iv, {}, {});
  ASSERT_TRUE(static_cast<bool>(Sealed));
  EXPECT_TRUE(Sealed->Ciphertext.empty());
  EXPECT_EQ(toHex(BytesView(Sealed->Tag.data(), 16)),
            "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(AesGcmTest, NistCase2SingleBlock) {
  Bytes Key(16, 0);
  Bytes Iv(12, 0);
  Bytes Pt(16, 0);
  Expected<GcmSealed> Sealed = aesGcmEncrypt(Key, Iv, Pt, {});
  ASSERT_TRUE(static_cast<bool>(Sealed));
  EXPECT_EQ(toHex(Sealed->Ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(toHex(BytesView(Sealed->Tag.data(), 16)),
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(AesGcmTest, NistCase4WithAad) {
  Bytes Key = hexBytes("feffe9928665731c6d6a8f9467308308");
  Bytes Iv = hexBytes("cafebabefacedbaddecaf888");
  Bytes Pt = hexBytes(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  Bytes Aad = hexBytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  Expected<GcmSealed> Sealed = aesGcmEncrypt(Key, Iv, Pt, Aad);
  ASSERT_TRUE(static_cast<bool>(Sealed));
  EXPECT_EQ(toHex(Sealed->Ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091");
  EXPECT_EQ(toHex(BytesView(Sealed->Tag.data(), 16)),
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(AesGcmTest, RoundTripAndTamperDetection) {
  Drbg Rng(7);
  Bytes Key = Rng.bytes(16);
  Bytes Iv = Rng.bytes(12);
  Bytes Pt = Rng.bytes(1000);
  Bytes Aad = Rng.bytes(37);

  Expected<GcmSealed> Sealed = aesGcmEncrypt(Key, Iv, Pt, Aad);
  ASSERT_TRUE(static_cast<bool>(Sealed));
  Expected<Bytes> Back =
      aesGcmDecrypt(Key, Iv, Sealed->Ciphertext, Aad, Sealed->Tag);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Pt);

  // Flipping any ciphertext bit must be detected.
  Bytes Corrupt = Sealed->Ciphertext;
  Corrupt[500] ^= 1;
  EXPECT_FALSE(
      static_cast<bool>(aesGcmDecrypt(Key, Iv, Corrupt, Aad, Sealed->Tag)));

  // Flipping AAD must be detected.
  Bytes BadAad = Aad;
  BadAad[0] ^= 0x80;
  EXPECT_FALSE(static_cast<bool>(
      aesGcmDecrypt(Key, Iv, Sealed->Ciphertext, BadAad, Sealed->Tag)));

  // Tampering the tag must be detected.
  GcmTag BadTag = Sealed->Tag;
  BadTag[15] ^= 4;
  EXPECT_FALSE(static_cast<bool>(
      aesGcmDecrypt(Key, Iv, Sealed->Ciphertext, Aad, BadTag)));
}

TEST(AesGcmTest, NonTwelveByteIv) {
  // GCM spec test case 6 uses a 60-byte IV.
  Bytes Key = hexBytes("feffe9928665731c6d6a8f9467308308");
  Bytes Iv = hexBytes(
      "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
      "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b");
  Bytes Pt = hexBytes(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  Bytes Aad = hexBytes("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  Expected<GcmSealed> Sealed = aesGcmEncrypt(Key, Iv, Pt, Aad);
  ASSERT_TRUE(static_cast<bool>(Sealed));
  EXPECT_EQ(toHex(BytesView(Sealed->Tag.data(), 16)),
            "619cc5aefffe0bfa462af43c1699d050");
}

TEST(AesCtrTest, KeystreamRoundTrip) {
  Drbg Rng(11);
  Bytes Key = Rng.bytes(16);
  std::array<uint8_t, 16> Ctr{};
  Bytes Pt = Rng.bytes(777);
  Expected<Bytes> Ct = aesCtrCrypt(Key, Ctr, Pt);
  ASSERT_TRUE(static_cast<bool>(Ct));
  EXPECT_NE(*Ct, Pt);
  Expected<Bytes> Back = aesCtrCrypt(Key, Ctr, *Ct);
  ASSERT_TRUE(static_cast<bool>(Back));
  EXPECT_EQ(*Back, Pt);
}

//===----------------------------------------------------------------------===//
// AES-CMAC (RFC 4493)
//===----------------------------------------------------------------------===//

TEST(CmacTest, Rfc4493Examples) {
  Aes128Key Key = hexArray<16>("2b7e151628aed2a6abf7158809cf4f3c");

  EXPECT_EQ(toHex(BytesView(aesCmac(Key, {}).data(), 16)),
            "bb1d6929e95937287fa37d129b756746");

  Bytes M16 = hexBytes("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(toHex(BytesView(aesCmac(Key, M16).data(), 16)),
            "070a16b46b4d4144f79bdd9dd04a287c");

  Bytes M40 = hexBytes("6bc1bee22e409f96e93d7e117393172a"
                       "ae2d8a571e03ac9c9eb76fac45af8e51"
                       "30c81c46a35ce411");
  EXPECT_EQ(toHex(BytesView(aesCmac(Key, M40).data(), 16)),
            "dfa66747de9ae63030ca32611497c827");

  Bytes M64 = hexBytes("6bc1bee22e409f96e93d7e117393172a"
                       "ae2d8a571e03ac9c9eb76fac45af8e51"
                       "30c81c46a35ce411e5fbc1191a0a52ef"
                       "f69f2445df4f9b17ad2b417be66c3710");
  EXPECT_EQ(toHex(BytesView(aesCmac(Key, M64).data(), 16)),
            "51f0bebf7e3b9d92fc49741779363cfe");
}

//===----------------------------------------------------------------------===//
// X25519 (RFC 7748)
//===----------------------------------------------------------------------===//

TEST(X25519Test, Rfc7748Vector1) {
  X25519Key Scalar = hexArray<32>(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  X25519Key Point = hexArray<32>(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  X25519Key Out = x25519(Scalar, Point);
  EXPECT_EQ(toHex(BytesView(Out.data(), 32)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748DiffieHellman) {
  X25519Key AliceSecret = hexArray<32>(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  X25519Key BobSecret = hexArray<32>(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  X25519Key AlicePub = x25519PublicKey(AliceSecret);
  X25519Key BobPub = x25519PublicKey(BobSecret);
  EXPECT_EQ(toHex(BytesView(AlicePub.data(), 32)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(toHex(BytesView(BobPub.data(), 32)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  X25519Key SharedA = x25519(AliceSecret, BobPub);
  X25519Key SharedB = x25519(BobSecret, AlicePub);
  EXPECT_EQ(SharedA, SharedB);
  EXPECT_EQ(toHex(BytesView(SharedA.data(), 32)),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

//===----------------------------------------------------------------------===//
// Ed25519 (RFC 8032 section 7.1)
//===----------------------------------------------------------------------===//

TEST(Ed25519Test, Rfc8032Test1EmptyMessage) {
  Ed25519Seed Seed = hexArray<32>(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60");
  Ed25519KeyPair Key = ed25519KeyPairFromSeed(Seed);
  EXPECT_EQ(toHex(BytesView(Key.PublicKey.data(), 32)),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a");
  Ed25519Signature Sig = ed25519Sign(Key, {});
  EXPECT_EQ(toHex(BytesView(Sig.data(), 64)),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
            "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b");
  EXPECT_TRUE(ed25519Verify(Key.PublicKey, {}, Sig));
}

TEST(Ed25519Test, Rfc8032Test2OneByte) {
  Ed25519Seed Seed = hexArray<32>(
      "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb");
  Ed25519KeyPair Key = ed25519KeyPairFromSeed(Seed);
  EXPECT_EQ(toHex(BytesView(Key.PublicKey.data(), 32)),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c");
  Bytes Msg = hexBytes("72");
  Ed25519Signature Sig = ed25519Sign(Key, Msg);
  EXPECT_EQ(toHex(BytesView(Sig.data(), 64)),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
            "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00");
  EXPECT_TRUE(ed25519Verify(Key.PublicKey, Msg, Sig));
}

TEST(Ed25519Test, Rfc8032Test3TwoBytes) {
  Ed25519Seed Seed = hexArray<32>(
      "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7");
  Ed25519KeyPair Key = ed25519KeyPairFromSeed(Seed);
  Bytes Msg = hexBytes("af82");
  Ed25519Signature Sig = ed25519Sign(Key, Msg);
  EXPECT_EQ(toHex(BytesView(Sig.data(), 64)),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
            "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a");
  EXPECT_TRUE(ed25519Verify(Key.PublicKey, Msg, Sig));
}

TEST(Ed25519Test, RejectsTamperedSignatureAndMessage) {
  Drbg Rng(99);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), Seed.size()));
  Ed25519KeyPair Key = ed25519KeyPairFromSeed(Seed);
  Bytes Msg = bytesOfString("the secret enclave measurement");
  Ed25519Signature Sig = ed25519Sign(Key, Msg);
  EXPECT_TRUE(ed25519Verify(Key.PublicKey, Msg, Sig));

  Ed25519Signature BadSig = Sig;
  BadSig[3] ^= 1;
  EXPECT_FALSE(ed25519Verify(Key.PublicKey, Msg, BadSig));

  Bytes BadMsg = Msg;
  BadMsg[0] ^= 1;
  EXPECT_FALSE(ed25519Verify(Key.PublicKey, BadMsg, Sig));

  Ed25519PublicKey BadKey = Key.PublicKey;
  BadKey[1] ^= 2;
  EXPECT_FALSE(ed25519Verify(BadKey, Msg, Sig));
}

//===----------------------------------------------------------------------===//
// Field arithmetic properties
//===----------------------------------------------------------------------===//

class FieldPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FieldPropertyTest, MulInverseIsOne) {
  Drbg Rng(GetParam());
  uint8_t Raw[32];
  Rng.fill(MutableBytesView(Raw, 32));
  Raw[31] &= 0x7f;
  Fe A = feFromBytes(Raw);
  if (feIsZero(A))
    return;
  Fe Inv = feInvert(A);
  uint8_t One[32];
  feToBytes(One, feMul(A, Inv));
  EXPECT_EQ(One[0], 1);
  for (int I = 1; I < 32; ++I)
    EXPECT_EQ(One[I], 0) << "byte " << I;
}

TEST_P(FieldPropertyTest, AddSubRoundTrip) {
  Drbg Rng(GetParam() * 31 + 7);
  uint8_t RawA[32], RawB[32];
  Rng.fill(MutableBytesView(RawA, 32));
  Rng.fill(MutableBytesView(RawB, 32));
  RawA[31] &= 0x7f;
  RawB[31] &= 0x7f;
  Fe A = feFromBytes(RawA);
  Fe B = feFromBytes(RawB);
  uint8_t Lhs[32], Rhs[32];
  feToBytes(Lhs, feSub(feAdd(A, B), B));
  feToBytes(Rhs, A);
  EXPECT_EQ(toHex(BytesView(Lhs, 32)), toHex(BytesView(Rhs, 32)));
}

TEST_P(FieldPropertyTest, MulDistributesOverAdd) {
  Drbg Rng(GetParam() * 131 + 3);
  uint8_t Raw[3][32];
  for (auto &R : Raw) {
    Rng.fill(MutableBytesView(R, 32));
    R[31] &= 0x7f;
  }
  Fe A = feFromBytes(Raw[0]);
  Fe B = feFromBytes(Raw[1]);
  Fe C = feFromBytes(Raw[2]);
  uint8_t Lhs[32], Rhs[32];
  feToBytes(Lhs, feMul(A, feAdd(B, C)));
  feToBytes(Rhs, feAdd(feMul(A, B), feMul(A, C)));
  EXPECT_EQ(toHex(BytesView(Lhs, 32)), toHex(BytesView(Rhs, 32)));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, FieldPropertyTest,
                         ::testing::Range<uint64_t>(0, 16));

//===----------------------------------------------------------------------===//
// DRBG
//===----------------------------------------------------------------------===//

TEST(DrbgTest, DeterministicForSameSeed) {
  Drbg A(123), B(123);
  EXPECT_EQ(A.bytes(100), B.bytes(100));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  Drbg A(1), B(2);
  EXPECT_NE(A.bytes(32), B.bytes(32));
}

TEST(DrbgTest, NextBelowInRange) {
  Drbg Rng(5);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(DrbgTest, FillSplitMatchesContiguous) {
  Drbg A(9), B(9);
  Bytes X = A.bytes(64);
  Bytes Y1 = B.bytes(13);
  Bytes Y2 = B.bytes(51);
  appendBytes(Y1, Y2);
  EXPECT_EQ(X, Y1);
}

//===----------------------------------------------------------------------===//
// Hex
//===----------------------------------------------------------------------===//

TEST(HexTest, RoundTrip) {
  Bytes B = hexBytes("00ff10ab");
  EXPECT_EQ(toHex(B), "00ff10ab");
}

TEST(HexTest, RejectsOddLength) {
  EXPECT_FALSE(static_cast<bool>(fromHex("abc")));
}

TEST(HexTest, RejectsNonHex) {
  EXPECT_FALSE(static_cast<bool>(fromHex("zz")));
}

TEST(HexTest, AcceptsUppercase) {
  Expected<Bytes> B = fromHex("DEADBEEF");
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(toHex(*B), "deadbeef");
}

} // namespace
