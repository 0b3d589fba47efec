//===- crypto/AesGcm.h - AES-GCM and AES-CTR (NIST SP 800-38D) ------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Authenticated encryption with AES-GCM -- the cipher the paper specifies
/// for both the client/server channel and the locally stored encrypted
/// secret data -- plus raw AES-CTR used by the EPC eviction path. The GCM
/// interface mirrors the SGX SDK's `sgx_rijndael128GCM_encrypt/decrypt`.
///
/// GCM runs on one of two kernels behind `GcmKernel`: the portable table
/// AES with a bit-serial GHASH, and on x86-64 CPUs with AES-NI, PCLMULQDQ
/// and SSE4.1 an AES-NI CTR with a PCLMULQDQ GHASH. `aesGcmEncrypt` and
/// `aesGcmDecrypt` pick one once per process; the overloads that take a
/// kernel let the tests run both.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_CRYPTO_AESGCM_H
#define SGXELIDE_CRYPTO_AESGCM_H

#include "crypto/Aes.h"

#include <optional>

namespace elide {

/// A 16-byte GCM authentication tag.
using GcmTag = std::array<uint8_t, 16>;

/// A 12-byte GCM initialization vector (the SGX SDK size).
using GcmIv = std::array<uint8_t, 12>;

/// Result of a GCM encryption: ciphertext plus tag.
struct GcmSealed {
  Bytes Ciphertext;
  GcmTag Tag;
};

/// Encrypts \p Plaintext under AES-GCM.
///
/// \param Key  16/24/32-byte AES key.
/// \param Iv   nonce; must never repeat for one key.
/// \param Aad  additional authenticated (but unencrypted) data.
Expected<GcmSealed> aesGcmEncrypt(BytesView Key, BytesView Iv,
                                  BytesView Plaintext, BytesView Aad);

/// Decrypts and authenticates. Fails (without releasing plaintext) when the
/// tag does not verify -- the property the enclave relies on to detect a
/// tampered secret-data file.
Expected<Bytes> aesGcmDecrypt(BytesView Key, BytesView Iv,
                              BytesView Ciphertext, BytesView Aad,
                              const GcmTag &Tag);

/// Raw AES-CTR keystream XOR (encryption and decryption are the same
/// operation). \p Counter is the initial 16-byte counter block, incremented
/// as a 128-bit big-endian integer per block.
Expected<Bytes> aesCtrCrypt(BytesView Key,
                            const std::array<uint8_t, 16> &Counter,
                            BytesView Data);

/// The two loops GCM spends its time in. The key schedule, the hash subkey
/// H = E(0), the pre-counter block J0, the length block and the tag mask
/// E(J0) are shared code, so two kernels can differ only here.
struct GcmKernel {
  /// XORs the keystream E(inc32(J0)), E(inc32(inc32(J0))), ... over \p Len
  /// bytes of \p In into \p Out, which may equal \p In.
  void (*Ctr)(const Aes &Cipher, const uint8_t J0[16], const uint8_t *In,
              uint8_t *Out, size_t Len);
  /// Absorbs \p Len bytes into the GHASH accumulator \p Y under the hash
  /// subkey \p H, zero-padding a final partial block.
  void (*Ghash)(const uint8_t H[16], uint8_t Y[16], const uint8_t *Data,
                size_t Len);
};

/// Table AES and a bit-serial GHASH: runs on every target, and is the
/// reference the hardware kernel is tested against.
GcmKernel portableGcmKernel();

/// AES-NI CTR and PCLMULQDQ GHASH; empty unless this is an x86-64 build
/// running on a CPU with AES-NI, PCLMULQDQ and SSE4.1.
std::optional<GcmKernel> x86GcmKernel();

/// `aesGcmEncrypt` and `aesGcmDecrypt` on the kernel \p K.
Expected<GcmSealed> aesGcmEncrypt(const GcmKernel &K, BytesView Key,
                                  BytesView Iv, BytesView Plaintext,
                                  BytesView Aad);
Expected<Bytes> aesGcmDecrypt(const GcmKernel &K, BytesView Key, BytesView Iv,
                              BytesView Ciphertext, BytesView Aad,
                              const GcmTag &Tag);

/// GHASH as defined by SP 800-38D on the kernel \p K, exposed for test
/// vectors. \p H is the hash subkey; \p Data must be a multiple of 16
/// bytes.
std::array<uint8_t, 16> ghash(const GcmKernel &K,
                              const std::array<uint8_t, 16> &H,
                              BytesView Data);

} // namespace elide

#endif // SGXELIDE_CRYPTO_AESGCM_H
