//===- sgx/SgxTypes.h - SGX architectural structures -------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The architectural data structures of the SGX device model: measurement,
/// SIGSTRUCT, REPORT / TARGETINFO, and attestation quotes. Field layouts
/// are simplified but the *protocol roles* match the Intel SDM: SIGSTRUCT
/// carries a vendor signature over the enclave measurement checked at
/// EINIT; REPORT is MAC'd with a key only the target enclave (or the
/// quoting enclave) can derive; a quote is a REPORT body signed with a
/// device attestation key chained to the attestation authority.
///
/// Substitution (see DESIGN.md): Ed25519 replaces RSA-3072 (SIGSTRUCT) and
/// EPID (quotes).
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SGX_SGXTYPES_H
#define SGXELIDE_SGX_SGXTYPES_H

#include "crypto/Cmac.h"
#include "crypto/Ed25519.h"
#include "support/Bytes.h"
#include "support/Error.h"

#include <array>

namespace elide {
namespace sgx {

/// `Error::code()` values for SGX structure parsing and enclave launch
/// failures. The loader's callers (and the adversarial-input tests) branch
/// on these rather than matching message text; 0x53 ('S') namespaces the
/// code space.
enum SgxErrc : int {
  SgxErrcMalformed = 0x5301,           ///< Serialized structure has the
                                       ///< wrong size or impossible fields.
  SgxErrcBadSignature = 0x5302,        ///< SIGSTRUCT/quote signature does
                                       ///< not verify.
  SgxErrcMeasurementMismatch = 0x5303, ///< EINIT: measured MRENCLAVE is not
                                       ///< the one the vendor signed.
};

/// MRENCLAVE / MRSIGNER: a SHA-256 digest.
using Measurement = std::array<uint8_t, 32>;

/// User data bound into a report (e.g. a channel public key).
using ReportData = std::array<uint8_t, 64>;

/// Enclave attribute bits.
enum AttributeBits : uint64_t {
  /// Debug enclave: debug ocalls (printing) permitted.
  AttrDebug = 1 << 0,
  /// SGX2: runtime page-permission extension (EMODPE) available. Off by
  /// default -- SGX1 semantics, the environment the paper targets.
  AttrSgx2DynamicPerms = 1 << 1,
};

/// Page permission bits inside the EPC (match ELF PF_* values).
enum PagePerm : uint8_t {
  PermExec = 1,
  PermWrite = 2,
  PermRead = 4,
};

constexpr uint64_t EpcPageSize = 0x1000;
/// Hard ceiling on enclave address space. EADD rejects a page at or above
/// it, which bounds the flat EPC table at 262,144 entries, and the loader
/// rejects absurd segment sizes (e.g. from corrupted program headers)
/// before its page loop allocates the machine away.
constexpr uint64_t MaxEnclaveSize = 1ull << 30;
/// EEXTEND measures 256 bytes at a time: 16 invocations per page, as the
/// paper's background section describes.
constexpr uint64_t EextendChunk = 256;

/// The enclave vendor's signature structure, checked at EINIT.
struct SigStruct {
  Measurement MrEnclave{};
  uint64_t Attributes = 0;
  Ed25519PublicKey VendorKey{};
  Ed25519Signature Signature{};

  /// MRSIGNER: hash of the vendor's public key.
  Measurement mrSigner() const;

  /// The byte string the vendor signs.
  Bytes signedMessage() const;

  /// Creates a signed SIGSTRUCT for a measurement.
  static SigStruct sign(const Ed25519KeyPair &Vendor,
                        const Measurement &MrEnclave, uint64_t Attributes);

  /// Verifies the vendor signature (not the measurement match; EINIT
  /// checks that separately).
  bool verify() const;

  Bytes serialize() const;
  static Expected<SigStruct> deserialize(BytesView Data);
};

/// The attested body shared by REPORT and QUOTE.
struct ReportBody {
  Measurement MrEnclave{};
  Measurement MrSigner{};
  uint64_t Attributes = 0;
  ReportData Data{};

  Bytes serialize() const;
  static Expected<ReportBody> deserialize(BytesView Bytes);
};

/// Identifies the enclave a report is targeted at (EREPORT destination,
/// which determines the MAC key).
struct TargetInfo {
  Measurement MrEnclave{};
};

/// A local-attestation report: body + CMAC under the target's report key.
struct Report {
  ReportBody Body;
  CmacTag Mac{};
};

/// A remote-attestation quote: report body signed by the quoting enclave's
/// attestation key, whose certificate is signed by the authority root.
struct Quote {
  ReportBody Body;
  Ed25519PublicKey AttestationKey{};
  Ed25519Signature KeyCertificate{}; ///< Authority's signature over AttestationKey.
  Ed25519Signature Signature{};      ///< Attestation key's signature over Body.

  Bytes serialize() const;
  static Expected<Quote> deserialize(BytesView Data);
};

/// Key-derivation policy for sealing (Intel SDM: KEYPOLICY).
enum class SealPolicy : uint8_t {
  MrEnclave = 0, ///< Only the identical enclave can unseal.
  MrSigner = 1,  ///< Any enclave from the same vendor can unseal.
};

} // namespace sgx
} // namespace elide

#endif // SGXELIDE_SGX_SGXTYPES_H
