//===- elide/Bridge.h - Trusted/untrusted call tables ---------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed dispatch indices shared by the Elc compiler (which resolves
/// `extern tcall` / `extern ocall` declarations), the trusted runtime
/// (which registers the tcall implementations), and the untrusted host
/// runtime (which implements the ocalls). The paper's public API surface
/// maps directly: one ecall (`elide_restore`) and the ocalls
/// `elide_server_request` / `elide_read_file`, plus the sealing and
/// quoting plumbing the paper describes but left unimplemented.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ELIDE_BRIDGE_H
#define SGXELIDE_ELIDE_BRIDGE_H

#include "sgx/SgxTypes.h"

#include <cstdint>

namespace elide {

/// Untrusted (ocall) function indices.
enum OcallIndex : uint32_t {
  /// One request/response round trip with the authentication server.
  OcallServerRequest = 0,
  /// Reads the (encrypted) enclave.secret.data file (local-data mode).
  OcallReadFile = 1,
  /// Reads the sealed-secrets blob from the previous launch ("" if none).
  OcallReadSealed = 2,
  /// Persists the sealed-secrets blob (paper step 7).
  OcallWriteSealed = 3,
  /// Passes an EREPORT to the quoting enclave, returns the quote (the
  /// aesm shuttling role).
  OcallGetQuote = 4,
  /// Debug printing (honored only for debug enclaves).
  OcallPrint = 5,
  /// First index available to applications.
  OcallAppBase = 32,
};

/// Trusted (tcall) library function indices -- the "statically linked SGX
/// SDK libraries" whose symbols dominate the paper's 170-entry whitelist.
enum TcallIndex : uint32_t {
  TcallReadRand = 0,
  TcallMemcpy = 1,
  TcallMemset = 2,
  TcallDebugPrint = 3,
  TcallChannelInit = 4,
  TcallFetchMeta = 5,
  TcallFetchData = 6,
  TcallDecryptLocal = 7,
  TcallMetaEncrypted = 10,
  TcallMetaDataLen = 11,
  TcallSealStore = 12,
  TcallUnsealLoad = 13,
  TcallProtectText = 14,
  TcallIsSgx2 = 15,
  /// First index available to applications.
  TcallAppBase = 32,
};

/// Serialization of a local-attestation report for the quoting ocall.
Bytes serializeReport(const sgx::Report &R);
Expected<sgx::Report> deserializeReport(BytesView Data);

} // namespace elide

#endif // SGXELIDE_ELIDE_BRIDGE_H
