//===- sgx/EnclaveLoader.h - Load ELF enclave images into the device -----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The untrusted loader (the role of the SGX SDK's urts): walks an ELF
/// enclave image's loadable segments, EADDs every page (text, rodata,
/// data, bss, heap, stack) with the segment's p_flags as page permissions
/// -- which is precisely why the sanitizer's PF_W edit takes effect -- and
/// EINITs with the vendor's SIGSTRUCT.
///
/// `measureEnclaveImage` runs the identical page walk offline so the
/// vendor can compute MRENCLAVE at signing time without a device, exactly
/// like the SDK's sgx_sign tool.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SGX_ENCLAVELOADER_H
#define SGXELIDE_SGX_ENCLAVELOADER_H

#include "sgx/Attestation.h"
#include "sgx/Enclave.h"

namespace elide {
namespace sgx {

/// Memory layout parameters appended after the image's segments, plus
/// runtime knobs the loader applies to the freshly built enclave. Every
/// heap and stack page is EADDed and measured, so the defaults are sized
/// from what the shipped apps use, with headroom: the heap holds only the
/// ecall bridge arena (the largest ecall moves 4,176 bytes), and the
/// suites touch under 17 KiB of stack. An enclave that needs more sets
/// `BuildOptions::Layout`, which the signer and the loader both read.
struct EnclaveLayout {
  uint64_t HeapSize = 16 * 1024;
  uint64_t StackSize = 32 * 1024;
  /// SVM execution engine for this enclave's ecalls (`--svm-backend`).
  /// Not measured: dispatch strategy is invisible to MRENCLAVE, like a
  /// CPU microarchitecture choice.
  VmBackendKind SvmBackend = defaultVmBackendKind();
};

/// Computes the MRENCLAVE an image will measure to under \p Layout
/// (offline; used by the signing tool).
Expected<Measurement> measureEnclaveImage(BytesView ElfFile,
                                          const EnclaveLayout &Layout);

/// Loads \p ElfFile, EINITs with \p Sig, and configures the enclave's
/// runtime tables (ecall manifest, symbols, heap/stack layout).
Expected<std::unique_ptr<Enclave>> loadEnclave(SgxDevice &Device,
                                               BytesView ElfFile,
                                               const SigStruct &Sig,
                                               const EnclaveLayout &Layout);

} // namespace sgx
} // namespace elide

#endif // SGXELIDE_SGX_ENCLAVELOADER_H
