//===- tests/framework/Builders.h - Structure-aware input builders ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structure-aware generators for the five untrusted decode surfaces. Pure
/// byte mutation rarely survives an ELF magic check or a frame-type
/// switch; these builders start from *valid* structures (a real ELF64
/// image, a correctly sealed record, a signed SIGSTRUCT) and then corrupt
/// individual fields, so generated inputs reach the deep parsing paths
/// where bounds arithmetic actually runs. All randomness comes from the
/// caller's `Drbg`: same seed, same input.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_TESTS_FRAMEWORK_BUILDERS_H
#define SGXELIDE_TESTS_FRAMEWORK_BUILDERS_H

#include "crypto/Drbg.h"
#include "support/Bytes.h"

#include <string>

namespace elide {
namespace fuzz {

//===----------------------------------------------------------------------===//
// ELF images
//===----------------------------------------------------------------------===//

/// Builds a small valid ELF64 enclave-shaped image: a .text section with
/// function symbols (including `elide_restore`), .rodata, .bss, and a
/// symbol table. Sizes and contents vary with \p Rng.
Bytes buildSeedElf(Drbg &Rng);

/// Corrupts one structural field of an ELF image in place: a file-header
/// offset/count, a program-header offset/size, a section-header
/// offset/size/type/link, or a symbol's value/size -- each overwritten
/// with an interesting boundary integer. No-op on files too short to
/// carry an ELF header.
void mutateElfStructure(Bytes &Elf, Drbg &Rng);

/// Moves the first section of an `ElfBuilder` image (section index 1) and
/// every symbol defined in it by \p Delta, in place. The builder lays
/// alloc sections out at file offset == address, so a section near 2^64
/// can only be made this way.
void rebaseFirstSection(Bytes &Elf, uint64_t Delta);

//===----------------------------------------------------------------------===//
// Protocol frames
//===----------------------------------------------------------------------===//

/// Builds one adversarial protocol frame: HELLOs with random or
/// quote-sized bodies, RECORDs (correctly sealed under a throwaway key,
/// sealed-then-corrupted, or pure garbage), session records with forged
/// ids, ERROR frames, and unknown types.
Bytes buildProtocolFrame(Drbg &Rng);

//===----------------------------------------------------------------------===//
// SecretMeta blobs
//===----------------------------------------------------------------------===//

/// Builds a secret-metadata blob: usually the right 61-byte size with
/// field-level corruption (flag values, boundary lengths), sometimes the
/// wrong size entirely.
Bytes buildSecretMetaBlob(Drbg &Rng);

//===----------------------------------------------------------------------===//
// SIGSTRUCTs and quotes
//===----------------------------------------------------------------------===//

/// Builds a SIGSTRUCT blob: a genuinely signed one, a signed-then-tampered
/// one, or size/field garbage.
Bytes buildSigStructBlob(Drbg &Rng);

/// Builds an attestation-quote blob in the same three flavors.
Bytes buildQuoteBlob(Drbg &Rng);

//===----------------------------------------------------------------------===//
// Whitelists
//===----------------------------------------------------------------------===//

/// Builds whitelist text: plausible symbol names with newline framing,
/// plus hostile shapes (empty lines, duplicates, very long names, NUL and
/// high bytes, missing trailing newline).
Bytes buildWhitelistText(Drbg &Rng);

} // namespace fuzz
} // namespace elide

#endif // SGXELIDE_TESTS_FRAMEWORK_BUILDERS_H
