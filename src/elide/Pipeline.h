//===- elide/Pipeline.h - The developer build pipeline --------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-call developer workflow reproducing Figure 1:
///
///   app sources + SgxElide runtime  --compile-->  secret.so
///   runtime sources alone           --compile-->  dummy.so --> whitelist
///   secret.so + whitelist           --sanitize--> sanitized.so,
///                                                 enclave.secret.{data,meta}
///   sanitized.so                    --measure+sign--> SIGSTRUCT
///
/// Both the plain (unsanitized, "w/ SGX" baseline) and sanitized images
/// are signed so the benchmarks can launch either.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ELIDE_PIPELINE_H
#define SGXELIDE_ELIDE_PIPELINE_H

#include "analysis/Audit.h"
#include "elc/Compiler.h"
#include "elide/Sanitizer.h"
#include "sgx/EnclaveLoader.h"

namespace elide {

/// Pipeline inputs.
struct BuildOptions {
  SecretStorage Storage = SecretStorage::Remote;
  uint64_t Attributes = sgx::AttrDebug;
  sgx::EnclaveLayout Layout;
  uint64_t RngSeed = 7;
  /// Additionally run the constant-time/taint-flow families (AUD 5xx)
  /// in the self-audit, which always runs over the sanitized image and
  /// fails the build on any error-severity diagnostic. Off by default:
  /// table-driven crypto kernels are legitimately non-constant-time in
  /// this ISA, so these checks express a per-enclave policy rather than
  /// a universal invariant.
  bool FlowAudit = false;
};

/// Everything the pipeline produces.
struct BuildArtifacts {
  /// The unsanitized enclave (paper's "w/ SGX" baseline), signed.
  Bytes PlainElf;
  sgx::SigStruct PlainSig;
  /// The sanitized enclave and its signature (what actually ships).
  Bytes SanitizedElf;
  sgx::SigStruct SanitizedSig;
  /// Sanitizer outputs.
  Bytes SecretData;
  SecretMeta Meta;
  SanitizerReport Report;
  /// The derived whitelist and the dummy enclave it came from.
  Whitelist Keep;
  Bytes DummyElf;
  /// Compiler statistics (Table 1 feeds from these).
  size_t TrustedFunctionCount = 0;
  size_t TrustedTextBytes = 0;
  /// Wall-clock milliseconds spent inside sanitizeEnclave (Table 2).
  double SanitizeMs = 0.0;
  /// Self-audit findings (empty when clean).
  analysis::AuditReport Audit;
};

/// Builds the auditor's input from build-side facts: the sanitized image,
/// the exact regions the sanitizer zeroed, the whitelist, the metadata,
/// and the secret plaintext. \p Image must outlive the returned input.
/// Exposed so `sgxelide audit` and the tests assemble the same view the
/// pipeline self-audit uses.
analysis::AuditInput auditInputFor(const ElfImage &Image,
                                   const std::vector<SecretRegion> &Regions,
                                   const Whitelist &Keep,
                                   const SecretMeta &Meta,
                                   BytesView SecretPlaintext);

/// Runs the full pipeline over the developer's enclave sources (the
/// SgxElide runtime sources are linked in automatically, mirroring
/// "simply recompile them with our framework code").
Expected<BuildArtifacts>
buildProtectedEnclave(const std::vector<elc::SourceFile> &AppSources,
                      const Ed25519KeyPair &Vendor,
                      const BuildOptions &Options);

/// Convenience: an AuthServerConfig for the artifacts (pins the sanitized
/// measurement and the vendor).
struct ServerProvisioning {
  sgx::Measurement SanitizedMrEnclave{};
  sgx::Measurement MrSigner{};
};
ServerProvisioning provisioningFor(const BuildArtifacts &Artifacts,
                                   const BuildOptions &Options);

} // namespace elide

#endif // SGXELIDE_ELIDE_PIPELINE_H
