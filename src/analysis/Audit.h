//===- analysis/Audit.h - Static secrecy audit of sanitized enclaves -------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `sgxelide audit` entry point: static checkers that verify a
/// sanitized enclave image discloses nothing about its elided code and
/// cannot run into it before restoration. Nothing here executes enclave
/// code -- every checker works from the file bytes, the parsed `ElfImage`,
/// and (optionally) the build-time facts the sanitizer recorded. The
/// checkers model the paper's adversary: someone holding only the
/// distributed binary, a disassembler, and patience.
///
/// Layering: this library depends only on `elide_elf`, `elide_vm`, and
/// `elide_support`. Whitelist/SecretMeta facts arrive as plain values
/// (name sets, offsets) so `elide_core` can link against the auditor
/// without a cycle.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ANALYSIS_AUDIT_H
#define SGXELIDE_ANALYSIS_AUDIT_H

#include "analysis/Diagnostics.h"
#include "elf/ElfImage.h"
#include "support/Bytes.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

namespace elide {
namespace analysis {

/// EPC page granularity for the layout checks (mirrors sgx::EpcPageSize;
/// duplicated so this library does not depend on elide_sgx).
constexpr uint64_t AuditPageSize = 0x1000;

/// One elided byte range, relative to the start of the text section.
struct ElidedRegion {
  uint64_t Offset = 0; ///< Text-relative start of the zeroed range.
  uint64_t Length = 0;
  std::string Name; ///< Function name when known ("" for inferred runs).
};

/// The subset of `SecretMeta` the auditor needs, as plain values.
struct AuditMeta {
  uint64_t DataLength = 0;
  uint64_t RestoreOffset = 0;
  bool Encrypted = false;
  Bytes KeyBytes;     ///< Raw AES key (only meaningful when Encrypted).
  Bytes Serialized;   ///< Full serialized meta blob, for the needle scan.
};

/// Everything the auditor may know about the image under test. Only
/// `Image` is mandatory; every other fact refines the checks (e.g. with a
/// whitelist the metadata checker can name the offending symbols, without
/// one it falls back to structural heuristics).
struct AuditInput {
  const ElfImage *Image = nullptr;

  /// Explicit elided ranges (sanitizer self-audit). When empty, ranges
  /// are derived from non-whitelisted function symbols still present, or
  /// -- as a last resort -- inferred from maximal zero runs in .text.
  std::vector<ElidedRegion> ElidedRegions;

  /// Names the shipped image is allowed to expose (whitelisted functions
  /// plus bridge/runtime machinery). Empty set = no whitelist supplied.
  std::set<std::string> WhitelistNames;
  bool HaveWhitelist = false;

  /// Secret metadata facts, when available.
  std::optional<AuditMeta> Meta;

  /// The original (pre-elision) secret bytes, when available -- enables
  /// the byte-diff leak scan (AUD102). For Remote storage this is the
  /// provisioning payload; for Local storage, the plaintext that was
  /// encrypted into the container.
  Bytes SecretPlaintext;

  /// Naming conventions; overridable for crafted test images.
  std::string TextSection = ".text";
  std::string RestoreSymbol = "elide_restore";
  std::string BridgePrefix = "__bridge_";
  std::string EcallManifestSection = ".svm.ecalls";
};

/// Which SGX hardware model the layout checker assumes.
enum class SgxMode {
  Sgx1, ///< No runtime permission changes: sanitized text must ship RWX.
  Sgx2, ///< EMODPE/EMODPR available: text may ship RX and be opened at
        ///< restore time (the paper's SGX2 ablation).
};

/// Checker selection mask. `CheckAll` is the default gate: everything
/// that must hold for *any* valid sanitized image. The flow checks
/// (constant-time, taint) reason about the restored secret code itself
/// and legitimately fire on e.g. table-based AES, so they are opt-in
/// (`--ct`, `--taint`) and bundled in `CheckEverything`.
enum AuditChecks : unsigned {
  CheckResidual = 1u << 0,
  CheckMetadata = 1u << 1,
  CheckLayout = 1u << 2,
  CheckReachability = 1u << 3,
  CheckConstantTime = 1u << 4, ///< AUD 501-503 over the restored view.
  CheckTaintFlow = 1u << 5,    ///< AUD 511/521/522 over the restored view.
  CheckOrderliness = 1u << 6,  ///< AUD 601-605 over the shipped image.
  CheckAll = CheckResidual | CheckMetadata | CheckLayout | CheckReachability |
             CheckOrderliness,
  CheckEverything = CheckAll | CheckConstantTime | CheckTaintFlow,
};

/// Human names for the families in \p Checks (JSON `families` field).
std::vector<std::string> checkFamilyNames(unsigned Checks);

struct AuditOptions {
  SgxMode Mode = SgxMode::Sgx1;
  unsigned Checks = CheckAll;
  const Baseline *Suppressions = nullptr;
};

/// Runs the selected checkers and returns the findings. Never fails:
/// malformed inputs become diagnostics, not host errors (the caller
/// already parsed the image, so the file is at least structurally sound).
AuditReport runAudit(const AuditInput &Input, const AuditOptions &Options);

/// Derives the effective elided regions for \p Input (explicit regions,
/// else symbol-derived, else inferred zero runs). Exposed for tests and
/// for the checkers' shared use.
std::vector<ElidedRegion> effectiveElidedRegions(const AuditInput &Input,
                                                 bool *Inferred = nullptr);

/// Parses the newline-separated ecall manifest section (empty when the
/// section is absent), in section order with duplicates kept.
std::vector<std::string> parseEcallManifest(const ElfImage &Image,
                                            const std::string &SectionName);

// Individual checkers (each appends to \p Engine). Exposed so unit tests
// can exercise one checker in isolation.
void checkResidualSecrets(const AuditInput &Input, const AuditOptions &Options,
                          DiagnosticEngine &Engine);
void checkMetadataLeaks(const AuditInput &Input, const AuditOptions &Options,
                        DiagnosticEngine &Engine);
void checkLayout(const AuditInput &Input, const AuditOptions &Options,
                 DiagnosticEngine &Engine);
/// The pre-restore walk over the shipped image: reachability (AUD 401-405)
/// and orderliness (AUD 601-605), each reported when `Options.Checks`
/// selects it.
void checkPreRestore(const AuditInput &Input, const AuditOptions &Options,
                     DiagnosticEngine &Engine);
/// Runs the taint engine over the restored view of .text and reports the
/// constant-time (AUD 501-503) and/or taint-flow (AUD 511/521/522)
/// families, as selected by `Options.Checks`.
void checkSecretFlow(const AuditInput &Input, const AuditOptions &Options,
                     DiagnosticEngine &Engine);

} // namespace analysis
} // namespace elide

#endif // SGXELIDE_ANALYSIS_AUDIT_H
