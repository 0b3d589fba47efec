//===- analysis/Diagnostics.h - Typed audit diagnostics --------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostics engine behind `sgxelide audit`: stable `AUD###` codes,
/// severities, a baseline/suppression file, and text + JSON rendering.
/// Codes are grouped by checker family (1xx residual secrets, 2xx
/// metadata leaks, 3xx layout/W^X, 4xx pre-restore reachability, 5xx
/// secret flow, 6xx orderliness) and are append-only: a code, once
/// published, keeps its number and meaning forever so baselines and CI
/// greps stay valid across releases.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ANALYSIS_DIAGNOSTICS_H
#define SGXELIDE_ANALYSIS_DIAGNOSTICS_H

#include "support/Bytes.h"
#include "support/Error.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace elide {
namespace analysis {

/// Stable diagnostic codes. The numeric value is the published `AUD###`
/// number; never renumber or reuse.
enum AuditCode : int {
  // 1xx -- residual-secret scan.
  AudResidualSecretBytes = 101, ///< Elided range contains nonzero bytes.
  AudSecretBytesLeaked = 102,   ///< Original secret bytes found outside
                                ///< the elided text ranges.
  AudCodeLikeData = 103,        ///< A data section decodes as plausible
                                ///< SVM code (possible literal-pool leak).
  AudMetaInImage = 104,         ///< Serialized secret metadata (or its
                                ///< key) embedded in the shipped image.

  // 2xx -- metadata-leak check.
  AudElidedSymbolNamed = 201, ///< Symtab names a non-whitelisted function
                              ///< (name + exact boundary leak).
  AudStrtabResidue = 202,     ///< String-table bytes no symbol references
                              ///< (dangling names survive redaction).
  AudRelocationLeak = 203,    ///< A relocation targets an elided range.
  AudOrphanBridge = 204,      ///< Bridge symbol without a manifest entry.
  AudManifestUnbound = 205,   ///< Manifest entry without a bridge symbol.

  // 3xx -- layout / W^X check.
  AudTextNotWritable = 301, ///< SGX1 sanitized text lacks PF_W: the
                            ///< restorer's stores would fault.
  AudWxSegment = 302,       ///< Non-text loadable segment is W+X.
  AudWritableNoElision = 303, ///< Text is writable but nothing is elided.
  AudRegionOutsideText = 304, ///< Elided region escapes the text section.
  AudSegmentMisaligned = 305, ///< Text segment is not EPC-page aligned.
  AudMetaInconsistent = 306,  ///< Metadata disagrees with the image.
  AudRegionSharesPage = 307,  ///< Partial-restore region shares an EPC
                              ///< page with surviving code.

  // 4xx -- pre-restore reachability.
  AudRestoreEntryMissing = 401, ///< No usable restore entry point.
  AudPreRestoreReachesElided = 402, ///< Restore path jumps/calls into an
                                    ///< elided (zeroed) region.
  AudIndirectPreRestore = 403, ///< Indirect call on the restore path
                               ///< (target not statically checkable).
  AudBridgeElided = 404,       ///< An ecall bridge body is zeroed.
  AudFlowEscapesText = 405,    ///< Restore-path control flow leaves .text.

  // 5xx -- constant-time discipline over restored code (50x) and
  // speculative-gadget heuristics (52x). Built on the taint engine: a
  // value loaded from an elided/restored range is secret, and anything
  // computed from it stays secret.
  AudSecretDependentBranch = 501, ///< Conditional branch on secret data.
  AudSecretDependentAddress = 502, ///< Load/store address derived from
                                   ///< secret data (cache side channel).
  AudTimingDependentCompare = 503, ///< Early-exit compare loop over
                                   ///< secret data (timing oracle).
  AudTaintedOcallArg = 511,        ///< Secret-derived value in an ocall
                                   ///< argument register (r1..r4).
  AudSpecGadget = 521,      ///< SgxPectre shape: secret-tainted load feeds
                            ///< a second dependent load inside a
                            ///< speculation window after a branch.
  AudTaintedIndirectTarget = 522, ///< Indirect call through a
                                  ///< secret-derived register.

  // 6xx -- static orderliness: the binary twin of the runtime lifecycle
  // contract (`LifecycleErrc`, `Supervisor`).
  AudPreRestoreEntersRedacted = 601, ///< A pre-restore entry path executes
                                     ///< redacted text without passing
                                     ///< through the restore call.
  AudPreRestoreOcall = 602, ///< Ocall reachable pre-restore outside the
                            ///< restore exchange (re-entrancy surface).
  AudBridgeContract = 603,  ///< Bridge thunk is not `call f; halt`.
  AudRestoreReentry = 604,  ///< Restore entry reachable from its own
                            ///< body (static AlreadyLoaded hazard).
  AudRestoreIncompletable = 605, ///< Restore path function has no path to
                                 ///< Ret/Halt inside surviving text.
};

/// Diagnostic severity. Errors gate builds; warnings are advisory but
/// still fail a `--strict` audit; notes never fail anything.
enum class Severity { Error, Warning, Note };

/// Returns "AUD101"-style spelling for a code.
std::string auditCodeName(int Code);

/// Returns the one-line summary documented in docs/analysis.md.
const char *auditCodeTitle(int Code);

/// One finding.
struct Diagnostic {
  int Code = 0;
  Severity Sev = Severity::Error;
  std::string Message; ///< Human-readable detail.
  std::string Section; ///< Anchoring section name ("" when file-level).
  uint64_t Offset = 0; ///< Section-relative offset of the finding.
  uint64_t Length = 0; ///< Extent of the finding (0 = point).
  std::string Symbol;  ///< Related symbol or function name ("" if none).

  /// Stable suppression key: `AUD###:<section>:<hex-offset>[:<symbol>]`.
  /// Offsets (not messages) anchor the key so rewording a message never
  /// invalidates a baseline. Control bytes and whitespace in the section
  /// or symbol name are mapped to '_' so a key always stays one parseable
  /// baseline line, even for hostile images.
  std::string key() const;

  /// `error: AUD101: <message> [.text+0x40]`-style rendering.
  std::string render() const;
};

/// A parsed baseline (suppression) file: the set of diagnostic keys known
/// and accepted. Format, one entry per line:
///
///   # comment
///   AUD201:.symtab:0x18:secret_fn
///
/// The leading `AUD###:` is part of the key, so a suppression never
/// outlives the finding kind it was written for.
class Baseline {
public:
  Baseline() = default;

  /// Parses baseline text. Unknown or malformed lines fail loudly: a
  /// typo'd suppression that silently matches nothing would un-gate CI.
  static Expected<Baseline> parse(const std::string &Text);

  bool suppresses(const Diagnostic &D) const { return Keys.count(D.key()); }
  size_t size() const { return Keys.size(); }

private:
  std::set<std::string> Keys;
};

/// The result of an audit run: surviving findings plus counts.
struct AuditReport {
  std::vector<Diagnostic> Diags; ///< Non-suppressed findings, in checker
                                 ///< order (1xx first).
  size_t Errors = 0;
  size_t Warnings = 0;
  size_t Notes = 0;
  size_t Suppressed = 0; ///< Findings swallowed by the baseline.

  /// Names of the checker families that actually ran (e.g. "residual",
  /// "constant-time"). Emitted in the JSON rendering so tooling can
  /// detect which families a report covers without sniffing codes.
  std::vector<std::string> Families;

  bool clean() const { return Diags.empty(); }

  /// Multi-line human rendering (one diagnostic per line + summary).
  std::string renderText() const;

  /// Machine rendering; schema documented in docs/analysis.md.
  std::string renderJson() const;

  /// Baseline-file rendering of the current findings (for
  /// `--write-baseline`).
  std::string renderBaseline() const;
};

/// Collects diagnostics during a run, applying the baseline.
class DiagnosticEngine {
public:
  explicit DiagnosticEngine(const Baseline *Suppressions = nullptr)
      : Suppressions(Suppressions) {}

  /// Reports one finding; severity is implied by the code's registry
  /// entry unless overridden.
  void report(Diagnostic D);

  /// Convenience for the common shape.
  void report(int Code, Severity Sev, std::string Message,
              std::string Section = "", uint64_t Offset = 0,
              uint64_t Length = 0, std::string Symbol = "");

  /// Finalizes the run (sorts by code, fills counts).
  AuditReport take();

private:
  const Baseline *Suppressions;
  AuditReport Report;
};

/// Escapes a string for embedding in a JSON literal.
std::string jsonEscape(const std::string &S);

} // namespace analysis
} // namespace elide

#endif // SGXELIDE_ANALYSIS_DIAGNOSTICS_H
