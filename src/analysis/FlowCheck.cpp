//===- analysis/FlowCheck.cpp - AUD5xx secret-flow checkers ----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Constant-time and taint-flow checking over the *restored* view of the
/// text section. Elision hides the secret code from the shipped file, but
/// SgxPectre-style attacks show that restored code which branches or
/// indexes memory on its own secrets leaks them anyway -- through timing,
/// the cache, or a speculation window. These checkers run the taint
/// engine with the elided/restored ranges as sources:
///
///   AUD501  conditional branch on secret-derived data (error);
///   AUD502  load/store address derived from secret data (error);
///   AUD503  early-exit compare loop over secret data -- the classic
///           `memcmp` timing oracle (warning);
///   AUD511  secret-derived value in an ocall argument register (warning);
///   AUD521  speculative double-dependent-load gadget (warning);
///   AUD522  indirect call through a secret-derived register (warning).
///
/// The restored view: when the caller supplies the original text bytes
/// (`SecretPlaintext` of exactly the section's size -- the sanitizer's
/// self-audit and `sgxelide audit --data` both do), analysis runs over
/// them; otherwise over the shipped section as-is, which still covers
/// unsanitized images where the secret code is plainly present. On a
/// sanitized image without the plaintext the elided ranges are zeroed,
/// nothing decodes there, and the checkers are quietly vacuous.
///
/// These families are opt-in (`--ct`, `--taint`): real workloads such as
/// table-based AES are *legitimately* non-constant-time in this ISA, so
/// unlike 1xx-4xx/6xx they express a policy, not an invariant.
///
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"
#include "analysis/Cfg.h"
#include "analysis/Taint.h"
#include "support/Hex.h"
#include "vm/Disassembler.h"

namespace elide {
namespace analysis {

void checkSecretFlow(const AuditInput &Input, const AuditOptions &Options,
                     DiagnosticEngine &Engine) {
  const ElfImage &Image = *Input.Image;
  const ElfSection *Text = Image.sectionByName(Input.TextSection);
  if (!Text)
    return;

  Bytes Code = Image.sectionContents(*Text);
  // Restored view: the original text bytes replace the sanitized ones
  // when the caller supplied them (both storage modes record the whole
  // original section).
  if (Input.SecretPlaintext.size() == Code.size() && !Code.empty())
    Code = Input.SecretPlaintext;

  std::vector<ElidedRegion> Regions = effectiveElidedRegions(Input, nullptr);

  TaintOptions TO;
  for (const ElidedRegion &R : Regions)
    TO.SecretRanges.push_back(
        {Text->Addr + R.Offset, Text->Addr + R.Offset + R.Length});
  if (TO.SecretRanges.empty())
    return; // Nothing is secret; nothing can leak.

  // Roots: every bridge (ecalls reach restored code through them), the
  // restore entry, and each secret region's start -- so a stripped image
  // whose bridges were scrubbed still gets its restored functions walked.
  std::vector<uint64_t> Roots;
  for (const ElfSymbol &Sym : Image.symbols())
    if (Sym.Name.starts_with(Input.BridgePrefix) ||
        Sym.Name == Input.RestoreSymbol)
      Roots.push_back(Sym.Value);
  for (const ElidedRegion &R : Regions)
    Roots.push_back(Text->Addr + R.Offset);

  Cfg G = Cfg::build(BytesView(Code.data(), Code.size()), Text->Addr, Roots);
  TaintResult TR = runTaint(G, TO);

  auto regionNameAt = [&](uint64_t Pc) -> std::string {
    for (const ElidedRegion &R : Regions)
      if (Pc >= Text->Addr + R.Offset && Pc < Text->Addr + R.Offset + R.Length)
        return R.Name;
    return "";
  };
  auto originSuffix = [&](const TaintSink &S) -> std::string {
    if (!S.OriginPc)
      return "";
    return " (secret loaded at .text+" +
           hexAddress(S.OriginPc - Text->Addr) + ")";
  };

  bool WantCt = (Options.Checks & CheckConstantTime) != 0;
  bool WantTaint = (Options.Checks & CheckTaintFlow) != 0;

  constexpr size_t MaxPerCode = 8;
  size_t Counts[6] = {0, 0, 0, 0, 0, 0};
  for (const TaintSink &S : TR.Sinks) {
    uint64_t Off = S.Pc - Text->Addr;
    std::string Sym = regionNameAt(S.Pc);
    std::string Reg = "r" + std::to_string(S.Reg);
    switch (S.Kind) {
    case SinkKind::Branch:
      if (WantCt && ++Counts[0] <= MaxPerCode)
        Engine.report(AudSecretDependentBranch, Severity::Error,
                      "conditional branch on secret-derived " + Reg +
                          originSuffix(S),
                      Input.TextSection, Off, SvmInstrSize, Sym);
      break;
    case SinkKind::MemoryAddress:
      if (WantCt && ++Counts[1] <= MaxPerCode)
        Engine.report(AudSecretDependentAddress, Severity::Error,
                      "memory address derived from secret " + Reg +
                          "; the access pattern keys the cache on the "
                          "secret" +
                          originSuffix(S),
                      Input.TextSection, Off, SvmInstrSize, Sym);
      break;
    case SinkKind::CompareLoopBranch:
      if (WantCt && ++Counts[2] <= MaxPerCode)
        Engine.report(AudTimingDependentCompare, Severity::Warning,
                      "early-exit compare loop over secret data: the "
                      "iteration count is a timing oracle" +
                          originSuffix(S),
                      Input.TextSection, Off, SvmInstrSize, Sym);
      break;
    case SinkKind::OcallArg:
      if (WantTaint && ++Counts[3] <= MaxPerCode)
        Engine.report(AudTaintedOcallArg, Severity::Warning,
                      "ocall argument " + Reg +
                          " carries a secret-derived value across the "
                          "enclave boundary" +
                          originSuffix(S),
                      Input.TextSection, Off, SvmInstrSize, Sym);
      break;
    case SinkKind::SpecDoubleLoad:
      if (WantTaint && ++Counts[4] <= MaxPerCode)
        Engine.report(AudSpecGadget, Severity::Warning,
                      "speculative gadget: secret-tainted load value in " +
                          Reg +
                          " forms a second load address inside the "
                          "speculation window of a prior branch" +
                          originSuffix(S),
                      Input.TextSection, Off, SvmInstrSize, Sym);
      break;
    case SinkKind::IndirectTarget:
      if (WantTaint && ++Counts[5] <= MaxPerCode)
        Engine.report(AudTaintedIndirectTarget, Severity::Warning,
                      "indirect call through secret-derived " + Reg +
                          originSuffix(S),
                      Input.TextSection, Off, SvmInstrSize, Sym);
      break;
    }
  }
}

} // namespace analysis
} // namespace elide
