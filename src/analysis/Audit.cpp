//===- analysis/Audit.cpp - Audit driver and shared helpers ----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"

namespace elide {
namespace analysis {

std::vector<ElidedRegion> effectiveElidedRegions(const AuditInput &Input,
                                                 bool *Inferred) {
  if (Inferred)
    *Inferred = false;
  if (!Input.ElidedRegions.empty())
    return Input.ElidedRegions;

  const ElfImage &Image = *Input.Image;
  const ElfSection *Text = Image.sectionByName(Input.TextSection);
  if (!Text)
    return {};

  // Second choice: symbols the whitelist does not cover still delineate
  // the elided ranges exactly (that leak is AUD201's business; here we
  // just reuse the boundaries).
  std::vector<ElidedRegion> FromSymbols;
  if (Input.HaveWhitelist) {
    for (const ElfSymbol &Sym : Image.symbols()) {
      if (!Sym.isFunction() || Sym.Size == 0)
        continue;
      if (Input.WhitelistNames.count(Sym.Name))
        continue;
      // Bridge thunks are implicitly whitelisted (the sanitizer never
      // elides them), mirroring Whitelist::contains().
      if (Sym.Name.starts_with(Input.BridgePrefix))
        continue;
      if (Sym.Value < Text->Addr || Sym.Value + Sym.Size > Text->Addr + Text->Size)
        continue;
      FromSymbols.push_back({Sym.Value - Text->Addr, Sym.Size, Sym.Name});
    }
    if (!FromSymbols.empty())
      return FromSymbols;
  }

  // Last resort: maximal zero runs of at least two instruction slots.
  // Inferred regions are trivially all-zero, so the residual checker
  // skips AUD101 for them (flagging them would be circular).
  if (Inferred)
    *Inferred = true;
  std::vector<ElidedRegion> Runs;
  Bytes Contents = Image.sectionContents(*Text);
  constexpr uint64_t MinRun = 2 * 8; // Two SVM instruction slots.
  uint64_t RunStart = 0;
  uint64_t RunLen = 0;
  for (uint64_t I = 0; I <= Contents.size(); ++I) {
    if (I < Contents.size() && Contents[I] == 0) {
      if (RunLen == 0)
        RunStart = I;
      ++RunLen;
      continue;
    }
    if (RunLen >= MinRun)
      Runs.push_back({RunStart, RunLen, ""});
    RunLen = 0;
  }
  return Runs;
}

std::vector<std::string> parseEcallManifest(const ElfImage &Image,
                                            const std::string &SectionName) {
  std::vector<std::string> Names;
  const ElfSection *S = Image.sectionByName(SectionName);
  if (!S)
    return Names;
  Bytes Raw = Image.sectionContents(*S);
  std::string Line;
  for (uint8_t B : Raw) {
    if (B == '\n') {
      if (!Line.empty())
        Names.push_back(Line);
      Line.clear();
    } else if (B != 0) {
      Line.push_back((char)B);
    }
  }
  if (!Line.empty())
    Names.push_back(Line);
  return Names;
}

std::vector<std::string> checkFamilyNames(unsigned Checks) {
  std::vector<std::string> Out;
  if (Checks & CheckResidual)
    Out.push_back("residual");
  if (Checks & CheckMetadata)
    Out.push_back("metadata");
  if (Checks & CheckLayout)
    Out.push_back("layout");
  if (Checks & CheckReachability)
    Out.push_back("reachability");
  if (Checks & CheckConstantTime)
    Out.push_back("constant-time");
  if (Checks & CheckTaintFlow)
    Out.push_back("taint-flow");
  if (Checks & CheckOrderliness)
    Out.push_back("orderliness");
  return Out;
}

AuditReport runAudit(const AuditInput &Input, const AuditOptions &Options) {
  DiagnosticEngine Engine(Options.Suppressions);
  if (Input.Image) {
    if (Options.Checks & CheckResidual)
      checkResidualSecrets(Input, Options, Engine);
    if (Options.Checks & CheckMetadata)
      checkMetadataLeaks(Input, Options, Engine);
    if (Options.Checks & CheckLayout)
      checkLayout(Input, Options, Engine);
    if (Options.Checks & (CheckReachability | CheckOrderliness))
      checkPreRestore(Input, Options, Engine);
    if (Options.Checks & (CheckConstantTime | CheckTaintFlow))
      checkSecretFlow(Input, Options, Engine);
  }
  AuditReport Report = Engine.take();
  Report.Families = checkFamilyNames(Options.Checks);
  return Report;
}

} // namespace analysis
} // namespace elide
