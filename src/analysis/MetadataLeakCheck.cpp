//===- analysis/MetadataLeakCheck.cpp - AUD2xx metadata-leak check ---------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metadata-leak check: even with every secret byte zeroed, the ELF
/// side tables can still describe the elided code -- a symbol names a
/// function and pins its exact [start, end), a string table keeps the
/// name after the symbol is gone, a relocation records an address inside
/// the redacted range. DynSGX-style reproductions leak exactly this way.
///
///   AUD201  symtab entry names a non-whitelisted function;
///   AUD202  string-table bytes that no surviving symbol references;
///   AUD203  relocation entry targets an elided range;
///   AUD204  `__bridge_X` symbol with no ecall-manifest entry `X`;
///   AUD205  ecall-manifest entry with no bridge symbol.
///
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"
#include "support/Hex.h"

#include <algorithm>

namespace elide {
namespace analysis {

namespace {

constexpr uint64_t SymEntSize = 24;  // Elf64_Sym
constexpr uint64_t RelaEntSize = 24; // Elf64_Rela

} // namespace

void checkMetadataLeaks(const AuditInput &Input, const AuditOptions &,
                        DiagnosticEngine &Engine) {
  const ElfImage &Image = *Input.Image;
  const ElfSection *Text = Image.sectionByName(Input.TextSection);

  // --- AUD201: symbols naming non-whitelisted functions. ---
  if (Input.HaveWhitelist) {
    uint64_t Index = 0; // Parsed index; table index is +1 (null symbol).
    for (const ElfSymbol &Sym : Image.symbols()) {
      ++Index;
      if (!Sym.isFunction() || Sym.Name.empty())
        continue;
      if (Input.WhitelistNames.count(Sym.Name))
        continue;
      if (Sym.Name.starts_with(Input.BridgePrefix))
        continue; // Orphan bridges are AUD204's finding.
      Engine.report(AudElidedSymbolNamed, Severity::Error,
                    "symbol table names elided function '" + Sym.Name +
                        "' and pins its boundary [" + hexAddress(Sym.Value) +
                        ", " + hexAddress(Sym.Value + Sym.Size) + ")",
                    ".symtab", Index * SymEntSize, SymEntSize, Sym.Name);
    }
  }

  // --- AUD202: string-table residue. ---
  // Recompute which strtab bytes the surviving symtab entries reference;
  // any other nonzero byte is a name that outlived its symbol.
  for (const ElfSection &SymTab : Image.sections()) {
    if (SymTab.Type != SHT_SYMTAB)
      continue;
    if (SymTab.Link >= Image.sections().size())
      continue;
    const ElfSection &StrTab = Image.sections()[SymTab.Link];
    Bytes Syms = Image.sectionContents(SymTab);
    Bytes Strs = Image.sectionContents(StrTab);
    std::vector<bool> Referenced(Strs.size(), false);
    if (!Referenced.empty())
      Referenced[0] = true; // The shared empty string.
    for (uint64_t Off = 0; Off + SymEntSize <= Syms.size();
         Off += SymEntSize) {
      uint32_t NameOff = readLE32(Syms.data() + Off);
      for (uint64_t I = NameOff; I < Strs.size(); ++I) {
        Referenced[I] = true;
        if (Strs[I] == 0)
          break;
      }
    }
    uint64_t Run = 0, RunStart = 0;
    size_t Reported = 0;
    for (uint64_t I = 0; I <= Strs.size(); ++I) {
      if (I < Strs.size() && Strs[I] != 0 && !Referenced[I]) {
        if (Run == 0)
          RunStart = I;
        ++Run;
        continue;
      }
      if (Run > 0 && ++Reported <= 8) {
        std::string Leak((const char *)Strs.data() + RunStart,
                         (size_t)std::min<uint64_t>(Run, 64));
        Engine.report(AudStrtabResidue, Severity::Error,
                      "string table retains '" + Leak +
                          "' though no symbol references it",
                      StrTab.Name, RunStart, Run);
      }
      Run = 0;
    }
  }

  // --- AUD203: relocations targeting elided ranges. ---
  std::vector<ElidedRegion> Regions = effectiveElidedRegions(Input, nullptr);
  if (Text) {
    for (const ElfSection &S : Image.sections()) {
      if (!S.Name.starts_with(".rel") || S.Type == SHT_NOBITS)
        continue;
      Bytes Raw = Image.sectionContents(S);
      for (uint64_t Off = 0; Off + RelaEntSize <= Raw.size();
           Off += RelaEntSize) {
        uint64_t ROffset = readLE64(Raw.data() + Off);
        if (ROffset < Text->Addr || ROffset >= Text->Addr + Text->Size)
          continue;
        uint64_t Rel = ROffset - Text->Addr;
        for (const ElidedRegion &R : Regions) {
          if (Rel < R.Offset || Rel >= R.Offset + R.Length)
            continue;
          Engine.report(AudRelocationLeak, Severity::Error,
                        "relocation entry targets elided range" +
                            (R.Name.empty() ? std::string()
                                            : " of '" + R.Name + "'") +
                            "; relocations outline redacted code",
                        S.Name, Off, RelaEntSize, R.Name);
          break;
        }
      }
    }
  }

  // --- AUD204/AUD205: bridge symbols vs the ecall manifest. ---
  std::vector<std::string> Listed =
      parseEcallManifest(Image, Input.EcallManifestSection);
  std::set<std::string> Manifest(Listed.begin(), Listed.end());
  for (const ElfSymbol &Sym : Image.symbols()) {
    if (!Sym.Name.starts_with(Input.BridgePrefix))
      continue;
    std::string Export = Sym.Name.substr(Input.BridgePrefix.size());
    if (!Manifest.count(Export))
      Engine.report(AudOrphanBridge, Severity::Warning,
                    "bridge symbol '" + Sym.Name +
                        "' has no ecall-manifest entry; it is dead "
                        "surface that still names a function",
                    Input.EcallManifestSection, 0, 0, Sym.Name);
  }
  if (!Image.symbols().empty()) {
    for (const std::string &Export : Manifest) {
      if (!Image.symbolByName(Input.BridgePrefix + Export))
        Engine.report(AudManifestUnbound, Severity::Warning,
                      "ecall-manifest entry '" + Export +
                          "' has no bridge symbol; the loader cannot "
                          "bind this export",
                      Input.EcallManifestSection, 0, 0, Export);
    }
  }
}

} // namespace analysis
} // namespace elide
