//===- analysis/LayoutCheck.cpp - AUD3xx layout / W^X check ----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layout and W^X check. SGX1 forbids changing page permissions after
/// EINIT, so a sanitized enclave must *ship* with a writable text segment
/// or `elide_restore`'s stores fault (AUD301) -- the paper's central
/// SGX1 constraint. SGX2 (`EMODPE` ablation) lifts that: text may ship
/// RX and be opened at restore time, so AUD301 is suppressed under
/// `SgxMode::Sgx2`. Independent of mode, nothing else may be W+X
/// (AUD302), a writable text with nothing elided is a gratuitous W+X
/// window (AUD303), regions must stay inside .text (AUD304), segments
/// must be EPC-page aligned or the loader rejects them (AUD305), the
/// metadata must describe the image it ships with (AUD306), and a
/// partial-restore region sharing an EPC page with surviving startup
/// code means the restore write touches live code (AUD307).
///
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"
#include "support/Hex.h"

namespace elide {
namespace analysis {

void checkLayout(const AuditInput &Input, const AuditOptions &Options,
                 DiagnosticEngine &Engine) {
  const ElfImage &Image = *Input.Image;
  const ElfSection *Text = Image.sectionByName(Input.TextSection);
  std::vector<ElidedRegion> Regions = effectiveElidedRegions(Input, nullptr);

  // Locate the executable PT_LOAD covering .text.
  const ElfSegment *TextSeg = nullptr;
  size_t TextSegIndex = 0;
  for (size_t I = 0; I < Image.segments().size(); ++I) {
    const ElfSegment &Seg = Image.segments()[I];
    if (Seg.Type != PT_LOAD)
      continue;
    if (Text && Text->Addr >= Seg.VAddr &&
        Text->Addr < Seg.VAddr + Seg.MemSize) {
      TextSeg = &Seg;
      TextSegIndex = I;
    }
  }

  // --- AUD302: W+X on anything that is not the sanitized text. ---
  for (size_t I = 0; I < Image.segments().size(); ++I) {
    const ElfSegment &Seg = Image.segments()[I];
    if (Seg.Type != PT_LOAD || (TextSeg && I == TextSegIndex))
      continue;
    if ((Seg.Flags & PF_W) && (Seg.Flags & PF_X))
      Engine.report(AudWxSegment, Severity::Error,
                    "loadable segment " + std::to_string(I) +
                        " is writable and executable; only the sanitized "
                        "text segment may combine W and X",
                    "", Seg.VAddr, Seg.MemSize);
  }

  if (!Text || !TextSeg)
    return; // No text: the reachability checker reports the bigger problem.

  // --- AUD305: EPC pages are 4 KiB; the loader rejects misalignment. ---
  if (TextSeg->VAddr % AuditPageSize != 0)
    Engine.report(AudSegmentMisaligned, Severity::Error,
                  "text segment virtual address " +
                      hexAddress(TextSeg->VAddr) + " is not EPC-page aligned",
                  Input.TextSection, 0, 0);

  bool TextWritable = (TextSeg->Flags & PF_W) != 0;

  // --- AUD301: SGX1 cannot change permissions after EINIT. ---
  if (Options.Mode == SgxMode::Sgx1 && !Regions.empty() && !TextWritable)
    Engine.report(AudTextNotWritable, Severity::Error,
                  "image has elided regions but its text segment is not "
                  "writable; under SGX1 the restore write faults (use "
                  "--sgx2 if EMODPE is assumed)",
                  Input.TextSection, 0, 0);

  // --- AUD303: writable text with nothing to restore. ---
  if (TextWritable && Regions.empty())
    Engine.report(AudWritableNoElision, Severity::Error,
                  "text segment is writable but no region is elided; the "
                  "image ships a gratuitous W+X mapping",
                  Input.TextSection, 0, 0);

  // --- AUD304: regions must stay inside the text section. ---
  for (const ElidedRegion &R : Regions) {
    if (R.Offset + R.Length > Text->Size || R.Offset + R.Length < R.Offset)
      Engine.report(AudRegionOutsideText, Severity::Error,
                    "elided region" +
                        (R.Name.empty() ? std::string()
                                        : " of '" + R.Name + "'") +
                        " escapes the text section (section size " +
                        hexAddress(Text->Size) + ")",
                    Input.TextSection, R.Offset, R.Length, R.Name);
  }

  // --- AUD306: metadata must describe this image. ---
  if (Input.Meta) {
    const AuditMeta &M = *Input.Meta;
    if (M.DataLength == 0)
      Engine.report(AudMetaInconsistent, Severity::Error,
                    "secret metadata declares zero data length; nothing "
                    "would be restored",
                    Input.TextSection, 0, 0);
    if (M.DataLength > Text->Size)
      Engine.report(AudMetaInconsistent, Severity::Error,
                    "secret metadata declares " +
                        std::to_string(M.DataLength) +
                        " data bytes but the text section holds only " +
                        std::to_string(Text->Size),
                    Input.TextSection, 0, M.DataLength);
    if (M.RestoreOffset + 8 > Text->Size)
      Engine.report(AudMetaInconsistent, Severity::Error,
                    "restore offset " + std::to_string(M.RestoreOffset) +
                        " lies outside the text section",
                    Input.TextSection, M.RestoreOffset, 0);
  }

  // --- AUD307: partial restore must not share pages with live code. ---
  // Only meaningful when the restore granularity is finer than the whole
  // section: a full-text restore rewrites every page it touches anyway.
  bool PartialRestore = Input.Meta && Input.Meta->DataLength < Text->Size;
  if (PartialRestore) {
    Bytes Contents = Image.sectionContents(*Text);
    auto sharesLiveBytes = [&](uint64_t From, uint64_t To) {
      for (uint64_t I = From; I < To && I < Contents.size(); ++I)
        if (Contents[I] != 0)
          return true;
      return false;
    };
    for (const ElidedRegion &R : Regions) {
      if (R.Offset + R.Length > Text->Size)
        continue; // AUD304 already fired.
      uint64_t AbsStart = Text->Addr + R.Offset;
      uint64_t AbsEnd = AbsStart + R.Length;
      uint64_t PageStart = AbsStart & ~(AuditPageSize - 1);
      uint64_t PageEnd = (AbsEnd + AuditPageSize - 1) & ~(AuditPageSize - 1);
      uint64_t RelPageStart =
          PageStart > Text->Addr ? PageStart - Text->Addr : 0;
      uint64_t RelPageEnd = PageEnd - Text->Addr;
      bool Shares = sharesLiveBytes(RelPageStart, R.Offset) ||
                    sharesLiveBytes(R.Offset + R.Length, RelPageEnd);
      if (Shares)
        Engine.report(AudRegionSharesPage, Severity::Warning,
                      "elided region" +
                          (R.Name.empty() ? std::string()
                                          : " of '" + R.Name + "'") +
                          " shares an EPC page with surviving code; a "
                          "partial restore would write into a live page",
                      Input.TextSection, R.Offset, R.Length, R.Name);
    }
  }
}

} // namespace analysis
} // namespace elide
