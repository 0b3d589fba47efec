//===- analysis/ResidualSecretCheck.cpp - AUD1xx residual-secret scan ------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Residual-secret scan: the sanitized image must not contain the elided
/// bytes anywhere. Four probes:
///
///   AUD101  every explicitly elided text range is all-zero;
///   AUD102  no 16-byte window of the original secret plaintext occurs
///           anywhere outside the text section (catches copies that
///           leaked into .rodata, .data, or the metadata container);
///   AUD103  no data section decodes as a plausible SVM instruction
///           stream (a literal pool of code would escape AUD102 when the
///           plaintext is unavailable);
///   AUD104  the serialized secret metadata -- and, for Local storage,
///           the raw AES key -- is not embedded in the shipped file.
///
/// The AUD102 window parameters (16-byte window, 8-byte stride, >= 4
/// distinct byte values) are tuned so whitelisted code that legitimately
/// survives in .text never matches: only non-text file ranges are
/// searched, and low-entropy windows (zero runs, single-byte pads) are
/// skipped to keep padding from matching padding.
///
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"
#include "vm/Isa.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>

namespace elide {
namespace analysis {

namespace {

/// Max findings reported per code before collapsing into a summary line;
/// a leaked page would otherwise produce hundreds of identical lines.
constexpr size_t MaxPerCode = 8;

/// Returns the name of the PROGBITS section containing file offset
/// \p Off, or "" when it falls outside every section (headers, padding).
std::string sectionAtFileOffset(const ElfImage &Image, uint64_t Off) {
  for (const ElfSection &S : Image.sections()) {
    if (S.Type == SHT_NOBITS || S.Type == SHT_NULL)
      continue;
    if (Off >= S.Offset && Off < S.Offset + S.Size)
      return S.Name;
  }
  return "";
}

bool windowIsInteresting(const uint8_t *W, size_t Len) {
  bool Seen[256] = {false};
  size_t Distinct = 0;
  for (size_t I = 0; I < Len; ++I)
    if (!Seen[W[I]]) {
      Seen[W[I]] = true;
      ++Distinct;
    }
  return Distinct >= 4;
}

/// A slot "looks like" an SVM instruction when the opcode is defined and
/// non-illegal and every register field is architecturally valid. ASCII
/// text fails this immediately: printable bytes in the register
/// positions exceed SvmRegCount-1 (31).
bool slotLooksLikeCode(const uint8_t *Slot) {
  if (Slot[0] == 0 || !isValidOpcode(Slot[0]))
    return false;
  return Slot[1] < SvmRegCount && Slot[2] < SvmRegCount &&
         Slot[3] < SvmRegCount;
}

} // namespace

void checkResidualSecrets(const AuditInput &Input, const AuditOptions &,
                          DiagnosticEngine &Engine) {
  const ElfImage &Image = *Input.Image;
  const Bytes &File = Image.fileBytes();
  const ElfSection *Text = Image.sectionByName(Input.TextSection);

  // --- AUD101: explicitly elided ranges must be zero. ---
  bool Inferred = false;
  std::vector<ElidedRegion> Regions = effectiveElidedRegions(Input, &Inferred);
  if (Text && !Inferred) {
    size_t Reported = 0;
    for (const ElidedRegion &R : Regions) {
      Expected<uint64_t> Off =
          Image.fileOffsetOf(*Text, Text->Addr + R.Offset, R.Length);
      if (!Off)
        continue; // Out-of-section regions are AUD304's finding.
      const uint8_t *P = File.data() + *Off;
      for (uint64_t I = 0; I < R.Length; ++I) {
        if (P[I] == 0)
          continue;
        if (++Reported <= MaxPerCode) {
          uint64_t Run = 1;
          while (I + Run < R.Length && P[I + Run] != 0)
            ++Run;
          Engine.report(AudResidualSecretBytes, Severity::Error,
                        "elided range" +
                            (R.Name.empty() ? std::string()
                                            : " of '" + R.Name + "'") +
                            " contains " + std::to_string(Run) +
                            " nonzero byte(s); the secret body was not "
                            "redacted",
                        Input.TextSection, R.Offset + I, Run, R.Name);
        }
        break; // One finding per region is enough.
      }
    }
    if (Reported > MaxPerCode)
      Engine.report(AudResidualSecretBytes, Severity::Note,
                    std::to_string(Reported - MaxPerCode) +
                        " additional elided ranges with residual bytes "
                        "omitted");
  }

  // --- AUD102: secret plaintext windows outside .text. ---
  if (Input.SecretPlaintext.size() >= 16) {
    constexpr size_t Window = 16;
    constexpr size_t Stride = 8;
    using Key = std::array<uint8_t, Window>;
    auto keyAt = [](const uint8_t *P) {
      Key K;
      std::memcpy(K.data(), P, Window);
      return K;
    };
    uint64_t TextBegin = Text ? Text->Offset : 0;
    uint64_t TextEnd = Text ? Text->Offset + Text->Size : 0;

    // Index the needles once, not the file: each interesting window's
    // bytes map to the first window that holds them. A later window with
    // the same bytes can add no finding (each of its hits was already
    // reported or collapsed), so it needs no entry.
    std::map<Key, size_t> FirstWindow;
    for (size_t W = 0; W + Window <= Input.SecretPlaintext.size();
         W += Stride)
      if (windowIsInteresting(Input.SecretPlaintext.data() + W, Window))
        FirstWindow.emplace(keyAt(Input.SecretPlaintext.data() + W), W);

    // One pass over the file. Each offset matches at most one entry, so
    // the hits are bounded by the file, and in practice by leaked copies.
    std::vector<std::pair<size_t, uint64_t>> Hits; // (window, offset)
    for (uint64_t Off = 0; Off + Window <= File.size(); ++Off) {
      if (Text && Off >= TextBegin && Off + Window <= TextEnd)
        continue; // Whitelisted code legitimately survives in .text.
      auto It = FirstWindow.find(keyAt(File.data() + Off));
      if (It != FirstWindow.end())
        Hits.push_back({It->second, Off});
    }

    // Replay the hits in window order, then file order.
    std::sort(Hits.begin(), Hits.end());
    size_t Reported = 0;
    std::set<uint64_t> SeenOffsets; // Overlapping windows hit once.
    for (auto [W, Off] : Hits) {
      // Collapse hits within one window-width of an already-reported
      // offset (overlapping strides of the same leaked copy).
      auto Near = SeenOffsets.lower_bound(Off >= Window ? Off - Window : 0);
      if (Near != SeenOffsets.end() && *Near <= Off + Window)
        continue;
      SeenOffsets.insert(Off);
      if (++Reported <= MaxPerCode) {
        std::string Sec = sectionAtFileOffset(Image, Off);
        uint64_t SecOff = Off;
        if (const ElfSection *S =
                Sec.empty() ? nullptr : Image.sectionByName(Sec))
          SecOff = Off - S->Offset;
        Engine.report(AudSecretBytesLeaked, Severity::Error,
                      "16-byte window of the secret plaintext (offset " +
                          std::to_string(W) +
                          ") recurs in the shipped image outside .text",
                      Sec, SecOff, Window);
      }
    }
    if (Reported > MaxPerCode)
      Engine.report(AudSecretBytesLeaked, Severity::Note,
                    std::to_string(Reported - MaxPerCode) +
                        " additional plaintext-window hits omitted");
  }

  // --- AUD103: data sections that decode as plausible SVM code. ---
  constexpr size_t MinCodeRun = 8; // Consecutive plausible 8-byte slots.
  for (const ElfSection &S : Image.sections()) {
    if (S.Type != SHT_PROGBITS || (S.Flags & SHF_EXECINSTR) ||
        !(S.Flags & SHF_ALLOC))
      continue;
    if (S.Name == Input.TextSection)
      continue;
    Bytes Data = Image.sectionContents(S);
    size_t Run = 0;
    uint64_t RunStart = 0;
    for (size_t I = 0; I + 8 <= Data.size(); I += 8) {
      if (slotLooksLikeCode(Data.data() + I)) {
        if (Run == 0)
          RunStart = I;
        ++Run;
        continue;
      }
      if (Run >= MinCodeRun)
        Engine.report(AudCodeLikeData, Severity::Warning,
                      std::to_string(Run) +
                          " consecutive slots decode as SVM instructions; "
                          "possible code copy in a data section",
                      S.Name, RunStart, Run * 8);
      Run = 0;
    }
    if (Run >= MinCodeRun)
      Engine.report(AudCodeLikeData, Severity::Warning,
                    std::to_string(Run) +
                        " consecutive slots decode as SVM instructions; "
                        "possible code copy in a data section",
                    S.Name, RunStart, Run * 8);
  }

  // --- AUD104: secret metadata embedded in the shipped image. ---
  if (Input.Meta) {
    auto findNeedle = [&](BytesView Needle, const char *What) {
      if (Needle.size() < 8 ||
          !windowIsInteresting(Needle.data(), Needle.size()))
        return;
      auto Hit = std::search(File.begin(), File.end(), Needle.begin(),
                             Needle.end());
      if (Hit == File.end())
        return;
      uint64_t Off = (uint64_t)(Hit - File.begin());
      std::string Sec = sectionAtFileOffset(Image, Off);
      const ElfSection *S = Sec.empty() ? nullptr : Image.sectionByName(Sec);
      Engine.report(AudMetaInImage, Severity::Error,
                    std::string(What) +
                        " is embedded in the shipped image; secret "
                        "metadata must travel out of band",
                    Sec, S ? Off - S->Offset : Off, Needle.size());
    };
    findNeedle(Input.Meta->Serialized, "the serialized secret metadata");
    if (Input.Meta->Encrypted)
      findNeedle(Input.Meta->KeyBytes, "the secret-container AES key");
  }
}

} // namespace analysis
} // namespace elide
