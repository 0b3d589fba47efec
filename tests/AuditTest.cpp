//===- tests/AuditTest.cpp - Static secrecy-audit unit tests ----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for `src/analysis`: the diagnostics engine (codes, keys,
/// baselines, JSON), each checker family against deliberately leaky
/// crafted images, and the zero-false-positive guarantee over images the
/// real pipeline produces. Every leaky image is built with `ElfBuilder`
/// and seeds exactly one defect class, so a failing assertion names the
/// checker that regressed.
///
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"
#include "analysis/Cfg.h"
#include "analysis/Diagnostics.h"
#include "analysis/Taint.h"
#include "crypto/Drbg.h"
#include "crypto/Ed25519.h"
#include "elf/ElfBuilder.h"
#include "elf/ElfImage.h"
#include "elide/Pipeline.h"
#include "tests/framework/Builders.h"
#include "vm/Disassembler.h"
#include "vm/Isa.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace elide;
using namespace elide::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Crafted-image machinery
//===----------------------------------------------------------------------===//

Instruction instr(Opcode Op, uint8_t Rd = 0, uint8_t Rs1 = 0, uint8_t Rs2 = 0,
                  int32_t Imm = 0) {
  Instruction I;
  I.Op = Op;
  I.Rd = Rd;
  I.Rs1 = Rs1;
  I.Rs2 = Rs2;
  I.Imm = Imm;
  return I;
}

/// The well-formed sanitized-enclave shape every test starts from.
/// Text layout (base 0x1000, one 8-byte slot per line):
///
///   0x1000  __bridge_elide_restore:  call +16   ; into elide_restore
///   0x1008                           halt
///   0x1010  elide_restore:           nop
///   0x1018                           ret
///   0x1020  secret_fn (elided):      0 x 32 bytes
///
Bytes defaultText() {
  Bytes Code;
  emitInstruction(Code, instr(Opcode::Call, 0, 0, 0, 16));
  emitInstruction(Code, instr(Opcode::Halt));
  emitInstruction(Code, instr(Opcode::Nop));
  emitInstruction(Code, instr(Opcode::Ret));
  Code.resize(Code.size() + 4 * SvmInstrSize, 0);
  return Code;
}

struct FuncSym {
  std::string Name;
  uint64_t Addr = 0;
  uint64_t Size = 0;
};

struct CraftSpec {
  Bytes Text = defaultText();
  uint64_t TextFlags = SHF_ALLOC | SHF_EXECINSTR | SHF_WRITE;
  Bytes Rodata;                 ///< Added at 0x2000 when non-empty.
  bool WxSegment = false;       ///< Extra W+X data segment at 0x3000.
  bool HaveManifest = true;
  std::string Manifest = "elide_restore\n";
  bool RestoreSymbols = true;   ///< __bridge_elide_restore + elide_restore.
  std::vector<FuncSym> ExtraFuncs;
  Bytes RelaText;               ///< ".rela.text" contents when non-empty.
};

Bytes craft(const CraftSpec &S) {
  ElfBuilder B;
  size_t TextIdx = B.addProgbits(".text", 0x1000, S.Text, S.TextFlags);
  if (!S.Rodata.empty())
    B.addProgbits(".rodata", 0x2000, S.Rodata, SHF_ALLOC);
  if (S.WxSegment)
    B.addProgbits(".wxdata", 0x3000, Bytes(32, 0xAA),
                  SHF_ALLOC | SHF_WRITE | SHF_EXECINSTR);
  if (S.HaveManifest)
    B.addProgbits(".svm.ecalls", 0, bytesOfString(S.Manifest), 0);
  if (!S.RelaText.empty())
    B.addProgbits(".rela.text", 0, S.RelaText, 0);
  if (S.RestoreSymbols) {
    B.addSymbol("__bridge_elide_restore", 0x1000, 16, STT_FUNC, TextIdx);
    B.addSymbol("elide_restore", 0x1010, 16, STT_FUNC, TextIdx);
  }
  for (const FuncSym &F : S.ExtraFuncs)
    B.addSymbol(F.Name, F.Addr, F.Size, STT_FUNC, TextIdx);
  Expected<Bytes> File = B.build();
  return File ? File.takeValue() : Bytes();
}

/// The build-side facts matching `defaultText()`: one explicitly elided
/// region covering secret_fn's slots, and a whitelist naming the restorer.
AuditInput inputFor(const ElfImage &Image) {
  AuditInput In;
  In.Image = &Image;
  In.ElidedRegions = {{0x20, 0x20, "secret_fn"}};
  In.WhitelistNames = {"elide_restore"};
  In.HaveWhitelist = true;
  return In;
}

AuditReport runChecks(const AuditInput &In, unsigned Checks,
                      SgxMode Mode = SgxMode::Sgx1) {
  AuditOptions Opts;
  Opts.Checks = Checks;
  Opts.Mode = Mode;
  return runAudit(In, Opts);
}

/// Crafts \p S and audits it with the default build-side facts plus the
/// extra whitelisted exports.
AuditReport
auditCrafted(const CraftSpec &S, unsigned Checks,
             std::initializer_list<std::string> ExtraWhitelist = {}) {
  Bytes File = craft(S);
  EXPECT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  EXPECT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);
  for (const std::string &W : ExtraWhitelist)
    In.WhitelistNames.insert(W);
  return runChecks(In, Checks);
}

size_t countCode(const AuditReport &R, int Code) {
  size_t N = 0;
  for (const Diagnostic &D : R.Diags)
    N += (D.Code == Code);
  return N;
}

const Diagnostic *findCode(const AuditReport &R, int Code) {
  for (const Diagnostic &D : R.Diags)
    if (D.Code == Code)
      return &D;
  return nullptr;
}

/// Overwrites the slot at text offset \p Off with \p I.
void poke(Bytes &Text, size_t Off, const Instruction &I) {
  uint8_t Slot[SvmInstrSize];
  encodeInstruction(I, Slot);
  std::copy(Slot, Slot + SvmInstrSize, Text.begin() + Off);
}

//===----------------------------------------------------------------------===//
// Diagnostics engine
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, KeyFormatIsStable) {
  Diagnostic D;
  D.Code = AudElidedSymbolNamed;
  D.Sev = Severity::Error;
  D.Message = "reworded messages must not change the key";
  D.Section = ".symtab";
  D.Offset = 0x18;
  D.Length = 24;
  D.Symbol = "secret_fn";
  EXPECT_EQ(D.key(), "AUD201:.symtab:0x18:secret_fn");

  Diagnostic NoSym;
  NoSym.Code = AudResidualSecretBytes;
  NoSym.Section = ".text";
  NoSym.Offset = 0x40;
  EXPECT_EQ(NoSym.key(), "AUD101:.text:0x40");
}

TEST(DiagnosticsTest, KeySanitizesHostileNames) {
  // Section/symbol names come from untrusted images; a newline or
  // trailing space must not be able to split or mutate a baseline line.
  Diagnostic D;
  D.Code = AudStrtabResidue;
  D.Section = ".bad\nname";
  D.Offset = 0;
  D.Symbol = "sym ";
  EXPECT_EQ(D.key(), "AUD202:.bad_name:0x0:sym_");
  Expected<Baseline> B = Baseline::parse(D.key() + "\n");
  ASSERT_TRUE(static_cast<bool>(B)) << B.errorMessage();
  EXPECT_TRUE(B->suppresses(D));
}

TEST(DiagnosticsTest, RenderSpellsSeverityCodeAndLocation) {
  Diagnostic D;
  D.Code = AudResidualSecretBytes;
  D.Sev = Severity::Error;
  D.Message = "residual bytes";
  D.Section = ".text";
  D.Offset = 0x40;
  D.Length = 0x10;
  EXPECT_EQ(D.render(), "error: AUD101: residual bytes [.text+0x40..0x50]");
  D.Length = 0;
  D.Sev = Severity::Warning;
  EXPECT_EQ(D.render(), "warning: AUD101: residual bytes [.text+0x40]");
}

TEST(DiagnosticsTest, CodeRegistryNamesEveryPublishedCode) {
  const int Codes[] = {101, 102, 103, 104, 201, 202, 203, 204, 205,
                       301, 302, 303, 304, 305, 306, 307, 401, 402,
                       403, 404, 405, 501, 502, 503, 511, 521, 522,
                       601, 602, 603, 604, 605};
  for (int C : Codes) {
    EXPECT_EQ(auditCodeName(C).size(), 6u);
    EXPECT_STRNE(auditCodeTitle(C), "unknown diagnostic")
        << "code " << C << " missing from the registry";
  }
  EXPECT_STREQ(auditCodeTitle(999), "unknown diagnostic");
  EXPECT_EQ(auditCodeName(101), "AUD101");
}

TEST(DiagnosticsTest, BaselineParsesCommentsAndSuppresses) {
  Expected<Baseline> B = Baseline::parse("# a comment\n"
                                         "  \n"
                                         "AUD201:.symtab:0x18:secret_fn\r\n"
                                         "AUD101:.text:0x40  \n");
  ASSERT_TRUE(static_cast<bool>(B)) << B.errorMessage();
  EXPECT_EQ(B->size(), 2u);

  Diagnostic D;
  D.Code = AudElidedSymbolNamed;
  D.Section = ".symtab";
  D.Offset = 0x18;
  D.Symbol = "secret_fn";
  EXPECT_TRUE(B->suppresses(D));
  D.Offset = 0x30; // Different anchor: different finding.
  EXPECT_FALSE(B->suppresses(D));
}

TEST(DiagnosticsTest, BaselineRejectsMalformedLines) {
  EXPECT_FALSE(static_cast<bool>(Baseline::parse("not a key\n")));
  EXPECT_FALSE(static_cast<bool>(Baseline::parse("AUDxyz:.text:0x0\n")));
  EXPECT_FALSE(static_cast<bool>(Baseline::parse("AUD20:.text:0x0\n")));
  Expected<Baseline> Bad = Baseline::parse("AUD201 .symtab 0x18\n");
  ASSERT_FALSE(static_cast<bool>(Bad));
  EXPECT_NE(Bad.errorMessage().find("line 1"), std::string::npos);
}

TEST(DiagnosticsTest, EngineSortsCountsAndSuppresses) {
  Expected<Baseline> B = Baseline::parse("AUD402:.text:0x8\n");
  ASSERT_TRUE(static_cast<bool>(B));
  DiagnosticEngine Engine(&*B);
  Engine.report(AudPreRestoreReachesElided, Severity::Error, "reach", ".text",
                0x20);
  Engine.report(AudPreRestoreReachesElided, Severity::Error, "suppressed",
                ".text", 0x8);
  Engine.report(AudResidualSecretBytes, Severity::Error, "residual", ".text",
                0x40);
  Engine.report(AudOrphanBridge, Severity::Warning, "orphan");
  AuditReport R = Engine.take();

  ASSERT_EQ(R.Diags.size(), 3u);
  EXPECT_EQ(R.Diags[0].Code, 101); // Sorted by code, checker order.
  EXPECT_EQ(R.Diags[1].Code, 204);
  EXPECT_EQ(R.Diags[2].Code, 402);
  EXPECT_EQ(R.Errors, 2u);
  EXPECT_EQ(R.Warnings, 1u);
  EXPECT_EQ(R.Suppressed, 1u);
  EXPECT_FALSE(R.clean());
}

TEST(DiagnosticsTest, JsonEscapeHandlesControlBytes) {
  EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(jsonEscape("x\n\t\r"), "x\\n\\t\\r");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(DiagnosticsTest, JsonRenderingMatchesDocumentedSchema) {
  DiagnosticEngine Engine;
  Engine.report(AudElidedSymbolNamed, Severity::Error, "leaked \"name\"",
                ".symtab", 0x18, 24, "secret_fn");
  AuditReport R = Engine.take();
  R.Families = {"metadata"};
  std::string Json = R.renderJson();
  EXPECT_NE(Json.find("\"version\":2"), std::string::npos);
  EXPECT_NE(Json.find("\"families\":[\"metadata\"]"), std::string::npos);
  EXPECT_NE(Json.find("\"code\":\"AUD201\""), std::string::npos);
  EXPECT_NE(Json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(Json.find("\"message\":\"leaked \\\"name\\\"\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"offset\":24"), std::string::npos);
  EXPECT_NE(Json.find("\"key\":\"AUD201:.symtab:0x18:secret_fn\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"summary\":{\"errors\":1,\"warnings\":0"),
            std::string::npos);
}

TEST(DiagnosticsTest, BaselineRenderingRoundTrips) {
  DiagnosticEngine Engine;
  Engine.report(AudElidedSymbolNamed, Severity::Error, "leak", ".symtab",
                0x18, 24, "secret_fn");
  Engine.report(AudOrphanBridge, Severity::Warning, "orphan", ".svm.ecalls",
                0, 0, "__bridge_ghost");
  AuditReport R = Engine.take();
  Expected<Baseline> B = Baseline::parse(R.renderBaseline());
  ASSERT_TRUE(static_cast<bool>(B)) << B.errorMessage();
  EXPECT_EQ(B->size(), 2u);
  for (const Diagnostic &D : R.Diags)
    EXPECT_TRUE(B->suppresses(D));
}

//===----------------------------------------------------------------------===//
// Elided-region derivation
//===----------------------------------------------------------------------===//

TEST(EffectiveRegionsTest, ExplicitRegionsWin) {
  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);
  bool Inferred = true;
  std::vector<ElidedRegion> R = effectiveElidedRegions(In, &Inferred);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Name, "secret_fn");
  EXPECT_EQ(R[0].Offset, 0x20u);
  EXPECT_FALSE(Inferred);
}

TEST(EffectiveRegionsTest, SymbolFallbackSkipsBridgeThunks) {
  CraftSpec S;
  S.ExtraFuncs = {{"secret_fn", 0x1020, 0x20}};
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);
  In.ElidedRegions.clear();
  bool Inferred = true;
  std::vector<ElidedRegion> R = effectiveElidedRegions(In, &Inferred);
  // Only secret_fn: the bridge is implicitly whitelisted, elide_restore
  // explicitly so.
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Name, "secret_fn");
  EXPECT_EQ(R[0].Offset, 0x20u);
  EXPECT_EQ(R[0].Length, 0x20u);
  EXPECT_FALSE(Inferred);
}

TEST(EffectiveRegionsTest, InfersZeroRunsWithoutAnyFacts) {
  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In;
  In.Image = &*Image;
  bool Inferred = false;
  std::vector<ElidedRegion> R = effectiveElidedRegions(In, &Inferred);
  EXPECT_TRUE(Inferred);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_TRUE(R[0].Name.empty());
  // The run must cover the zeroed secret slots [0x20, 0x40).
  EXPECT_LE(R[0].Offset, 0x20u);
  EXPECT_GE(R[0].Offset + R[0].Length, 0x40u);
}

//===----------------------------------------------------------------------===//
// AUD1xx -- residual-secret scan
//===----------------------------------------------------------------------===//

TEST(ResidualCheckTest, Aud101FlagsUnredactedBytes) {
  CraftSpec S;
  S.Text = defaultText();
  // Seed the leak: the "elided" slots still hold code.
  for (int I = 0; I < 4; ++I) {
    uint8_t Slot[8];
    encodeInstruction(instr(Opcode::LdI, 1, 0, 0, 0x1234 + I), Slot);
    std::copy(Slot, Slot + 8, S.Text.begin() + 0x20 + I * 8);
  }
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckResidual);
  const Diagnostic *D = findCode(R, AudResidualSecretBytes);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Symbol, "secret_fn");
  EXPECT_EQ(D->Section, ".text");
  EXPECT_GE(R.Errors, 1u);
}

TEST(ResidualCheckTest, Aud102FindsPlaintextCopiedIntoRodata) {
  Bytes Plaintext;
  for (int I = 0; I < 32; ++I)
    Plaintext.push_back((uint8_t)(0x41 + I)); // High entropy, non-trivial.
  CraftSpec S;
  S.Rodata = bytesOfString("prefix-pad-");
  appendBytes(S.Rodata, Plaintext); // The leaked copy.
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);
  In.SecretPlaintext = Plaintext;
  AuditReport R = runChecks(In, CheckResidual);
  const Diagnostic *D = findCode(R, AudSecretBytesLeaked);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Section, ".rodata");
}

TEST(ResidualCheckTest, Aud103FlagsCodeShapedDataSections) {
  CraftSpec S;
  for (int I = 0; I < 9; ++I) // > MinCodeRun consecutive plausible slots.
    emitInstruction(S.Rodata, instr(Opcode::Add, 1, 2, 3, 0x11223344));
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckResidual);
  const Diagnostic *D = findCode(R, AudCodeLikeData);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Section, ".rodata");
}

TEST(ResidualCheckTest, Aud103IgnoresAsciiRodata) {
  CraftSpec S;
  std::string Strings;
  while (Strings.size() < 128)
    Strings += "the quick brown fox jumps over the lazy dog\n";
  S.Rodata = bytesOfString(Strings);
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckResidual);
  EXPECT_TRUE(R.clean()) << R.renderText();
}

TEST(ResidualCheckTest, Aud104FindsEmbeddedMetaAndKey) {
  AuditMeta Meta;
  Meta.DataLength = 0x20;
  Meta.RestoreOffset = 0x10;
  Meta.Encrypted = true;
  for (int I = 0; I < 16; ++I)
    Meta.KeyBytes.push_back((uint8_t)(0x90 + I));
  for (int I = 0; I < 61; ++I)
    Meta.Serialized.push_back((uint8_t)(0x30 + I));

  CraftSpec S;
  S.Rodata = Meta.Serialized; // Both needles leak into .rodata.
  appendBytes(S.Rodata, Meta.KeyBytes);
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);
  In.Meta = Meta;
  AuditReport R = runChecks(In, CheckResidual);
  EXPECT_EQ(countCode(R, AudMetaInImage), 2u) << R.renderText();
  EXPECT_GE(R.Errors, 2u);
}

//===----------------------------------------------------------------------===//
// AUD2xx -- metadata-leak check
//===----------------------------------------------------------------------===//

TEST(MetadataCheckTest, Aud201FlagsSymbolNamingElidedFunction) {
  CraftSpec S;
  S.ExtraFuncs = {{"secret_fn", 0x1020, 0x20}};
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckMetadata);
  const Diagnostic *D = findCode(R, AudElidedSymbolNamed);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Symbol, "secret_fn");
  EXPECT_NE(D->Message.find("0x1020"), std::string::npos) << D->Message;
}

TEST(MetadataCheckTest, Aud202FlagsStringTableResidue) {
  CraftSpec S;
  S.ExtraFuncs = {{"ghost_fn", 0x1020, 0x20}};
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Parsed = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.errorMessage();

  // Simulate a sloppy sanitizer: drop the symtab entry but keep the name.
  size_t Index = 0;
  bool Found = false;
  for (const ElfSymbol &Sym : Parsed->symbols()) {
    ++Index; // Table index (the null entry is index 0).
    if (Sym.Name == "ghost_fn") {
      Found = true;
      break;
    }
  }
  ASSERT_TRUE(Found);
  const ElfSection *SymTab = Parsed->sectionByName(".symtab");
  ASSERT_NE(SymTab, nullptr);
  std::fill(File.begin() + SymTab->Offset + Index * 24,
            File.begin() + SymTab->Offset + (Index + 1) * 24, 0);

  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  ASSERT_EQ(Image->symbolByName("ghost_fn"), nullptr);
  AuditReport R = runChecks(inputFor(*Image), CheckMetadata);
  const Diagnostic *D = findCode(R, AudStrtabResidue);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_NE(D->Message.find("ghost_fn"), std::string::npos) << D->Message;
}

TEST(MetadataCheckTest, Aud203FlagsRelocationIntoElidedRange) {
  CraftSpec S;
  S.RelaText.resize(24, 0);
  writeLE64(S.RelaText.data(), 0x1028); // r_offset inside secret_fn.
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckMetadata);
  const Diagnostic *D = findCode(R, AudRelocationLeak);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Section, ".rela.text");
  EXPECT_EQ(D->Symbol, "secret_fn");
}

TEST(MetadataCheckTest, Aud204FlagsOrphanBridge) {
  CraftSpec S;
  S.ExtraFuncs = {{"__bridge_ghost", 0x1008, 8}};
  Bytes File = craft(S); // Manifest only exports elide_restore.
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckMetadata);
  const Diagnostic *D = findCode(R, AudOrphanBridge);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Symbol, "__bridge_ghost");
}

TEST(MetadataCheckTest, Aud205FlagsManifestEntryWithoutBridge) {
  CraftSpec S;
  S.Manifest = "elide_restore\nghost\n";
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckMetadata);
  const Diagnostic *D = findCode(R, AudManifestUnbound);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Symbol, "ghost");
}

//===----------------------------------------------------------------------===//
// AUD3xx -- layout / W^X
//===----------------------------------------------------------------------===//

TEST(LayoutCheckTest, Aud301RequiresWritableTextUnderSgx1Only) {
  CraftSpec S;
  S.TextFlags = SHF_ALLOC | SHF_EXECINSTR; // Ships RX: restore would fault.
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);

  AuditReport Sgx1 = runChecks(In, CheckLayout, SgxMode::Sgx1);
  const Diagnostic *D = findCode(Sgx1, AudTextNotWritable);
  ASSERT_NE(D, nullptr) << Sgx1.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);

  // The SGX2 ablation: EMODPE opens the pages at restore time instead.
  AuditReport Sgx2 = runChecks(In, CheckLayout, SgxMode::Sgx2);
  EXPECT_EQ(countCode(Sgx2, AudTextNotWritable), 0u) << Sgx2.renderText();
}

TEST(LayoutCheckTest, Aud302FlagsForeignWxSegment) {
  CraftSpec S;
  S.WxSegment = true;
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckLayout);
  const Diagnostic *D = findCode(R, AudWxSegment);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
}

TEST(LayoutCheckTest, Aud303FlagsWritableTextWithNothingElided) {
  CraftSpec S;
  S.Text.clear();
  for (int I = 0; I < 8; ++I)
    emitInstruction(S.Text, instr(Opcode::Nop));
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In;
  In.Image = &*Image; // No regions, no whitelist, nothing zeroed.
  AuditReport R = runChecks(In, CheckLayout);
  const Diagnostic *D = findCode(R, AudWritableNoElision);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
}

TEST(LayoutCheckTest, Aud304FlagsRegionEscapingText) {
  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);
  In.ElidedRegions = {{0x38, 0x100, "runaway_fn"}};
  AuditReport R = runChecks(In, CheckLayout);
  const Diagnostic *D = findCode(R, AudRegionOutsideText);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Symbol, "runaway_fn");

  // Offset+Length wraparound must not read as "inside".
  In.ElidedRegions = {{~0ull - 8, 0x10, "wrap_fn"}};
  AuditReport Wrap = runChecks(In, CheckLayout);
  EXPECT_GE(countCode(Wrap, AudRegionOutsideText), 1u) << Wrap.renderText();
}

TEST(LayoutCheckTest, Aud306FlagsInconsistentMeta) {
  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();

  AuditInput In = inputFor(*Image);
  AuditMeta Zero;
  Zero.DataLength = 0; // Nothing would be restored.
  Zero.RestoreOffset = 0x10;
  In.Meta = Zero;
  AuditReport R1 = runChecks(In, CheckLayout);
  EXPECT_GE(countCode(R1, AudMetaInconsistent), 1u) << R1.renderText();

  AuditMeta Huge;
  Huge.DataLength = 0x1000;  // Larger than the whole text section.
  Huge.RestoreOffset = 0x40; // And the restore slot is out of range too.
  In.Meta = Huge;
  AuditReport R2 = runChecks(In, CheckLayout);
  EXPECT_EQ(countCode(R2, AudMetaInconsistent), 2u) << R2.renderText();
}

TEST(LayoutCheckTest, Aud307FlagsPartialRestoreSharingPage) {
  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);
  AuditMeta Partial;
  Partial.DataLength = 0x20; // Restores the region, not the whole text.
  Partial.RestoreOffset = 0x10;
  In.Meta = Partial;
  AuditReport R = runChecks(In, CheckLayout);
  const Diagnostic *D = findCode(R, AudRegionSharesPage);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Symbol, "secret_fn");
}

//===----------------------------------------------------------------------===//
// AUD4xx -- pre-restore reachability
//===----------------------------------------------------------------------===//

TEST(ReachabilityCheckTest, Aud401ReportsMissingRestoreEntry) {
  // No manifest at all: advisory only (plain library images are legal).
  CraftSpec NoManifest;
  NoManifest.HaveManifest = false;
  Bytes F1 = craft(NoManifest);
  ASSERT_FALSE(F1.empty());
  Expected<ElfImage> I1 = ElfImage::parse(F1);
  ASSERT_TRUE(static_cast<bool>(I1)) << I1.errorMessage();
  AuditReport R1 = runChecks(inputFor(*I1), CheckReachability);
  const Diagnostic *D1 = findCode(R1, AudRestoreEntryMissing);
  ASSERT_NE(D1, nullptr) << R1.renderText();
  EXPECT_EQ(D1->Sev, Severity::Warning);

  // A manifest that never exports the restorer: hard error.
  CraftSpec NoRestore;
  NoRestore.Manifest = "other_fn\n";
  Bytes F2 = craft(NoRestore);
  ASSERT_FALSE(F2.empty());
  Expected<ElfImage> I2 = ElfImage::parse(F2);
  ASSERT_TRUE(static_cast<bool>(I2)) << I2.errorMessage();
  AuditReport R2 = runChecks(inputFor(*I2), CheckReachability);
  const Diagnostic *D2 = findCode(R2, AudRestoreEntryMissing);
  ASSERT_NE(D2, nullptr) << R2.renderText();
  EXPECT_EQ(D2->Sev, Severity::Error);

  // Manifest exports it but the bridge symbol is gone: the loader cannot
  // bind the ecall.
  CraftSpec NoBridge;
  NoBridge.RestoreSymbols = false;
  Bytes F3 = craft(NoBridge);
  ASSERT_FALSE(F3.empty());
  Expected<ElfImage> I3 = ElfImage::parse(F3);
  ASSERT_TRUE(static_cast<bool>(I3)) << I3.errorMessage();
  AuditReport R3 = runChecks(inputFor(*I3), CheckReachability);
  const Diagnostic *D3 = findCode(R3, AudRestoreEntryMissing);
  ASSERT_NE(D3, nullptr) << R3.renderText();
  EXPECT_EQ(D3->Sev, Severity::Error);
  EXPECT_NE(D3->Message.find("__bridge_elide_restore"), std::string::npos);
}

TEST(ReachabilityCheckTest, Aud402FlagsJumpIntoElidedRegion) {
  CraftSpec S;
  // The restore bridge jumps straight into the zeroed secret body.
  uint8_t Slot[8];
  encodeInstruction(instr(Opcode::Jmp, 0, 0, 0, 0x20), Slot);
  std::copy(Slot, Slot + 8, S.Text.begin());
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckReachability);
  const Diagnostic *D = findCode(R, AudPreRestoreReachesElided);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Offset, 0x20u);
  // The diagnostic quotes the disassembled branch that gets there.
  EXPECT_NE(D->Message.find("jmp"), std::string::npos) << D->Message;
  EXPECT_NE(D->Message.find("secret_fn"), std::string::npos) << D->Message;
}

TEST(ReachabilityCheckTest, WalkEndsAtCallToRestore) {
  CraftSpec S;
  // call elide_restore; then jump into the (by then restored) region:
  // legal, because everything after the call runs against restored text.
  uint8_t Slot[8];
  encodeInstruction(instr(Opcode::Jmp, 0, 0, 0, 0x18), Slot);
  std::copy(Slot, Slot + 8, S.Text.begin() + 8);
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckReachability);
  EXPECT_EQ(countCode(R, AudPreRestoreReachesElided), 0u) << R.renderText();
  EXPECT_EQ(R.Errors, 0u) << R.renderText();
}

TEST(ReachabilityCheckTest, Aud403FlagsIndirectCallOnRestorePath) {
  CraftSpec S;
  uint8_t Slot[8];
  encodeInstruction(instr(Opcode::CallR, 0, 5, 0, 0), Slot);
  std::copy(Slot, Slot + 8, S.Text.begin() + 0x10); // elide_restore body.
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckReachability);
  const Diagnostic *D = findCode(R, AudIndirectPreRestore);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Offset, 0x10u);
}

TEST(ReachabilityCheckTest, Aud404FlagsZeroedBridgeBody) {
  CraftSpec S;
  std::fill(S.Text.begin(), S.Text.begin() + 16, 0); // Bridge slots zeroed.
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckReachability);
  const Diagnostic *D = findCode(R, AudBridgeElided);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Symbol, "__bridge_elide_restore");
}

TEST(ReachabilityCheckTest, Aud405FlagsFlowLeavingText) {
  CraftSpec S;
  uint8_t Slot[8];
  encodeInstruction(instr(Opcode::Jmp, 0, 0, 0, 0x4000), Slot);
  std::copy(Slot, Slot + 8, S.Text.begin());
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckReachability);
  const Diagnostic *D = findCode(R, AudFlowEscapesText);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
}

TEST(ReachabilityCheckTest, Aud402QuotesTheSlotBeforeAStraightLineFallThrough) {
  // elide_restore runs `nop; addi` and falls off its end into secret_fn.
  CraftSpec S;
  Instruction Last = instr(Opcode::AddI, 1, 1, 0, 7);
  poke(S.Text, 0x18, Last);
  AuditReport R = auditCrafted(S, CheckReachability);
  ASSERT_EQ(countCode(R, AudPreRestoreReachesElided), 1u) << R.renderText();
  const Diagnostic *D = findCode(R, AudPreRestoreReachesElided);
  EXPECT_EQ(D->Offset, 0x20u);
  EXPECT_EQ(D->Symbol, "secret_fn");
  EXPECT_NE(D->Message.find("from 'elide_restore' via `" +
                            disassembleInstruction(Last, 0x1018) + "`"),
            std::string::npos)
      << D->Message;
}

TEST(ReachabilityCheckTest, Aud405FlagsMisalignedTargetsAndFallingOffText) {
  // A branch into the middle of a slot leaves the instruction stream.
  CraftSpec Mis;
  poke(Mis.Text, 0x10, instr(Opcode::Jmp, 0, 0, 0, 4)); // -> 0x1014
  AuditReport R1 = auditCrafted(Mis, CheckReachability);
  ASSERT_EQ(countCode(R1, AudFlowEscapesText), 1u) << R1.renderText();
  const Diagnostic *D1 = findCode(R1, AudFlowEscapesText);
  EXPECT_EQ(D1->Offset, 0x10u);
  EXPECT_NE(D1->Message.find("target 0x1014"), std::string::npos)
      << D1->Message;

  // Straight-line code running past the last slot of .text.
  CraftSpec Tail;
  Tail.Text.resize(Tail.Text.size() + SvmInstrSize, 0);
  poke(Tail.Text, 0x10, instr(Opcode::Jmp, 0, 0, 0, 0x30)); // -> 0x1040
  poke(Tail.Text, 0x40, instr(Opcode::Nop));
  AuditReport R2 = auditCrafted(Tail, CheckReachability);
  ASSERT_EQ(countCode(R2, AudFlowEscapesText), 1u) << R2.renderText();
  const Diagnostic *D2 = findCode(R2, AudFlowEscapesText);
  EXPECT_EQ(D2->Offset, 0x40u);
  EXPECT_NE(D2->Message.find("via `nop` leaves the text section (target "
                             "0x1048)"),
            std::string::npos)
      << D2->Message;
}

TEST(ReachabilityCheckTest, SharedEdgeIsOneAud402ButEachEntryGetsAud601) {
  // Two whitelisted bridges call the same helper, which jumps into
  // secret_fn: one offending edge, two entries that admit it.
  CraftSpec S;
  S.Text.resize(S.Text.size() + 5 * SvmInstrSize, 0);
  poke(S.Text, 0x40, instr(Opcode::Call, 0, 0, 0, 0x20)); // -> 0x1060
  poke(S.Text, 0x48, instr(Opcode::Halt));
  poke(S.Text, 0x50, instr(Opcode::Call, 0, 0, 0, 0x10)); // -> 0x1060
  poke(S.Text, 0x58, instr(Opcode::Halt));
  poke(S.Text, 0x60, instr(Opcode::Jmp, 0, 0, 0, -0x40)); // -> 0x1020
  S.ExtraFuncs = {{"__bridge_a", 0x1040, 16}, {"__bridge_b", 0x1050, 16}};
  AuditReport R =
      auditCrafted(S, CheckReachability | CheckOrderliness, {"a", "b"});
  ASSERT_EQ(countCode(R, AudPreRestoreReachesElided), 1u) << R.renderText();
  EXPECT_EQ(findCode(R, AudPreRestoreReachesElided)->Offset, 0x20u);
  ASSERT_EQ(countCode(R, AudPreRestoreEntersRedacted), 2u) << R.renderText();
  std::set<std::string> Entries;
  for (const Diagnostic &D : R.Diags)
    if (D.Code == AudPreRestoreEntersRedacted)
      Entries.insert(D.Symbol);
  EXPECT_EQ(Entries, (std::set<std::string>{"__bridge_a", "__bridge_b"}));
}

TEST(ReachabilityCheckTest, WrappingBranchTargetEscapesText) {
  // 0x1000 - 0x1008 wraps to 2^64 - 8, where `target + 8` wraps to 0: an
  // in-text test that adds instead of subtracting takes it for a slot.
  CraftSpec S;
  poke(S.Text, 0x00, instr(Opcode::Jmp, 0, 0, 0, -0x1008));
  for (unsigned Checks : {(unsigned)CheckAll, (unsigned)CheckEverything}) {
    AuditReport R = auditCrafted(S, Checks);
    ASSERT_EQ(countCode(R, AudFlowEscapesText), 1u) << R.renderText();
    const Diagnostic *D = findCode(R, AudFlowEscapesText);
    EXPECT_EQ(D->Offset, 0x0u);
    EXPECT_NE(D->Message.find("target 0xfffffffffffffff8"), std::string::npos)
        << D->Message;
  }
}

TEST(ReachabilityCheckTest, TextEndingPast2To64IsNotWalked) {
  // `jmp +8; jmp +8; halt` at 2^64 - 24: the last slot's end wraps to 0,
  // so no slot of this .text is addressable and the walk has nothing to
  // judge -- in particular no block ending at 0 that looks like a trap.
  Bytes Code;
  emitInstruction(Code, instr(Opcode::Jmp, 0, 0, 0, 8));
  emitInstruction(Code, instr(Opcode::Jmp, 0, 0, 0, 8));
  emitInstruction(Code, instr(Opcode::Halt));
  ElfBuilder B;
  size_t TextIdx = B.addProgbits(".text", 0x1000, Code,
                                 SHF_ALLOC | SHF_EXECINSTR | SHF_WRITE);
  B.addSymbol("elide_restore", 0x1000, Code.size(), STT_FUNC, TextIdx);
  Expected<Bytes> File = B.build();
  ASSERT_TRUE(static_cast<bool>(File)) << File.errorMessage();
  fuzz::rebaseFirstSection(*File, 0ull - Code.size() - 0x1000);
  Expected<ElfImage> Image = ElfImage::parse(*File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  const ElfSymbol *Restore = Image->symbolByName("elide_restore");
  ASSERT_NE(Restore, nullptr);
  ASSERT_EQ(Restore->Value, 0ull - 24);
  AuditInput In;
  In.Image = &*Image;
  In.WhitelistNames = {"elide_restore"};
  In.HaveWhitelist = true;
  for (unsigned Checks : {(unsigned)CheckAll, (unsigned)CheckEverything}) {
    AuditReport R = runChecks(In, Checks);
    for (int C : {AudPreRestoreReachesElided, AudIndirectPreRestore,
                  AudBridgeElided, AudFlowEscapesText,
                  AudPreRestoreEntersRedacted, AudPreRestoreOcall,
                  AudBridgeContract, AudRestoreReentry,
                  AudRestoreIncompletable})
      EXPECT_EQ(countCode(R, C), 0u) << R.renderText();
  }
}

//===----------------------------------------------------------------------===//
// CFG builder
//===----------------------------------------------------------------------===//

TEST(CfgTest, SplitsBlocksAtBranchesAndTargets) {
  Bytes Code;
  emitInstruction(Code, instr(Opcode::Bnez, 0, 1, 0, 16)); // 0x1000 -> 0x1010
  emitInstruction(Code, instr(Opcode::Nop));               // 0x1008
  emitInstruction(Code, instr(Opcode::Ret));               // 0x1010
  Cfg G = Cfg::build(BytesView(Code.data(), Code.size()), 0x1000, {0x1000});

  int Entry = G.blockStartingAt(0x1000);
  int Fall = G.blockStartingAt(0x1008);
  int Target = G.blockStartingAt(0x1010);
  ASSERT_GE(Entry, 0);
  ASSERT_GE(Fall, 0);
  ASSERT_GE(Target, 0);
  const CfgBlock &B = G.blocks()[Entry];
  EXPECT_EQ(B.End, 0x1008u);
  EXPECT_EQ(B.Term, Opcode::Bnez);
  ASSERT_TRUE(B.TargetPc.has_value());
  EXPECT_EQ(*B.TargetPc, 0x1010u);
  ASSERT_TRUE(B.FallPc.has_value());
  EXPECT_EQ(*B.FallPc, 0x1008u);
  EXPECT_EQ(B.Succs.size(), 2u);
  EXPECT_EQ(G.blockContaining(0x1008), Fall);
  EXPECT_EQ(G.blocks()[Target].Term, Opcode::Ret);
  EXPECT_TRUE(G.blocks()[Target].Succs.empty());
}

TEST(CfgTest, HostileTargetsBecomeEscapesNotEdges) {
  Bytes Code;
  emitInstruction(Code, instr(Opcode::Jmp, 0, 0, 0, 0x4000)); // Way out.
  Cfg G = Cfg::build(BytesView(Code.data(), Code.size()), 0x1000, {0x1000});
  ASSERT_EQ(G.blocks().size(), 1u);
  EXPECT_TRUE(G.blocks()[0].Succs.empty());
  ASSERT_EQ(G.blocks()[0].EscapeTargets.size(), 1u);
  EXPECT_EQ(G.blocks()[0].EscapeTargets[0], 0x5000u);

  // A misaligned target is an escape too, never a half-slot block.
  Bytes Mis;
  emitInstruction(Mis, instr(Opcode::Jmp, 0, 0, 0, 4));
  emitInstruction(Mis, instr(Opcode::Ret));
  Cfg G2 = Cfg::build(BytesView(Mis.data(), Mis.size()), 0x1000, {0x1000});
  ASSERT_EQ(G2.blocks().size(), 1u);
  ASSERT_EQ(G2.blocks()[0].EscapeTargets.size(), 1u);
  EXPECT_EQ(G2.blocks()[0].EscapeTargets[0], 0x1004u);
}

TEST(CfgTest, MarksCyclesIncludingSelfEdges) {
  Bytes Code;
  emitInstruction(Code, instr(Opcode::Jmp, 0, 0, 0, 0)); // Self-loop.
  emitInstruction(Code, instr(Opcode::Ret));
  Cfg G = Cfg::build(BytesView(Code.data(), Code.size()), 0x1000,
                     {0x1000, 0x1008});
  int Loop = G.blockStartingAt(0x1000);
  int Line = G.blockStartingAt(0x1008);
  ASSERT_GE(Loop, 0);
  ASSERT_GE(Line, 0);
  EXPECT_TRUE(G.inCycle((uint32_t)Loop));
  EXPECT_FALSE(G.inCycle((uint32_t)Line));
}

TEST(CfgTest, ToleratesTruncatedTailsAndBadRoots) {
  Bytes Code;
  emitInstruction(Code, instr(Opcode::Nop));
  Code.resize(Code.size() + 3, 0); // Ragged partial slot at the end.
  Cfg G = Cfg::build(BytesView(Code.data(), Code.size()), 0x1000,
                     {0x1000, 0x1003, 0x9000}); // Bad roots are ignored.
  ASSERT_EQ(G.blocks().size(), 1u);
  EXPECT_EQ(G.limit(), 0x1008u);
  EXPECT_FALSE(G.contains(0x1008));

  Cfg Empty = Cfg::build(BytesView(Code.data(), 0), 0x1000, {0x1000});
  EXPECT_TRUE(Empty.blocks().empty());
  EXPECT_EQ(Empty.blockContaining(0x1000), -1);
}

TEST(CfgTest, RegionEndingPast2To64HasNoSlots) {
  // The last slot would end at 2^64, which wraps to 0: no block End could
  // be represented, so the region holds nothing.
  Bytes Code;
  emitInstruction(Code, instr(Opcode::Nop));
  emitInstruction(Code, instr(Opcode::Ret));
  const uint64_t Base = 0ull - Code.size();
  Cfg G = Cfg::build(BytesView(Code.data(), Code.size()), Base, {Base});
  EXPECT_TRUE(G.blocks().empty());
  EXPECT_FALSE(G.contains(Base));

  // One slot lower, both slots fit and form one block.
  const uint64_t Lower = Base - SvmInstrSize;
  Cfg Fits = Cfg::build(BytesView(Code.data(), Code.size()), Lower, {Lower});
  ASSERT_EQ(Fits.blocks().size(), 1u);
  EXPECT_EQ(Fits.blocks()[0].End, 0ull - SvmInstrSize);
}

//===----------------------------------------------------------------------===//
// Taint engine (direct)
//===----------------------------------------------------------------------===//

TEST(TaintTest, AmbientLoadTaintsAndLdiKills) {
  Bytes Code;
  emitInstruction(Code, instr(Opcode::LdBU, 1, 2, 0, 0)); // 0x1000: secret.
  emitInstruction(Code, instr(Opcode::Add, 3, 1, 0, 0));  // 0x1008: spreads.
  emitInstruction(Code, instr(Opcode::LdI, 1, 0, 0, 7));  // 0x1010: kills r1.
  emitInstruction(Code, instr(Opcode::Bnez, 0, 3, 0, 8)); // 0x1018: sink.
  emitInstruction(Code, instr(Opcode::Bnez, 0, 1, 0, 8)); // 0x1020: clean.
  emitInstruction(Code, instr(Opcode::Ret));
  Cfg G = Cfg::build(BytesView(Code.data(), Code.size()), 0x1000, {0x1000});
  TaintOptions TO;
  TO.SecretRanges = {{0x1000, 0x1008}};
  TaintResult R = runTaint(G, TO);
  ASSERT_EQ(R.Sinks.size(), 1u);
  EXPECT_EQ(R.Sinks[0].Kind, SinkKind::Branch);
  EXPECT_EQ(R.Sinks[0].Pc, 0x1018u);
  EXPECT_EQ(R.Sinks[0].Reg, 3u);
  EXPECT_EQ(R.Sinks[0].OriginPc, 0x1000u);
  EXPECT_FALSE(R.Truncated);
}

TEST(TaintTest, HostileLoopTerminatesWithinStepBudget) {
  Bytes Code;
  emitInstruction(Code, instr(Opcode::Add, 1, 1, 2, 0));
  emitInstruction(Code, instr(Opcode::Jmp, 0, 0, 0, -8));
  Cfg G = Cfg::build(BytesView(Code.data(), Code.size()), 0x1000, {0x1000});
  TaintOptions TO;
  TO.SecretRanges = {{0x1000, 0x1010}};
  TaintResult R = runTaint(G, TO);
  // The lattice is finite: the fixpoint converges without the cap.
  EXPECT_FALSE(R.Truncated);
  EXPECT_LT(R.Steps, TO.MaxSteps);
}

//===----------------------------------------------------------------------===//
// Secret-flow checkers (AUD5xx) against crafted leaky images
//===----------------------------------------------------------------------===//

/// Fills secret_fn's slots (text offset 0x20) with up to four live
/// instructions so the flow checkers see real restored code.
CraftSpec leakySpec(std::initializer_list<Instruction> Body) {
  CraftSpec S;
  size_t Off = 0x20;
  for (const Instruction &I : Body) {
    poke(S.Text, Off, I);
    Off += SvmInstrSize;
  }
  return S;
}

AuditReport flowAudit(const CraftSpec &S, unsigned Checks) {
  Bytes File = craft(S);
  EXPECT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  EXPECT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  return runChecks(inputFor(*Image), Checks);
}

TEST(FlowCheckTest, Aud501FlagsSecretDependentBranch) {
  CraftSpec S = leakySpec({instr(Opcode::LdBU, 1, 2, 0, 0),
                           instr(Opcode::Bnez, 0, 1, 0, 8),
                           instr(Opcode::Ret)});
  AuditReport R = flowAudit(S, CheckConstantTime);
  const Diagnostic *D = findCode(R, AudSecretDependentBranch);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Offset, 0x28u);
  EXPECT_EQ(D->Symbol, "secret_fn");
  EXPECT_NE(D->Message.find(".text+0x20"), std::string::npos) << D->Message;

  // The CT family is gated by --ct; --taint alone must not emit it.
  AuditReport TaintOnly = flowAudit(S, CheckTaintFlow);
  EXPECT_EQ(countCode(TaintOnly, AudSecretDependentBranch), 0u)
      << TaintOnly.renderText();
}

TEST(FlowCheckTest, Aud502FlagsSecretDependentAddress) {
  CraftSpec S = leakySpec({instr(Opcode::LdBU, 1, 2, 0, 0),
                           instr(Opcode::StB, 0, 1, 3, 0),
                           instr(Opcode::Ret)});
  AuditReport R = flowAudit(S, CheckConstantTime);
  const Diagnostic *D = findCode(R, AudSecretDependentAddress);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Offset, 0x28u);
}

TEST(FlowCheckTest, Aud503FlagsEarlyExitCompareLoop) {
  // The classic memcmp shape: load secret byte, compare, branch back.
  CraftSpec S = leakySpec({instr(Opcode::LdBU, 1, 2, 0, 0),
                           instr(Opcode::Seq, 5, 1, 3, 0),
                           instr(Opcode::Bnez, 0, 5, 0, -16),
                           instr(Opcode::Ret)});
  AuditReport R = flowAudit(S, CheckConstantTime);
  const Diagnostic *D = findCode(R, AudTimingDependentCompare);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Offset, 0x30u);
  // The same branch is also a plain secret-dependent branch.
  EXPECT_GE(countCode(R, AudSecretDependentBranch), 1u);
}

TEST(FlowCheckTest, Aud511FlagsTaintedOcallArg) {
  CraftSpec S = leakySpec({instr(Opcode::LdBU, 1, 2, 0, 0),
                           instr(Opcode::Ocall),
                           instr(Opcode::Halt)});
  AuditReport R = flowAudit(S, CheckTaintFlow);
  const Diagnostic *D = findCode(R, AudTaintedOcallArg);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Offset, 0x28u);
  // Taint-flow findings stay out of a --ct-only run.
  AuditReport CtOnly = flowAudit(S, CheckConstantTime);
  EXPECT_EQ(countCode(CtOnly, AudTaintedOcallArg), 0u);
}

TEST(FlowCheckTest, Aud521FlagsSpeculativeDoubleLoadGadget) {
  // SgxPectre shape: branch, then a load whose result addresses a second
  // load inside the speculation window.
  CraftSpec S = leakySpec({instr(Opcode::Bnez, 0, 9, 0, 8),
                           instr(Opcode::LdBU, 1, 2, 0, 0),
                           instr(Opcode::LdBU, 3, 1, 0, 0),
                           instr(Opcode::Ret)});
  AuditReport R = flowAudit(S, CheckTaintFlow);
  const Diagnostic *D = findCode(R, AudSpecGadget);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Offset, 0x30u);
  // The cache-channel twin (AUD502) belongs to --ct, absent here.
  EXPECT_EQ(countCode(R, AudSecretDependentAddress), 0u);
}

TEST(FlowCheckTest, Aud522FlagsTaintedIndirectCall) {
  CraftSpec S = leakySpec({instr(Opcode::LdBU, 1, 2, 0, 0),
                           instr(Opcode::CallR, 0, 1, 0, 0),
                           instr(Opcode::Ret)});
  AuditReport R = flowAudit(S, CheckTaintFlow);
  const Diagnostic *D = findCode(R, AudTaintedIndirectTarget);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Offset, 0x28u);
}

TEST(FlowCheckTest, ConstFoldedKeyAddressIsASource) {
  // Surviving code outside the region loads from a constant address that
  // falls inside it: key-material read through const-prop.
  CraftSpec S;
  S.Text.resize(S.Text.size() + 4 * SvmInstrSize, 0);
  poke(S.Text, 0x40, instr(Opcode::LdI, 2, 0, 0, 0x1020));
  poke(S.Text, 0x48, instr(Opcode::LdBU, 1, 2, 0, 0));
  poke(S.Text, 0x50, instr(Opcode::Bnez, 0, 1, 0, 8));
  poke(S.Text, 0x58, instr(Opcode::Ret));
  S.ExtraFuncs = {{"__bridge_keyuser", 0x1040, 0x20}};
  AuditReport R = flowAudit(S, CheckConstantTime);
  const Diagnostic *D = findCode(R, AudSecretDependentBranch);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Offset, 0x50u);
  EXPECT_NE(D->Message.find(".text+0x48"), std::string::npos) << D->Message;
}

TEST(FlowCheckTest, RestoredViewOverlaySeesThroughZeroedText) {
  // The shipped image is properly elided (zeroed region), but the
  // supplied plaintext -- the restored view -- contains the leak.
  Bytes Restored = defaultText();
  poke(Restored, 0x20, instr(Opcode::LdBU, 1, 2, 0, 0));
  poke(Restored, 0x28, instr(Opcode::Bnez, 0, 1, 0, 8));
  poke(Restored, 0x30, instr(Opcode::Ret));

  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);

  // Without the plaintext the elided range is zeroed: vacuously clean.
  EXPECT_TRUE(runChecks(In, CheckConstantTime | CheckTaintFlow).clean());

  In.SecretPlaintext = Restored;
  AuditReport R = runChecks(In, CheckConstantTime);
  EXPECT_GE(countCode(R, AudSecretDependentBranch), 1u) << R.renderText();
}

//===----------------------------------------------------------------------===//
// Orderliness checkers (AUD6xx)
//===----------------------------------------------------------------------===//

TEST(OrderlinessCheckTest, Aud601FlagsEntryAdmittingRedactedPath) {
  // A well-shaped whitelisted bridge whose body jumps into the elided
  // region without calling elide_restore first.
  CraftSpec S;
  S.Text.resize(S.Text.size() + 3 * SvmInstrSize, 0);
  poke(S.Text, 0x40, instr(Opcode::Call, 0, 0, 0, 16)); // -> 0x1050
  poke(S.Text, 0x48, instr(Opcode::Halt));
  poke(S.Text, 0x50, instr(Opcode::Jmp, 0, 0, 0, -0x30)); // -> 0x1020
  S.ExtraFuncs = {{"__bridge_init", 0x1040, 16}};
  AuditReport R = auditCrafted(S, CheckOrderliness, {"init"});
  const Diagnostic *D = findCode(R, AudPreRestoreEntersRedacted);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  // One verdict per entry, anchored at the entry itself.
  EXPECT_EQ(D->Offset, 0x40u);
  EXPECT_EQ(D->Symbol, "__bridge_init");
  EXPECT_NE(D->Message.find("secret_fn"), std::string::npos) << D->Message;
  EXPECT_NE(D->Message.find("0x20"), std::string::npos) << D->Message;
  EXPECT_EQ(countCode(R, AudBridgeContract), 0u) << R.renderText();
}

TEST(OrderlinessCheckTest, PathThroughRestoreCallIsOrderly) {
  // After `call elide_restore` the text is restored; a jump into the
  // region beyond that call is the intended post-restore flow.
  CraftSpec S;
  S.Text.resize(S.Text.size() + 4 * SvmInstrSize, 0);
  poke(S.Text, 0x40, instr(Opcode::Call, 0, 0, 0, 16));    // -> 0x1050
  poke(S.Text, 0x48, instr(Opcode::Halt));
  poke(S.Text, 0x50, instr(Opcode::Call, 0, 0, 0, -0x40)); // elide_restore
  poke(S.Text, 0x58, instr(Opcode::Jmp, 0, 0, 0, -0x38));  // -> 0x1020
  S.ExtraFuncs = {{"__bridge_init", 0x1040, 16}};
  AuditReport R = auditCrafted(S, CheckOrderliness, {"init"});
  EXPECT_EQ(countCode(R, AudPreRestoreEntersRedacted), 0u) << R.renderText();
  EXPECT_EQ(R.Errors, 0u) << R.renderText();
}

TEST(OrderlinessCheckTest, Aud602FlagsPreRestoreOcall) {
  CraftSpec S;
  S.Text.resize(S.Text.size() + 4 * SvmInstrSize, 0);
  poke(S.Text, 0x40, instr(Opcode::Call, 0, 0, 0, 16)); // -> 0x1050
  poke(S.Text, 0x48, instr(Opcode::Halt));
  poke(S.Text, 0x50, instr(Opcode::Ocall));
  poke(S.Text, 0x58, instr(Opcode::Ret));
  S.ExtraFuncs = {{"__bridge_init", 0x1040, 16}};
  AuditReport R = auditCrafted(S, CheckOrderliness, {"init"});
  const Diagnostic *D = findCode(R, AudPreRestoreOcall);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Warning);
  EXPECT_EQ(D->Offset, 0x50u);
  EXPECT_EQ(D->Symbol, "__bridge_init");
}

TEST(OrderlinessCheckTest, RestoreExchangeOcallIsExempt) {
  // elide_restore itself must ocall (it fetches the provisioning blob);
  // that is the restore exchange, not a pre-restore leak.
  CraftSpec S;
  poke(S.Text, 0x10, instr(Opcode::Ocall));
  AuditReport R = auditCrafted(S, CheckOrderliness);
  EXPECT_EQ(countCode(R, AudPreRestoreOcall), 0u) << R.renderText();
}

TEST(OrderlinessCheckTest, Aud603FlagsMalformedBridge) {
  CraftSpec S;
  poke(S.Text, 0x00, instr(Opcode::Nop)); // Bridge is `nop; halt`.
  AuditReport R = auditCrafted(S, CheckOrderliness);
  const Diagnostic *D = findCode(R, AudBridgeContract);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Offset, 0x0u);
  EXPECT_EQ(D->Symbol, "__bridge_elide_restore");
}

TEST(OrderlinessCheckTest, Aud604FlagsRestoreReentry) {
  // elide_restore's body calls itself: the static AlreadyLoaded hazard.
  CraftSpec S;
  poke(S.Text, 0x10, instr(Opcode::Call, 0, 0, 0, 0));
  AuditReport R = auditCrafted(S, CheckOrderliness);
  const Diagnostic *D = findCode(R, AudRestoreReentry);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Offset, 0x10u);
  EXPECT_NE(D->Message.find("call"), std::string::npos) << D->Message;
  // The call is stepped over, so the function still completes (no 605).
  EXPECT_EQ(countCode(R, AudRestoreIncompletable), 0u) << R.renderText();
}

TEST(OrderlinessCheckTest, OcallPastTheRestoreCallIsNotPreRestore) {
  // init calls elide_restore first; its ocall runs against restored text.
  CraftSpec S;
  S.Text.resize(S.Text.size() + 5 * SvmInstrSize, 0);
  poke(S.Text, 0x40, instr(Opcode::Call, 0, 0, 0, 16)); // -> 0x1050
  poke(S.Text, 0x48, instr(Opcode::Halt));
  poke(S.Text, 0x50, instr(Opcode::Call, 0, 0, 0, -0x40)); // elide_restore
  poke(S.Text, 0x58, instr(Opcode::Ocall));
  poke(S.Text, 0x60, instr(Opcode::Ret));
  S.ExtraFuncs = {{"__bridge_init", 0x1040, 16}};
  AuditReport R = auditCrafted(S, CheckOrderliness, {"init"});
  EXPECT_EQ(countCode(R, AudPreRestoreOcall), 0u) << R.renderText();
  EXPECT_TRUE(R.clean()) << R.renderText();
}

TEST(OrderlinessCheckTest, WalkStopsAtTheFirstElidedSlot) {
  // elide_restore jumps into secret_fn, whose first slot still holds a
  // `call elide_restore`. The shipped image traps on entering the region,
  // so that call is never reached: AUD601, but no AUD604.
  CraftSpec S;
  poke(S.Text, 0x10, instr(Opcode::Jmp, 0, 0, 0, 0x10));   // -> 0x1020
  poke(S.Text, 0x20, instr(Opcode::Call, 0, 0, 0, -0x10)); // -> 0x1010
  AuditReport R = auditCrafted(S, CheckOrderliness);
  EXPECT_EQ(countCode(R, AudPreRestoreEntersRedacted), 1u) << R.renderText();
  EXPECT_EQ(countCode(R, AudRestoreReentry), 0u) << R.renderText();
}

TEST(OrderlinessCheckTest, BranchBackIntoRestoreKeepsWalkingItsFallThrough) {
  // `beqz r1, elide_restore` inside elide_restore is a re-entry edge, but
  // only a call ends a path: when the branch is not taken, the body goes
  // on into secret_fn. AUD601 agrees with the AUD402 on that edge.
  CraftSpec S;
  poke(S.Text, 0x10, instr(Opcode::Beqz, 0, 1, 0, 0)); // -> 0x1010
  poke(S.Text, 0x18, instr(Opcode::Jmp, 0, 0, 0, 8));  // -> 0x1020
  AuditReport R = auditCrafted(S, CheckReachability | CheckOrderliness);
  EXPECT_EQ(countCode(R, AudRestoreReentry), 1u) << R.renderText();
  EXPECT_EQ(countCode(R, AudPreRestoreReachesElided), 1u) << R.renderText();
  ASSERT_EQ(countCode(R, AudPreRestoreEntersRedacted), 1u) << R.renderText();
  EXPECT_EQ(findCode(R, AudPreRestoreEntersRedacted)->Symbol, "elide_restore");
}

TEST(OrderlinessCheckTest, Aud605FlagsIncompletableRestore) {
  CraftSpec S;
  poke(S.Text, 0x10, instr(Opcode::Jmp, 0, 0, 0, 0)); // Spin forever.
  AuditReport R = auditCrafted(S, CheckOrderliness);
  const Diagnostic *D = findCode(R, AudRestoreIncompletable);
  ASSERT_NE(D, nullptr) << R.renderText();
  EXPECT_EQ(D->Sev, Severity::Error);
  EXPECT_EQ(D->Offset, 0x10u);
  EXPECT_EQ(D->Symbol, "elide_restore");
}

//===----------------------------------------------------------------------===//
// Whole-audit behavior
//===----------------------------------------------------------------------===//

TEST(AuditTest, CleanCraftedImageProducesNoDiagnostics) {
  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckAll);
  EXPECT_TRUE(R.clean()) << R.renderText();
}

TEST(AuditTest, CleanImageStaysCleanUnderEveryChecker) {
  // The elided region is zeroed and the restore protocol well-formed, so
  // even the opt-in flow families have nothing to say.
  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckEverything);
  EXPECT_TRUE(R.clean()) << R.renderText();
}

TEST(AuditTest, JsonCarriesVersionAndSelectedFamilies) {
  Bytes File = craft({});
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();

  for (unsigned Checks : {(unsigned)CheckAll, (unsigned)CheckEverything,
                          (unsigned)(CheckConstantTime | CheckTaintFlow)}) {
    AuditReport R = runChecks(inputFor(*Image), Checks);
    std::string Json = R.renderJson();
    EXPECT_NE(Json.find("\"version\":2"), std::string::npos);

    // Round-trip: the families array in the JSON must spell exactly the
    // families the mask selected, in checker order.
    std::vector<std::string> Fams = checkFamilyNames(Checks);
    std::string Expect = "\"families\":[";
    for (size_t I = 0; I < Fams.size(); ++I)
      Expect += (I ? ",\"" : "\"") + Fams[I] + "\"";
    Expect += "]";
    EXPECT_NE(Json.find(Expect), std::string::npos) << Json;
  }

  std::vector<std::string> All = checkFamilyNames(CheckEverything);
  ASSERT_EQ(All.size(), 7u);
  EXPECT_EQ(All[4], "constant-time");
  EXPECT_EQ(All[5], "taint-flow");
  EXPECT_EQ(All[6], "orderliness");
  // The default gate excludes the opt-in flow policies.
  std::vector<std::string> Default = checkFamilyNames(CheckAll);
  ASSERT_EQ(Default.size(), 5u);
  EXPECT_EQ(Default[4], "orderliness");
}

TEST(AuditTest, DetectsAllFourSeededLeakClassesAtOnce) {
  CraftSpec S;
  uint8_t Slot[8];
  // Reachability leak: the bridge jumps into the elided region.
  encodeInstruction(instr(Opcode::Jmp, 0, 0, 0, 0x20), Slot);
  std::copy(Slot, Slot + 8, S.Text.begin());
  // Residual leak: the "elided" slots still hold their code.
  for (int I = 0; I < 4; ++I) {
    encodeInstruction(instr(Opcode::LdI, 1, 0, 0, 0x5000 + I), Slot);
    std::copy(Slot, Slot + 8, S.Text.begin() + 0x20 + I * 8);
  }
  // Metadata leak: the symbol naming the secret survives.
  S.ExtraFuncs = {{"secret_fn", 0x1020, 0x20}};
  // Layout leak: text ships read-execute, so SGX1 restoration faults.
  S.TextFlags = SHF_ALLOC | SHF_EXECINSTR;

  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditReport R = runChecks(inputFor(*Image), CheckAll);
  EXPECT_GE(countCode(R, AudResidualSecretBytes), 1u) << R.renderText();
  EXPECT_GE(countCode(R, AudElidedSymbolNamed), 1u) << R.renderText();
  EXPECT_GE(countCode(R, AudTextNotWritable), 1u) << R.renderText();
  EXPECT_GE(countCode(R, AudPreRestoreReachesElided), 1u) << R.renderText();
  EXPECT_GE(R.Errors, 4u);
}

TEST(AuditTest, BaselineSuppressesKnownFindings) {
  CraftSpec S;
  S.ExtraFuncs = {{"secret_fn", 0x1020, 0x20}};
  Bytes File = craft(S);
  ASSERT_FALSE(File.empty());
  Expected<ElfImage> Image = ElfImage::parse(File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In = inputFor(*Image);

  AuditReport First = runChecks(In, CheckAll);
  ASSERT_FALSE(First.clean());
  Expected<Baseline> B = Baseline::parse(First.renderBaseline());
  ASSERT_TRUE(static_cast<bool>(B)) << B.errorMessage();

  AuditOptions Opts;
  Opts.Suppressions = &*B;
  AuditReport Second = runAudit(In, Opts);
  EXPECT_TRUE(Second.clean()) << Second.renderText();
  EXPECT_EQ(Second.Suppressed, First.Diags.size());
}

//===----------------------------------------------------------------------===//
// Sanitizer / ELF fixes the audit motivated
//===----------------------------------------------------------------------===//

TEST(ScrubSymbolsTest, RedactsEntriesAndUnreferencedNames) {
  ElfBuilder B;
  Bytes Text;
  for (int I = 0; I < 8; ++I)
    emitInstruction(Text, instr(Opcode::Nop));
  size_t TextIdx =
      B.addProgbits(".text", 0x1000, Text, SHF_ALLOC | SHF_EXECINSTR);
  B.addSymbol("keep_me", 0x1000, 32, STT_FUNC, TextIdx);
  B.addSymbol("drop_me", 0x1020, 32, STT_FUNC, TextIdx);
  Expected<Bytes> File = B.build();
  ASSERT_TRUE(static_cast<bool>(File)) << File.errorMessage();
  Expected<ElfImage> Image = ElfImage::parse(*File);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();

  Expected<size_t> Scrubbed = Image->scrubSymbols({"drop_me"});
  ASSERT_TRUE(static_cast<bool>(Scrubbed)) << Scrubbed.errorMessage();
  EXPECT_EQ(*Scrubbed, 1u);
  EXPECT_EQ(Image->symbolByName("drop_me"), nullptr);
  const ElfSymbol *Kept = Image->symbolByName("keep_me");
  ASSERT_NE(Kept, nullptr);
  EXPECT_EQ(Kept->Value, 0x1000u);

  // The name must not outlive the symbol, and survivors must keep theirs.
  std::string Raw(Image->fileBytes().begin(), Image->fileBytes().end());
  EXPECT_EQ(Raw.find("drop_me"), std::string::npos);
  EXPECT_NE(Raw.find("keep_me"), std::string::npos);

  // Scrubbing a name that is not there is a no-op, not an error.
  Expected<size_t> Again = Image->scrubSymbols({"absent"});
  ASSERT_TRUE(static_cast<bool>(Again)) << Again.errorMessage();
  EXPECT_EQ(*Again, 0u);
}

//===----------------------------------------------------------------------===//
// Pipeline integration: zero false positives on real images
//===----------------------------------------------------------------------===//

const char ScoreSource[] = R"elc(
fn magic_score(x: u64) -> u64 {
  return (x * 2654435761) % 1000000007;
}

export fn score(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  if (inlen < 8 || outcap < 8) {
    return 1;
  }
  store_le64(outp, magic_score(load_le64(inp)));
  return 0;
}
)elc";

Ed25519KeyPair testVendor() {
  Drbg Rng(42);
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), Seed.size()));
  return ed25519KeyPairFromSeed(Seed);
}

TEST(AuditPipelineTest, SanitizedImagesAuditCleanInBothStorageModes) {
  for (SecretStorage Storage :
       {SecretStorage::Remote, SecretStorage::Local}) {
    SCOPED_TRACE(Storage == SecretStorage::Remote ? "Remote" : "Local");
    BuildOptions Opts;
    Opts.Storage = Storage;
    Expected<BuildArtifacts> A = buildProtectedEnclave(
        {{"score.elc", ScoreSource}}, testVendor(), Opts);
    ASSERT_TRUE(static_cast<bool>(A)) << A.errorMessage();
    // The pipeline self-audit already gates on errors; warnings and notes
    // must be absent too -- the shipped examples are the zero-FP bar.
    EXPECT_TRUE(A->Audit.clean()) << A->Audit.renderText();

    // Re-audit the artifact the way the standalone CLI would: no build
    // facts beyond whitelist + meta, regions recovered from the image.
    Expected<ElfImage> Image = ElfImage::parse(A->SanitizedElf);
    ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
    Bytes Plaintext = A->SecretData;
    if (Storage == SecretStorage::Local) {
      Expected<ElfImage> Plain = ElfImage::parse(A->PlainElf);
      ASSERT_TRUE(static_cast<bool>(Plain)) << Plain.errorMessage();
      const ElfSection *Text = Plain->sectionByName(".text");
      ASSERT_NE(Text, nullptr);
      Plaintext = Plain->sectionContents(*Text);
    }
    AuditInput In =
        auditInputFor(*Image, {}, A->Keep, A->Meta, Plaintext);
    AuditReport R = runAudit(In, AuditOptions());
    EXPECT_TRUE(R.clean()) << R.renderText();
  }
}

TEST(AuditPipelineTest, UnsanitizedImageIsCaughtByTheAudit) {
  BuildOptions Opts;
  Expected<BuildArtifacts> A = buildProtectedEnclave(
      {{"score.elc", ScoreSource}}, testVendor(), Opts);
  ASSERT_TRUE(static_cast<bool>(A)) << A.errorMessage();

  // Audit the *plain* image against the same whitelist: every class of
  // metadata the sanitizer removes is still present here.
  Expected<ElfImage> Image = ElfImage::parse(A->PlainElf);
  ASSERT_TRUE(static_cast<bool>(Image)) << Image.errorMessage();
  AuditInput In;
  In.Image = &*Image;
  In.WhitelistNames = A->Keep.names();
  In.HaveWhitelist = true;
  AuditReport R = runAudit(In, AuditOptions());
  EXPECT_GE(R.Errors, 1u);
  EXPECT_GE(countCode(R, AudElidedSymbolNamed), 1u) << R.renderText();
}

TEST(AuditPipelineTest, FlowAuditGateRefusesLeakySecrets) {
  // The early-exit PIN compare: a secret that leaks through timing.
  const char Leaky[] = R"elc(
fn check_pin(inp: *u8, inlen: u64) -> u64 {
  var i: u64 = 0;
  while (i < 4) {
    if (inp[i] != ((i * 7 + 49) as u8)) {
      return 0;
    }
    i = i + 1;
  }
  return 1;
}

export fn unlock(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  if (outcap < 1) {
    return 1;
  }
  outp[0] = check_pin(inp, inlen) as u8;
  return 0;
}
)elc";

  // Without the opt-in flow audit the build ships it...
  BuildOptions Opts;
  Expected<BuildArtifacts> A =
      buildProtectedEnclave({{"pin.elc", Leaky}}, testVendor(), Opts);
  ASSERT_TRUE(static_cast<bool>(A)) << A.errorMessage();

  // ...with --audit-flow the self-audit refuses, naming the leak class.
  Opts.FlowAudit = true;
  Expected<BuildArtifacts> B =
      buildProtectedEnclave({{"pin.elc", Leaky}}, testVendor(), Opts);
  ASSERT_FALSE(static_cast<bool>(B));
  EXPECT_NE(B.errorMessage().find("AUD501"), std::string::npos)
      << B.errorMessage();

  // The well-behaved example passes the same gate (no false positives).
  Opts.FlowAudit = true;
  Expected<BuildArtifacts> C = buildProtectedEnclave(
      {{"score.elc", ScoreSource}}, testVendor(), Opts);
  EXPECT_TRUE(static_cast<bool>(C)) << C.errorMessage();
}

TEST(AuditPipelineTest, CompilerRejectsReservedBridgePrefix) {
  const char Evil[] = R"elc(
fn __bridge_evil() -> u64 {
  return 1;
}

export fn entry(inp: *u8, inlen: u64, outp: *u8, outcap: u64) -> u64 {
  return __bridge_evil();
}
)elc";
  BuildOptions Opts;
  Expected<BuildArtifacts> A =
      buildProtectedEnclave({{"evil.elc", Evil}}, testVendor(), Opts);
  ASSERT_FALSE(static_cast<bool>(A));
  EXPECT_NE(A.errorMessage().find("reserved"), std::string::npos)
      << A.errorMessage();
}

} // namespace
