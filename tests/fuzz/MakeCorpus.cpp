//===- tests/fuzz/MakeCorpus.cpp - Deterministic seed-corpus generator ------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the checked-in seed corpora under `tests/fuzz/corpus/`
/// (or `ELIDE_CORPUS_DIR` when set). Every entry is deterministic -- fixed
/// Drbg seeds, fixed patch offsets -- so rerunning the tool is a no-op
/// diff. The `regression-*` entries encode inputs that triggered real
/// bugs fixed in this repository: keep them forever, they are the proof
/// the fixes hold.
///
//===----------------------------------------------------------------------===//

#include "tests/framework/Builders.h"
#include "tests/framework/Corpus.h"
#include "tests/framework/VmDiff.h"

#include "crypto/Drbg.h"
#include "elf/ElfBuilder.h"
#include "elf/ElfTypes.h"
#include "elide/SecretMeta.h"
#include "server/Protocol.h"
#include "sgx/SgxTypes.h"
#include "vm/Isa.h"

#include <cstdio>

using namespace elide;

namespace {

int Failures = 0;

void emit(const std::string &Target, const std::string &Name, BytesView Data) {
  if (Error E = fuzz::writeCorpusEntry(Target, Name, Data)) {
    std::fprintf(stderr, "error: %s/%s: %s\n", Target.c_str(), Name.c_str(),
                 E.message().c_str());
    ++Failures;
    return;
  }
  std::printf("  %s/%-32s %5zu bytes\n", Target.c_str(), Name.c_str(),
              Data.size());
}

//===----------------------------------------------------------------------===//
// Raw ELF64 patch helpers (fixed architectural offsets, independent of the
// parser under test -- a corpus built through ElfImage would be blind to
// exactly the bugs it is meant to pin).
//===----------------------------------------------------------------------===//

constexpr size_t EhdrPhOff = 32;  // e_phoff
constexpr size_t EhdrShOff = 40;  // e_shoff
constexpr size_t EhdrShNum = 60;  // e_shnum
constexpr size_t EhdrShStrNdx = 62;
constexpr size_t PhdrSize = 56;
constexpr size_t ShdrSize = 64;
constexpr size_t SymSize = 24;

/// First program header's p_offset/p_filesz -> values whose sum wraps
/// around 2^64 to a small number. The seed parser's `Offset + FileSize >
/// size` check accepted this (wrapped sum = 0x100); the fixed subtraction
/// form rejects it with ElfErrcBounds.
Bytes patchSegmentOffsetWrap(Bytes Elf) {
  uint64_t PhOff = readLE64(Elf.data() + EhdrPhOff);
  writeLE64(Elf.data() + PhOff + 8, 0xffffffffffffff00ull);  // p_offset
  writeLE64(Elf.data() + PhOff + 32, 0x200);                 // p_filesz
  return Elf;
}

/// Section-name string table re-typed SHT_NOBITS: its Offset/Size then
/// describe no file bytes at all, and the seed parser viewed them as a
/// string table anyway (out-of-bounds reads for every section name). The
/// fix rejects with ElfErrcBadLink.
Bytes patchNobitsShstrtab(Bytes Elf) {
  uint64_t ShOff = readLE64(Elf.data() + EhdrShOff);
  uint16_t ShStrNdx = readLE16(Elf.data() + EhdrShStrNdx);
  writeLE32(Elf.data() + ShOff + ShStrNdx * ShdrSize + 4, SHT_NOBITS);
  return Elf;
}

/// Replaces a byte of the first '.'-led section name in the section-name
/// string table with '\n'. Pins the audit's baseline-key sanitization: a
/// hostile name must not be able to split a `--write-baseline` line.
Bytes patchNewlineSectionName(Bytes Elf) {
  uint64_t ShOff = readLE64(Elf.data() + EhdrShOff);
  uint16_t ShStrNdx = readLE16(Elf.data() + EhdrShStrNdx);
  const uint8_t *Shdr = Elf.data() + ShOff + uint64_t(ShStrNdx) * ShdrSize;
  uint64_t StrOff = readLE64(Shdr + 24);
  uint64_t StrSize = readLE64(Shdr + 32);
  for (uint64_t I = StrOff; I + 1 < StrOff + StrSize && I + 1 < Elf.size();
       ++I) {
    if (Elf[I] == '.' && Elf[I + 1] != 0) {
      Elf[I + 1] = '\n';
      break;
    }
  }
  return Elf;
}

/// A symbol whose st_value + st_size wraps 2^64: `fileOffsetOf` computed
/// `VAddr + Length > Addr + Size` with both sides wrapping, so zeroRange
/// and writeRange scribbled outside the section. The fix fails typed with
/// ElfErrcRange.
Bytes patchSymbolRangeWrap(Bytes Elf) {
  uint64_t ShOff = readLE64(Elf.data() + EhdrShOff);
  uint16_t ShNum = readLE16(Elf.data() + EhdrShNum);
  for (uint16_t I = 0; I < ShNum; ++I) {
    const uint8_t *Shdr = Elf.data() + ShOff + uint64_t(I) * ShdrSize;
    if (readLE32(Shdr + 4) != SHT_SYMTAB)
      continue;
    uint64_t SymTabOff = readLE64(Shdr + 24); // sh_offset
    uint64_t SymTabSize = readLE64(Shdr + 32);
    if (SymTabSize < 2 * SymSize)
      break;
    // Entry 1 (entry 0 is the null symbol).
    writeLE64(Elf.data() + SymTabOff + SymSize + 8, 0xffffffffffffff00ull);
    writeLE64(Elf.data() + SymTabOff + SymSize + 16, 0x200);
    break;
  }
  return Elf;
}

//===----------------------------------------------------------------------===//
// Per-target corpora
//===----------------------------------------------------------------------===//

void makeProtocolCorpus() {
  // Regression: the empty frame. Empty views carried null data pointers
  // into string/memcpy calls before the Bytes.h guards.
  emit("protocol", "regression-empty-input", BytesView());

  Drbg Rng(101);
  Bytes Hello;
  Hello.push_back(FrameHello);
  appendBytes(Hello, Rng.bytes(296)); // Quote-sized garbage body.
  emit("protocol", "seed-hello-quote-sized", Hello);

  Bytes Record;
  Record.push_back(FrameRecord);
  appendBytes(Record, Rng.bytes(8 + 12 + 10)); // Truncated mid-tag.
  emit("protocol", "seed-record-truncated", Record);

  Bytes ErrorFrame;
  ErrorFrame.push_back(FrameError);
  appendBytes(ErrorFrame, viewOf(std::string("corpus error frame")));
  emit("protocol", "seed-error-frame", ErrorFrame);

  Bytes Overloaded = overloadedFrame(77);
  emit("protocol", "seed-overloaded-frame", Overloaded);
  emit("protocol", "seed-overloaded-truncated",
       BytesView(Overloaded.data(), OverloadedFrameSize - 2));

  emit("protocol", "seed-structured", fuzz::buildProtocolFrame(Rng));

  // 0x03 is a retired frame type (the batched handshake: count u16 ||
  // quote-len u32 || quote || keys). It must stay unknown to the server.
  Bytes Retired = {0x03, 0x01, 0x00};
  appendLE32(Retired, 296);
  appendBytes(Retired, Rng.bytes(296 + 32));
  emit("protocol", "seed-retired-hello-batch", Retired);

  // Request envelopes (type || version || deadline_ms u32 || criticality
  // || inner): one well-formed, then one defect each for the strict parser.
  const Bytes Inner = {FrameRecord, 'X', 'Y'};
  Bytes Envelope = envelopeFrame(500, Criticality::Default, Inner);
  emit("protocol", "seed-envelope-record", Envelope);
  Bytes BadVersion = Envelope;
  BadVersion[1] = EnvelopeVersion + 1;
  emit("protocol", "seed-envelope-bad-version", BadVersion);
  Bytes BadClass = Envelope;
  BadClass[EnvelopeHeaderSize - 1] = uint8_t(Criticality::Sheddable) + 1;
  emit("protocol", "seed-envelope-bad-criticality", BadClass);
  const Bytes NestedHeader = {FrameEnvelope, EnvelopeVersion};
  emit("protocol", "seed-envelope-nested",
       envelopeFrame(0, Criticality::Sheddable, NestedHeader));
  emit("protocol", "seed-envelope-truncated", BytesView(Envelope.data(), 5));
}

void makeElfCorpus() {
  Drbg Rng(201);
  Bytes Seed = fuzz::buildSeedElf(Rng);
  emit("elf", "seed-valid", Seed);
  emit("elf", "regression-segment-offset-wrap", patchSegmentOffsetWrap(Seed));
  emit("elf", "regression-nobits-shstrtab", patchNobitsShstrtab(Seed));
  emit("elf", "regression-symbol-range-wrap", patchSymbolRangeWrap(Seed));
  emit("elf", "seed-truncated",
       BytesView(Seed.data(), Seed.size() < 48 ? Seed.size() : 48));
}

void makeSecretMetaCorpus() {
  SecretMeta Plain;
  Plain.DataLength = 512;
  Plain.RestoreOffset = 64;
  emit("secretmeta", "seed-valid-plain", Plain.serialize());

  Drbg Rng(301);
  SecretMeta Enc;
  Enc.DataLength = 4096;
  Enc.RestoreOffset = 128;
  Enc.Encrypted = true;
  Rng.fill(MutableBytesView(Enc.Key.data(), Enc.Key.size()));
  Rng.fill(MutableBytesView(Enc.Iv.data(), Enc.Iv.size()));
  Rng.fill(MutableBytesView(Enc.Mac.data(), Enc.Mac.size()));
  emit("secretmeta", "seed-valid-encrypted", Enc.serialize());

  // Regression: a forged 2^64-scale DataLength deserialized fine before
  // the MaxDataLength plausibility bound (MetaErrcImplausible).
  Bytes Huge = Plain.serialize();
  writeLE64(Huge.data(), 0xffffffffffffffffull);
  emit("secretmeta", "regression-huge-datalength", Huge);

  Bytes BadFlag = Plain.serialize();
  BadFlag[16] = 7; // Encrypted flag: only 0/1 are valid.
  emit("secretmeta", "seed-bad-flag", BadFlag);

  emit("secretmeta", "seed-truncated", BytesView(Huge.data(), 13));
}

void makeWhitelistCorpus() {
  emit("whitelist", "seed-names",
       viewOf(std::string("enclave_main\nelide_restore\npublic_helper\n")));
  // Regression: empty input reached std::string(nullptr, 0) via
  // stringOfBytes before the empty-view guard.
  emit("whitelist", "regression-empty", BytesView());
  emit("whitelist", "seed-duplicates",
       viewOf(std::string("dup\ndup\nother\n\n\ndup\n")));
  Bytes Hostile = bytesOfString("ok\n");
  Hostile.push_back(0x00);
  Hostile.push_back(0xff);
  appendBytes(Hostile, viewOf(std::string("\x7f high\n")));
  Hostile.insert(Hostile.end(), 300, 'A'); // Long name, no trailing newline.
  emit("whitelist", "seed-hostile-bytes", Hostile);
}

void makeLoaderCorpus() {
  Drbg Rng(501);

  Ed25519Seed VSeed{};
  VSeed.fill(0x11);
  Ed25519KeyPair Vendor = ed25519KeyPairFromSeed(VSeed);
  sgx::Measurement Mr;
  Rng.fill(MutableBytesView(Mr.data(), Mr.size()));
  sgx::SigStruct Sig = sgx::SigStruct::sign(Vendor, Mr, 0);

  Bytes GoodSig;
  GoodSig.push_back(0x00);
  appendBytes(GoodSig, Sig.serialize());
  emit("loader", "seed-sigstruct-valid", GoodSig);

  Bytes BadSig = GoodSig;
  BadSig[1 + 32 + 8 + 32] ^= 0x01; // Flip one signature byte.
  emit("loader", "seed-sigstruct-tampered", BadSig);

  // A quote that parses (right size, internally signed) but whose key
  // certificate no authority issued -- verification must reject it.
  sgx::Quote Q;
  Rng.fill(MutableBytesView(Q.Body.MrEnclave.data(), 32));
  Rng.fill(MutableBytesView(Q.Body.MrSigner.data(), 32));
  Rng.fill(MutableBytesView(Q.Body.Data.data(), Q.Body.Data.size()));
  Ed25519Seed ASeed{};
  ASeed.fill(0x22);
  Ed25519KeyPair AttKey = ed25519KeyPairFromSeed(ASeed);
  Q.AttestationKey = AttKey.PublicKey;
  Bytes QuoteMsg = bytesOfString("QUOTE");
  appendBytes(QuoteMsg, Q.Body.serialize());
  Q.Signature = ed25519Sign(AttKey, QuoteMsg);
  Rng.fill(MutableBytesView(Q.KeyCertificate.data(), Q.KeyCertificate.size()));
  Bytes ForgedQuote;
  ForgedQuote.push_back(0x01);
  appendBytes(ForgedQuote, Q.serialize());
  emit("loader", "seed-quote-forged-cert", ForgedQuote);

  Bytes SeedElf = fuzz::buildSeedElf(Rng);
  Bytes ElfInput;
  ElfInput.push_back(0x02);
  appendBytes(ElfInput, SeedElf);
  emit("loader", "seed-elf", ElfInput);

  // Regression: the segment-offset wrap again, this time walked by the
  // loader's page loop, which trusted the parser's (broken) bounds check.
  Bytes WrapInput;
  WrapInput.push_back(0x02);
  appendBytes(WrapInput, patchSegmentOffsetWrap(SeedElf));
  emit("loader", "regression-elf-segment-wrap", WrapInput);
}

void makeAuditCorpus() {
  // Input layout (see FuzzAudit.cpp): [flags][param][elf...]. Flag bits:
  // 0x01 whitelist, 0x02 meta, 0x04 scaled DataLength, 0x08 encrypted,
  // 0x10 explicit region, 0x20 plaintext, 0x40 SGX2 mode, 0x80 flow
  // checks (CFG + taint over the text).
  Drbg Rng(601);
  Bytes Elf = fuzz::buildSeedElf(Rng);
  auto blob = [](uint8_t Flags, uint8_t Param, BytesView Body) {
    Bytes B;
    B.push_back(Flags);
    B.push_back(Param);
    appendBytes(B, Body);
    return B;
  };
  emit("audit", "seed-all-facts", blob(0x33, 0x20, Elf));
  emit("audit", "seed-no-facts", blob(0x00, 0x00, Elf));
  emit("audit", "seed-sgx2-encrypted-meta", blob(0x4b, 0x40, Elf));
  emit("audit", "seed-truncated-elf",
       blob(0x33, 0x20, BytesView(Elf.data(), Elf.size() < 48 ? Elf.size() : 48)));
  emit("audit", "regression-empty", BytesView());
  // Regression: a '\n' inside a section name reached --write-baseline
  // output unescaped before Diagnostic::key() sanitized name bytes.
  emit("audit", "regression-newline-section-name",
       blob(0x13, 0x10, patchNewlineSectionName(Elf)));

  // Flow checks over a random-byte text section: the CFG builder and
  // taint fixpoint must be total over whatever decodes out of it.
  emit("audit", "seed-flow-checks-hostile-text", blob(0x91, 0x18, Elf));
  // Flow checks with every fact supplied at once, under SGX2.
  emit("audit", "seed-flow-checks-all-facts", blob(0xfb, 0x20, Elf));
  // A text section that is one dense web of branches: every slot is a
  // conditional branch targeting another slot (or just outside), the
  // worst case for block slicing and escape handling.
  {
    Bytes Branchy;
    for (int I = 0; I < 48; ++I) {
      int32_t Hop = int32_t(((I * 37) % 53) - 26) * 8;
      emitInstruction(Branchy, {I % 2 ? Opcode::Beqz : Opcode::Bnez,
                                0, uint8_t(I % 31), 0, Hop});
    }
    ElfBuilder BB;
    size_t TI = BB.addProgbits(".text", 0x1000, Branchy,
                               SHF_ALLOC | SHF_EXECINSTR);
    BB.addSymbol("elide_restore", 0x1000, 16, STT_FUNC, TI);
    BB.addSymbol("__bridge_elide_restore", 0x1010, 16, STT_FUNC, TI);
    Expected<Bytes> BranchyElf = BB.build();
    if (BranchyElf)
      emit("audit", "seed-flow-checks-branch-web", blob(0x90, 0x08, *BranchyElf));
  }
  // Regression: `jmp -0x1008` at 0x1000 targets 2^64 - 8, where the old
  // in-text tests computed `target + 8` and wrapped to 0. The CFG builder
  // indexed its slot arrays with the bogus target (a crash under the
  // default checks) and the reachability walk decoded outside .text.
  {
    Bytes Wrap;
    emitInstruction(Wrap, {Opcode::Jmp, 0, 0, 0, -0x1008});
    emitInstruction(Wrap, {Opcode::Halt, 0, 0, 0, 0});
    emitInstruction(Wrap, {Opcode::Nop, 0, 0, 0, 0});
    emitInstruction(Wrap, {Opcode::Ret, 0, 0, 0, 0});
    Wrap.resize(Wrap.size() + 4 * SvmInstrSize, 0); // Elided secret_fn.
    ElfBuilder WB;
    size_t TI = WB.addProgbits(".text", 0x1000, Wrap,
                               SHF_ALLOC | SHF_EXECINSTR | SHF_WRITE);
    WB.addProgbits(".svm.ecalls", 0, bytesOfString("elide_restore\n"), 0);
    WB.addSymbol("__bridge_elide_restore", 0x1000, 16, STT_FUNC, TI);
    WB.addSymbol("elide_restore", 0x1010, 16, STT_FUNC, TI);
    WB.addSymbol("secret_fn", 0x1020, 32, STT_FUNC, TI);
    Expected<Bytes> WrapElf = WB.build();
    if (WrapElf)
      emit("audit", "regression-wrapping-branch-target",
           blob(0x81, 0x00, *WrapElf));
  }
  // Regression: a .text whose last slot ends at 2^64 (`jmp +8; jmp +8;
  // halt` at 2^64 - 24, elide_restore at its base). The block ending in
  // `halt` got End == 0, so the walk took it for a trap on an elided slot
  // and read a region that was not there (a crash under the default
  // checks).
  {
    Bytes Top;
    emitInstruction(Top, {Opcode::Jmp, 0, 0, 0, 8});
    emitInstruction(Top, {Opcode::Jmp, 0, 0, 0, 8});
    emitInstruction(Top, {Opcode::Halt, 0, 0, 0, 0});
    ElfBuilder TB;
    size_t TI = TB.addProgbits(".text", 0x1000, Top,
                               SHF_ALLOC | SHF_EXECINSTR);
    TB.addSymbol("elide_restore", 0x1000, Top.size(), STT_FUNC, TI);
    Expected<Bytes> TopElf = TB.build();
    if (TopElf) {
      fuzz::rebaseFirstSection(*TopElf, 0ull - Top.size() - 0x1000);
      emit("audit", "regression-text-end-wraps", blob(0x81, 0x00, *TopElf));
    }
  }
}

void makeVmDiffCorpus() {
  // Inputs are raw SVM programs loaded at pc 0 (see FuzzVmDiff.cpp).
  auto ins = [](Bytes &Code, Opcode Op, uint8_t Rd, uint8_t Rs1, uint8_t Rs2,
                int32_t Imm) {
    emitInstruction(Code, {Op, Rd, Rs1, Rs2, Imm});
  };

  // Every fusible superinstruction shape back to back: cmp+branch loop,
  // LdI+LdIH constant, AddI+load and AddI+store addressing.
  Bytes Fused;
  ins(Fused, Opcode::LdI, 2, 0, 0, 5);             // loop counter
  ins(Fused, Opcode::LdI, 10, 0, 0, 0x8000);       // data base
  ins(Fused, Opcode::LdI, 3, 0, 0, 0x11111111);    // \ fused 64-bit
  ins(Fused, Opcode::LdIH, 3, 0, 0, 0x2222);       // / constant
  ins(Fused, Opcode::AddI, 13, 10, 0, 16);         // \ fused store
  ins(Fused, Opcode::StD, 0, 13, 3, 0);            // /
  ins(Fused, Opcode::AddI, 14, 10, 0, 8);          // \ fused load
  ins(Fused, Opcode::LdD, 4, 14, 0, 8);            // /
  ins(Fused, Opcode::AddI, 2, 2, 0, -1);           // counter--
  ins(Fused, Opcode::Sne, 5, 2, 0, 0);             // \ fused branch
  ins(Fused, Opcode::Bnez, 0, 5, 0, -8 * 8);       // / back to the StD pair
  ins(Fused, Opcode::Add, 1, 3, 4, 0);
  ins(Fused, Opcode::Halt, 0, 0, 0, 0);
  emit("vmdiff", "seed-fused-pairs", Fused);

  // A two-instruction fused loop that dies of budget exhaustion; the
  // driver's budget is even, the loop is 2 wide, so the boundary lands
  // between the halves on some alignments.
  Bytes Tight;
  ins(Tight, Opcode::Seq, 2, 0, 0, 0);             // r2 = 1
  ins(Tight, Opcode::Bnez, 0, 2, 0, -8);           // forever
  ins(Tight, Opcode::Halt, 0, 0, 0, 0);
  emit("vmdiff", "seed-budget-boundary", Tight);

  // Self-modifying store: rewrites a downstream Halt with an Illegal
  // word after the slot has (in a pre-decoding engine) been decoded.
  Bytes SelfMod;
  ins(SelfMod, Opcode::LdI, 2, 0, 0, 4 * 8);       // address of slot 4
  ins(SelfMod, Opcode::StD, 0, 2, 0, 0);           // zero it out
  ins(SelfMod, Opcode::Nop, 0, 0, 0, 0);
  ins(SelfMod, Opcode::Nop, 0, 0, 0, 0);
  ins(SelfMod, Opcode::Halt, 0, 0, 0, 0);          // becomes Illegal
  emit("vmdiff", "seed-self-modify", SelfMod);

  // Restore-style rewrite through the harness tcall (index 1 writes an
  // AddI into a code slot), then keep running.
  Bytes Restore;
  ins(Restore, Opcode::Tcall, 0, 0, 0, 1);
  ins(Restore, Opcode::Nop, 0, 0, 0, 0);
  ins(Restore, Opcode::LdI, 5, 0, 0, 7);
  ins(Restore, Opcode::Tcall, 0, 0, 0, 5);
  ins(Restore, Opcode::Add, 1, 1, 5, 0);
  ins(Restore, Opcode::Halt, 0, 0, 0, 0);
  emit("vmdiff", "seed-restore-tcall", Restore);

  // Regression: operand bytes with high bits set. The decoder took the
  // full byte as a register index and walked off the 32-entry register
  // file (out-of-bounds read/write in release builds); fields now mask
  // to 5 bits.
  Bytes HighRegs;
  ins(HighRegs, Opcode::LdI, 3, 0, 0, 21);
  ins(HighRegs, Opcode::Add, 1, 0xe3, 0x83, 0);    // rs1 = rs2 = r3
  ins(HighRegs, Opcode::LdIH, 0xed, 0x94, 0xf8, -1841113383);
  ins(HighRegs, Opcode::Halt, 0, 0, 0, 0);
  emit("vmdiff", "regression-register-high-bits", HighRegs);

  // One structured program from the generator, at the driver's options.
  Drbg Rng(701);
  vmdiff::ProgramOptions Opts;
  Opts.MaxInstructions = 256;
  Opts.Budget = 2048;
  emit("vmdiff", "seed-structured", vmdiff::generateProgram(Rng, Opts));
}

} // namespace

int main() {
  std::printf("writing seed corpora under %s\n", fuzz::corpusRoot().c_str());
  makeProtocolCorpus();
  makeElfCorpus();
  makeSecretMetaCorpus();
  makeWhitelistCorpus();
  makeLoaderCorpus();
  makeAuditCorpus();
  makeVmDiffCorpus();
  return Failures == 0 ? 0 : 1;
}
