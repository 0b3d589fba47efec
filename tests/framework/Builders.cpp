//===- tests/framework/Builders.cpp - Structure-aware input builders --------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tests/framework/Builders.h"

#include "tests/framework/Mutator.h"

#include "crypto/Ed25519.h"
#include "elf/ElfBuilder.h"
#include "elf/ElfTypes.h"
#include "elide/SecretMeta.h"
#include "server/Protocol.h"
#include "sgx/SgxTypes.h"

#include <algorithm>

using namespace elide;
using namespace elide::fuzz;

//===----------------------------------------------------------------------===//
// ELF images
//===----------------------------------------------------------------------===//

Bytes fuzz::buildSeedElf(Drbg &Rng) {
  ElfBuilder B;
  size_t TextSize = 64 + Rng.nextBelow(448);
  Bytes Text = Rng.bytes(TextSize);
  size_t TextIdx =
      B.addProgbits(".text", 0x1000, Text, SHF_ALLOC | SHF_EXECINSTR);

  // Carve the text into a few function symbols; keep elide_restore so the
  // sanitizer path is reachable from fuzzed images too.
  size_t FnCount = 2 + Rng.nextBelow(4);
  uint64_t Cursor = 0x1000;
  uint64_t End = 0x1000 + TextSize;
  for (size_t I = 0; I < FnCount && Cursor < End; ++I) {
    uint64_t Size = 1 + Rng.nextBelow(End - Cursor);
    std::string Name =
        I == 0 ? "elide_restore" : "fn_" + std::to_string(I);
    B.addSymbol(Name, Cursor, Size, STT_FUNC, TextIdx);
    Cursor += Size;
  }

  size_t RoIdx = B.addProgbits(".rodata", 0x2000,
                               Rng.bytes(16 + Rng.nextBelow(112)), SHF_ALLOC);
  B.addSymbol("ro_table", 0x2000, 16, STT_OBJECT, RoIdx);
  if (Rng.nextBelow(2) == 0)
    B.addNobits(".bss", 0x3000, 0x100 + Rng.nextBelow(0x400),
                SHF_ALLOC | SHF_WRITE);

  Expected<Bytes> File = B.build();
  // The builder only fails on overlapping sections, which the fixed
  // addresses above rule out.
  return File ? File.takeValue() : Bytes();
}

void fuzz::mutateElfStructure(Bytes &Elf, Drbg &Rng) {
  if (Elf.size() < Elf64EhdrSize)
    return;
  uint64_t PhOff = readLE64(Elf.data() + 32);
  uint64_t ShOff = readLE64(Elf.data() + 40);
  uint16_t PhNum = readLE16(Elf.data() + 56);
  uint16_t ShNum = readLE16(Elf.data() + 60);

  switch (Rng.nextBelow(4)) {
  case 0: {
    // File header: PhOff(32) ShOff(40) PhNum(56) ShNum(60) ShStrNdx(62).
    static const size_t Fields[] = {32, 40, 56, 60, 62};
    spliceInterestingAt(Elf, Fields[Rng.nextBelow(5)], Rng);
    break;
  }
  case 1: {
    // A program-header field: Type(0) Offset(8) VAddr(16) FileSize(32)
    // MemSize(40) Align(48), relative to the entry.
    if (PhNum == 0 || PhOff >= Elf.size())
      return;
    uint64_t Entry = PhOff + Rng.nextBelow(PhNum) * Elf64PhdrSize;
    static const size_t Fields[] = {0, 8, 16, 32, 40, 48};
    spliceInterestingAt(Elf, Entry + Fields[Rng.nextBelow(6)], Rng);
    break;
  }
  case 2: {
    // A section-header field: NameOff(0) Type(4) Addr(16) Offset(24)
    // Size(32) Link(40) EntSize(56).
    if (ShNum == 0 || ShOff >= Elf.size())
      return;
    uint64_t Entry = ShOff + Rng.nextBelow(ShNum) * Elf64ShdrSize;
    static const size_t Fields[] = {0, 4, 16, 24, 32, 40, 56};
    spliceInterestingAt(Elf, Entry + Fields[Rng.nextBelow(7)], Rng);
    break;
  }
  case 3: {
    // A symbol-table entry: find the first SHT_SYMTAB header and corrupt
    // one symbol's NameOff(0)/Info(4)/Shndx(6)/Value(8)/Size(16).
    for (uint16_t I = 0; I < ShNum; ++I) {
      uint64_t H = ShOff + uint64_t(I) * Elf64ShdrSize;
      if (H + Elf64ShdrSize > Elf.size())
        return;
      if (readLE32(Elf.data() + H + 4) != SHT_SYMTAB)
        continue;
      uint64_t SymOff = readLE64(Elf.data() + H + 24);
      uint64_t SymBytes = readLE64(Elf.data() + H + 32);
      uint64_t Count = SymBytes / Elf64SymSize;
      if (Count == 0 || SymOff >= Elf.size())
        return;
      uint64_t Entry = SymOff + Rng.nextBelow(Count) * Elf64SymSize;
      static const size_t Fields[] = {0, 4, 6, 8, 16};
      spliceInterestingAt(Elf, Entry + Fields[Rng.nextBelow(5)], Rng);
      return;
    }
    break;
  }
  }
}

void fuzz::rebaseFirstSection(Bytes &Elf, uint64_t Delta) {
  uint64_t ShOff = readLE64(Elf.data() + 40);
  uint16_t ShNum = readLE16(Elf.data() + 60);
  for (uint16_t I = 1; I < ShNum; ++I) {
    uint8_t *H = Elf.data() + ShOff + uint64_t(I) * Elf64ShdrSize;
    if (I == 1)
      writeLE64(H + 16, readLE64(H + 16) + Delta); // Addr.
    if (readLE32(H + 4) != SHT_SYMTAB)
      continue;
    // Entry 0 is the null symbol; Shndx(6) Value(8).
    uint64_t End = readLE64(H + 24) + readLE64(H + 32);
    for (uint64_t S = readLE64(H + 24) + Elf64SymSize; S < End;
         S += Elf64SymSize)
      if (readLE16(Elf.data() + S + 6) == 1)
        writeLE64(Elf.data() + S + 8, readLE64(Elf.data() + S + 8) + Delta);
  }
}

//===----------------------------------------------------------------------===//
// Protocol frames
//===----------------------------------------------------------------------===//

Bytes fuzz::buildProtocolFrame(Drbg &Rng) {
  Aes128Key Key{};
  Rng.fill(MutableBytesView(Key.data(), Key.size()));

  switch (Rng.nextBelow(9)) {
  case 0: { // HELLO with a quote-sized (296-byte) random body.
    Bytes F(1, FrameHello);
    appendBytes(F, Rng.bytes(296));
    return F;
  }
  case 1: { // HELLO with an arbitrary-length body.
    Bytes F(1, FrameHello);
    appendBytes(F, Rng.bytes(Rng.nextBelow(512)));
    return F;
  }
  case 2: { // A correctly sealed server->client record.
    Expected<Bytes> F = sealRecord(Key, Rng.bytes(Rng.nextBelow(128)), Rng);
    return F ? F.takeValue() : Bytes();
  }
  case 3: { // A sealed record, then corrupted.
    Expected<Bytes> F = sealRecord(Key, Rng.bytes(Rng.nextBelow(128)), Rng);
    if (!F)
      return Bytes();
    return mutate(*F, Rng, 4);
  }
  case 4: { // A correctly sealed session record (forged-looking sid).
    Expected<Bytes> F = sealSessionRecord(Rng.next64(), Key,
                                          Rng.bytes(1 + Rng.nextBelow(64)),
                                          Rng);
    return F ? F.takeValue() : Bytes();
  }
  case 5: { // Record-typed frame of arbitrary length (truncation sweep).
    Bytes F(1, FrameRecord);
    appendBytes(F, Rng.bytes(Rng.nextBelow(64)));
    return F;
  }
  case 6: { // ERROR frame with arbitrary payload (possibly empty).
    Bytes F(1, FrameError);
    appendBytes(F, Rng.bytes(Rng.nextBelow(64)));
    return F;
  }
  case 7: { // OVERLOADED frame: exact, truncated, or oversized.
    Bytes F = overloadedFrame(static_cast<uint32_t>(Rng.next64()));
    uint64_t Shape = Rng.nextBelow(3);
    if (Shape == 1)
      F.resize(Rng.nextBelow(F.size()) + 1); // Truncated (keeps the type).
    else if (Shape == 2)
      appendBytes(F, Rng.bytes(1 + Rng.nextBelow(16))); // Trailing junk.
    return F;
  }
  default: // Unknown frame type / pure garbage / empty.
    return Rng.bytes(Rng.nextBelow(96));
  }
}

//===----------------------------------------------------------------------===//
// SecretMeta blobs
//===----------------------------------------------------------------------===//

Bytes fuzz::buildSecretMetaBlob(Drbg &Rng) {
  SecretMeta M;
  M.DataLength = Rng.nextBelow(2) ? Rng.nextBelow(1 << 20)
                                  : pickInteresting64(Rng);
  M.RestoreOffset = Rng.nextBelow(2) ? Rng.nextBelow(1 << 16)
                                     : pickInteresting64(Rng);
  M.Encrypted = Rng.nextBelow(2) == 0;
  Rng.fill(MutableBytesView(M.Key.data(), M.Key.size()));
  Rng.fill(MutableBytesView(M.Iv.data(), M.Iv.size()));
  Rng.fill(MutableBytesView(M.Mac.data(), M.Mac.size()));
  Bytes Blob = M.serialize();

  switch (Rng.nextBelow(4)) {
  case 0: // Well-formed (fields may still be boundary values).
    return Blob;
  case 1: // Corrupt the flag byte.
    Blob[16] = static_cast<uint8_t>(Rng.next64());
    return Blob;
  case 2: // Wrong size: truncate or pad.
    Blob.resize(Rng.nextBelow(Blob.size() + 16));
    return Blob;
  default: // Byte-level noise.
    return mutate(Blob, Rng, 4);
  }
}

//===----------------------------------------------------------------------===//
// SIGSTRUCTs and quotes
//===----------------------------------------------------------------------===//

namespace {

Ed25519KeyPair deterministicKeyPair(Drbg &Rng) {
  Ed25519Seed Seed{};
  Rng.fill(MutableBytesView(Seed.data(), Seed.size()));
  return ed25519KeyPairFromSeed(Seed);
}

} // namespace

Bytes fuzz::buildSigStructBlob(Drbg &Rng) {
  sgx::Measurement Mr{};
  Rng.fill(MutableBytesView(Mr.data(), Mr.size()));
  sgx::SigStruct Sig =
      sgx::SigStruct::sign(deterministicKeyPair(Rng), Mr, Rng.next64() & 3);
  Bytes Blob = Sig.serialize();
  switch (Rng.nextBelow(3)) {
  case 0: // Genuinely signed.
    return Blob;
  case 1: // Signed then tampered (signature must stop verifying).
    Blob[Rng.nextBelow(Blob.size())] ^= static_cast<uint8_t>(
        1 + Rng.nextBelow(255));
    return Blob;
  default: // Size and byte noise.
    return mutate(Blob, Rng, 6);
  }
}

Bytes fuzz::buildQuoteBlob(Drbg &Rng) {
  sgx::Quote Q;
  Rng.fill(MutableBytesView(Q.Body.MrEnclave.data(), 32));
  Rng.fill(MutableBytesView(Q.Body.MrSigner.data(), 32));
  Q.Body.Attributes = Rng.next64();
  Rng.fill(MutableBytesView(Q.Body.Data.data(), 64));
  Ed25519KeyPair AttKey = deterministicKeyPair(Rng);
  Q.AttestationKey = AttKey.PublicKey;
  // Self-certified: not chained to any real authority, but structurally
  // a valid signature so deep verification paths run.
  Q.KeyCertificate = ed25519Sign(
      AttKey, BytesView(Q.AttestationKey.data(), Q.AttestationKey.size()));
  Q.Signature = ed25519Sign(AttKey, Q.Body.serialize());
  Bytes Blob = Q.serialize();
  switch (Rng.nextBelow(3)) {
  case 0:
    return Blob;
  case 1:
    Blob[Rng.nextBelow(Blob.size())] ^= static_cast<uint8_t>(
        1 + Rng.nextBelow(255));
    return Blob;
  default:
    return mutate(Blob, Rng, 6);
  }
}

//===----------------------------------------------------------------------===//
// Whitelists
//===----------------------------------------------------------------------===//

Bytes fuzz::buildWhitelistText(Drbg &Rng) {
  std::string Text;
  size_t Lines = Rng.nextBelow(12);
  for (size_t I = 0; I < Lines; ++I) {
    switch (Rng.nextBelow(6)) {
    case 0: // Plausible symbol name.
      Text += "fn_" + std::to_string(Rng.nextBelow(8));
      break;
    case 1: // Duplicate-prone fixed name.
      Text += "elide_restore";
      break;
    case 2: // Empty line.
      break;
    case 3: { // Very long name.
      Text.append(64 + Rng.nextBelow(192), 'a' + char(Rng.nextBelow(26)));
      break;
    }
    case 4: { // Hostile bytes inside a name (NUL, high bit, spaces).
      Bytes Junk = Rng.bytes(1 + Rng.nextBelow(12));
      Text.append(reinterpret_cast<const char *>(Junk.data()), Junk.size());
      break;
    }
    default: // Bridge-prefixed name (always-whitelisted path).
      Text += "__bridge_ecall_" + std::to_string(Rng.nextBelow(4));
      break;
    }
    if (Rng.nextBelow(8) != 0) // Occasionally omit the newline.
      Text += '\n';
  }
  return bytesOfString(Text);
}
