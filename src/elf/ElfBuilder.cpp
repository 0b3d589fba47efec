//===- elf/ElfBuilder.cpp - Emit ELF64 enclave shared objects --------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "elf/ElfBuilder.h"

#include "support/Hex.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>

using namespace elide;

size_t ElfBuilder::addProgbits(const std::string &Name, uint64_t Addr,
                               Bytes Contents, uint64_t Flags) {
  PendingSection Sec;
  Sec.Name = Name;
  Sec.Type = SHT_PROGBITS;
  Sec.Flags = Flags;
  Sec.Addr = Addr;
  Sec.MemSize = Contents.size();
  Sec.Contents = std::move(Contents);
  PendingSections.push_back(std::move(Sec));
  return PendingSections.size(); // +1 for the null section.
}

size_t ElfBuilder::addNobits(const std::string &Name, uint64_t Addr,
                             uint64_t MemSize, uint64_t Flags) {
  PendingSection Sec;
  Sec.Name = Name;
  Sec.Type = SHT_NOBITS;
  Sec.Flags = Flags;
  Sec.Addr = Addr;
  Sec.MemSize = MemSize;
  PendingSections.push_back(std::move(Sec));
  return PendingSections.size();
}

void ElfBuilder::addSymbol(const std::string &Name, uint64_t Value,
                           uint64_t Size, uint8_t Type, size_t SectionIndex) {
  PendingSymbols.push_back({Name, Value, Size, Type, SectionIndex});
}

namespace {

/// A growable string table with offset lookup.
class StringTable {
public:
  StringTable() { Blob.push_back(0); }

  uint32_t intern(const std::string &S) {
    auto It = Offsets.find(S);
    if (It != Offsets.end())
      return It->second;
    uint32_t Off = static_cast<uint32_t>(Blob.size());
    Blob.insert(Blob.end(), S.begin(), S.end());
    Blob.push_back(0);
    Offsets.emplace(S, Off);
    return Off;
  }

  const Bytes &bytes() const { return Blob; }

private:
  Bytes Blob;
  std::map<std::string, uint32_t> Offsets;
};

uint64_t alignUp(uint64_t V, uint64_t A) { return (V + A - 1) / A * A; }

void putShdr(Bytes &Out, uint32_t NameOff, uint32_t Type, uint64_t Flags,
             uint64_t Addr, uint64_t Offset, uint64_t Size, uint32_t Link,
             uint32_t Info, uint64_t Align, uint64_t EntSize) {
  uint8_t H[Elf64ShdrSize];
  writeLE32(H, NameOff);
  writeLE32(H + 4, Type);
  writeLE64(H + 8, Flags);
  writeLE64(H + 16, Addr);
  writeLE64(H + 24, Offset);
  writeLE64(H + 32, Size);
  writeLE32(H + 40, Link);
  writeLE32(H + 44, Info);
  writeLE64(H + 48, Align);
  writeLE64(H + 56, EntSize);
  Out.insert(Out.end(), H, H + Elf64ShdrSize);
}

} // namespace

Expected<Bytes> ElfBuilder::build() const {
  // Count loadable segments: one per alloc section.
  std::vector<size_t> AllocIdx;
  for (size_t I = 0; I < PendingSections.size(); ++I)
    if (PendingSections[I].Flags & SHF_ALLOC)
      AllocIdx.push_back(I);
  std::sort(AllocIdx.begin(), AllocIdx.end(), [&](size_t A, size_t B) {
    return PendingSections[A].Addr < PendingSections[B].Addr;
  });

  uint64_t HeaderEnd = Elf64EhdrSize + AllocIdx.size() * Elf64PhdrSize;

  // Validate the alloc layout: page-aligned, above headers, no overlap.
  uint64_t PrevEnd = HeaderEnd;
  for (size_t I : AllocIdx) {
    const PendingSection &Sec = PendingSections[I];
    if (Sec.Addr % 0x1000 != 0)
      return makeError("section " + Sec.Name + " address " +
                       hexAddress(Sec.Addr) + " is not page aligned");
    if (Sec.Addr < PrevEnd)
      return makeError("section " + Sec.Name +
                       " overlaps headers or a previous section");
    if (Sec.MemSize > UINT64_MAX - Sec.Addr)
      return makeError("section " + Sec.Name + " ends past 2^64");
    PrevEnd = Sec.Addr + (Sec.Type == SHT_NOBITS ? 0 : Sec.MemSize);
  }

  // Alloc sections sit at file offset == vaddr; find where file data for
  // non-alloc sections begins.
  uint64_t Cursor = PrevEnd;

  // Assign offsets for non-alloc progbits sections.
  struct Placement {
    uint64_t Offset;
  };
  std::vector<Placement> Where(PendingSections.size());
  for (size_t I = 0; I < PendingSections.size(); ++I) {
    const PendingSection &Sec = PendingSections[I];
    if (Sec.Flags & SHF_ALLOC) {
      Where[I].Offset = Sec.Addr; // NOBITS alloc keeps Addr; unused for data.
      continue;
    }
    Cursor = alignUp(Cursor, 8);
    Where[I].Offset = Cursor;
    if (Sec.Type != SHT_NOBITS)
      Cursor += Sec.Contents.size();
  }

  // Build .symtab / .strtab / .shstrtab.
  StringTable StrTab;
  Bytes SymtabBytes(Elf64SymSize, 0); // Null symbol.
  for (const PendingSymbol &Sym : PendingSymbols) {
    uint8_t S[Elf64SymSize] = {0};
    writeLE32(S, StrTab.intern(Sym.Name));
    S[4] = elfSymInfo(STB_GLOBAL, Sym.Type);
    S[5] = 0;
    writeLE16(S + 6, static_cast<uint16_t>(Sym.SectionIndex));
    writeLE64(S + 8, Sym.Value);
    writeLE64(S + 16, Sym.Size);
    SymtabBytes.insert(SymtabBytes.end(), S, S + Elf64SymSize);
  }

  uint64_t SymtabOff = alignUp(Cursor, 8);
  Cursor = SymtabOff + SymtabBytes.size();
  uint64_t StrtabOff = Cursor;
  Cursor += StrTab.bytes().size();

  StringTable ShStrTab;
  // Intern all names first so the table size is final.
  std::vector<uint32_t> SecNameOff(PendingSections.size());
  for (size_t I = 0; I < PendingSections.size(); ++I)
    SecNameOff[I] = ShStrTab.intern(PendingSections[I].Name);
  uint32_t SymtabNameOff = ShStrTab.intern(".symtab");
  uint32_t StrtabNameOff = ShStrTab.intern(".strtab");
  uint32_t ShStrtabNameOff = ShStrTab.intern(".shstrtab");

  uint64_t ShStrtabOff = Cursor;
  Cursor += ShStrTab.bytes().size();

  uint64_t ShOff = alignUp(Cursor, 8);
  // Sections: null + user sections + symtab + strtab + shstrtab.
  uint16_t ShNum = static_cast<uint16_t>(PendingSections.size() + 4);
  uint16_t SymtabIndex = static_cast<uint16_t>(PendingSections.size() + 1);
  uint16_t StrtabIndex = static_cast<uint16_t>(SymtabIndex + 1);
  uint16_t ShStrNdx = static_cast<uint16_t>(StrtabIndex + 1);

  uint64_t FileSize = ShOff + uint64_t(ShNum) * Elf64ShdrSize;
  Bytes Out(FileSize, 0);

  // ELF header.
  uint8_t *P = Out.data();
  P[0] = ElfMag0;
  P[1] = ElfMag1;
  P[2] = ElfMag2;
  P[3] = ElfMag3;
  P[4] = ElfClass64;
  P[5] = ElfData2Lsb;
  P[6] = ElfVersionCurrent;
  writeLE16(P + 16, ET_DYN);
  writeLE16(P + 18, EM_SVM);
  writeLE32(P + 20, 1); // e_version
  writeLE64(P + 24, 0); // e_entry (ecalls are dispatched by name)
  writeLE64(P + 32, Elf64EhdrSize);
  writeLE64(P + 40, ShOff);
  writeLE32(P + 48, 0);
  writeLE16(P + 52, Elf64EhdrSize);
  writeLE16(P + 54, Elf64PhdrSize);
  writeLE16(P + 56, static_cast<uint16_t>(AllocIdx.size()));
  writeLE16(P + 58, Elf64ShdrSize);
  writeLE16(P + 60, ShNum);
  writeLE16(P + 62, ShStrNdx);

  // Program headers (one PT_LOAD per alloc section, in address order).
  uint64_t PhCursor = Elf64EhdrSize;
  for (size_t I : AllocIdx) {
    const PendingSection &Sec = PendingSections[I];
    uint32_t Flags = PF_R;
    if (Sec.Flags & SHF_WRITE)
      Flags |= PF_W;
    if (Sec.Flags & SHF_EXECINSTR)
      Flags |= PF_X;
    uint8_t *H = Out.data() + PhCursor;
    writeLE32(H, PT_LOAD);
    writeLE32(H + 4, Flags);
    writeLE64(H + 8, Sec.Type == SHT_NOBITS ? 0 : Sec.Addr);
    writeLE64(H + 16, Sec.Addr);
    writeLE64(H + 24, Sec.Addr);
    writeLE64(H + 32, Sec.Type == SHT_NOBITS ? 0 : Sec.MemSize);
    writeLE64(H + 40, Sec.MemSize);
    writeLE64(H + 48, 0x1000);
    PhCursor += Elf64PhdrSize;
  }

  // Section contents.
  for (size_t I = 0; I < PendingSections.size(); ++I) {
    const PendingSection &Sec = PendingSections[I];
    if (Sec.Type == SHT_NOBITS || Sec.Contents.empty())
      continue;
    std::memcpy(Out.data() + Where[I].Offset, Sec.Contents.data(),
                Sec.Contents.size());
  }
  std::memcpy(Out.data() + SymtabOff, SymtabBytes.data(), SymtabBytes.size());
  std::memcpy(Out.data() + StrtabOff, StrTab.bytes().data(),
              StrTab.bytes().size());
  std::memcpy(Out.data() + ShStrtabOff, ShStrTab.bytes().data(),
              ShStrTab.bytes().size());

  // Section header table.
  Bytes Shdrs;
  putShdr(Shdrs, 0, SHT_NULL, 0, 0, 0, 0, 0, 0, 0, 0); // null section
  for (size_t I = 0; I < PendingSections.size(); ++I) {
    const PendingSection &Sec = PendingSections[I];
    putShdr(Shdrs, SecNameOff[I], Sec.Type, Sec.Flags, Sec.Addr,
            Where[I].Offset, Sec.MemSize, 0, 0,
            (Sec.Flags & SHF_ALLOC) ? 0x1000 : 8, 0);
  }
  putShdr(Shdrs, SymtabNameOff, SHT_SYMTAB, 0, 0, SymtabOff,
          SymtabBytes.size(), StrtabIndex, 1, 8, Elf64SymSize);
  putShdr(Shdrs, StrtabNameOff, SHT_STRTAB, 0, 0, StrtabOff,
          StrTab.bytes().size(), 0, 0, 1, 0);
  putShdr(Shdrs, ShStrtabNameOff, SHT_STRTAB, 0, 0, ShStrtabOff,
          ShStrTab.bytes().size(), 0, 0, 1, 0);
  std::memcpy(Out.data() + ShOff, Shdrs.data(), Shdrs.size());

  return Out;
}
