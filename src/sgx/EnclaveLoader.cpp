//===- sgx/EnclaveLoader.cpp - Load ELF enclave images into the device ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sgx/EnclaveLoader.h"

#include "elc/Compiler.h"
#include "elf/ElfImage.h"
#include "support/Hex.h"

#include <functional>

using namespace elide;
using namespace elide::sgx;

namespace {

uint64_t alignUp(uint64_t V, uint64_t A) { return (V + A - 1) / A * A; }

struct ComputedLayout {
  uint64_t HeapBase = 0;
  uint64_t StackBase = 0;
  uint64_t StackTop = 0;
  uint64_t EnclaveSize = 0;
};

ComputedLayout computeLayout(const ElfImage &Image,
                             const EnclaveLayout &Layout) {
  uint64_t MaxEnd = 0;
  for (const ElfSegment &Seg : Image.segments())
    if (Seg.Type == PT_LOAD && Seg.VAddr + Seg.MemSize > MaxEnd)
      MaxEnd = Seg.VAddr + Seg.MemSize;
  ComputedLayout Out;
  Out.HeapBase = alignUp(MaxEnd, EpcPageSize);
  // One unmapped guard page between heap and stack.
  Out.StackBase = Out.HeapBase + alignUp(Layout.HeapSize, EpcPageSize) +
                  EpcPageSize;
  Out.StackTop = Out.StackBase + alignUp(Layout.StackSize, EpcPageSize);
  Out.EnclaveSize = Out.StackTop;
  return Out;
}

/// Walks every page of the enclave in deterministic EADD order: image
/// segments by address, then heap, then stack. The vendor's signing tool
/// and the loader must agree exactly, or EINIT rejects the launch.
Error forEachEnclavePage(
    const ElfImage &Image, const EnclaveLayout &Layout,
    const std::function<Error(uint64_t, uint8_t, BytesView)> &Visit) {
  ComputedLayout C = computeLayout(Image, Layout);
  if (C.EnclaveSize > MaxEnclaveSize || C.EnclaveSize < C.HeapBase)
    return makeError("enclave address space is implausibly large "
                     "(corrupted segment sizes?)");
  for (const ElfSegment &Seg : Image.segments())
    if (Seg.Type == PT_LOAD &&
        (Seg.MemSize > MaxEnclaveSize || Seg.VAddr > MaxEnclaveSize ||
         Seg.VAddr + Seg.MemSize < Seg.VAddr))
      return makeError("segment exceeds the enclave size limit");

  std::vector<const ElfSegment *> Segments;
  for (const ElfSegment &Seg : Image.segments())
    if (Seg.Type == PT_LOAD)
      Segments.push_back(&Seg);
  std::sort(Segments.begin(), Segments.end(),
            [](const ElfSegment *A, const ElfSegment *B) {
              return A->VAddr < B->VAddr;
            });

  Bytes ZeroPage(EpcPageSize, 0);
  for (const ElfSegment *Seg : Segments) {
    if (Seg->VAddr % EpcPageSize != 0)
      return makeError("segment at " + hexAddress(Seg->VAddr) +
                       " is not page aligned");
    uint8_t Perms = static_cast<uint8_t>(Seg->Flags & (PF_R | PF_W | PF_X));
    uint64_t MemEnd = Seg->VAddr + alignUp(Seg->MemSize, EpcPageSize);
    for (uint64_t Page = Seg->VAddr; Page < MemEnd; Page += EpcPageSize) {
      uint64_t FileOff = Page - Seg->VAddr;
      BytesView Content;
      if (FileOff < Seg->FileSize) {
        uint64_t Avail = Seg->FileSize - FileOff;
        Content = BytesView(Image.fileBytes().data() + Seg->Offset + FileOff,
                            Avail < EpcPageSize ? Avail : EpcPageSize);
      }
      if (Error E = Visit(Page, Perms, Content))
        return E;
    }
  }

  uint64_t HeapEnd = C.HeapBase + alignUp(Layout.HeapSize, EpcPageSize);
  for (uint64_t Page = C.HeapBase; Page < HeapEnd; Page += EpcPageSize)
    if (Error E = Visit(Page, PermRead | PermWrite, BytesView()))
      return E;
  for (uint64_t Page = C.StackBase; Page < C.StackTop; Page += EpcPageSize)
    if (Error E = Visit(Page, PermRead | PermWrite, BytesView()))
      return E;
  return Error::success();
}

} // namespace

Expected<Measurement> sgx::measureEnclaveImage(BytesView ElfFile,
                                               const EnclaveLayout &Layout) {
  ELIDE_TRY(ElfImage Image, ElfImage::parse(toBytes(ElfFile)));
  ComputedLayout C = computeLayout(Image, Layout);

  // A throwaway device: the measurement is device-independent.
  SgxDevice Scratch(0);
  SgxDevice::Builder Builder(Scratch, C.EnclaveSize);
  if (Error E = forEachEnclavePage(
          Image, Layout, [&](uint64_t VAddr, uint8_t Perms, BytesView Content) {
            return Builder.addPage(VAddr, Perms, Content);
          }))
    return E;
  return Builder.currentMeasurement();
}

Expected<std::unique_ptr<Enclave>> sgx::loadEnclave(SgxDevice &Device,
                                                    BytesView ElfFile,
                                                    const SigStruct &Sig,
                                                    const EnclaveLayout &Layout) {
  ELIDE_TRY(ElfImage Image, ElfImage::parse(toBytes(ElfFile)));
  ComputedLayout C = computeLayout(Image, Layout);

  SgxDevice::Builder Builder(Device, C.EnclaveSize);
  if (Error E = forEachEnclavePage(
          Image, Layout, [&](uint64_t VAddr, uint8_t Perms, BytesView Content) {
            return Builder.addPage(VAddr, Perms, Content);
          }))
    return E;
  ELIDE_TRY(std::unique_ptr<Enclave> E, Builder.init(Sig));

  // Bind the ecall manifest to bridge symbols.
  std::map<std::string, uint64_t> EcallTable;
  if (const ElfSection *Manifest =
          Image.sectionByName(elc::ecallSectionName())) {
    std::string Names = stringOfBytes(Image.sectionContents(*Manifest));
    size_t Pos = 0;
    while (Pos < Names.size()) {
      size_t End = Names.find('\n', Pos);
      if (End == std::string::npos)
        End = Names.size();
      std::string Name = Names.substr(Pos, End - Pos);
      Pos = End + 1;
      if (Name.empty())
        continue;
      const ElfSymbol *Bridge =
          Image.symbolByName(std::string(elc::bridgePrefix()) + Name);
      if (!Bridge)
        return makeError("ecall manifest names '" + Name +
                         "' but the image has no bridge symbol for it");
      EcallTable[Name] = Bridge->Value;
    }
  }
  E->setEcallTable(std::move(EcallTable));

  for (const ElfSymbol &Sym : Image.symbols())
    E->setSymbolAddress(Sym.Name, Sym.Value);

  E->setLayout(C.HeapBase, alignUp(Layout.HeapSize, EpcPageSize), C.StackTop);
  E->setVmBackend(Layout.SvmBackend);
  return E;
}
