//===- vm/MemoryBus.cpp - VM memory interface --------------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/MemoryBus.h"

#include "support/Hex.h"

#include <cstring>

using namespace elide;

MemoryBus::~MemoryBus() = default;

FlatMemory::FlatMemory(size_t Size)
    : Ram(Size, 0), Pages(Size / DirectPageSize) {
  for (size_t I = 0; I < Pages.size(); ++I)
    Pages[I] = {Ram.data() + I * DirectPageSize,
                DirectPage::Read | DirectPage::Write | DirectPage::Exec};
  setDirectPages(Pages.data(), Pages.size());
}

Error FlatMemory::checkRange(uint64_t Addr, uint64_t Size) const {
  if (Addr + Size < Addr || Addr + Size > Ram.size())
    return makeError("memory access [" + hexAddress(Addr) + ", +" +
                     std::to_string(Size) + ") out of bounds");
  return Error::success();
}

Error FlatMemory::read(uint64_t Addr, MutableBytesView Out) {
  if (Error E = checkRange(Addr, Out.size()))
    return E;
  if (!Out.empty()) // Empty views may carry a null data pointer.
    std::memcpy(Out.data(), Ram.data() + Addr, Out.size());
  return Error::success();
}

Error FlatMemory::write(uint64_t Addr, BytesView Data) {
  if (Error E = checkRange(Addr, Data.size()))
    return E;
  if (!Data.empty()) {
    std::memcpy(Ram.data() + Addr, Data.data(), Data.size());
    noteWrite(Addr, Data.size());
  }
  return Error::success();
}

Error FlatMemory::fetch(uint64_t Addr, uint8_t Out[8]) {
  if (Error E = checkRange(Addr, 8))
    return E;
  std::memcpy(Out, Ram.data() + Addr, 8);
  return Error::success();
}
