//===- sgx/SgxDevice.cpp - The SGX hardware device model -----------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sgx/SgxDevice.h"

#include "crypto/Hkdf.h"
#include "sgx/Enclave.h"
#include "support/Hex.h"

#include <cstring>

using namespace elide;
using namespace elide::sgx;

SgxDevice::SgxDevice(uint64_t MachineSeed) : Rng(MachineSeed ^ 0x5367456c6964ULL) {
  // The fused hardware secret; in real silicon this is burned at
  // manufacturing. Derived from the seed so experiments are reproducible.
  Drbg KeyGen(MachineSeed);
  KeyGen.fill(MutableBytesView(HardwareKey.data(), HardwareKey.size()));
}

Aes128Key SgxDevice::deriveKey128(const std::string &Label,
                                  BytesView Salt) const {
  Bytes Okm = hkdf(Salt, BytesView(HardwareKey.data(), HardwareKey.size()),
                   viewOf(Label), 16);
  Aes128Key Key;
  std::memcpy(Key.data(), Okm.data(), 16);
  return Key;
}

SgxDevice::Builder::Builder(SgxDevice &Device, uint64_t Size)
    : Device(Device), Size(Size) {
  Hash.update(viewOf(std::string("ECREATE")));
  uint8_t SizeBytes[8];
  writeLE64(SizeBytes, Size);
  Hash.update(BytesView(SizeBytes, 8));
}

Error SgxDevice::Builder::addPage(uint64_t VAddr, uint8_t Perms,
                                  BytesView Content) {
  if (Consumed)
    return makeError("builder already consumed by EINIT");
  if (VAddr % EpcPageSize != 0)
    return makeError("EADD address " + hexAddress(VAddr) +
                     " is not page aligned");
  // No wrapping sums: a page near 2^64 must not pass, and no page at or
  // above the cap may size the EPC table past MaxEnclaveSize.
  if (VAddr >= Size || Size - VAddr < EpcPageSize || VAddr >= MaxEnclaveSize)
    return makeError("EADD address " + hexAddress(VAddr) +
                     " outside the enclave range");
  if (Content.size() > EpcPageSize)
    return makeError("EADD content exceeds one page");
  if (Pages.count(VAddr))
    return makeError("EADD: page " + hexAddress(VAddr) + " already added");

  Bytes PageData(EpcPageSize, 0);
  // Zero-fill pages (heap, stack, bss) arrive as empty views whose data
  // pointer may be null; memcpy's arguments must never be.
  if (!Content.empty())
    std::memcpy(PageData.data(), Content.data(), Content.size());

  // EADD measures the page's security attributes...
  Hash.update(viewOf(std::string("EADD")));
  uint8_t Meta[16];
  writeLE64(Meta, VAddr);
  writeLE64(Meta + 8, Perms);
  Hash.update(BytesView(Meta, 16));

  // ...then EEXTEND measures the contents 256 bytes at a time (16 chunks
  // per page).
  for (uint64_t Off = 0; Off < EpcPageSize; Off += EextendChunk) {
    Hash.update(viewOf(std::string("EEXTEND")));
    uint8_t AddrBytes[8];
    writeLE64(AddrBytes, VAddr + Off);
    Hash.update(BytesView(AddrBytes, 8));
    Hash.update(BytesView(PageData.data() + Off, EextendChunk));
  }

  Pages.emplace(VAddr, std::make_pair(Perms, std::move(PageData)));
  return Error::success();
}

Measurement SgxDevice::Builder::currentMeasurement() const {
  Sha256 Copy = Hash;
  Sha256Digest D = Copy.final();
  Measurement M;
  std::memcpy(M.data(), D.data(), 32);
  return M;
}

Expected<std::unique_ptr<Enclave>>
SgxDevice::Builder::init(const SigStruct &Sig) {
  if (Consumed)
    return makeError("builder already consumed by EINIT");
  if (!Sig.verify())
    return makeError(SgxErrcBadSignature,
                     "EINIT: SIGSTRUCT signature verification failed");
  Measurement Measured = currentMeasurement();
  if (Measured != Sig.MrEnclave)
    return makeError(SgxErrcMeasurementMismatch,
                     "EINIT: enclave measurement does not match SIGSTRUCT "
                     "(the image was modified after signing)");
  Consumed = true;

  std::unique_ptr<Enclave> E(new Enclave(Device));
  E->MrEnclave = Measured;
  E->MrSigner = Sig.mrSigner();
  E->Attributes = Sig.Attributes;
  // The EPC table reaches the highest page added and never grows after
  // this: the bus's inline path holds a pointer to it.
  uint64_t Slots = Pages.empty() ? 0 : Pages.rbegin()->first / EpcPageSize + 1;
  E->Pages.resize(Slots);
  E->PageBytes.resize(Slots);
  for (auto &[VAddr, PermsAndData] : Pages) {
    uint64_t Index = VAddr / EpcPageSize;
    E->PageBytes[Index] = std::move(PermsAndData.second);
    E->Pages[Index] = {E->PageBytes[Index].data(), PermsAndData.first};
  }
  E->Memory.attachPages();
  Pages.clear();
  return E;
}
