//===- sgx/Enclave.cpp - An initialized enclave --------------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sgx/Enclave.h"

#include "crypto/AesGcm.h"
#include "crypto/CryptoEqual.h"
#include "support/Hex.h"
#include "vm/ExecBackend.h"

#include <algorithm>
#include <cstring>

using namespace elide;
using namespace elide::sgx;

/// Formats a permission mask, e.g. "rwx" / "r-x".
static std::string permString(uint8_t Perms) {
  std::string S = "---";
  if (Perms & PermRead)
    S[0] = 'r';
  if (Perms & PermWrite)
    S[1] = 'w';
  if (Perms & PermExec)
    S[2] = 'x';
  return S;
}

//===----------------------------------------------------------------------===//
// Memory bus with per-page permission checks
//===----------------------------------------------------------------------===//

// The inline path and the EPC share one page table and one set of bits.
static_assert(EpcPageSize == MemoryBus::DirectPageSize);
static_assert(PermRead == DirectPage::Read && PermWrite == DirectPage::Write &&
              PermExec == DirectPage::Exec);

Error Enclave::EnclaveBus::access(uint64_t Addr, uint64_t Size,
                                  uint8_t NeedPerm, uint8_t *ReadInto,
                                  const uint8_t *WriteFrom) {
  // Check every page the access spans before copying a byte, so an access
  // that faults part-way (a store straddling into a read-only or unmapped
  // page) has no effect at all.
  for (uint64_t Done = 0; Done < Size;) {
    uint64_t Cur = Addr + Done;
    if (!Owner.resident(Cur))
      return makeError("page fault at " + hexAddress(Cur) +
                       " (no EPC page mapped)");
    uint8_t Perms = Owner.Pages[Cur / EpcPageSize].Perms;
    if ((Perms & NeedPerm) != NeedPerm)
      return makeError("permission fault at " + hexAddress(Cur) +
                       ": need " + permString(NeedPerm) + ", page is " +
                       permString(Perms));
    Done += EpcPageSize - Cur % EpcPageSize;
  }
  for (uint64_t Done = 0; Done < Size;) {
    uint64_t Cur = Addr + Done;
    uint64_t InPage = Cur % EpcPageSize;
    uint64_t Chunk = std::min(EpcPageSize - InPage, Size - Done);
    uint8_t *Host = Owner.Pages[Cur / EpcPageSize].Data + InPage;
    if (ReadInto)
      std::memcpy(ReadInto + Done, Host, Chunk);
    if (WriteFrom)
      std::memcpy(Host, WriteFrom + Done, Chunk);
    Done += Chunk;
  }
  return Error::success();
}

Error Enclave::EnclaveBus::read(uint64_t Addr, MutableBytesView Out) {
  return access(Addr, Out.size(), PermRead, Out.data(), nullptr);
}

Error Enclave::EnclaveBus::write(uint64_t Addr, BytesView Data) {
  if (Error E = access(Addr, Data.size(), PermWrite, nullptr, Data.data()))
    return E;
  // Journal the write so a decoded-code cache can invalidate the range --
  // this is how a restore write into `.text` reaches the threaded engine.
  noteWrite(Addr, Data.size());
  return Error::success();
}

Error Enclave::EnclaveBus::fetch(uint64_t Addr, uint8_t Out[8]) {
  return access(Addr, 8, PermExec, Out, nullptr);
}

//===----------------------------------------------------------------------===//
// Entry
//===----------------------------------------------------------------------===//

void Enclave::setVmBackend(VmBackendKind Kind) {
  if (Kind != BackendKind)
    VmEngine.reset(); // Next ecall instantiates the newly selected engine.
  BackendKind = Kind;
}

Expected<uint64_t> Enclave::symbolAddress(const std::string &Name) const {
  auto It = SymbolAddrs.find(Name);
  if (It == SymbolAddrs.end())
    return makeError("unknown enclave symbol '" + Name + "'");
  return It->second;
}

Expected<uint64_t> Enclave::ecallAddress(const std::string &Name) const {
  auto It = Ecalls.find(Name);
  if (It == Ecalls.end())
    return makeError("no ecall named '" + Name +
                     "' (not exported by the enclave)");
  return It->second;
}

Expected<EcallResult> Enclave::ecall(const std::string &Name, BytesView Input,
                                     size_t OutputCapacity) {
  auto It = Ecalls.find(Name);
  if (It == Ecalls.end())
    return makeError("no ecall named '" + Name +
                     "' (not exported by the enclave)");
  if (HeapSize == 0 || StackTop == 0)
    return makeError("enclave layout not configured");

  // Bridge buffer arena at the bottom of the heap: [input][output].
  uint64_t InPtr = HeapBase;
  uint64_t OutPtr = HeapBase + (Input.size() + 15) / 16 * 16;
  if (OutPtr + OutputCapacity > HeapBase + HeapSize)
    return makeError("ecall buffers exceed the bridge arena (" +
                     std::to_string(Input.size()) + " in + " +
                     std::to_string(OutputCapacity) + " out)");
  if (!Input.empty())
    if (Error E = Memory.write(InPtr, Input))
      return makeError("bridge copy-in failed: " + E.message());
  // Clear the output window so stale data never leaks across ecalls.
  {
    Bytes Zero(OutputCapacity, 0);
    if (OutputCapacity)
      if (Error E = Memory.write(OutPtr, Zero))
        return makeError("bridge output clear failed: " + E.message());
  }

  Vm Machine(Memory);
  // The engine instance outlives the per-ecall Vm so a stateful backend
  // (the threaded engine's decoded-code cache) persists across ecalls.
  if (!VmEngine)
    VmEngine = createExecBackend(BackendKind);
  Machine.setBackend(VmEngine);
  Machine.setTcallHandler([this](uint32_t Index, Vm &V) {
    return dispatchTcall(Index, V);
  });
  Machine.setOcallHandler([this](uint32_t Index, Vm &V) {
    return dispatchOcall(Index, V);
  });

  Machine.setReg(SvmRegSp, StackTop - 64);
  Machine.setReg(1, InPtr);
  Machine.setReg(2, Input.size());
  Machine.setReg(3, OutPtr);
  Machine.setReg(4, OutputCapacity);

  EcallResult Result;
  Result.Exec = Machine.run(It->second, InstructionBudget);
  RetiredTotal += Result.Exec.InstructionsRetired;
  if (OutputCapacity) {
    Result.Output.resize(OutputCapacity);
    if (Error E = Memory.read(OutPtr, MutableBytesView(Result.Output)))
      return makeError("bridge copy-out failed: " + E.message());
  }
  return Result;
}

Expected<uint64_t> Enclave::dispatchTcall(uint32_t Index, Vm &V) {
  auto It = Tcalls.find(Index);
  if (It == Tcalls.end())
    return makeError("tcall #" + std::to_string(Index) + " not registered");
  return It->second(V, *this);
}

/// The ocall bridge: convention r1=request ptr, r2=request len,
/// r3=response ptr, r4=response capacity. The bridge copies the request
/// out of enclave memory, runs the untrusted handler, and copies the
/// response back in -- the host never touches EPC directly.
Expected<uint64_t> Enclave::dispatchOcall(uint32_t Index, Vm &V) {
  if (!Ocall)
    return makeError("no untrusted ocall handler installed");
  uint64_t ReqPtr = V.reg(1), ReqLen = V.reg(2);
  uint64_t RespPtr = V.reg(3), RespCap = V.reg(4);
  Bytes Request(ReqLen);
  if (ReqLen)
    if (Error E = Memory.read(ReqPtr, MutableBytesView(Request)))
      return makeError("ocall request copy-out: " + E.message());
  ELIDE_TRY(Bytes Response, Ocall(Index, Request));
  if (Response.size() > RespCap)
    return makeError("ocall response (" + std::to_string(Response.size()) +
                     " bytes) exceeds the enclave buffer (" +
                     std::to_string(RespCap) + ")");
  if (!Response.empty())
    if (Error E = Memory.write(RespPtr, Response))
      return makeError("ocall response copy-in: " + E.message());
  return Response.size();
}

Expected<Bytes> Enclave::hostOcall(uint32_t Index, BytesView Request) {
  if (!Ocall)
    return makeError("no untrusted ocall handler installed");
  return Ocall(Index, Request);
}

//===----------------------------------------------------------------------===//
// Trusted services
//===----------------------------------------------------------------------===//

Expected<Bytes> Enclave::readMemory(uint64_t Addr, uint64_t Len) {
  Bytes Out(Len);
  if (Error E = Memory.read(Addr, MutableBytesView(Out)))
    return E;
  return Out;
}

Error Enclave::writeMemory(uint64_t Addr, BytesView Data) {
  return Memory.write(Addr, Data);
}

Report Enclave::createReport(const TargetInfo &Target,
                             const ReportData &Data) const {
  Report R;
  R.Body.MrEnclave = MrEnclave;
  R.Body.MrSigner = MrSigner;
  R.Body.Attributes = Attributes;
  R.Body.Data = Data;
  // EREPORT MACs the body with the *target's* report key, which only the
  // target enclave (or the quoting enclave) can re-derive on this device.
  Aes128Key Key = Device.deriveKey128(
      "REPORT", BytesView(Target.MrEnclave.data(), Target.MrEnclave.size()));
  R.Mac = aesCmac(Key, R.Body.serialize());
  return R;
}

bool Enclave::verifyReportForMe(const Report &R) const {
  Aes128Key Key = Device.deriveKey128(
      "REPORT", BytesView(MrEnclave.data(), MrEnclave.size()));
  CmacTag Expect = aesCmac(Key, R.Body.serialize());
  return cryptoEqual(Expect.data(), R.Mac.data(), Expect.size());
}

Aes128Key Enclave::sealKeyFor(SealPolicy Policy, BytesView KeyId) const {
  Bytes Salt;
  if (Policy == SealPolicy::MrEnclave) {
    Salt.push_back(0);
    appendBytes(Salt, BytesView(MrEnclave.data(), MrEnclave.size()));
  } else {
    Salt.push_back(1);
    appendBytes(Salt, BytesView(MrSigner.data(), MrSigner.size()));
  }
  appendBytes(Salt, KeyId);
  return Device.deriveKey128("SEAL", Salt);
}

// Sealed blob layout:
//   [policy u8][keyid 16][iv 12][aadLen u32][aad][tag 16][ciphertext]
Expected<Bytes> Enclave::seal(SealPolicy Policy, BytesView Plaintext,
                              BytesView Aad) {
  Bytes KeyId = Device.rng().bytes(16);
  Bytes Iv = Device.rng().bytes(12);
  Aes128Key Key = sealKeyFor(Policy, KeyId);
  ELIDE_TRY(GcmSealed Sealed,
            aesGcmEncrypt(BytesView(Key.data(), Key.size()), Iv, Plaintext,
                          Aad));
  Bytes Blob;
  Blob.push_back(static_cast<uint8_t>(Policy));
  appendBytes(Blob, KeyId);
  appendBytes(Blob, Iv);
  appendLE32(Blob, static_cast<uint32_t>(Aad.size()));
  appendBytes(Blob, Aad);
  appendBytes(Blob, BytesView(Sealed.Tag.data(), Sealed.Tag.size()));
  appendBytes(Blob, Sealed.Ciphertext);
  return Blob;
}

Expected<Unsealed> Enclave::unseal(BytesView Blob) const {
  if (Blob.size() < 1 + 16 + 12 + 4 + 16)
    return makeError("sealed blob too short");
  uint8_t PolicyByte = Blob[0];
  if (PolicyByte > 1)
    return makeError("sealed blob has invalid policy byte");
  SealPolicy Policy = static_cast<SealPolicy>(PolicyByte);
  BytesView KeyId = Blob.subspan(1, 16);
  BytesView Iv = Blob.subspan(17, 12);
  uint32_t AadLen = readLE32(Blob.data() + 29);
  if (Blob.size() < 33ull + AadLen + 16)
    return makeError("sealed blob truncated");
  BytesView Aad = Blob.subspan(33, AadLen);
  GcmTag Tag;
  std::memcpy(Tag.data(), Blob.data() + 33 + AadLen, 16);
  BytesView Ciphertext = Blob.subspan(33 + AadLen + 16);

  Aes128Key Key = sealKeyFor(Policy, KeyId);
  Expected<Bytes> Plain = aesGcmDecrypt(BytesView(Key.data(), Key.size()),
                                        Iv, Ciphertext, Aad, Tag);
  if (!Plain)
    return makeError("unseal failed (wrong enclave identity, wrong device, "
                     "or tampered blob): " + Plain.errorMessage());
  Unsealed Out;
  Out.Plaintext = Plain.takeValue();
  Out.Aad = toBytes(Aad);
  return Out;
}

//===----------------------------------------------------------------------===//
// Page permissions (SGX1 vs SGX2)
//===----------------------------------------------------------------------===//

Expected<uint8_t> Enclave::pagePermissions(uint64_t VAddr) const {
  if (!resident(VAddr))
    return makeError("no EPC page at " + hexAddress(VAddr));
  return Pages[VAddr / EpcPageSize].Perms;
}

Error Enclave::extendPagePermissions(uint64_t VAddr, uint8_t AddPerms) {
  if (!(Attributes & AttrSgx2DynamicPerms))
    return makeError("EMODPE requires SGX2; this enclave runs under SGX1 "
                     "semantics where page permissions are fixed at load "
                     "time");
  if (!resident(VAddr))
    return makeError("no EPC page at " + hexAddress(VAddr));
  Pages[VAddr / EpcPageSize].Perms |= AddPerms;
  Memory.noteGlobalChange(); // Fetchability changed out of band.
  return Error::success();
}

Error Enclave::restrictPagePermissions(uint64_t VAddr, uint8_t DropPerms) {
  if (!(Attributes & AttrSgx2DynamicPerms))
    return makeError("EMODPR requires SGX2; this enclave runs under SGX1 "
                     "semantics where page permissions are fixed at load "
                     "time");
  if (!resident(VAddr))
    return makeError("no EPC page at " + hexAddress(VAddr));
  Pages[VAddr / EpcPageSize].Perms &= static_cast<uint8_t>(~DropPerms);
  Memory.noteGlobalChange(); // Fetchability changed out of band.
  return Error::success();
}

//===----------------------------------------------------------------------===//
// EPC eviction (EWB / ELDU): pages leave the EPC encrypted and
// integrity-protected, modeling the MEE boundary.
//===----------------------------------------------------------------------===//

Expected<Bytes> Enclave::evictPage(uint64_t VAddr) {
  uint64_t Base = VAddr & ~(EpcPageSize - 1);
  if (!resident(Base))
    return makeError("no EPC page at " + hexAddress(VAddr));
  uint64_t Index = Base / EpcPageSize;
  uint8_t Perms = Pages[Index].Perms;

  Aes128Key Key = Device.deriveKey128(
      "MEE", BytesView(MrEnclave.data(), MrEnclave.size()));
  Bytes Iv = Device.rng().bytes(12);
  Bytes Aad;
  appendLE64(Aad, Base);
  Aad.push_back(Perms);
  ELIDE_TRY(GcmSealed Sealed, aesGcmEncrypt(BytesView(Key.data(), Key.size()),
                                            Iv, PageBytes[Index], Aad));
  Bytes Blob;
  appendLE64(Blob, Base);
  Blob.push_back(Perms);
  appendBytes(Blob, Iv);
  appendBytes(Blob, BytesView(Sealed.Tag.data(), Sealed.Tag.size()));
  appendBytes(Blob, Sealed.Ciphertext);
  // Clear the entry the bus's inline path reads, then free the bytes.
  Pages[Index] = DirectPage();
  PageBytes[Index] = Bytes();
  Memory.noteGlobalChange(); // The page vanished; cached decodes are stale.
  return Blob;
}

Error Enclave::reloadPage(uint64_t VAddr, BytesView Blob) {
  uint64_t Base = VAddr & ~(EpcPageSize - 1);
  if (Blob.size() != 8 + 1 + 12 + 16 + EpcPageSize)
    return makeError("evicted page blob has wrong size");
  uint64_t BlobAddr = readLE64(Blob.data());
  if (BlobAddr != Base)
    return makeError("evicted page blob is for address " +
                     hexAddress(BlobAddr) + ", not " + hexAddress(Base));
  uint64_t Index = Base / EpcPageSize;
  if (Index >= Pages.size())
    return makeError("page " + hexAddress(Base) +
                     " is outside the enclave's EPC range");
  if (Pages[Index].Data)
    return makeError("page " + hexAddress(Base) + " is already resident");

  uint8_t Perms = Blob[8];
  BytesView Iv = Blob.subspan(9, 12);
  GcmTag Tag;
  std::memcpy(Tag.data(), Blob.data() + 21, 16);
  BytesView Ciphertext = Blob.subspan(37);

  Aes128Key Key = Device.deriveKey128(
      "MEE", BytesView(MrEnclave.data(), MrEnclave.size()));
  Bytes Aad;
  appendLE64(Aad, Base);
  Aad.push_back(Perms);
  Expected<Bytes> Plain = aesGcmDecrypt(BytesView(Key.data(), Key.size()), Iv,
                                        Ciphertext, Aad, Tag);
  if (!Plain)
    return makeError("ELDU integrity check failed: " + Plain.errorMessage());

  PageBytes[Index] = Plain.takeValue();
  Pages[Index] = {PageBytes[Index].data(), Perms};
  Memory.noteGlobalChange(); // Reloaded content replaces whatever was cached.
  return Error::success();
}
