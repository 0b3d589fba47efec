//===- sgx/Enclave.h - An initialized enclave ---------------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A running enclave: EPC pages with per-access permission checks, the
/// SVM execution environment with ecall/ocall bridging, trusted in-enclave
/// services (randomness, reports, sealing), and the EPC eviction path
/// (the MEE stand-in).
///
/// The EPC is a flat page table indexed by VAddr / EpcPageSize, sized once
/// at EINIT from the highest page EADD accepted and never resized. Its
/// entries are the ones the bus registers for `MemoryBus::direct`, so the
/// threaded engine's inline loads and stores and the virtual bus read one
/// copy of each page's permissions; eviction clears an entry before it
/// frees the page's bytes.
///
/// Security properties enforced here, which the SgxElide integration tests
/// rely on:
///  - Enclave memory is only reachable through ecalls and the explicit
///    bridge buffer copies; the host never gets a raw pointer.
///  - Page permissions are fixed at EADD (SGX1). A store to a non-writable
///    page faults -- so the Runtime Restorer works only because the
///    Sanitizer set PF_W on the text segment before signing.
///  - An access that faults on any page it spans changes nothing: every
///    page is checked before the first byte is copied.
///  - `emodpe`/`restrictPermissions` exist but fail unless the enclave was
///    signed with the SGX2 attribute (the paper's section 7 discussion).
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SGX_ENCLAVE_H
#define SGXELIDE_SGX_ENCLAVE_H

#include "sgx/SgxDevice.h"
#include "vm/Interpreter.h"

#include <functional>
#include <map>
#include <memory>

namespace elide {
namespace sgx {

/// Host-provided implementation of the untrusted side of ocalls: receives
/// the request bytes copied out of the enclave, returns response bytes to
/// copy back in.
using OcallHandler =
    std::function<Expected<Bytes>(uint32_t Index, BytesView Request)>;

/// A trusted library function (statically linked SDK code in the paper's
/// terms). Runs inside the enclave TCB with access to the VM registers and
/// enclave services.
class Enclave;
using TcallFn = std::function<Expected<uint64_t>(Vm &, Enclave &)>;

/// Result of one ecall.
struct EcallResult {
  ExecResult Exec;  ///< Halt (normal) or trap details.
  Bytes Output;     ///< Contents of the output bridge buffer.

  bool ok() const { return Exec.halted(); }
  uint64_t status() const { return Exec.ReturnValue; }
};

/// Result of unsealing: plaintext plus the additional authenticated data
/// bound at seal time.
struct Unsealed {
  Bytes Plaintext;
  Bytes Aad;
};

/// An initialized enclave (post-EINIT).
class Enclave {
public:
  //===--------------------------------------------------------------------===//
  // Identity
  //===--------------------------------------------------------------------===//

  const Measurement &mrEnclave() const { return MrEnclave; }
  const Measurement &mrSigner() const { return MrSigner; }
  uint64_t attributes() const { return Attributes; }
  bool isDebug() const { return Attributes & AttrDebug; }

  //===--------------------------------------------------------------------===//
  // Untrusted runtime setup (the loader configures these)
  //===--------------------------------------------------------------------===//

  /// Binds ecall names to bridge-function addresses (from the image's
  /// ecall manifest).
  void setEcallTable(std::map<std::string, uint64_t> Table) {
    Ecalls = std::move(Table);
  }

  /// Configures the bridge arena (heap) and initial stack pointer.
  void setLayout(uint64_t HeapBaseAddr, uint64_t HeapSizeBytes,
                 uint64_t StackTopAddr) {
    HeapBase = HeapBaseAddr;
    HeapSize = HeapSizeBytes;
    StackTop = StackTopAddr;
  }

  /// Registers a trusted library function at a tcall index.
  void registerTcall(uint32_t Index, TcallFn Fn) {
    Tcalls[Index] = std::move(Fn);
  }

  /// Installs the untrusted ocall dispatcher.
  void setOcallHandler(OcallHandler Handler) { Ocall = std::move(Handler); }

  /// Records a symbol address from the image (trusted code may query its
  /// own layout, as the SDK runtime does).
  void setSymbolAddress(const std::string &Name, uint64_t VAddr) {
    SymbolAddrs[Name] = VAddr;
  }
  Expected<uint64_t> symbolAddress(const std::string &Name) const;

  /// Sets the per-ecall instruction budget (runaway guard).
  void setInstructionBudget(uint64_t Budget) { InstructionBudget = Budget; }

  /// The current per-ecall instruction budget (the supervisor saves and
  /// restores it around a chaos-clamped ecall).
  uint64_t instructionBudget() const { return InstructionBudget; }

  /// Resolves an exported ecall name to its bridge-function address (the
  /// execution-side fault injector scribbles over entry points by name).
  Expected<uint64_t> ecallAddress(const std::string &Name) const;

  /// Selects the SVM execution backend for subsequent ecalls (the loader
  /// applies `EnclaveLayout::SvmBackend`; `--svm-backend` reaches here).
  /// A stateful engine's decoded-code cache persists across ecalls until
  /// the kind changes.
  void setVmBackend(VmBackendKind Kind);
  VmBackendKind vmBackend() const { return BackendKind; }

  /// Total architectural SVM instructions retired across all ecalls so
  /// far (the dispatch-ablation bench derives instructions/sec from it).
  uint64_t instructionsRetired() const { return RetiredTotal; }

  //===--------------------------------------------------------------------===//
  // Entry
  //===--------------------------------------------------------------------===//

  /// Invokes an exported ecall by name. \p Input is copied into the
  /// enclave's bridge arena; up to \p OutputCapacity bytes are copied back
  /// out. Fails for unknown ecalls or oversized buffers; VM traps are
  /// reported in the result, not as errors.
  Expected<EcallResult> ecall(const std::string &Name, BytesView Input,
                              size_t OutputCapacity);

  //===--------------------------------------------------------------------===//
  // Trusted services (used by tcall implementations -- in-enclave code)
  //===--------------------------------------------------------------------===//

  /// Direct memory access through the permission-checking bus.
  Expected<Bytes> readMemory(uint64_t Addr, uint64_t Len);
  Error writeMemory(uint64_t Addr, BytesView Data);

  /// EREPORT: creates a report targeted at another enclave.
  Report createReport(const TargetInfo &Target, const ReportData &Data) const;

  /// Verifies a report that was targeted at *this* enclave.
  bool verifyReportForMe(const Report &R) const;

  /// Seals data with a hardware-derived key (sgx_seal_data).
  Expected<Bytes> seal(SealPolicy Policy, BytesView Plaintext, BytesView Aad);

  /// Unseals a blob sealed by `seal` under a compatible policy/identity.
  Expected<Unsealed> unseal(BytesView Blob) const;

  /// Issues an ocall on behalf of trusted native code (the SDK bridge).
  Expected<Bytes> hostOcall(uint32_t Index, BytesView Request);

  /// In-enclave randomness (sgx_read_rand).
  Drbg &trustedRng() { return Device.rng(); }

  /// SGX2 EMODPE: extends a page's permissions at runtime. Fails under
  /// SGX1 (the default), reproducing the constraint that motivates the
  /// paper's static-PF_W design.
  Error extendPagePermissions(uint64_t VAddr, uint8_t AddPerms);

  /// SGX2 permission restriction (simplified EMODPR+EACCEPT): removes
  /// permissions, e.g. revoking W from the text section after restoration.
  Error restrictPagePermissions(uint64_t VAddr, uint8_t DropPerms);

  /// Returns a page's current permissions.
  Expected<uint8_t> pagePermissions(uint64_t VAddr) const;

  //===--------------------------------------------------------------------===//
  // EPC paging (EWB / ELDU with memory-encryption)
  //===--------------------------------------------------------------------===//

  /// Evicts a page: returns the encrypted+authenticated blob and removes
  /// the page (accesses fault until reloaded).
  Expected<Bytes> evictPage(uint64_t VAddr);

  /// Reloads an evicted page; fails if the blob was tampered with or
  /// belongs to a different address.
  Error reloadPage(uint64_t VAddr, BytesView Blob);

private:
  friend class SgxDevice::Builder;
  Enclave(SgxDevice &Device) : Device(Device), Memory(*this) {}

  /// The permission-enforcing memory bus handed to the VM.
  class EnclaveBus : public MemoryBus {
  public:
    explicit EnclaveBus(Enclave &Owner) : Owner(Owner) {}
    Error read(uint64_t Addr, MutableBytesView Out) override;
    Error write(uint64_t Addr, BytesView Data) override;
    Error fetch(uint64_t Addr, uint8_t Out[8]) override;

    /// Registers the owner's page table for `direct` (once, at EINIT).
    void attachPages() {
      setDirectPages(Owner.Pages.data(), Owner.Pages.size());
    }

  private:
    Error access(uint64_t Addr, uint64_t Size, uint8_t NeedPerm,
                 uint8_t *ReadInto, const uint8_t *WriteFrom);
    Enclave &Owner;
  };

  /// True when the page holding \p VAddr was added and is not evicted.
  bool resident(uint64_t VAddr) const {
    uint64_t Index = VAddr / EpcPageSize;
    return Index < Pages.size() && Pages[Index].Data;
  }

  Aes128Key sealKeyFor(SealPolicy Policy, BytesView KeyId) const;
  Expected<uint64_t> dispatchTcall(uint32_t Index, Vm &V);
  Expected<uint64_t> dispatchOcall(uint32_t Index, Vm &V);

  SgxDevice &Device;
  EnclaveBus Memory;
  /// The EPC page table: host bytes (in PageBytes) and permissions per
  /// page. A page that is not resident has a null pointer and no perms.
  std::vector<DirectPage> Pages;
  std::vector<Bytes> PageBytes; ///< Owns each resident page's bytes.
  Measurement MrEnclave{};
  Measurement MrSigner{};
  uint64_t Attributes = 0;

  std::map<std::string, uint64_t> Ecalls;
  std::map<uint32_t, TcallFn> Tcalls;
  std::map<std::string, uint64_t> SymbolAddrs;
  OcallHandler Ocall;
  uint64_t HeapBase = 0;
  uint64_t HeapSize = 0;
  uint64_t StackTop = 0;
  uint64_t InstructionBudget = 1ull << 32;
  VmBackendKind BackendKind = defaultVmBackendKind();
  std::shared_ptr<ExecBackend> VmEngine; ///< Shared across per-ecall Vms.
  uint64_t RetiredTotal = 0;
};

} // namespace sgx
} // namespace elide

#endif // SGXELIDE_SGX_ENCLAVE_H
