//===- vm/ExecBackend.h - Pluggable SVM execution engines -------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-backend seam behind `Vm::run`. A backend owns nothing
/// architectural: registers, call stack, handlers, and the memory bus all
/// live in the `Vm`, so backends are interchangeable mid-process and a
/// differential harness can replay one program on every engine and demand
/// bit-identical outcomes (ExecResult, registers, retired count, memory).
///
/// Contract every backend must honor, in reference (SwitchBackend) terms:
///
///  - Per-instruction order: budget check, alignment check, fetch, retire,
///    execute. Budget and alignment traps do not retire the instruction;
///    fetch faults do not retire; every instruction that begins executing
///    (including one that then traps) retires.
///  - `InstructionsRetired` counts *architectural* instructions. A fused
///    superinstruction retires its component count, and fusion never
///    crosses the budget boundary: when fewer component slots remain in
///    the budget than a fusion needs, the components run (and trap)
///    individually, exactly like the reference.
///  - Trap PCs are the architectural PC of the faulting instruction, even
///    mid-superinstruction.
///  - Cached decoded code must be invalidated by writes into its range --
///    the bus write journal (MemoryBus::forEachWriteSince) is the source
///    of truth for writes the backend did not itself perform (restore
///    writes into `.text` from tcall handlers being the paper's case).
///  - A load or store may go through `MemoryBus::direct`. Every access it
///    refuses takes the virtual `read`/`write`, which owns faults and
///    their messages; a store through a `direct` pointer is journaled
///    with `noteWrite`, as `write` would journal it. The reference engine
///    never takes the inline path.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_VM_EXECBACKEND_H
#define SGXELIDE_VM_EXECBACKEND_H

#include "vm/Interpreter.h"

#include <string_view>

namespace elide {

/// Returns the flag/JSON name of a backend kind ("switch", "threaded").
const char *vmBackendKindName(VmBackendKind Kind);

/// Parses a backend name as accepted by `--svm-backend`.
Expected<VmBackendKind> parseVmBackendKind(std::string_view Name);

/// Every selectable backend kind, in a stable order (reference first).
const std::vector<VmBackendKind> &allVmBackendKinds();

/// Creates a fresh backend instance of the given kind.
std::unique_ptr<ExecBackend> createExecBackend(VmBackendKind Kind);

/// An execution engine. Stateless engines ignore instance reuse; stateful
/// ones (decoded-code caches) key their state off the bus and epoch.
class ExecBackend {
public:
  virtual ~ExecBackend();

  /// Executes from \p StartPc for at most \p Budget architectural
  /// instructions. Does not clear the call stack -- `Vm::run` does.
  virtual ExecResult run(Vm &M, uint64_t StartPc, uint64_t Budget) = 0;

  virtual VmBackendKind kind() const = 0;

protected:
  // Backends are the only code that touches Vm private state; these
  // accessors keep the friendship surface explicit and auditable.
  static MemoryBus &bus(Vm &M) { return M.Bus; }
  static uint64_t *regs(Vm &M) { return M.Regs; }
  static std::vector<uint64_t> &callStack(Vm &M) { return M.CallStack; }
  static size_t maxCallDepth(const Vm &M) { return M.MaxCallDepth; }
  static CallHandler &tcallHandler(Vm &M) { return M.Tcall; }
  static CallHandler &ocallHandler(Vm &M) { return M.Ocall; }
};

namespace vmdetail {

/// Diagnostic hex formatting shared by the backends: fault messages must
/// be byte-identical across engines or the differential harness trips on
/// wording instead of semantics.
std::string hexPc(uint64_t Pc);

std::string illegalMessage(uint64_t Pc);
std::string undefinedMessage(uint8_t RawOpcode);
std::string unalignedMessage(uint64_t Pc);
std::string budgetMessage(uint64_t Budget);
std::string depthMessage(size_t MaxDepth);

} // namespace vmdetail

/// The reference engine: decode-and-switch per instruction, exactly the
/// semantics every other backend is measured against.
class SwitchBackend final : public ExecBackend {
public:
  ExecResult run(Vm &M, uint64_t StartPc, uint64_t Budget) override;
  VmBackendKind kind() const override { return VmBackendKind::Switch; }
};

/// The fast engine: pre-decodes bytecode into an internal IR (decoded
/// instruction slots, branch targets resolved to slot indices), dispatches
/// via computed goto (portable switch fallback on non-GNU compilers), and
/// fuses hot instruction pairs into superinstructions:
///
///   cmp+branch   Seq/Sne/SltU/SltS/SleU/SleS rd,...  ;  Beqz/Bnez rd
///   const64      LdI rd, lo  ;  LdIH rd, hi
///   addr-mem     AddI rb, rs, d1  ;  Ld*/St* using base rb (+d2)
///
/// The decoded window persists across runs on the same bus; stores the
/// program makes into the window and writes reported by the bus journal
/// (restore!) invalidate exactly the slots they cover.
class ThreadedBackend final : public ExecBackend {
public:
  ExecResult run(Vm &M, uint64_t StartPc, uint64_t Budget) override;
  VmBackendKind kind() const override { return VmBackendKind::Threaded; }

  /// Observability for tests and the dispatch ablation bench.
  struct Stats {
    uint64_t WindowBuilds = 0;    ///< Full window (re)decodes.
    uint64_t PartialRedecodes = 0;///< Range-keyed invalidations applied.
    uint64_t FusedPairs = 0;      ///< Superinstructions formed at decode.
    uint64_t SwitchFallbacks = 0; ///< Runs handed to the reference engine.
  };
  const Stats &stats() const { return Stat; }

  /// The decoded window currently spans [0, limit) bytes of the bus.
  uint64_t windowLimit() const { return SlotsDecoded * SvmInstrSize; }

private:
  struct DecodedInsn {
    uint8_t H;    ///< Dispatch handler (possibly a superinstruction).
    uint8_t Base; ///< Unfused handler for this slot (budget-boundary path).
    uint8_t Rd, Rs1, Rs2;
    uint8_t Raw0; ///< Raw opcode byte (diagnostics for undefined opcodes).
    int32_t Imm;
    int32_t Target; ///< Branch target slot index, or -1 for the slow path.
  };
  static_assert(sizeof(uint64_t) >= sizeof(int32_t), "layout sanity");

  void decodeRange(Vm &M, uint64_t FirstSlot, uint64_t EndSlot);
  bool ensureWindow(Vm &M, uint64_t Pc);
  void applyWriteRange(Vm &M, uint64_t Lo, uint64_t Hi);
  /// Catches up with bus writes since the last sync; returns false when
  /// the journal truncated and a full rebuild was performed.
  void syncWithBus(Vm &M);

  std::vector<DecodedInsn> Slots;
  uint64_t SlotsDecoded = 0;
  uint64_t SyncedEpoch = 0;
  MemoryBus *CachedBus = nullptr;
  Stats Stat;
};

} // namespace elide

#endif // SGXELIDE_VM_EXECBACKEND_H
