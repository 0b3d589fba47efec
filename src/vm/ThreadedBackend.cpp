//===- vm/ThreadedBackend.cpp - Pre-decoding threaded-dispatch engine -------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fast SVM engine. Bytecode is decoded once into a window of
/// `DecodedInsn` slots (slot index == pc / 8; the window base is pinned at
/// 0 so indices survive growth), then executed by jumping handler-to-
/// handler through a computed-goto table -- or a plain switch on compilers
/// without the GNU labels-as-values extension.
///
/// Three superinstruction families are fused at decode time:
///
///   cmp+branch   Seq/Sne/SltU/SltS/SleU/SleS rd  ;  Beqz/Bnez rd
///   const64      LdI rd, lo                      ;  LdIH rd, hi
///   addr-mem     AddI rb, rs, d1                 ;  Ld*/St* rb-based
///
/// Fusion rewrites only the FIRST slot of the pair; the second keeps its
/// own decode, so a branch landing mid-pair executes the plain second
/// instruction. Every fused slot remembers its unfused handler (`Base`)
/// and keeps the first instruction's operand fields intact, which makes
/// two operations O(1): de-fusing when the second slot's bytes change,
/// and falling back to the lone first instruction when fewer budget slots
/// remain than the fusion would retire.
///
/// Invalidation is lazy. Writes the engine performs itself (store
/// handlers) and writes reported by the bus journal (tcall/ocall restore
/// writes -- the paper's case) mark covered slots `Redecode` and de-fuse
/// the preceding slot; the actual re-decode happens only if the slot is
/// executed again. A truncated journal or `noteGlobalChange` marks the
/// whole window stale the same way.
///
/// Loads and stores ask the bus's inline page table first
/// (`MemoryBus::direct`): an access inside one page that grants the
/// permission touches host memory with no virtual call. Everything else
/// takes the virtual read/write, so faults, their messages and trap PCs
/// are the reference engine's; a store journals itself either way.
///
/// Anything the window cannot represent (pc beyond the 4 MiB span cap,
/// i.e. a wild jump) hands the rest of the run to the reference
/// SwitchBackend, whose outcome is merged back budget-correctly.
///
//===----------------------------------------------------------------------===//

#include "vm/ExecBackend.h"

#include <cstring>

using namespace elide;

namespace {

/// Dispatch handler ids. One per opcode (same spelling), plus decode
/// states, plus the superinstructions. Table order below must match.
#define VM_HANDLER_LIST(X)                                                     \
  X(Illegal) X(Nop)                                                            \
  X(Add) X(Sub) X(Mul) X(DivU) X(DivS) X(RemU) X(RemS)                         \
  X(And) X(Or) X(Xor) X(Shl) X(ShrL) X(ShrA)                                   \
  X(AddI) X(MulI) X(AndI) X(OrI) X(XorI) X(ShlI) X(ShrLI) X(ShrAI)             \
  X(LdI) X(LdIH)                                                               \
  X(Seq) X(Sne) X(SltU) X(SltS) X(SleU) X(SleS)                                \
  X(LdBU) X(LdBS) X(LdHU) X(LdHS) X(LdWU) X(LdWS) X(LdD)                       \
  X(StB) X(StH) X(StW) X(StD)                                                  \
  X(Jmp) X(Beqz) X(Bnez) X(Call) X(CallR) X(Ret)                               \
  X(Ocall) X(Tcall) X(Halt) X(Trap)                                            \
  X(Undefined) X(FetchFault) X(Redecode)                                       \
  X(FSeqBeqz) X(FSneBeqz) X(FSltUBeqz) X(FSltSBeqz) X(FSleUBeqz) X(FSleSBeqz)  \
  X(FSeqBnez) X(FSneBnez) X(FSltUBnez) X(FSltSBnez) X(FSleUBnez) X(FSleSBnez)  \
  X(FLdI64)                                                                    \
  X(FAddILdBU) X(FAddILdBS) X(FAddILdHU) X(FAddILdHS) X(FAddILdWU)             \
  X(FAddILdWS) X(FAddILdD)                                                     \
  X(FAddIStB) X(FAddIStH) X(FAddIStW) X(FAddIStD)

enum Handler : uint8_t {
#define VM_H(Name) H_##Name,
  VM_HANDLER_LIST(VM_H)
#undef VM_H
};

/// Maps a raw opcode byte to its base handler (H_Undefined for holes).
Handler baseHandler(uint8_t Raw) {
  switch (static_cast<Opcode>(Raw)) {
#define VM_OP(Name)                                                            \
  case Opcode::Name:                                                           \
    return H_##Name;
    VM_OP(Illegal) VM_OP(Nop)
    VM_OP(Add) VM_OP(Sub) VM_OP(Mul) VM_OP(DivU) VM_OP(DivS)
    VM_OP(RemU) VM_OP(RemS)
    VM_OP(And) VM_OP(Or) VM_OP(Xor) VM_OP(Shl) VM_OP(ShrL) VM_OP(ShrA)
    VM_OP(AddI) VM_OP(MulI) VM_OP(AndI) VM_OP(OrI) VM_OP(XorI)
    VM_OP(ShlI) VM_OP(ShrLI) VM_OP(ShrAI)
    VM_OP(LdI) VM_OP(LdIH)
    VM_OP(Seq) VM_OP(Sne) VM_OP(SltU) VM_OP(SltS) VM_OP(SleU) VM_OP(SleS)
    VM_OP(LdBU) VM_OP(LdBS) VM_OP(LdHU) VM_OP(LdHS) VM_OP(LdWU) VM_OP(LdWS)
    VM_OP(LdD)
    VM_OP(StB) VM_OP(StH) VM_OP(StW) VM_OP(StD)
    VM_OP(Jmp) VM_OP(Beqz) VM_OP(Bnez) VM_OP(Call) VM_OP(CallR) VM_OP(Ret)
    VM_OP(Ocall) VM_OP(Tcall) VM_OP(Halt) VM_OP(Trap)
#undef VM_OP
  }
  return H_Undefined;
}

/// cmp handler id -> the fused cmp+branch id, or -1 when not a cmp.
int fusedCmpBranch(Handler CmpH, bool IsBnez) {
  if (CmpH < H_Seq || CmpH > H_SleS)
    return -1;
  int Offset = CmpH - H_Seq;
  return (IsBnez ? H_FSeqBnez : H_FSeqBeqz) + Offset;
}

/// load/store handler id -> the fused AddI+mem id, or -1.
int fusedAddIMem(Handler MemH) {
  if (MemH >= H_LdBU && MemH <= H_LdD)
    return H_FAddILdBU + (MemH - H_LdBU);
  if (MemH >= H_StB && MemH <= H_StD)
    return H_FAddIStB + (MemH - H_StB);
  return -1;
}

/// Window span cap: pc at or beyond this delegates to the switch engine
/// (covers wild jumps without letting them balloon the slot vector).
constexpr uint64_t MaxWindowSlots = (4ull << 20) / SvmInstrSize;

/// First allocation: covers typical enclave text plus room to grow.
constexpr uint64_t MinWindowSlots = 1024;

/// Little-endian load and store of \p Size bytes through a host pointer
/// from `MemoryBus::direct`.
template <unsigned Size> uint64_t loadHost(const uint8_t *P) {
  uint8_t Buf[8] = {0};
  std::memcpy(Buf, P, Size);
  return readLE64(Buf);
}
template <unsigned Size> void storeHost(uint8_t *P, uint64_t V) {
  uint8_t Buf[8];
  writeLE64(Buf, V);
  std::memcpy(P, Buf, Size);
}

} // namespace

void ThreadedBackend::decodeRange(Vm &M, uint64_t FirstSlot, uint64_t EndSlot) {
  MemoryBus &Bus = bus(M);
  for (uint64_t S = FirstSlot; S < EndSlot; ++S) {
    DecodedInsn &D = Slots[S];
    D.Target = -1;
    uint8_t Raw[8];
    if (Bus.fetch(S * SvmInstrSize, Raw)) {
      D.H = D.Base = H_FetchFault;
      D.Rd = D.Rs1 = D.Rs2 = D.Raw0 = 0;
      D.Imm = 0;
      continue;
    }
    Instruction I = decodeInstruction(Raw);
    D.H = D.Base = static_cast<uint8_t>(baseHandler(Raw[0]));
    D.Rd = I.Rd;
    D.Rs1 = I.Rs1;
    D.Rs2 = I.Rs2;
    D.Raw0 = Raw[0];
    D.Imm = I.Imm;

    // Resolve direct control-transfer targets to slot indices. A target
    // that is misaligned or out of int32 slot range keeps -1 and takes
    // the slow (recomputed) path at run time.
    if (D.Base == H_Jmp || D.Base == H_Beqz || D.Base == H_Bnez ||
        D.Base == H_Call) {
      uint64_t TargetPc = S * SvmInstrSize + static_cast<uint64_t>(
                              static_cast<int64_t>(I.Imm));
      if (TargetPc % SvmInstrSize == 0 &&
          TargetPc / SvmInstrSize <= static_cast<uint64_t>(INT32_MAX))
        D.Target = static_cast<int32_t>(TargetPc / SvmInstrSize);
    }

    // Superinstruction fusion with the next slot. Only this slot's
    // handler changes; fields the Base (unfused) handler reads -- Rd,
    // Rs1, and for AddI/LdI the Imm -- stay the first instruction's, so
    // de-fusing is a one-byte rollback.
    uint8_t Raw2[8];
    if (Bus.fetch((S + 1) * SvmInstrSize, Raw2))
      continue;
    Instruction I2 = decodeInstruction(Raw2);
    Handler H2 = baseHandler(Raw2[0]);

    if ((H2 == H_Beqz || H2 == H_Bnez) && I2.Rs1 == I.Rd) {
      int Fused = fusedCmpBranch(static_cast<Handler>(D.Base), H2 == H_Bnez);
      if (Fused >= 0) {
        D.H = static_cast<uint8_t>(Fused);
        D.Imm = I2.Imm; // Branch displacement (cmp has no immediate).
        uint64_t TargetPc = (S + 1) * SvmInstrSize +
                            static_cast<uint64_t>(static_cast<int64_t>(I2.Imm));
        D.Target = -1;
        if (TargetPc % SvmInstrSize == 0 &&
            TargetPc / SvmInstrSize <= static_cast<uint64_t>(INT32_MAX))
          D.Target = static_cast<int32_t>(TargetPc / SvmInstrSize);
        ++Stat.FusedPairs;
      }
    } else if (D.Base == H_LdI && H2 == H_LdIH && I2.Rd == I.Rd) {
      D.H = H_FLdI64;
      D.Target = I2.Imm; // High 32 bits; Imm keeps the low (LdI) half.
      ++Stat.FusedPairs;
    } else if (D.Base == H_AddI && I2.Rs1 == I.Rd) {
      int Fused = fusedAddIMem(H2);
      if (Fused >= 0) {
        D.H = static_cast<uint8_t>(Fused);
        D.Rs2 = (Fused >= H_FAddIStB) ? I2.Rs2 : I2.Rd; // Store src / load dst.
        D.Target = I2.Imm; // Second displacement; Imm keeps the AddI's.
        ++Stat.FusedPairs;
      }
    }
  }
}

bool ThreadedBackend::ensureWindow(Vm &M, uint64_t Pc) {
  uint64_t Slot = Pc / SvmInstrSize;
  if (Slot < SlotsDecoded)
    return true;
  if (Slot >= MaxWindowSlots)
    return false;
  uint64_t NewCount = SlotsDecoded * 2;
  if (NewCount < MinWindowSlots)
    NewCount = MinWindowSlots;
  if (NewCount < Slot + 1)
    NewCount = Slot + 1;
  if (NewCount > MaxWindowSlots)
    NewCount = MaxWindowSlots;
  Slots.resize(NewCount);
  decodeRange(M, SlotsDecoded, NewCount);
  SlotsDecoded = NewCount;
  ++Stat.WindowBuilds;
  return true;
}

void ThreadedBackend::applyWriteRange(Vm &M, uint64_t Lo, uint64_t Hi) {
  (void)M;
  if (Hi <= Lo || SlotsDecoded == 0)
    return;
  uint64_t First = Lo / SvmInstrSize;
  // First > SlotsDecoded: even the slot pairing with the window's last
  // entry is untouched. First == SlotsDecoded still de-fuses the edge.
  if (First > SlotsDecoded)
    return;
  if (First > 0) {
    // The preceding slot may hold a superinstruction that captured the
    // now-stale second half; roll it back to its own first instruction.
    DecodedInsn &P = Slots[First - 1];
    P.H = P.Base;
  }
  uint64_t EndSlot = (Hi - 1) / SvmInstrSize + 1;
  if (EndSlot > SlotsDecoded)
    EndSlot = SlotsDecoded;
  for (uint64_t S = First; S < EndSlot; ++S)
    Slots[S].H = Slots[S].Base = H_Redecode;
  ++Stat.PartialRedecodes;
}

void ThreadedBackend::syncWithBus(Vm &M) {
  MemoryBus &Bus = bus(M);
  uint64_t Epoch = Bus.writeEpoch();
  if (Epoch == SyncedEpoch)
    return;
  bool Complete = Bus.forEachWriteSince(
      SyncedEpoch, [&](uint64_t Lo, uint64_t Hi) { applyWriteRange(M, Lo, Hi); });
  if (!Complete) {
    // Journal truncated: every decoded slot is suspect.
    for (uint64_t S = 0; S < SlotsDecoded; ++S)
      Slots[S].H = Slots[S].Base = H_Redecode;
    ++Stat.WindowBuilds;
  }
  SyncedEpoch = Epoch;
}

// Computed goto needs the GNU labels-as-values extension; everyone else
// gets a structurally identical switch. ELIDE_VM_NO_COMPUTED_GOTO forces
// the portable path (the differential suite exercises both).
#if (defined(__GNUC__) || defined(__clang__)) &&                               \
    !defined(ELIDE_VM_NO_COMPUTED_GOTO)
#define ELIDE_VM_COMPUTED_GOTO 1
#else
#define ELIDE_VM_COMPUTED_GOTO 0
#endif

#if ELIDE_VM_COMPUTED_GOTO
#define VM_CASE(Name) L_##Name:
#define VM_DISPATCH_BODY goto *Jump[H]
#else
#define VM_CASE(Name) case H_##Name:
#define VM_DISPATCH_BODY                                                       \
  switch (H) { VM_HANDLER_BODIES }
#endif

// Straight-line epilogues: retire and advance.
#define VM_NEXT1                                                               \
  do {                                                                         \
    ++Count;                                                                   \
    Pc += SvmInstrSize;                                                        \
    goto CheckTop;                                                             \
  } while (0)
#define VM_NEXT2                                                               \
  do {                                                                         \
    Count += 2;                                                                \
    Pc += 2 * SvmInstrSize;                                                    \
    goto CheckTop;                                                             \
  } while (0)

// A fused pair may not cross the budget boundary: when only one slot of
// budget remains, run the lone first instruction exactly like the
// reference would.
#define VM_FUSION_GUARD                                                        \
  do {                                                                         \
    if (Budget - Count < 2) {                                                  \
      H = D->Base;                                                             \
      goto Dispatch;                                                           \
    }                                                                          \
  } while (0)

ExecResult ThreadedBackend::run(Vm &M, uint64_t StartPc, uint64_t Budget) {
  MemoryBus &Bus = bus(M);
  std::vector<uint64_t> &CallStack = callStack(M);
  const size_t MaxCallDepth = maxCallDepth(M);

  if (CachedBus != &Bus) {
    // Different bus: the decoded window describes someone else's memory.
    CachedBus = &Bus;
    Slots.clear();
    SlotsDecoded = 0;
    SyncedEpoch = Bus.writeEpoch();
  } else {
    syncWithBus(M); // Catch up on writes between runs (sealed restores).
  }

  uint64_t Pc = StartPc;
  uint64_t Count = 0; // Architectural instructions retired so far.
  uint64_t Slot = 0;
  const DecodedInsn *D = nullptr;
  uint8_t H = H_Redecode;

  auto Trap = [](TrapKind Kind, uint64_t AtPc, std::string Message,
                 uint64_t Retired) {
    ExecResult R;
    R.Kind = Kind;
    R.Pc = AtPc;
    R.Message = std::move(Message);
    R.InstructionsRetired = Retired;
    return R;
  };

  // After a handler writes memory (stores and fused stores), fold the
  // write into the decoded window immediately -- the very next slot may
  // be what it overwrote. The journal entry for the same write is then
  // already applied, so the epoch advances with it.
  auto NoteSelfWrite = [&](uint64_t Addr, uint64_t Size) {
    applyWriteRange(M, Addr, Addr + Size);
    uint64_t Epoch = Bus.writeEpoch();
    if (Epoch == SyncedEpoch + 1)
      SyncedEpoch = Epoch; // The journal entry is our own write, just applied.
    else
      syncWithBus(M); // Unjournaled bus or writes raced in: resync fully.
  };

#if ELIDE_VM_COMPUTED_GOTO
  static const void *Jump[] = {
#define VM_H(Name) &&L_##Name,
      VM_HANDLER_LIST(VM_H)
#undef VM_H
  };
#endif

CheckTop:
  // Reference per-instruction order: budget, alignment, fetch (here:
  // decoded-slot availability), retire, execute.
  if (Count >= Budget)
    return Trap(TrapKind::BudgetExhausted, Pc, vmdetail::budgetMessage(Budget),
                Count);
  if (Pc % SvmInstrSize != 0)
    return Trap(TrapKind::UnalignedPc, Pc, vmdetail::unalignedMessage(Pc),
                Count);
  Slot = Pc / SvmInstrSize;
  if (Slot >= SlotsDecoded && !ensureWindow(M, Pc))
    goto SwitchFallback;
  D = &Slots[Slot];
  H = D->H;

Dispatch:
#if ELIDE_VM_COMPUTED_GOTO
  VM_DISPATCH_BODY;
#endif

  // In portable mode the handler bodies are the switch cases; in
  // computed-goto mode they are labels and the switch wrapper vanishes.
#define VM_HANDLER_BODIES                                                      \
  VM_CASE(Redecode) {                                                          \
    decodeRange(M, Slot, Slot + 1);                                            \
    H = D->H;                                                                  \
    goto Dispatch;                                                             \
  }                                                                            \
                                                                               \
  VM_CASE(FetchFault) {                                                        \
    uint8_t Raw[8];                                                            \
    if (Error E = Bus.fetch(Pc, Raw))                                          \
      return Trap(TrapKind::MemoryFault, Pc, "fetch: " + E.message(), Count);  \
    /* Fetch succeeds now (stale decode): refresh and retry the slot. */       \
    decodeRange(M, Slot, Slot + 1);                                            \
    H = D->H;                                                                  \
    goto Dispatch;                                                             \
  }                                                                            \
                                                                               \
  VM_CASE(Illegal)                                                             \
  return Trap(TrapKind::IllegalInstruction, Pc, vmdetail::illegalMessage(Pc),  \
              Count + 1);                                                      \
                                                                               \
  VM_CASE(Undefined)                                                           \
  return Trap(TrapKind::IllegalInstruction, Pc,                                \
              vmdetail::undefinedMessage(D->Raw0), Count + 1);                 \
                                                                               \
  VM_CASE(Nop) { VM_NEXT1; }                                                   \
                                                                               \
  VM_ALU_RR(Add, A + B)                                                        \
  VM_ALU_RR(Sub, A - B)                                                        \
  VM_ALU_RR(Mul, A *B)                                                         \
  VM_ALU_RR(And, A &B)                                                         \
  VM_ALU_RR(Or, A | B)                                                         \
  VM_ALU_RR(Xor, A ^ B)                                                        \
  VM_ALU_RR(Shl, A << (B & 63))                                                \
  VM_ALU_RR(ShrL, A >> (B & 63))                                               \
  VM_ALU_RR(ShrA,                                                              \
            static_cast<uint64_t>(static_cast<int64_t>(A) >> (B & 63)))        \
                                                                               \
  VM_CASE(DivU) {                                                              \
    uint64_t B = M.reg(D->Rs2);                                                \
    if (B == 0)                                                                \
      return Trap(TrapKind::DivideByZero, Pc, "divu", Count + 1);              \
    M.setReg(D->Rd, M.reg(D->Rs1) / B);                                        \
    VM_NEXT1;                                                                  \
  }                                                                            \
  VM_CASE(DivS) {                                                              \
    uint64_t A = M.reg(D->Rs1), B = M.reg(D->Rs2);                             \
    if (B == 0)                                                                \
      return Trap(TrapKind::DivideByZero, Pc, "divs", Count + 1);              \
    if (static_cast<int64_t>(A) == INT64_MIN && static_cast<int64_t>(B) == -1) \
      M.setReg(D->Rd, A);                                                      \
    else                                                                       \
      M.setReg(D->Rd, static_cast<uint64_t>(static_cast<int64_t>(A) /         \
                                            static_cast<int64_t>(B)));        \
    VM_NEXT1;                                                                  \
  }                                                                            \
  VM_CASE(RemU) {                                                              \
    uint64_t B = M.reg(D->Rs2);                                                \
    if (B == 0)                                                                \
      return Trap(TrapKind::DivideByZero, Pc, "remu", Count + 1);              \
    M.setReg(D->Rd, M.reg(D->Rs1) % B);                                        \
    VM_NEXT1;                                                                  \
  }                                                                            \
  VM_CASE(RemS) {                                                              \
    uint64_t A = M.reg(D->Rs1), B = M.reg(D->Rs2);                             \
    if (B == 0)                                                                \
      return Trap(TrapKind::DivideByZero, Pc, "rems", Count + 1);              \
    if (static_cast<int64_t>(A) == INT64_MIN && static_cast<int64_t>(B) == -1) \
      M.setReg(D->Rd, 0);                                                      \
    else                                                                       \
      M.setReg(D->Rd, static_cast<uint64_t>(static_cast<int64_t>(A) %         \
                                            static_cast<int64_t>(B)));        \
    VM_NEXT1;                                                                  \
  }                                                                            \
                                                                               \
  VM_ALU_RI(AddI, A + Imm)                                                     \
  VM_ALU_RI(MulI, A *Imm)                                                      \
  VM_ALU_RI(AndI, A &Imm)                                                      \
  VM_ALU_RI(OrI, A | Imm)                                                      \
  VM_ALU_RI(XorI, A ^ Imm)                                                     \
  VM_ALU_RI(ShlI, A << (D->Imm & 63))                                          \
  VM_ALU_RI(ShrLI, A >> (D->Imm & 63))                                         \
  VM_ALU_RI(ShrAI,                                                             \
            static_cast<uint64_t>(static_cast<int64_t>(A) >> (D->Imm & 63)))   \
                                                                               \
  VM_CASE(LdI) {                                                               \
    M.setReg(D->Rd, static_cast<uint64_t>(static_cast<int64_t>(D->Imm)));      \
    VM_NEXT1;                                                                  \
  }                                                                            \
  VM_CASE(LdIH) {                                                              \
    M.setReg(D->Rd,                                                            \
             (M.reg(D->Rd) & 0xffffffffULL) |                                  \
                 (static_cast<uint64_t>(static_cast<uint32_t>(D->Imm)) << 32));\
    VM_NEXT1;                                                                  \
  }                                                                            \
                                                                               \
  VM_ALU_RR(Seq, A == B ? 1 : 0)                                               \
  VM_ALU_RR(Sne, A != B ? 1 : 0)                                               \
  VM_ALU_RR(SltU, A < B ? 1 : 0)                                               \
  VM_ALU_RR(SltS,                                                              \
            static_cast<int64_t>(A) < static_cast<int64_t>(B) ? 1 : 0)         \
  VM_ALU_RR(SleU, A <= B ? 1 : 0)                                              \
  VM_ALU_RR(SleS,                                                              \
            static_cast<int64_t>(A) <= static_cast<int64_t>(B) ? 1 : 0)        \
                                                                               \
  VM_LOAD(LdBU, 1, V = V)                                                      \
  VM_LOAD(LdBS, 1,                                                             \
          V = static_cast<uint64_t>(                                           \
              static_cast<int64_t>(static_cast<int8_t>(V))))                   \
  VM_LOAD(LdHU, 2, V = V)                                                      \
  VM_LOAD(LdHS, 2,                                                             \
          V = static_cast<uint64_t>(                                           \
              static_cast<int64_t>(static_cast<int16_t>(V))))                  \
  VM_LOAD(LdWU, 4, V = V)                                                      \
  VM_LOAD(LdWS, 4,                                                             \
          V = static_cast<uint64_t>(                                           \
              static_cast<int64_t>(static_cast<int32_t>(V))))                  \
  VM_LOAD(LdD, 8, V = V)                                                       \
                                                                               \
  VM_STORE(StB, 1)                                                             \
  VM_STORE(StH, 2)                                                             \
  VM_STORE(StW, 4)                                                             \
  VM_STORE(StD, 8)                                                             \
                                                                               \
  VM_CASE(Jmp) {                                                               \
    ++Count;                                                                   \
    if (D->Target >= 0)                                                        \
      Pc = static_cast<uint64_t>(D->Target) * SvmInstrSize;                    \
    else                                                                       \
      Pc += static_cast<uint64_t>(static_cast<int64_t>(D->Imm));               \
    goto CheckTop;                                                             \
  }                                                                            \
  VM_CASE(Beqz) {                                                              \
    ++Count;                                                                   \
    if (M.reg(D->Rs1) == 0) {                                                  \
      if (D->Target >= 0)                                                      \
        Pc = static_cast<uint64_t>(D->Target) * SvmInstrSize;                  \
      else                                                                     \
        Pc += static_cast<uint64_t>(static_cast<int64_t>(D->Imm));             \
    } else {                                                                   \
      Pc += SvmInstrSize;                                                      \
    }                                                                          \
    goto CheckTop;                                                             \
  }                                                                            \
  VM_CASE(Bnez) {                                                              \
    ++Count;                                                                   \
    if (M.reg(D->Rs1) != 0) {                                                  \
      if (D->Target >= 0)                                                      \
        Pc = static_cast<uint64_t>(D->Target) * SvmInstrSize;                  \
      else                                                                     \
        Pc += static_cast<uint64_t>(static_cast<int64_t>(D->Imm));             \
    } else {                                                                   \
      Pc += SvmInstrSize;                                                      \
    }                                                                          \
    goto CheckTop;                                                             \
  }                                                                            \
  VM_CASE(Call) {                                                              \
    if (CallStack.size() >= MaxCallDepth)                                      \
      return Trap(TrapKind::CallDepthExceeded, Pc,                             \
                  vmdetail::depthMessage(MaxCallDepth), Count + 1);            \
    CallStack.push_back(Pc + SvmInstrSize);                                    \
    ++Count;                                                                   \
    if (D->Target >= 0)                                                        \
      Pc = static_cast<uint64_t>(D->Target) * SvmInstrSize;                    \
    else                                                                       \
      Pc += static_cast<uint64_t>(static_cast<int64_t>(D->Imm));               \
    goto CheckTop;                                                             \
  }                                                                            \
  VM_CASE(CallR) {                                                             \
    if (CallStack.size() >= MaxCallDepth)                                      \
      return Trap(TrapKind::CallDepthExceeded, Pc,                             \
                  vmdetail::depthMessage(MaxCallDepth), Count + 1);            \
    CallStack.push_back(Pc + SvmInstrSize);                                    \
    ++Count;                                                                   \
    Pc = M.reg(D->Rs1);                                                        \
    goto CheckTop;                                                             \
  }                                                                            \
  VM_CASE(Ret) {                                                               \
    if (CallStack.empty())                                                     \
      return Trap(TrapKind::CallStackUnderflow, Pc, "ret at top frame",        \
                  Count + 1);                                                  \
    ++Count;                                                                   \
    Pc = CallStack.back();                                                     \
    CallStack.pop_back();                                                      \
    goto CheckTop;                                                             \
  }                                                                            \
                                                                               \
  VM_CASE(Ocall) {                                                             \
    CallHandler &Ocall = ocallHandler(M);                                      \
    if (!Ocall)                                                                \
      return Trap(TrapKind::HandlerFault, Pc, "no ocall handler installed",    \
                  Count + 1);                                                  \
    Expected<uint64_t> R = Ocall(static_cast<uint32_t>(D->Imm), M);            \
    if (!R)                                                                    \
      return Trap(TrapKind::HandlerFault, Pc, "ocall: " + R.errorMessage(),    \
                  Count + 1);                                                  \
    M.setReg(1, *R);                                                           \
    syncWithBus(M); /* The handler may have rewritten code (restore!). */      \
    VM_NEXT1;                                                                  \
  }                                                                            \
  VM_CASE(Tcall) {                                                             \
    CallHandler &Tcall = tcallHandler(M);                                      \
    if (!Tcall)                                                                \
      return Trap(TrapKind::HandlerFault, Pc, "no tcall handler installed",    \
                  Count + 1);                                                  \
    Expected<uint64_t> R = Tcall(static_cast<uint32_t>(D->Imm), M);            \
    if (!R)                                                                    \
      return Trap(TrapKind::HandlerFault, Pc, "tcall: " + R.errorMessage(),    \
                  Count + 1);                                                  \
    M.setReg(1, *R);                                                           \
    syncWithBus(M); /* The handler may have rewritten code (restore!). */      \
    VM_NEXT1;                                                                  \
  }                                                                            \
                                                                               \
  VM_CASE(Halt) {                                                              \
    ExecResult R;                                                              \
    R.Kind = TrapKind::Halt;                                                   \
    R.Pc = Pc;                                                                 \
    R.ReturnValue = M.reg(1);                                                  \
    R.InstructionsRetired = Count + 1;                                         \
    return R;                                                                  \
  }                                                                            \
  VM_CASE(Trap) {                                                              \
    ExecResult R = Trap(TrapKind::ExplicitTrap, Pc,                            \
                        "code " + std::to_string(D->Imm), Count + 1);          \
    R.TrapCode = D->Imm;                                                       \
    return R;                                                                  \
  }                                                                            \
                                                                               \
  VM_FUSED_CMP_BR(FSeqBeqz, A == B ? 1 : 0, false)                             \
  VM_FUSED_CMP_BR(FSneBeqz, A != B ? 1 : 0, false)                             \
  VM_FUSED_CMP_BR(FSltUBeqz, A < B ? 1 : 0, false)                             \
  VM_FUSED_CMP_BR(FSltSBeqz,                                                   \
                  static_cast<int64_t>(A) < static_cast<int64_t>(B) ? 1 : 0,   \
                  false)                                                       \
  VM_FUSED_CMP_BR(FSleUBeqz, A <= B ? 1 : 0, false)                            \
  VM_FUSED_CMP_BR(FSleSBeqz,                                                   \
                  static_cast<int64_t>(A) <= static_cast<int64_t>(B) ? 1 : 0,  \
                  false)                                                       \
  VM_FUSED_CMP_BR(FSeqBnez, A == B ? 1 : 0, true)                              \
  VM_FUSED_CMP_BR(FSneBnez, A != B ? 1 : 0, true)                              \
  VM_FUSED_CMP_BR(FSltUBnez, A < B ? 1 : 0, true)                              \
  VM_FUSED_CMP_BR(FSltSBnez,                                                   \
                  static_cast<int64_t>(A) < static_cast<int64_t>(B) ? 1 : 0,   \
                  true)                                                        \
  VM_FUSED_CMP_BR(FSleUBnez, A <= B ? 1 : 0, true)                             \
  VM_FUSED_CMP_BR(FSleSBnez,                                                   \
                  static_cast<int64_t>(A) <= static_cast<int64_t>(B) ? 1 : 0,  \
                  true)                                                        \
                                                                               \
  VM_CASE(FLdI64) {                                                            \
    VM_FUSION_GUARD;                                                           \
    M.setReg(D->Rd,                                                            \
             static_cast<uint64_t>(static_cast<uint32_t>(D->Imm)) |            \
                 (static_cast<uint64_t>(static_cast<uint32_t>(D->Target))      \
                  << 32));                                                     \
    VM_NEXT2;                                                                  \
  }                                                                            \
                                                                               \
  VM_FUSED_ADDI_LD(FAddILdBU, 1, V = V)                                        \
  VM_FUSED_ADDI_LD(FAddILdBS, 1,                                               \
                   V = static_cast<uint64_t>(                                  \
                       static_cast<int64_t>(static_cast<int8_t>(V))))          \
  VM_FUSED_ADDI_LD(FAddILdHU, 2, V = V)                                        \
  VM_FUSED_ADDI_LD(FAddILdHS, 2,                                               \
                   V = static_cast<uint64_t>(                                  \
                       static_cast<int64_t>(static_cast<int16_t>(V))))         \
  VM_FUSED_ADDI_LD(FAddILdWU, 4, V = V)                                        \
  VM_FUSED_ADDI_LD(FAddILdWS, 4,                                               \
                   V = static_cast<uint64_t>(                                  \
                       static_cast<int64_t>(static_cast<int32_t>(V))))         \
  VM_FUSED_ADDI_LD(FAddILdD, 8, V = V)                                         \
                                                                               \
  VM_FUSED_ADDI_ST(FAddIStB, 1)                                                \
  VM_FUSED_ADDI_ST(FAddIStH, 2)                                                \
  VM_FUSED_ADDI_ST(FAddIStW, 4)                                                \
  VM_FUSED_ADDI_ST(FAddIStD, 8)

// rd = rs1 op rs2 (comparisons produce 0/1 through the same shape).
#define VM_ALU_RR(Name, Expr)                                                  \
  VM_CASE(Name) {                                                              \
    uint64_t A = M.reg(D->Rs1), B = M.reg(D->Rs2);                             \
    (void)A;                                                                   \
    (void)B;                                                                   \
    M.setReg(D->Rd, (Expr));                                                   \
    VM_NEXT1;                                                                  \
  }

// rd = rs1 op sign-extended imm.
#define VM_ALU_RI(Name, Expr)                                                  \
  VM_CASE(Name) {                                                              \
    uint64_t A = M.reg(D->Rs1);                                                \
    uint64_t Imm = static_cast<uint64_t>(static_cast<int64_t>(D->Imm));        \
    (void)A;                                                                   \
    (void)Imm;                                                                 \
    M.setReg(D->Rd, (Expr));                                                   \
    VM_NEXT1;                                                                  \
  }

// V = Size bytes at Addr. An in-page, readable access reads the bus's
// page table inline; anything else takes the virtual read, which owns
// every fault and its message, trapping at FaultPc with Retired retired.
#define VM_READ(V, Addr, Size, FaultPc, Retired)                               \
  do {                                                                         \
    if (const uint8_t *P = Bus.direct(Addr, Size, DirectPage::Read)) {         \
      (V) = loadHost<Size>(P);                                                 \
    } else {                                                                   \
      uint8_t Buf[8] = {0};                                                    \
      if (Error E = Bus.read(Addr, MutableBytesView(Buf, Size)))               \
        return Trap(TrapKind::MemoryFault, FaultPc, "load: " + E.message(),    \
                    Retired);                                                  \
      (V) = readLE64(Buf);                                                     \
    }                                                                          \
  } while (0)

// Size bytes at Addr = V, the store's twin of VM_READ. The inline path
// journals the write itself, as the virtual write does; either way the
// decoded window then folds it in (it may have hit decoded code).
#define VM_WRITE(V, Addr, Size, FaultPc, Retired)                              \
  do {                                                                         \
    if (uint8_t *P = Bus.direct(Addr, Size, DirectPage::Write)) {              \
      storeHost<Size>(P, V);                                                   \
      Bus.noteWrite(Addr, Size);                                               \
    } else {                                                                   \
      uint8_t Buf[8];                                                          \
      writeLE64(Buf, V);                                                       \
      if (Error E = Bus.write(Addr, BytesView(Buf, Size)))                     \
        return Trap(TrapKind::MemoryFault, FaultPc, "store: " + E.message(),   \
                    Retired);                                                  \
    }                                                                          \
    NoteSelfWrite(Addr, Size);                                                 \
  } while (0)

#define VM_LOAD(Name, Size, ExtendStmt)                                        \
  VM_CASE(Name) {                                                              \
    uint64_t Addr = M.reg(D->Rs1) +                                            \
                    static_cast<uint64_t>(static_cast<int64_t>(D->Imm));       \
    uint64_t V = 0;                                                            \
    VM_READ(V, Addr, Size, Pc, Count + 1);                                     \
    ExtendStmt;                                                                \
    M.setReg(D->Rd, V);                                                        \
    VM_NEXT1;                                                                  \
  }

#define VM_STORE(Name, Size)                                                   \
  VM_CASE(Name) {                                                              \
    uint64_t Addr = M.reg(D->Rs1) +                                            \
                    static_cast<uint64_t>(static_cast<int64_t>(D->Imm));       \
    VM_WRITE(M.reg(D->Rs2), Addr, Size, Pc, Count + 1);                        \
    VM_NEXT1;                                                                  \
  }

// cmp rd, rs1, rs2 ; beqz/bnez rd. The branch re-reads rd through reg()
// after setReg, so a cmp into r0 branches on the hardwired zero exactly
// like the reference pair would.
#define VM_FUSED_CMP_BR(Name, Expr, TakenWhenNonZero)                          \
  VM_CASE(Name) {                                                              \
    VM_FUSION_GUARD;                                                           \
    uint64_t A = M.reg(D->Rs1), B = M.reg(D->Rs2);                             \
    (void)A;                                                                   \
    (void)B;                                                                   \
    M.setReg(D->Rd, (Expr));                                                   \
    Count += 2;                                                                \
    if ((M.reg(D->Rd) != 0) == (TakenWhenNonZero)) {                           \
      if (D->Target >= 0)                                                      \
        Pc = static_cast<uint64_t>(D->Target) * SvmInstrSize;                  \
      else                                                                     \
        Pc += SvmInstrSize +                                                   \
              static_cast<uint64_t>(static_cast<int64_t>(D->Imm));             \
    } else {                                                                   \
      Pc += 2 * SvmInstrSize;                                                  \
    }                                                                          \
    goto CheckTop;                                                             \
  }

// addi rb, rs1, d1 ; ld rd2, [rb + d2]. Sequential semantics: the AddI
// writes back first, the load re-reads the base through reg(). A load
// fault reports the second slot's pc with both instructions retired.
#define VM_FUSED_ADDI_LD(Name, Size, ExtendStmt)                               \
  VM_CASE(Name) {                                                              \
    VM_FUSION_GUARD;                                                           \
    M.setReg(D->Rd, M.reg(D->Rs1) +                                            \
                        static_cast<uint64_t>(static_cast<int64_t>(D->Imm)));  \
    uint64_t Addr = M.reg(D->Rd) +                                             \
                    static_cast<uint64_t>(static_cast<int64_t>(D->Target));    \
    uint64_t V = 0;                                                            \
    VM_READ(V, Addr, Size, Pc + SvmInstrSize, Count + 2);                      \
    ExtendStmt;                                                                \
    M.setReg(D->Rs2, V); /* Rs2 carries the load's destination. */             \
    VM_NEXT2;                                                                  \
  }

// addi rb, rs1, d1 ; st [rb + d2], rs2.
#define VM_FUSED_ADDI_ST(Name, Size)                                           \
  VM_CASE(Name) {                                                              \
    VM_FUSION_GUARD;                                                           \
    M.setReg(D->Rd, M.reg(D->Rs1) +                                            \
                        static_cast<uint64_t>(static_cast<int64_t>(D->Imm)));  \
    uint64_t Addr = M.reg(D->Rd) +                                             \
                    static_cast<uint64_t>(static_cast<int64_t>(D->Target));    \
    /* Rs2 carries the store's source. */                                      \
    VM_WRITE(M.reg(D->Rs2), Addr, Size, Pc + SvmInstrSize, Count + 2);         \
    VM_NEXT2;                                                                  \
  }

#if ELIDE_VM_COMPUTED_GOTO
  VM_HANDLER_BODIES
#else
  VM_DISPATCH_BODY;
  // Every case ends in goto/return; reaching here is impossible.
  assert(false && "unhandled dispatch id");
#endif

SwitchFallback : {
  // Pc escaped the representable window (wild jump or absurd code span).
  // The reference engine finishes the run; merge its outcome so budget
  // accounting and the budget message reflect the whole run.
  ++Stat.SwitchFallbacks;
  SwitchBackend Reference;
  ExecResult R = Reference.run(M, Pc, Budget - Count);
  R.InstructionsRetired += Count;
  if (R.Kind == TrapKind::BudgetExhausted)
    R.Message = vmdetail::budgetMessage(Budget);
  return R;
}
}
