//===- tests/framework/VmDiff.cpp - SVM backend differential harness --------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tests/framework/VmDiff.h"

#include "vm/MemoryBus.h"

#include <cstring>

using namespace elide;
using namespace elide::vmdiff;

namespace {

/// Generator register conventions: r10/r11 hold data-region pointers,
/// r12 holds 0 (code-region base for self-modifying stores), r1..r8 are
/// scratch. The prologue establishes these; the body may clobber them,
/// which is fine -- a wild pointer just produces a memory fault both
/// engines must report identically.
constexpr uint8_t ScratchLo = 1, ScratchHi = 8;

uint8_t scratch(Drbg &Rng) {
  return static_cast<uint8_t>(ScratchLo + Rng.nextBelow(ScratchHi));
}

/// Any register, including r0 and the pointer registers.
uint8_t anyReg(Drbg &Rng) {
  return static_cast<uint8_t>(Rng.nextBelow(14));
}

Instruction make(Opcode Op, uint8_t Rd, uint8_t Rs1, uint8_t Rs2,
                 int32_t Imm) {
  Instruction I;
  I.Op = Op;
  I.Rd = Rd;
  I.Rs1 = Rs1;
  I.Rs2 = Rs2;
  I.Imm = Imm;
  return I;
}

/// PC-relative displacement from instruction \p From to slot \p To.
int32_t slotDisp(unsigned From, unsigned To) {
  return static_cast<int32_t>((static_cast<int64_t>(To) - From) *
                              static_cast<int64_t>(SvmInstrSize));
}

} // namespace

Bytes elide::vmdiff::generateProgram(Drbg &Rng, const ProgramOptions &Opts) {
  const unsigned MinLen = 12;
  const unsigned Len =
      MinLen + static_cast<unsigned>(Rng.nextBelow(
                   Opts.MaxInstructions > MinLen ? Opts.MaxInstructions - MinLen
                                                 : 1));
  const int64_t DataBase = static_cast<int64_t>(Opts.MemorySize / 2);

  std::vector<Instruction> Prog;
  Prog.reserve(Len);

  // Prologue: data pointers, the code base, and a couple of seed values.
  Prog.push_back(make(Opcode::LdI, 10, 0, 0, static_cast<int32_t>(DataBase)));
  Prog.push_back(
      make(Opcode::LdI, 11, 0, 0, static_cast<int32_t>(DataBase + 1024)));
  Prog.push_back(make(Opcode::LdI, 12, 0, 0, 0));
  Prog.push_back(make(Opcode::LdI, 1, 0, 0,
                      static_cast<int32_t>(Rng.next64() & 0x7fffffff)));
  Prog.push_back(make(Opcode::LdI, 2, 0, 0,
                      static_cast<int32_t>(Rng.next64() & 0xffff) + 1));

  static const Opcode AluRR[] = {Opcode::Add,  Opcode::Sub,  Opcode::Mul,
                                 Opcode::DivU, Opcode::DivS, Opcode::RemU,
                                 Opcode::RemS, Opcode::And,  Opcode::Or,
                                 Opcode::Xor,  Opcode::Shl,  Opcode::ShrL,
                                 Opcode::ShrA};
  static const Opcode AluRI[] = {Opcode::AddI, Opcode::MulI,  Opcode::AndI,
                                 Opcode::OrI,  Opcode::XorI,  Opcode::ShlI,
                                 Opcode::ShrLI, Opcode::ShrAI};
  static const Opcode Cmps[] = {Opcode::Seq,  Opcode::Sne,  Opcode::SltU,
                                Opcode::SltS, Opcode::SleU, Opcode::SleS};
  static const Opcode Loads[] = {Opcode::LdBU, Opcode::LdBS, Opcode::LdHU,
                                 Opcode::LdHS, Opcode::LdWU, Opcode::LdWS,
                                 Opcode::LdD};
  static const Opcode Stores[] = {Opcode::StB, Opcode::StH, Opcode::StW,
                                  Opcode::StD};

  while (Prog.size() < Len - 1) {
    unsigned Cur = static_cast<unsigned>(Prog.size());
    uint64_t Pick = Rng.nextBelow(100);

    if (Pick < 20) { // Three-register ALU (divides included: trap parity).
      Prog.push_back(make(AluRR[Rng.nextBelow(13)], scratch(Rng), anyReg(Rng),
                          anyReg(Rng), 0));
    } else if (Pick < 32) { // Register-immediate ALU.
      Prog.push_back(make(AluRI[Rng.nextBelow(8)], scratch(Rng), anyReg(Rng),
                          0, static_cast<int32_t>(Rng.next64())));
    } else if (Pick < 38) { // 64-bit constant: LdI, often + LdIH (fusible).
      uint8_t Rd = scratch(Rng);
      Prog.push_back(
          make(Opcode::LdI, Rd, 0, 0, static_cast<int32_t>(Rng.next64())));
      if (Rng.nextBelow(2) && Prog.size() < Len - 1)
        Prog.push_back(
            make(Opcode::LdIH, Rd, 0, 0, static_cast<int32_t>(Rng.next64())));
    } else if (Pick < 44) { // Bare comparison.
      Prog.push_back(make(Cmps[Rng.nextBelow(6)], scratch(Rng), anyReg(Rng),
                          anyReg(Rng), 0));
    } else if (Pick < 54) { // cmp + branch on the result (fusible pair).
      uint8_t Rd = scratch(Rng);
      Prog.push_back(
          make(Cmps[Rng.nextBelow(6)], Rd, anyReg(Rng), anyReg(Rng), 0));
      if (Prog.size() < Len - 1) {
        unsigned BrAt = static_cast<unsigned>(Prog.size());
        unsigned To = static_cast<unsigned>(Rng.nextBelow(Len));
        Opcode Br = Rng.nextBelow(2) ? Opcode::Beqz : Opcode::Bnez;
        Prog.push_back(make(Br, 0, Rd, 0, slotDisp(BrAt, To)));
      }
    } else if (Pick < 66) { // Data-region memory op, via r10/r11 base.
      uint8_t Base = Rng.nextBelow(2) ? 10 : 11;
      int32_t Disp = static_cast<int32_t>(Rng.nextBelow(512));
      if (Rng.nextBelow(2) && Prog.size() + 1 < Len - 1) {
        // AddI + dependent memory op (the fusible addressed form).
        uint8_t Rb = static_cast<uint8_t>(13 + Rng.nextBelow(2)); // r13/r14
        Prog.push_back(make(Opcode::AddI, Rb, Base, 0, Disp));
        if (Rng.nextBelow(2))
          Prog.push_back(make(Loads[Rng.nextBelow(7)], scratch(Rng), Rb, 0,
                              static_cast<int32_t>(Rng.nextBelow(64))));
        else
          Prog.push_back(make(Stores[Rng.nextBelow(4)], 0, Rb, scratch(Rng),
                              static_cast<int32_t>(Rng.nextBelow(64))));
      } else if (Rng.nextBelow(2)) {
        Prog.push_back(
            make(Loads[Rng.nextBelow(7)], scratch(Rng), Base, 0, Disp));
      } else {
        Prog.push_back(
            make(Stores[Rng.nextBelow(4)], 0, Base, scratch(Rng), Disp));
      }
    } else if (Pick < 70 && Opts.AllowWildStores) { // Wild pointer access.
      if (Rng.nextBelow(2))
        Prog.push_back(make(Loads[Rng.nextBelow(7)], scratch(Rng),
                            scratch(Rng), 0,
                            static_cast<int32_t>(Rng.next64())));
      else
        Prog.push_back(make(Stores[Rng.nextBelow(4)], 0, scratch(Rng),
                            scratch(Rng), static_cast<int32_t>(Rng.next64())));
    } else if (Pick < 75 && Opts.AllowSelfModify) { // Store into code.
      Prog.push_back(make(Stores[Rng.nextBelow(4)], 0, 12, scratch(Rng),
                          static_cast<int32_t>(Rng.nextBelow(Len) *
                                               SvmInstrSize)));
    } else if (Pick < 84) { // Jump / branch, forward or backward.
      unsigned To = static_cast<unsigned>(Rng.nextBelow(Len));
      int32_t Disp = slotDisp(Cur, To);
      if (Rng.nextBelow(8) == 0)
        Disp += 4; // Deliberately misaligned target: trap parity.
      uint64_t Which = Rng.nextBelow(3);
      if (Which == 0)
        Prog.push_back(make(Opcode::Jmp, 0, 0, 0, Disp));
      else
        Prog.push_back(make(Which == 1 ? Opcode::Beqz : Opcode::Bnez, 0,
                            scratch(Rng), 0, Disp));
    } else if (Pick < 89) { // Calls and returns (underflow included).
      uint64_t Which = Rng.nextBelow(4);
      if (Which == 0) {
        Prog.push_back(make(Opcode::Ret, 0, 0, 0, 0));
      } else if (Which == 1) {
        Prog.push_back(make(Opcode::CallR, 0, scratch(Rng), 0, 0));
      } else {
        unsigned To = static_cast<unsigned>(Rng.nextBelow(Len));
        Prog.push_back(make(Opcode::Call, 0, 0, 0, slotDisp(Cur, To)));
      }
    } else if (Pick < 95) { // Host interface.
      Opcode Op = Rng.nextBelow(2) ? Opcode::Tcall : Opcode::Ocall;
      Prog.push_back(make(Op, 0, 0, 0,
                          static_cast<int32_t>(Rng.nextBelow(8))));
    } else if (Pick < 97) { // Explicit trap / early halt.
      if (Rng.nextBelow(2))
        Prog.push_back(make(Opcode::Trap, 0, 0, 0,
                            static_cast<int32_t>(Rng.nextBelow(100))));
      else
        Prog.push_back(make(Opcode::Halt, 0, 0, 0, 0));
    } else { // Raw garbage: undefined opcodes, junk fields.
      uint8_t Raw[8];
      Rng.fill(MutableBytesView(Raw, 8));
      Instruction I = decodeInstruction(Raw);
      Prog.push_back(I);
    }
  }
  Prog.push_back(make(Opcode::Halt, 0, 0, 0, 0));

  Bytes Code;
  for (const Instruction &I : Prog)
    emitInstruction(Code, I);
  return Code;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic tcall behavior, a pure function of (Index, VM state):
///   index % 4 == 0 -> arithmetic on r2/r3
///   index % 4 == 1 -> restore-style write of a valid instruction into a
///                     code slot derived from the index (the case the
///                     threaded engine's journal sync exists for)
///   index % 4 == 2 -> handler error (HandlerFault parity)
///   index % 4 == 3 -> read-back of a data word
Expected<uint64_t> harnessTcall(uint32_t Index, Vm &V,
                                const ProgramOptions &Opts) {
  switch (Index % 4) {
  case 0:
    return V.reg(2) + V.reg(3) * 3 + Index;
  case 1: {
    Instruction I;
    I.Op = Opcode::AddI;
    I.Rd = 5;
    I.Rs1 = 5;
    I.Imm = static_cast<int32_t>(Index + 1);
    uint8_t Enc[8];
    encodeInstruction(I, Enc);
    uint64_t Slot = (Index * 7 + 3) % Opts.MaxInstructions;
    if (Error E = V.writeBytes(Slot * SvmInstrSize, BytesView(Enc, 8)))
      return E;
    return Slot;
  }
  case 2:
    return makeError("harness tcall #" + std::to_string(Index) + " refuses");
  default: {
    ELIDE_TRY(Bytes Word, V.readBytes(Opts.MemorySize / 2, 8));
    return readLE64(Word.data());
  }
  }
}

Expected<uint64_t> harnessOcall(uint32_t Index, Vm &V) {
  if (Index % 4 == 2)
    return makeError("harness ocall #" + std::to_string(Index) + " refuses");
  return (V.reg(2) ^ V.reg(4)) + Index * 17;
}

} // namespace

Outcome elide::vmdiff::runProgram(BytesView Code, VmBackendKind Kind,
                                  const ProgramOptions &Opts) {
  FlatMemory Memory(Opts.MemorySize);
  size_t N = std::min<size_t>(Code.size(), Opts.MemorySize);
  if (N)
    std::memcpy(Memory.raw().data(), Code.data(), N);

  Vm Machine(Memory);
  Machine.setBackend(Kind);
  Machine.setTcallHandler([&Opts](uint32_t Index, Vm &V) {
    return harnessTcall(Index, V, Opts);
  });
  Machine.setOcallHandler(
      [](uint32_t Index, Vm &V) { return harnessOcall(Index, V); });

  Outcome Out;
  Out.Exec = Machine.run(0, Opts.Budget);
  for (unsigned R = 0; R < SvmRegCount; ++R)
    Out.Regs[R] = Machine.reg(R);
  Out.Memory = toBytes(Memory.raw());
  return Out;
}

std::string elide::vmdiff::diffProgram(BytesView Code,
                                       const ProgramOptions &Opts) {
  const std::vector<VmBackendKind> &Kinds = allVmBackendKinds();
  Outcome Ref = runProgram(Code, Kinds.front(), Opts);

  for (size_t K = 1; K < Kinds.size(); ++K) {
    Outcome Got = runProgram(Code, Kinds[K], Opts);
    std::string Who = std::string(vmBackendKindName(Kinds[K])) + " vs " +
                      vmBackendKindName(Kinds.front());

    if (Got.Exec.Kind != Ref.Exec.Kind)
      return Who + ": trap kind '" + trapKindName(Got.Exec.Kind) + "' != '" +
             trapKindName(Ref.Exec.Kind) + "'";
    if (Got.Exec.Pc != Ref.Exec.Pc)
      return Who + ": pc " + std::to_string(Got.Exec.Pc) + " != " +
             std::to_string(Ref.Exec.Pc);
    if (Got.Exec.InstructionsRetired != Ref.Exec.InstructionsRetired)
      return Who + ": retired " +
             std::to_string(Got.Exec.InstructionsRetired) + " != " +
             std::to_string(Ref.Exec.InstructionsRetired);
    if (Got.Exec.ReturnValue != Ref.Exec.ReturnValue)
      return Who + ": return value " + std::to_string(Got.Exec.ReturnValue) +
             " != " + std::to_string(Ref.Exec.ReturnValue);
    if (Got.Exec.TrapCode != Ref.Exec.TrapCode)
      return Who + ": trap code " + std::to_string(Got.Exec.TrapCode) +
             " != " + std::to_string(Ref.Exec.TrapCode);
    if (Got.Exec.Message != Ref.Exec.Message)
      return Who + ": message '" + Got.Exec.Message + "' != '" +
             Ref.Exec.Message + "'";
    for (unsigned R = 0; R < SvmRegCount; ++R)
      if (Got.Regs[R] != Ref.Regs[R])
        return Who + ": r" + std::to_string(R) + " = " +
               std::to_string(Got.Regs[R]) + " != " +
               std::to_string(Ref.Regs[R]);
    if (Got.Memory != Ref.Memory) {
      size_t At = 0;
      while (At < Got.Memory.size() && Got.Memory[At] == Ref.Memory[At])
        ++At;
      return Who + ": memory differs at 0x" + std::to_string(At);
    }
  }
  return std::string();
}
