//===- tests/VmTest.cpp - SVM ISA and interpreter unit tests -----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ISA semantics and Vm behavior. Every execution test runs on every
/// backend (TEST_P over VmBackendKind): the reference switch engine and
/// the pre-decoding threaded engine must be indistinguishable through
/// the Vm surface. Cases named *Fused* / *PreDecode* target the spots
/// where a pre-decoding, superinstruction-fusing engine could diverge:
/// trap PCs inside fused pairs, budget exhaustion between the halves of
/// a pair, and code rewritten after it has been decoded.
///
//===----------------------------------------------------------------------===//

#include "tests/framework/VmDiff.h"
#include "vm/Disassembler.h"
#include "vm/ExecBackend.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace elide;

namespace {

/// Assembles instructions at offset 0 of a FlatMemory and runs from 0 on
/// a configurable backend. Registers are snapshotted after every run so
/// tests can assert on partial progress at a trap.
struct Harness {
  FlatMemory Ram{1 << 16};
  Bytes Code;
  VmBackendKind Kind = defaultVmBackendKind();
  std::array<uint64_t, SvmRegCount> RegsAfter{};

  void emit(Opcode Op, uint8_t Rd = 0, uint8_t Rs1 = 0, uint8_t Rs2 = 0,
            int32_t Imm = 0) {
    emitInstruction(Code, {Op, Rd, Rs1, Rs2, Imm});
  }

  ExecResult run(std::function<void(Vm &)> Setup = nullptr,
                 uint64_t Budget = 1 << 20) {
    EXPECT_FALSE(static_cast<bool>(Ram.write(0, Code)));
    Vm M(Ram);
    M.setBackend(Kind);
    M.setReg(SvmRegSp, (1 << 16) - 64);
    if (Setup)
      Setup(M);
    ExecResult R = M.run(0, Budget);
    for (unsigned Reg = 0; Reg < SvmRegCount; ++Reg)
      RegsAfter[Reg] = M.reg(Reg);
    return R;
  }
};

/// Fixture parameterized over the execution backend under test.
class VmExecTest : public ::testing::TestWithParam<VmBackendKind> {
protected:
  void SetUp() override { H.Kind = GetParam(); }
  Harness H;
};

INSTANTIATE_TEST_SUITE_P(
    Backends, VmExecTest, ::testing::ValuesIn(allVmBackendKinds()),
    [](const ::testing::TestParamInfo<VmBackendKind> &Info) {
      return std::string(vmBackendKindName(Info.param));
    });

//===----------------------------------------------------------------------===//
// Encoding
//===----------------------------------------------------------------------===//

TEST(IsaTest, EncodeDecodeRoundTrip) {
  Instruction I{Opcode::AddI, 5, 6, 7, -12345};
  uint8_t Buf[8];
  encodeInstruction(I, Buf);
  Instruction Back = decodeInstruction(Buf);
  EXPECT_EQ(Back.Op, I.Op);
  EXPECT_EQ(Back.Rd, I.Rd);
  EXPECT_EQ(Back.Rs1, I.Rs1);
  EXPECT_EQ(Back.Rs2, I.Rs2);
  EXPECT_EQ(Back.Imm, I.Imm);
}

TEST(IsaTest, ZeroBytesDecodeToIllegal) {
  uint8_t Zeros[8] = {0};
  Instruction I = decodeInstruction(Zeros);
  EXPECT_EQ(I.Op, Opcode::Illegal);
  EXPECT_FALSE(isValidOpcode(0));
}

TEST(IsaTest, RegisterFieldsDecodeLow5Bits) {
  // Register operands are architecturally 5 bits; a decoder that takes
  // the full byte indexes past the 32-entry register file on crafted
  // code (found by the vmdiff fuzzer -- keep this masked).
  uint8_t Raw[8] = {0x02, 0xff, 0xe3, 0x25, 0, 0, 0, 0};
  Instruction I = decodeInstruction(Raw);
  EXPECT_EQ(I.Rd, 31);
  EXPECT_EQ(I.Rs1, 3);
  EXPECT_EQ(I.Rs2, 5);
}

TEST(IsaTest, AllNamedOpcodesAreValid) {
  for (uint8_t Op : {0x01, 0x02, 0x0e, 0x10, 0x19, 0x20, 0x25, 0x30, 0x36,
                     0x38, 0x3b, 0x40, 0x45, 0x50, 0x53})
    EXPECT_TRUE(isValidOpcode(Op)) << "opcode " << int(Op);
  for (uint8_t Op : {0x00, 0x0f, 0x26, 0x37, 0x3c, 0x46, 0x54, 0xff})
    EXPECT_FALSE(isValidOpcode(Op)) << "opcode " << int(Op);
}

//===----------------------------------------------------------------------===//
// Arithmetic semantics
//===----------------------------------------------------------------------===//

struct AluCase {
  Opcode Op;
  uint64_t A, B, Expect;
};

void PrintTo(const AluCase &C, std::ostream *OS) {
  *OS << opcodeName(C.Op) << std::hex << "(0x" << C.A << ", 0x" << C.B
      << ") = 0x" << C.Expect << std::dec;
}

class AluTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(AluTest, ComputesExpectedOnEveryBackend) {
  const AluCase &C = GetParam();
  for (VmBackendKind Kind : allVmBackendKinds()) {
    SCOPED_TRACE(vmBackendKindName(Kind));
    Harness H;
    H.Kind = Kind;
    H.emit(C.Op, 1, 2, 3);
    H.emit(Opcode::Halt);
    ExecResult R = H.run([&](Vm &M) {
      M.setReg(2, C.A);
      M.setReg(3, C.B);
    });
    ASSERT_TRUE(R.halted()) << R.Message;
    EXPECT_EQ(R.ReturnValue, C.Expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, AluTest,
    ::testing::Values(
        AluCase{Opcode::Add, 7, 8, 15},
        AluCase{Opcode::Add, UINT64_MAX, 1, 0}, // wraps
        AluCase{Opcode::Sub, 5, 9, static_cast<uint64_t>(-4)},
        AluCase{Opcode::Mul, 1ull << 33, 1ull << 32, 0}, // wraps
        AluCase{Opcode::DivU, 100, 7, 14},
        AluCase{Opcode::DivS, static_cast<uint64_t>(-100), 7,
                static_cast<uint64_t>(-14)},
        AluCase{Opcode::RemU, 100, 7, 2},
        AluCase{Opcode::RemS, static_cast<uint64_t>(-100), 7,
                static_cast<uint64_t>(-2)},
        AluCase{Opcode::DivS, static_cast<uint64_t>(INT64_MIN),
                static_cast<uint64_t>(-1),
                static_cast<uint64_t>(INT64_MIN)}, // overflow wraps
        AluCase{Opcode::And, 0xff00, 0x0ff0, 0x0f00},
        AluCase{Opcode::Or, 0xff00, 0x0ff0, 0xfff0},
        AluCase{Opcode::Xor, 0xff00, 0x0ff0, 0xf0f0},
        AluCase{Opcode::Shl, 1, 63, 1ull << 63},
        AluCase{Opcode::Shl, 1, 64, 1},              // shift masks to 0
        AluCase{Opcode::ShrL, 1ull << 63, 63, 1},
        AluCase{Opcode::ShrA, static_cast<uint64_t>(-8), 2,
                static_cast<uint64_t>(-2)},
        AluCase{Opcode::Seq, 4, 4, 1}, AluCase{Opcode::Seq, 4, 5, 0},
        AluCase{Opcode::Sne, 4, 5, 1},
        AluCase{Opcode::SltU, 1, static_cast<uint64_t>(-1), 1},
        AluCase{Opcode::SltS, static_cast<uint64_t>(-1), 1, 1},
        AluCase{Opcode::SleU, 4, 4, 1},
        AluCase{Opcode::SleS, static_cast<uint64_t>(-5),
                static_cast<uint64_t>(-5), 1}),
    [](const ::testing::TestParamInfo<AluCase> &Info) {
      std::ostringstream Name;
      Name << opcodeName(Info.param.Op) << std::hex << "_" << Info.param.A
           << "_" << Info.param.B;
      return Name.str();
    });

TEST_P(VmExecTest, RegisterZeroIsHardwired) {
  H.emit(Opcode::LdI, 0, 0, 0, 77); // write to r0 discarded
  H.emit(Opcode::Add, 1, 0, 0);     // r1 = r0 + r0
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.ReturnValue, 0u);
}

TEST_P(VmExecTest, LdIAndLdIHBuild64BitConstant) {
  H.emit(Opcode::LdI, 1, 0, 0, static_cast<int32_t>(0xdeadbeef));
  H.emit(Opcode::LdIH, 1, 0, 0, static_cast<int32_t>(0xcafebabe));
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.ReturnValue, 0xcafebabedeadbeefULL);
}

TEST_P(VmExecTest, HighRegisterFieldBitsAreIgnored) {
  // Regression for the vmdiff-found decode bug: operand bytes with the
  // high bits set alias onto r(n & 31) instead of walking off the
  // register file.
  H.emit(Opcode::LdI, 3, 0, 0, 21);
  H.emit(Opcode::Add, 1, 0xe3, 0x83); // rs1 = rs2 = r3
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 42u);
}

//===----------------------------------------------------------------------===//
// Memory access
//===----------------------------------------------------------------------===//

TEST_P(VmExecTest, LoadStoreWidths) {
  H.emit(Opcode::LdI, 2, 0, 0, 0x1000); // address
  H.emit(Opcode::LdI, 3, 0, 0, -2);     // 0xffff...fffe
  H.emit(Opcode::StD, 0, 2, 3, 0);
  H.emit(Opcode::LdBU, 4, 2, 0, 0);
  H.emit(Opcode::LdBS, 5, 2, 0, 0);
  H.emit(Opcode::LdHU, 6, 2, 0, 0);
  H.emit(Opcode::LdWU, 7, 2, 0, 0);
  H.emit(Opcode::LdWS, 8, 2, 0, 0);
  H.emit(Opcode::Add, 1, 4, 0);
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 0xfeu);
  EXPECT_EQ(H.RegsAfter[5], static_cast<uint64_t>(int64_t{-2}));
  EXPECT_EQ(H.RegsAfter[6], 0xfffeu);
  EXPECT_EQ(H.RegsAfter[7], 0xfffffffeu);
  EXPECT_EQ(H.RegsAfter[8], static_cast<uint64_t>(int64_t{-2}));

  uint8_t Byte;
  ASSERT_FALSE(static_cast<bool>(
      H.Ram.read(0x1000, MutableBytesView(&Byte, 1))));
  EXPECT_EQ(Byte, 0xfe);
}

TEST_P(VmExecTest, SignExtendingLoads) {
  H.emit(Opcode::LdI, 2, 0, 0, 0x2000);
  H.emit(Opcode::LdI, 3, 0, 0, 0x80); // byte 0x80
  H.emit(Opcode::StB, 0, 2, 3, 0);
  H.emit(Opcode::LdBS, 1, 2, 0, 0);
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.ReturnValue, static_cast<uint64_t>(int64_t{-128}));
}

TEST_P(VmExecTest, OutOfBoundsLoadFaults) {
  H.emit(Opcode::LdI, 2, 0, 0, 0x7fffffff);
  H.emit(Opcode::LdD, 1, 2, 0, 0);
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  EXPECT_EQ(R.Kind, TrapKind::MemoryFault);
  EXPECT_EQ(R.Pc, 8u);
  EXPECT_EQ(R.InstructionsRetired, 2u); // faulting loads still retire
}

TEST_P(VmExecTest, PartialTailPageFaultsLikeTheReference) {
  // 6 KiB of RAM: one whole page, which the bus serves inline, then half
  // a page, which stays on the virtual path. A store across the end must
  // fault on every backend exactly as on the reference, writing nothing.
  Bytes Code;
  emitInstruction(Code, {Opcode::LdI, 2, 0, 0, 0x800});
  emitInstruction(Code, {Opcode::LdI, 3, 0, 0, -0x1234});
  emitInstruction(Code, {Opcode::StD, 0, 2, 3, 0});
  emitInstruction(Code, {Opcode::LdD, 4, 2, 0, 0}); // whole page
  emitInstruction(Code, {Opcode::LdI, 2, 0, 0, 0x17fc});
  emitInstruction(Code, {Opcode::StW, 0, 2, 3, 0});
  emitInstruction(Code, {Opcode::LdWS, 5, 2, 0, 0}); // tail, in bounds
  emitInstruction(Code, {Opcode::StD, 0, 2, 4, 0});  // across the end
  emitInstruction(Code, {Opcode::Halt});
  vmdiff::ProgramOptions Opts;
  Opts.MemorySize = 0x1800;
  vmdiff::Outcome Got = vmdiff::runProgram(Code, GetParam(), Opts);
  vmdiff::Outcome Ref = vmdiff::runProgram(Code, VmBackendKind::Switch, Opts);

  EXPECT_EQ(Got.Exec.Kind, TrapKind::MemoryFault);
  EXPECT_EQ(Got.Exec.Pc, 56u);
  EXPECT_EQ(Got.Exec.InstructionsRetired, 8u);
  EXPECT_EQ(Got.Exec.Message,
            "store: memory access [0x17fc, +8) out of bounds");
  EXPECT_EQ(Got.Regs[4], static_cast<uint64_t>(int64_t{-0x1234}));
  EXPECT_EQ(Got.Regs[5], static_cast<uint64_t>(int64_t{-0x1234}));
  EXPECT_EQ(readLE32(Got.Memory.data() + 0x17fc),
            static_cast<uint32_t>(-0x1234));

  EXPECT_EQ(Got.Exec.Kind, Ref.Exec.Kind);
  EXPECT_EQ(Got.Exec.Pc, Ref.Exec.Pc);
  EXPECT_EQ(Got.Exec.InstructionsRetired, Ref.Exec.InstructionsRetired);
  EXPECT_EQ(Got.Exec.Message, Ref.Exec.Message);
  EXPECT_EQ(Got.Regs, Ref.Regs);
  EXPECT_EQ(Got.Memory, Ref.Memory);
}

//===----------------------------------------------------------------------===//
// Control flow and traps
//===----------------------------------------------------------------------===//

TEST_P(VmExecTest, CallAndRet) {
  H.emit(Opcode::Call, 0, 0, 0, 24); // to offset 24
  H.emit(Opcode::Halt);              // offset 8 (after return)
  H.emit(Opcode::Nop);               // offset 16 (never runs)
  H.emit(Opcode::LdI, 1, 0, 0, 55);  // offset 24: callee
  H.emit(Opcode::Ret);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 55u);
}

TEST_P(VmExecTest, IndirectCall) {
  H.emit(Opcode::LdI, 2, 0, 0, 32);
  H.emit(Opcode::CallR, 0, 2, 0, 0);
  H.emit(Opcode::Halt);
  H.emit(Opcode::Nop);
  H.emit(Opcode::LdI, 1, 0, 0, 99); // offset 32
  H.emit(Opcode::Ret);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.ReturnValue, 99u);
}

TEST_P(VmExecTest, RetAtTopLevelUnderflows) {
  H.emit(Opcode::Ret);
  EXPECT_EQ(H.run().Kind, TrapKind::CallStackUnderflow);
}

TEST_P(VmExecTest, CallDepthLimit) {
  H.emit(Opcode::Call, 0, 0, 0, 0); // calls itself forever
  ExecResult R = H.run([](Vm &M) { M.setMaxCallDepth(64); });
  EXPECT_EQ(R.Kind, TrapKind::CallDepthExceeded);
}

TEST_P(VmExecTest, BudgetStopsInfiniteLoop) {
  H.emit(Opcode::Jmp, 0, 0, 0, 0); // jumps to itself
  ExecResult R = H.run(nullptr, 1000);
  EXPECT_EQ(R.Kind, TrapKind::BudgetExhausted);
  EXPECT_EQ(R.InstructionsRetired, 1000u);
}

TEST_P(VmExecTest, ConditionalBranches) {
  H.emit(Opcode::LdI, 2, 0, 0, 0);
  H.emit(Opcode::Beqz, 0, 2, 0, 24); // taken: to offset 8+24=32
  H.emit(Opcode::LdI, 1, 0, 0, 1);   // skipped
  H.emit(Opcode::Halt);              // offset 24 (skipped)
  H.emit(Opcode::LdI, 1, 0, 0, 2);   // offset 32
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.ReturnValue, 2u);
}

TEST_P(VmExecTest, UnalignedPcTraps) {
  H.emit(Opcode::Jmp, 0, 0, 0, 4); // misaligned target
  ExecResult R = H.run();
  EXPECT_EQ(R.Kind, TrapKind::UnalignedPc);
}

TEST_P(VmExecTest, ExplicitTrapCarriesCode) {
  H.emit(Opcode::Trap, 0, 0, 0, 0xbeef);
  ExecResult R = H.run();
  EXPECT_EQ(R.Kind, TrapKind::ExplicitTrap);
  EXPECT_EQ(R.TrapCode, 0xbeef);
}

TEST_P(VmExecTest, IllegalInstructionReportsPc) {
  H.emit(Opcode::Nop);
  H.emit(Opcode::Illegal);
  ExecResult R = H.run();
  EXPECT_EQ(R.Kind, TrapKind::IllegalInstruction);
  EXPECT_EQ(R.Pc, 8u);
}

//===----------------------------------------------------------------------===//
// Superinstruction seams
//===----------------------------------------------------------------------===//
// The threaded engine fuses cmp+branch, LdI+LdIH, and AddI+load/store
// pairs. These cases pin the architectural behavior at the seams of a
// pair; on the switch engine they are ordinary programs, so any backend
// difference is a test failure on exactly one parameterization.

TEST_P(VmExecTest, UnalignedPcAfterFusedBranch) {
  H.emit(Opcode::LdI, 2, 0, 0, 1);
  H.emit(Opcode::Seq, 3, 2, 2);      // r3 = 1 (fusible with the branch)
  H.emit(Opcode::Bnez, 0, 3, 0, 12); // taken: 16 + 12 = 28, misaligned
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  EXPECT_EQ(R.Kind, TrapKind::UnalignedPc);
  EXPECT_EQ(R.Pc, 28u);
  EXPECT_EQ(R.InstructionsRetired, 3u); // the branch itself retired
  EXPECT_EQ(H.RegsAfter[3], 1u);        // and the cmp wrote its result
}

TEST_P(VmExecTest, BudgetExhaustionOnSuperinstructionBoundary) {
  H.emit(Opcode::LdI, 2, 0, 0, 5);
  H.emit(Opcode::Seq, 3, 2, 2);     // retires as instruction #2
  H.emit(Opcode::Bnez, 0, 3, 0, 8); // would retire as #3
  H.emit(Opcode::Halt);
  ExecResult R = H.run(nullptr, 2);
  EXPECT_EQ(R.Kind, TrapKind::BudgetExhausted);
  EXPECT_EQ(R.InstructionsRetired, 2u); // exactly the budget, never 3
  EXPECT_EQ(R.Pc, 16u);                 // stopped at the branch
  EXPECT_EQ(H.RegsAfter[3], 1u);        // cmp half executed
}

TEST_P(VmExecTest, FusedPairsRetireArchitecturalCount) {
  H.emit(Opcode::LdI, 1, 0, 0, 0x11111111);
  H.emit(Opcode::LdIH, 1, 0, 0, 0x2222);
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.InstructionsRetired, 3u); // pre-fusion count
  EXPECT_EQ(R.ReturnValue, 0x222211111111ull);

  // Budget 1 splits the pair: only the LdI half runs.
  ExecResult Partial = H.run(nullptr, 1);
  EXPECT_EQ(Partial.Kind, TrapKind::BudgetExhausted);
  EXPECT_EQ(Partial.InstructionsRetired, 1u);
  EXPECT_EQ(Partial.Pc, 8u);
  EXPECT_EQ(H.RegsAfter[1], 0x11111111u);
}

TEST_P(VmExecTest, FusedMemoryFaultReportsSecondSlot) {
  H.emit(Opcode::LdI, 2, 0, 0, 1 << 16);
  H.emit(Opcode::AddI, 4, 2, 0, 0); // fusible with the load below
  H.emit(Opcode::LdD, 5, 4, 0, 0);  // out of bounds: faults
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  EXPECT_EQ(R.Kind, TrapKind::MemoryFault);
  EXPECT_EQ(R.Pc, 16u);                 // the load, not the AddI
  EXPECT_EQ(R.InstructionsRetired, 3u); // both halves retired
  EXPECT_EQ(H.RegsAfter[4], 1u << 16);  // AddI half committed
}

TEST_P(VmExecTest, IllegalOpcodeInSlotAfterPreDecode) {
  // A store rewrites an already-decoded downstream slot with zeros; the
  // engine must execute the new (illegal) bytes, not its stale decode.
  H.emit(Opcode::LdI, 2, 0, 0, 40); // address of the Halt slot
  H.emit(Opcode::StD, 0, 2, 0, 0);  // zero out slot 5
  H.emit(Opcode::Nop);
  H.emit(Opcode::Nop);
  H.emit(Opcode::Nop);
  H.emit(Opcode::Halt); // slot 5: becomes Illegal mid-run
  ExecResult R = H.run();
  EXPECT_EQ(R.Kind, TrapKind::IllegalInstruction);
  EXPECT_EQ(R.Pc, 40u);
  EXPECT_EQ(R.InstructionsRetired, 6u);
}

TEST_P(VmExecTest, RestoreWriteInvalidationMidRun) {
  // A tcall handler rewriting code mid-run is exactly how SGXElide
  // restores elided functions: the instruction after the tcall must be
  // fetched from the restored bytes.
  H.emit(Opcode::Tcall, 0, 0, 0, 0);
  H.emit(Opcode::Nop);
  H.emit(Opcode::LdI, 1, 0, 0, 111); // slot 2: replaced by the handler
  H.emit(Opcode::Halt);
  ExecResult R = H.run([](Vm &M) {
    M.setTcallHandler([](uint32_t, Vm &V) -> Expected<uint64_t> {
      Bytes Patch;
      emitInstruction(Patch, {Opcode::LdI, 1, 0, 0, 222});
      if (Error E = V.writeBytes(16, Patch))
        return E;
      return 0;
    });
  });
  ASSERT_TRUE(R.halted()) << R.Message;
  EXPECT_EQ(R.ReturnValue, 222u);
}

TEST_P(VmExecTest, BranchIntoMiddleOfFusedPair) {
  // Jumping to the second half of a fusible pair must execute that
  // instruction standalone.
  H.emit(Opcode::Jmp, 0, 0, 0, 24);  // to slot 3 (the LdIH)
  H.emit(Opcode::LdI, 1, 0, 0, 0x1); // slot 1 \ fusible pair, skipped
  H.emit(Opcode::LdIH, 1, 0, 0, 2);  // slot 2 / first half
  H.emit(Opcode::LdIH, 1, 0, 0, 3);  // slot 3: jump target
  H.emit(Opcode::Halt);
  ExecResult R = H.run();
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.ReturnValue, 0x300000000ull);
}

//===----------------------------------------------------------------------===//
// Host calls
//===----------------------------------------------------------------------===//

TEST_P(VmExecTest, TcallDispatchesAndReturnsInR1) {
  H.emit(Opcode::LdI, 1, 0, 0, 20);
  H.emit(Opcode::Tcall, 0, 0, 0, 3);
  H.emit(Opcode::Halt);
  ExecResult R = H.run([](Vm &M) {
    M.setTcallHandler([](uint32_t Index, Vm &V) -> Expected<uint64_t> {
      EXPECT_EQ(Index, 3u);
      return V.reg(1) * 2 + 2;
    });
  });
  ASSERT_TRUE(R.halted());
  EXPECT_EQ(R.ReturnValue, 42u);
}

TEST_P(VmExecTest, MissingOcallHandlerFaults) {
  H.emit(Opcode::Ocall, 0, 0, 0, 0);
  ExecResult R = H.run();
  EXPECT_EQ(R.Kind, TrapKind::HandlerFault);
}

TEST_P(VmExecTest, HandlerErrorBecomesFault) {
  H.emit(Opcode::Tcall, 0, 0, 0, 9);
  ExecResult R = H.run([](Vm &M) {
    M.setTcallHandler([](uint32_t, Vm &) -> Expected<uint64_t> {
      return makeError("deliberate");
    });
  });
  EXPECT_EQ(R.Kind, TrapKind::HandlerFault);
  EXPECT_NE(R.Message.find("deliberate"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Disassembler
//===----------------------------------------------------------------------===//

TEST(DisassemblerTest, FormatsCommonInstructions) {
  EXPECT_EQ(disassembleInstruction({Opcode::Add, 1, 2, 3, 0}, 0),
            "add    r1, r2, r3");
  EXPECT_EQ(disassembleInstruction({Opcode::LdI, 4, 0, 0, -7}, 0),
            "ldi    r4, -7");
  EXPECT_EQ(disassembleInstruction({Opcode::LdD, 2, 29, 0, 16}, 0),
            "ldd    r2, [r29+16]");
  EXPECT_EQ(disassembleInstruction({Opcode::StB, 0, 5, 6, -1}, 0),
            "stb    [r5-1], r6");
  EXPECT_EQ(disassembleInstruction({Opcode::Call, 0, 0, 0, 64}, 0x100),
            "call   0x140");
  EXPECT_EQ(disassembleInstruction({Opcode::Tcall, 0, 0, 0, 5}, 0),
            "tcall  #5");
}

TEST(DisassemblerTest, NamesUndefinedOpcodeBytes) {
  // Data between functions decodes to bytes no opcode defines; the audit
  // quotes such slots in its messages.
  EXPECT_EQ(disassembleInstruction({static_cast<Opcode>(0x7f), 1, 2, 3, 4}, 0),
            ".op 0x7f");
  EXPECT_EQ(disassembleInstruction({static_cast<Opcode>(0xff), 0, 0, 0, 0}, 8),
            ".op 0xff");
}

TEST(DisassemblerTest, CountsValidSlots) {
  Bytes Code;
  emitInstruction(Code, {Opcode::Add, 1, 2, 3, 0});
  emitInstruction(Code, {Opcode::Illegal, 0, 0, 0, 0});
  emitInstruction(Code, {Opcode::Halt, 0, 0, 0, 0});
  EXPECT_EQ(countValidInstructionSlots(Code), 2u);
}

TEST(DisassemblerTest, DecodeRegionYieldsPcsAndDropsRaggedTail) {
  Bytes Code;
  emitInstruction(Code, {Opcode::Nop, 0, 0, 0, 0});
  emitInstruction(Code, {Opcode::Jmp, 0, 0, 0, -8});
  Code.resize(Code.size() + 5, 0xCC); // Partial slot: not decodable.
  std::vector<DecodedSlot> Slots = decodeRegion(Code, 0x2000);
  ASSERT_EQ(Slots.size(), 2u);
  EXPECT_EQ(Slots[0].Pc, 0x2000u);
  EXPECT_TRUE(Slots[0].Valid);
  EXPECT_EQ(Slots[1].Pc, 0x2008u);
  EXPECT_EQ(Slots[1].I.Op, Opcode::Jmp);
}

TEST(DisassemblerTest, StructuredDecodePredicates) {
  EXPECT_TRUE(isConditionalBranch(Opcode::Beqz));
  EXPECT_TRUE(isConditionalBranch(Opcode::Bnez));
  EXPECT_FALSE(isConditionalBranch(Opcode::Jmp));
  EXPECT_TRUE(isLoadOpcode(Opcode::LdBU));
  EXPECT_TRUE(isLoadOpcode(Opcode::LdD));
  EXPECT_FALSE(isLoadOpcode(Opcode::LdI)); // Immediate, not memory.
  EXPECT_TRUE(isStoreOpcode(Opcode::StD));
  EXPECT_FALSE(isStoreOpcode(Opcode::LdD));
  EXPECT_TRUE(endsStraightLine(Opcode::Ret));
  EXPECT_TRUE(endsStraightLine(Opcode::Illegal));
  EXPECT_FALSE(endsStraightLine(Opcode::Call));
  EXPECT_FALSE(endsStraightLine(Opcode::Beqz));
}

TEST(DisassemblerTest, DirectTargetResolvesPcRelativeTransfers) {
  Instruction Jmp{Opcode::Jmp, 0, 0, 0, 0x40};
  std::optional<uint64_t> T = directTarget(Jmp, 0x1000);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(*T, 0x1040u);
  Instruction Back{Opcode::Bnez, 0, 1, 0, -16};
  T = directTarget(Back, 0x1020);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(*T, 0x1010u);
  // Indirect and non-transfer instructions have no static target.
  EXPECT_FALSE(directTarget({Opcode::CallR, 0, 1, 0, 0}, 0).has_value());
  EXPECT_FALSE(directTarget({Opcode::Add, 1, 2, 3, 0}, 0).has_value());
}

} // namespace
