//===- vm/Disassembler.cpp - SVM bytecode disassembler ------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Disassembler.h"

#include <cstdio>

using namespace elide;

const char *elide::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Illegal:
    return "illegal";
  case Opcode::Nop:
    return "nop";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::DivU:
    return "divu";
  case Opcode::DivS:
    return "divs";
  case Opcode::RemU:
    return "remu";
  case Opcode::RemS:
    return "rems";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::ShrL:
    return "shrl";
  case Opcode::ShrA:
    return "shra";
  case Opcode::AddI:
    return "addi";
  case Opcode::MulI:
    return "muli";
  case Opcode::AndI:
    return "andi";
  case Opcode::OrI:
    return "ori";
  case Opcode::XorI:
    return "xori";
  case Opcode::ShlI:
    return "shli";
  case Opcode::ShrLI:
    return "shrli";
  case Opcode::ShrAI:
    return "shrai";
  case Opcode::LdI:
    return "ldi";
  case Opcode::LdIH:
    return "ldih";
  case Opcode::Seq:
    return "seq";
  case Opcode::Sne:
    return "sne";
  case Opcode::SltU:
    return "sltu";
  case Opcode::SltS:
    return "slts";
  case Opcode::SleU:
    return "sleu";
  case Opcode::SleS:
    return "sles";
  case Opcode::LdBU:
    return "ldbu";
  case Opcode::LdBS:
    return "ldbs";
  case Opcode::LdHU:
    return "ldhu";
  case Opcode::LdHS:
    return "ldhs";
  case Opcode::LdWU:
    return "ldwu";
  case Opcode::LdWS:
    return "ldws";
  case Opcode::LdD:
    return "ldd";
  case Opcode::StB:
    return "stb";
  case Opcode::StH:
    return "sth";
  case Opcode::StW:
    return "stw";
  case Opcode::StD:
    return "std";
  case Opcode::Jmp:
    return "jmp";
  case Opcode::Beqz:
    return "beqz";
  case Opcode::Bnez:
    return "bnez";
  case Opcode::Call:
    return "call";
  case Opcode::CallR:
    return "callr";
  case Opcode::Ret:
    return "ret";
  case Opcode::Ocall:
    return "ocall";
  case Opcode::Tcall:
    return "tcall";
  case Opcode::Halt:
    return "halt";
  case Opcode::Trap:
    return "trap";
  }
  return "illegal";
}

bool elide::isValidOpcode(uint8_t Value) {
  Opcode Op = static_cast<Opcode>(Value);
  // Opcode 0 (Illegal) is a defined encoding but not a valid instruction.
  if (Op == Opcode::Illegal)
    return false;
  return std::string(opcodeName(Op)) != "illegal";
}

std::vector<DecodedSlot> elide::decodeRegion(BytesView Code,
                                             uint64_t BaseAddr) {
  std::vector<DecodedSlot> Out;
  Out.reserve(Code.size() / SvmInstrSize);
  for (size_t Off = 0; Off + SvmInstrSize <= Code.size();
       Off += SvmInstrSize) {
    DecodedSlot S;
    S.Pc = BaseAddr + Off;
    S.I = decodeInstruction(Code.data() + Off);
    S.Valid = isValidOpcode(Code[Off]);
    Out.push_back(S);
  }
  return Out;
}

bool elide::isConditionalBranch(Opcode Op) {
  return Op == Opcode::Beqz || Op == Opcode::Bnez;
}

bool elide::isLoadOpcode(Opcode Op) {
  return Op >= Opcode::LdBU && Op <= Opcode::LdD;
}

bool elide::isStoreOpcode(Opcode Op) {
  return Op >= Opcode::StB && Op <= Opcode::StD;
}

bool elide::endsStraightLine(Opcode Op) {
  switch (Op) {
  case Opcode::Jmp:
  case Opcode::Ret:
  case Opcode::Halt:
  case Opcode::Trap:
  case Opcode::Illegal:
    return true;
  default:
    return false;
  }
}

std::optional<uint64_t> elide::directTarget(const Instruction &I,
                                            uint64_t Pc) {
  switch (I.Op) {
  case Opcode::Jmp:
  case Opcode::Beqz:
  case Opcode::Bnez:
  case Opcode::Call:
    return Pc + static_cast<uint64_t>(static_cast<int64_t>(I.Imm));
  default:
    return std::nullopt;
  }
}

std::string elide::disassembleInstruction(const Instruction &I, uint64_t Pc) {
  char Buf[128];
  // The switch covers only defined opcodes; any other byte (data between
  // functions) renders as itself.
  std::snprintf(Buf, sizeof(Buf), ".op 0x%02x", static_cast<unsigned>(I.Op));
  const char *Name = opcodeName(I.Op);
  switch (I.Op) {
  case Opcode::Illegal:
  case Opcode::Nop:
  case Opcode::Ret:
  case Opcode::Halt:
    std::snprintf(Buf, sizeof(Buf), "%s", Name);
    break;
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::DivU:
  case Opcode::DivS:
  case Opcode::RemU:
  case Opcode::RemS:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::ShrL:
  case Opcode::ShrA:
  case Opcode::Seq:
  case Opcode::Sne:
  case Opcode::SltU:
  case Opcode::SltS:
  case Opcode::SleU:
  case Opcode::SleS:
    std::snprintf(Buf, sizeof(Buf), "%-6s r%u, r%u, r%u", Name, I.Rd, I.Rs1,
                  I.Rs2);
    break;
  case Opcode::AddI:
  case Opcode::MulI:
  case Opcode::AndI:
  case Opcode::OrI:
  case Opcode::XorI:
  case Opcode::ShlI:
  case Opcode::ShrLI:
  case Opcode::ShrAI:
    std::snprintf(Buf, sizeof(Buf), "%-6s r%u, r%u, %d", Name, I.Rd, I.Rs1,
                  I.Imm);
    break;
  case Opcode::LdI:
  case Opcode::LdIH:
    std::snprintf(Buf, sizeof(Buf), "%-6s r%u, %d", Name, I.Rd, I.Imm);
    break;
  case Opcode::LdBU:
  case Opcode::LdBS:
  case Opcode::LdHU:
  case Opcode::LdHS:
  case Opcode::LdWU:
  case Opcode::LdWS:
  case Opcode::LdD:
    std::snprintf(Buf, sizeof(Buf), "%-6s r%u, [r%u%+d]", Name, I.Rd, I.Rs1,
                  I.Imm);
    break;
  case Opcode::StB:
  case Opcode::StH:
  case Opcode::StW:
  case Opcode::StD:
    std::snprintf(Buf, sizeof(Buf), "%-6s [r%u%+d], r%u", Name, I.Rs1, I.Imm,
                  I.Rs2);
    break;
  case Opcode::Jmp:
  case Opcode::Call:
    std::snprintf(Buf, sizeof(Buf), "%-6s 0x%llx", Name,
                  static_cast<unsigned long long>(
                      Pc + static_cast<uint64_t>(static_cast<int64_t>(I.Imm))));
    break;
  case Opcode::Beqz:
  case Opcode::Bnez:
    std::snprintf(Buf, sizeof(Buf), "%-6s r%u, 0x%llx", Name, I.Rs1,
                  static_cast<unsigned long long>(
                      Pc + static_cast<uint64_t>(static_cast<int64_t>(I.Imm))));
    break;
  case Opcode::CallR:
    std::snprintf(Buf, sizeof(Buf), "%-6s r%u", Name, I.Rs1);
    break;
  case Opcode::Ocall:
  case Opcode::Tcall:
  case Opcode::Trap:
    std::snprintf(Buf, sizeof(Buf), "%-6s #%d", Name, I.Imm);
    break;
  }
  return Buf;
}

std::string elide::disassemble(BytesView Code, uint64_t BaseAddr) {
  std::string Out;
  char Line[160];
  for (const DecodedSlot &S : decodeRegion(Code, BaseAddr)) {
    if (!S.Valid && S.I.Op != Opcode::Illegal) {
      std::snprintf(
          Line, sizeof(Line), "%08llx:  .word 0x%016llx\n",
          static_cast<unsigned long long>(S.Pc),
          static_cast<unsigned long long>(
              readLE64(Code.data() + (S.Pc - BaseAddr))));
    } else {
      std::snprintf(Line, sizeof(Line), "%08llx:  %s\n",
                    static_cast<unsigned long long>(S.Pc),
                    disassembleInstruction(S.I, S.Pc).c_str());
    }
    Out += Line;
  }
  return Out;
}

size_t elide::countValidInstructionSlots(BytesView Code) {
  size_t Count = 0;
  for (const DecodedSlot &S : decodeRegion(Code, /*BaseAddr=*/0))
    if (S.Valid)
      ++Count;
  return Count;
}
