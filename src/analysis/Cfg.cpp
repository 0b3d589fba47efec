//===- analysis/Cfg.cpp - Static CFG over SVM code -------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"

#include "vm/Disassembler.h"

#include <algorithm>
#include <deque>
#include <map>
#include <set>

namespace elide {
namespace analysis {

namespace {

/// True when the opcode ends a basic block: any transfer of control,
/// including calls (their fallthrough edge models the return).
bool endsBlock(Opcode Op) {
  switch (Op) {
  case Opcode::Jmp:
  case Opcode::Beqz:
  case Opcode::Bnez:
  case Opcode::Call:
  case Opcode::CallR:
  case Opcode::Ret:
  case Opcode::Halt:
  case Opcode::Trap:
  case Opcode::Illegal:
    return true;
  default:
    return false;
  }
}

} // namespace

Instruction Cfg::instrAt(uint64_t Pc) const {
  return decodeInstruction(Code.data() + (Pc - Base));
}

int Cfg::blockContaining(uint64_t Pc) const {
  // Blocks are sorted by Start and do not overlap.
  size_t Lo = 0, Hi = Blocks.size();
  while (Lo < Hi) {
    size_t Mid = (Lo + Hi) / 2;
    if (Blocks[Mid].End <= Pc)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  if (Lo < Blocks.size() && Blocks[Lo].Start <= Pc && Pc < Blocks[Lo].End)
    return (int)Lo;
  return -1;
}

int Cfg::blockStartingAt(uint64_t Pc) const {
  int Idx = blockContaining(Pc);
  return (Idx >= 0 && Blocks[Idx].Start == Pc) ? Idx : -1;
}

Cfg Cfg::build(BytesView Code, uint64_t BaseAddr,
               const std::vector<uint64_t> &Roots) {
  Cfg G;
  G.Code = Code;
  G.Base = BaseAddr;
  G.Size = Code.size() <= UINT64_MAX - BaseAddr ? Code.size() : 0;

  const size_t SlotCount = G.Size / SvmInstrSize;
  std::vector<uint8_t> Visited(SlotCount, 0);
  std::vector<uint8_t> Leader(SlotCount, 0);
  auto slotOf = [&](uint64_t Pc) { return (size_t)((Pc - BaseAddr) / SvmInstrSize); };

  // --- Discovery: forward exploration from the roots. ---
  std::deque<uint64_t> Queue;
  for (uint64_t R : Roots) {
    if (!G.contains(R))
      continue;
    Leader[slotOf(R)] = 1;
    Queue.push_back(R);
  }
  while (!Queue.empty()) {
    uint64_t Pc = Queue.front();
    Queue.pop_front();
    size_t Slot = slotOf(Pc);
    if (Visited[Slot])
      continue;
    Visited[Slot] = 1;
    Instruction I = G.instrAt(Pc);
    if (std::optional<uint64_t> T = directTarget(I, Pc)) {
      if (G.contains(*T)) {
        Leader[slotOf(*T)] = 1;
        Queue.push_back(*T);
      }
    }
    // Fallthrough: everything except the no-return terminators.
    if (!endsStraightLine(I.Op)) {
      uint64_t Next = Pc + SvmInstrSize;
      if (G.contains(Next)) {
        // A multi-successor instruction starts a new block after it.
        if (endsBlock(I.Op))
          Leader[slotOf(Next)] = 1;
        Queue.push_back(Next);
      }
    }
  }

  // --- Slice the visited slots into blocks. ---
  std::map<uint64_t, uint32_t> StartIndex;
  for (size_t Slot = 0; Slot < SlotCount; ++Slot) {
    if (!Visited[Slot] || !(Leader[Slot] || Slot == 0 || !Visited[Slot - 1] ||
                            endsBlock(G.instrAt(BaseAddr + (Slot - 1) *
                                                               SvmInstrSize)
                                          .Op)))
      continue;
    CfgBlock B;
    B.Start = BaseAddr + Slot * SvmInstrSize;
    size_t End = Slot;
    while (true) {
      Instruction I = G.instrAt(BaseAddr + End * SvmInstrSize);
      ++End;
      if (endsBlock(I.Op))
        break;
      if (End >= SlotCount || !Visited[End] || Leader[End])
        break;
    }
    B.End = BaseAddr + End * SvmInstrSize;
    B.TermPc = B.End - SvmInstrSize;
    Instruction Term = G.instrAt(B.TermPc);
    B.Term = Term.Op;
    if (std::optional<uint64_t> T = directTarget(Term, B.TermPc)) {
      if (G.contains(*T))
        B.TargetPc = *T;
      else
        B.EscapeTargets.push_back(*T);
    }
    B.HasIndirect = Term.Op == Opcode::CallR;
    if (!endsStraightLine(Term.Op)) {
      if (G.contains(B.End) && Visited[slotOf(B.End)])
        B.FallPc = B.End;
      else if (!G.contains(B.End))
        B.EscapeTargets.push_back(B.End); // Execution falls off the region.
    }
    StartIndex[B.Start] = (uint32_t)G.Blocks.size();
    G.Blocks.push_back(std::move(B));
  }

  // --- Resolve successor edges. ---
  for (CfgBlock &B : G.Blocks) {
    auto addSucc = [&](uint64_t Pc) {
      auto It = StartIndex.find(Pc);
      if (It == StartIndex.end())
        return;
      if (std::find(B.Succs.begin(), B.Succs.end(), It->second) ==
          B.Succs.end())
        B.Succs.push_back(It->second);
    };
    if (B.TargetPc)
      addSucc(*B.TargetPc);
    if (B.FallPc)
      addSucc(*B.FallPc);
  }

  G.computeCycles();
  return G;
}

/// Iterative Tarjan SCC; a block is "in a cycle" when its SCC has more
/// than one member, or it has a self-edge.
void Cfg::computeCycles() {
  const size_t N = Blocks.size();
  CycleFlags.assign(N, false);
  std::vector<uint32_t> Index(N, 0), LowLink(N, 0);
  std::vector<uint8_t> OnStack(N, 0), Seen(N, 0);
  std::vector<uint32_t> Stack;
  uint32_t NextIndex = 1;

  struct Frame {
    uint32_t Node;
    size_t SuccPos;
  };
  for (uint32_t Start = 0; Start < N; ++Start) {
    if (Seen[Start])
      continue;
    std::vector<Frame> Frames{{Start, 0}};
    Seen[Start] = 1;
    Index[Start] = LowLink[Start] = NextIndex++;
    Stack.push_back(Start);
    OnStack[Start] = 1;
    while (!Frames.empty()) {
      Frame &F = Frames.back();
      if (F.SuccPos < Blocks[F.Node].Succs.size()) {
        uint32_t S = Blocks[F.Node].Succs[F.SuccPos++];
        if (!Seen[S]) {
          Seen[S] = 1;
          Index[S] = LowLink[S] = NextIndex++;
          Stack.push_back(S);
          OnStack[S] = 1;
          Frames.push_back({S, 0});
        } else if (OnStack[S]) {
          LowLink[F.Node] = std::min(LowLink[F.Node], Index[S]);
        }
        continue;
      }
      uint32_t Node = F.Node;
      Frames.pop_back();
      if (!Frames.empty())
        LowLink[Frames.back().Node] =
            std::min(LowLink[Frames.back().Node], LowLink[Node]);
      if (LowLink[Node] == Index[Node]) {
        // Pop the SCC rooted here.
        std::vector<uint32_t> Scc;
        while (true) {
          uint32_t M = Stack.back();
          Stack.pop_back();
          OnStack[M] = 0;
          Scc.push_back(M);
          if (M == Node)
            break;
        }
        bool Cyclic = Scc.size() > 1;
        if (!Cyclic)
          for (uint32_t S : Blocks[Node].Succs)
            Cyclic |= (S == Node);
        if (Cyclic)
          for (uint32_t M : Scc)
            CycleFlags[M] = true;
      }
    }
  }
}

} // namespace analysis
} // namespace elide
