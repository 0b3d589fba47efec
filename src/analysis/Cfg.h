//===- analysis/Cfg.h - Static CFG over SVM code ---------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A basic-block control-flow graph over a region of SVM code, built from
/// the structured decoder (`vm/Disassembler.h`). The graph is discovered
/// by forward exploration from a root set (ecall bridges, the restore
/// entry), so unreferenced data between functions never becomes a block.
///
/// The builder is total over hostile input: every target is bounds- and
/// alignment-checked before it becomes an edge; targets that leave the
/// region (or hit a misaligned slot) are recorded as escapes on the
/// source block instead. Zeroed slots decode to `Illegal` and terminate
/// their block, exactly as the interpreter would trap.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_ANALYSIS_CFG_H
#define SGXELIDE_ANALYSIS_CFG_H

#include "support/Bytes.h"
#include "vm/Isa.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace elide {
namespace analysis {

/// One basic block: the half-open pc range [Start, End), its terminator,
/// and resolved successor edges.
struct CfgBlock {
  uint64_t Start = 0;
  uint64_t End = 0; ///< One past the last slot; End - Start is a multiple
                    ///< of SvmInstrSize.

  /// Opcode of the last instruction. `Nop` family opcodes here mean the
  /// block was split by a leader and simply falls through.
  Opcode Term = Opcode::Illegal;
  uint64_t TermPc = 0;

  /// Direct transfer target (Jmp/Beqz/Bnez/Call), when in range.
  std::optional<uint64_t> TargetPc;
  /// Fallthrough successor pc, when execution can continue past End.
  std::optional<uint64_t> FallPc;

  /// Successor block indices (deduplicated, in discovery order).
  std::vector<uint32_t> Succs;
  /// Transfer targets that left the region or were misaligned.
  std::vector<uint64_t> EscapeTargets;
  /// The block ends in `callr`: one successor is statically unknown.
  bool HasIndirect = false;
};

/// The graph. Holds no copy of the code; the `BytesView` passed to
/// `build` must outlive the Cfg.
class Cfg {
public:
  /// Builds the CFG for \p Code (mapped at \p BaseAddr) reachable from
  /// \p Roots. Misaligned or out-of-range roots are ignored.
  static Cfg build(BytesView Code, uint64_t BaseAddr,
                   const std::vector<uint64_t> &Roots);

  const std::vector<CfgBlock> &blocks() const { return Blocks; }

  /// Index of the block whose range contains \p Pc, or -1.
  int blockContaining(uint64_t Pc) const;

  /// Index of the block starting exactly at \p Pc, or -1.
  int blockStartingAt(uint64_t Pc) const;

  /// Decodes the instruction at \p Pc (must lie inside the region).
  Instruction instrAt(uint64_t Pc) const;

  /// True when \p BlockIdx sits on a cycle (including a self-edge):
  /// the loop-detection input for the timing-compare heuristic.
  bool inCycle(uint32_t BlockIdx) const { return CycleFlags[BlockIdx]; }

  uint64_t baseAddr() const { return Base; }
  uint64_t limit() const { return Base + (Size / SvmInstrSize) * SvmInstrSize; }

  /// True when \p Pc addresses a whole, aligned slot of the region. The
  /// test compares offsets: a target near 2^64 must not wrap into range.
  /// A region whose end does not fit in 64 bits holds no slots at all, so
  /// no block's End can wrap.
  bool contains(uint64_t Pc) const {
    return Pc >= Base && Pc % SvmInstrSize == 0 && Size >= SvmInstrSize &&
           Pc - Base <= Size - SvmInstrSize;
  }

private:
  BytesView Code;
  uint64_t Base = 0;
  uint64_t Size = 0;
  std::vector<CfgBlock> Blocks;
  std::vector<bool> CycleFlags;

  void computeCycles();
};

} // namespace analysis
} // namespace elide

#endif // SGXELIDE_ANALYSIS_CFG_H
