//===- sgx/EnclaveChaos.cpp - Deterministic execution-side fault injection -----===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sgx/EnclaveChaos.h"

#include "support/File.h"

using namespace elide;
using namespace elide::sgx;

namespace {

constexpr FaultKind EcallKinds[] = {FaultKind::TrapScribble,
                                    FaultKind::BudgetClamp};
constexpr FaultKind RestoreKinds[] = {FaultKind::RestoreFail,
                                      FaultKind::SealedCorrupt};

/// Zeroes the first instruction slot of ecall \p Name: the next entry
/// raises a real IllegalInstruction trap at the entry PC.
Error scribbleEcallEntry(Enclave &E, const std::string &Name) {
  ELIDE_TRY(uint64_t Addr, E.ecallAddress(Name));
  // Opcode 0 is the ISA's deliberate illegal encoding, so one zeroed
  // 8-byte instruction slot at the entry raises IllegalInstruction at
  // that PC on the next call. Writable only because the Sanitizer set
  // PF_W on the text segment (the paper's SGX1 design) -- the same
  // property the Runtime Restorer depends on.
  Bytes Zeros(8, 0);
  return E.writeMemory(Addr, Zeros);
}

/// Flips one byte of the sealed-cache container at \p Path. Any flipped
/// bit breaks the container CRC, so the next read quarantines the blob;
/// drawing the position varies whether the header or the sealed payload
/// absorbs the damage.
Error corruptSealedCache(const std::string &Path,
                         FaultSchedule<Drbg> &Schedule) {
  if (Path.empty() || !fileExists(Path))
    return makeError("no sealed cache on disk");
  ELIDE_TRY(Bytes Container, readFileBytes(Path));
  if (Container.empty())
    return makeError("sealed cache at " + Path + " is empty");
  Container[Schedule.effectBelow(Container.size())] ^= 0x40;
  return writeFileBytes(Path, Container);
}

} // namespace

FaultKind EnclaveChaos::armEcall(Enclave &E, const std::string &Name) {
  FaultKind K = Schedule.next(EcallKinds);
  if (K == FaultKind::TrapScribble && scribbleEcallEntry(E, Name))
    return FaultKind::None; // Unknown ecall: nothing to break.
  Schedule.applied(K);
  return K;
}

FaultKind EnclaveChaos::armRestore(const std::string &SealedPath) {
  FaultKind K = Schedule.next(RestoreKinds);
  if (K == FaultKind::SealedCorrupt &&
      corruptSealedCache(SealedPath, Schedule))
    return FaultKind::None; // No cache on disk to damage.
  Schedule.applied(K);
  return K;
}
