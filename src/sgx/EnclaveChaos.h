//===- sgx/EnclaveChaos.h - Deterministic execution-side fault injection -------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-side twin of `FaultInjectingTransport`: where that
/// decorator breaks the *network* between restorer and server, this one
/// breaks the *enclave* under the supervisor -- scribbled ecall entry
/// points (a real IllegalInstruction trap at a real PC), clamped
/// instruction budgets (a real BudgetExhausted runaway), failed restore
/// exchanges, and corrupted sealed-cache blobs.
///
/// Both run on one `FaultSchedule` (support/FaultSchedule.h). Every ecall
/// and every restore pass is one point of it: an ecall point can apply
/// TrapScribble and BudgetClamp, a restore point RestoreFail and
/// SealedCorrupt. `EnclaveSupervisor::setChaos` is the consumer.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SGX_ENCLAVECHAOS_H
#define SGXELIDE_SGX_ENCLAVECHAOS_H

#include "crypto/Drbg.h"
#include "sgx/Enclave.h"
#include "support/FaultSchedule.h"

#include <string>

namespace elide {
namespace sgx {

/// The seeded schedule plus the enclave-side effects. Thread-safe.
class EnclaveChaos {
public:
  /// \p ClampBudget is the instruction budget a BudgetClamp ecall runs
  /// under.
  explicit EnclaveChaos(FaultPlan Plan, uint64_t ClampBudget = 16)
      : Schedule(std::move(Plan)), ClampBudget(ClampBudget) {}

  /// Consulted by the supervisor before dispatching an ecall. May zero
  /// the entry of \p Name inside \p E (TrapScribble). Returns the kind
  /// actually armed: for BudgetClamp the supervisor applies the clamp
  /// (see `clampBudget`); an unknown ecall arms None.
  FaultKind armEcall(Enclave &E, const std::string &Name);

  /// Consulted by the supervisor before a restore attempt. May flip a
  /// byte of the sealed-cache container at \p SealedPath (SealedCorrupt;
  /// None when the path is empty or the file is missing). RestoreFail is
  /// returned for the supervisor to apply at its exchange seam.
  FaultKind armRestore(const std::string &SealedPath);

  uint64_t clampBudget() const { return ClampBudget; }

  /// Points seen (ecalls and restore passes) and faults applied.
  FaultCounts counts() const { return Schedule.counts(); }

private:
  FaultSchedule<Drbg> Schedule;
  const uint64_t ClampBudget;
};

} // namespace sgx
} // namespace elide

#endif // SGXELIDE_SGX_ENCLAVECHAOS_H
