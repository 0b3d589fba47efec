//===- support/FaultSchedule.h - The one seeded fault schedule ------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault schedule every injector shares. `FaultInjectingTransport`
/// (server/FaultInjection.h) breaks the network between restorer and
/// server; `sgx::EnclaveChaos` (sgx/EnclaveChaos.h) breaks the enclave
/// under the supervisor. At each injection point an injector asks the
/// schedule for a fault, applies it, and reports what it applied.
///
/// Two modes compose:
///  - a *script*: point N (0-based) suffers `Script[N]`, so
///    `{None x k, Kind}` fails exactly visit k;
///  - a *rate*: a point past the script faults with probability
///    `FaultPerMille / 1000`, its kind picked from `RateKinds` (empty: the
///    kinds that point can apply).
///
/// The draw discipline keeps every replay exact. Each point takes two
/// draws from the decision stream (the roll and the pick), scripted or
/// not, whatever fired and whatever the point can apply. A kind the point
/// cannot apply becomes `None`; a scripted one still uses up its slot.
/// Effect randomness (a truncation length, a corrupted byte, a position
/// in the sealed cache) comes from a second stream, so applying a fault
/// never moves a later decision.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SUPPORT_FAULTSCHEDULE_H
#define SGXELIDE_SUPPORT_FAULTSCHEDULE_H

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

namespace elide {

/// The fault vocabulary of both injectors.
enum class FaultKind {
  None, ///< Pass through untouched.
  // The network (FaultInjectingTransport).
  Drop,               ///< Request never reaches the server.
  Delay,              ///< Exchange completes after an added delay.
  Truncate,           ///< Response arrives cut short.
  Corrupt,            ///< Response arrives with a flipped byte.
  DisconnectMidFrame, ///< Server got the request; the response is lost.
  DuplicateRequest,   ///< Request delivered twice (client reads one reply).
  // The enclave (sgx::EnclaveChaos).
  TrapScribble,  ///< Zero an ecall entry: the next entry traps Illegal.
  BudgetClamp,   ///< Clamp the instruction budget: a runaway ecall.
  RestoreFail,   ///< The provisioning exchange under a restore fails.
  SealedCorrupt, ///< Flip a byte in the on-disk sealed-cache container.
};

inline constexpr size_t NumFaultKinds =
    static_cast<size_t>(FaultKind::SealedCorrupt) + 1;

/// Human-readable fault name (test output and test names).
inline const char *faultKindName(FaultKind Kind) {
  constexpr std::array<const char *, NumFaultKinds> Names = {
      "none", "drop", "delay", "truncate", "corrupt", "disconnect-mid-frame",
      "duplicate-request", "trap-scribble", "budget-clamp", "restore-fail",
      "sealed-corrupt"};
  size_t I = static_cast<size_t>(Kind);
  return I < NumFaultKinds ? Names[I] : "unknown";
}

/// What to inject and when.
struct FaultPlan {
  /// Seeds both streams: the decisions and the effects.
  uint64_t Seed = 1;
  /// Point N (0-based) suffers Script[N]; later points use the rate.
  std::vector<FaultKind> Script;
  /// Probability, in per-mille, that a point past the script faults.
  uint32_t FaultPerMille = 0;
  /// Kinds the rate picks from (empty: the point's applicable kinds).
  std::vector<FaultKind> RateKinds;
};

/// What a schedule has seen: its points, and the faults applied per kind.
struct FaultCounts {
  size_t Points = 0;
  std::array<size_t, NumFaultKinds> Applied{};

  size_t of(FaultKind Kind) const {
    return Applied[static_cast<size_t>(Kind)];
  }
  /// All applied faults (`None` is never counted).
  size_t injected() const {
    size_t Sum = 0;
    for (size_t N : Applied)
      Sum += N;
    return Sum;
  }
};

/// The seeded decision engine. \p RngT is anything constructible from a
/// `uint64_t` seed with `uint64_t next64()` and
/// `uint64_t nextBelow(uint64_t)`, such as `Drbg`. Thread-safe.
template <typename RngT> class FaultSchedule {
public:
  explicit FaultSchedule(FaultPlan P)
      : Plan(std::move(P)), Decisions(Plan.Seed),
        Effects(Plan.Seed ^ 0x4546464543545321ULL) {} // "EFFECTS!"

  /// Decides the next point's fault. Only a kind in \p Applicable is
  /// returned; any other becomes None.
  FaultKind next(std::span<const FaultKind> Applicable) {
    std::lock_guard<std::mutex> Lock(Mutex);
    size_t Index = Counts.Points++;
    // next64 rather than nextBelow: its rejection loop would make the
    // number of draws depend on the bound.
    bool Fire = Decisions.next64() % 1000 < Plan.FaultPerMille;
    uint64_t Pick = Decisions.next64();
    FaultKind Kind = FaultKind::None;
    if (Index < Plan.Script.size()) {
      Kind = Plan.Script[Index];
    } else if (Fire) {
      std::span<const FaultKind> Pool =
          Plan.RateKinds.empty() ? Applicable : Plan.RateKinds;
      if (!Pool.empty())
        Kind = Pool[Pick % Pool.size()];
    }
    bool CanApply = std::find(Applicable.begin(), Applicable.end(), Kind) !=
                    Applicable.end();
    return CanApply ? Kind : FaultKind::None;
  }

  /// A uniform effect draw in [0, Bound) (Bound > 0).
  uint64_t effectBelow(uint64_t Bound) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Effects.nextBelow(Bound);
  }

  /// Records that the injector applied \p Kind.
  void applied(FaultKind Kind) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Kind != FaultKind::None)
      ++Counts.Applied[static_cast<size_t>(Kind)];
  }

  FaultCounts counts() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Counts;
  }

private:
  const FaultPlan Plan;
  mutable std::mutex Mutex;
  RngT Decisions;     ///< Guarded by Mutex.
  RngT Effects;       ///< Guarded by Mutex.
  FaultCounts Counts; ///< Guarded by Mutex.
};

} // namespace elide

#endif // SGXELIDE_SUPPORT_FAULTSCHEDULE_H
