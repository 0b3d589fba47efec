//===- support/Backoff.h - Capped, jittered exponential backoff -----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one backoff schedule every wait in the host shares: the pause
/// between restore attempts, the supervisor's quarantine, and a circuit
/// breaker's cool-down. A wait doubles from its base up to a cap, then
/// gains up to +50 % seeded jitter so a fleet recovering from one outage
/// does not come back in lockstep.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SUPPORT_BACKOFF_H
#define SGXELIDE_SUPPORT_BACKOFF_H

#include <algorithm>
#include <cstdint>
#include <limits>

namespace elide {

/// The wait, in milliseconds, before retry \p Step (1-based): \p BaseMs
/// doubled Step - 1 times but never past max(BaseMs, CapMs), plus a jitter
/// in [0, wait / 2] drawn from \p Rng (anything with
/// `uint64_t nextBelow(uint64_t)`, such as `Drbg`). A base of 0 or less
/// waits 0 and draws nothing. No step and no base overflows.
template <typename RngT>
long long jitteredBackoffMs(long long BaseMs, int Step, long long CapMs,
                            RngT &Rng) {
  if (BaseMs <= 0)
    return 0;
  // A cap of at most half the range keeps the doubling and the jitter in
  // range.
  long long Cap = std::min(std::max(BaseMs, CapMs),
                           std::numeric_limits<long long>::max() / 2);
  long long Wait = std::min(BaseMs, Cap);
  for (int I = 1; I < Step && Wait < Cap; ++I)
    Wait = std::min(Wait * 2, Cap);
  return Wait + static_cast<long long>(
                    Rng.nextBelow(static_cast<uint64_t>(Wait) / 2 + 1));
}

} // namespace elide

#endif // SGXELIDE_SUPPORT_BACKOFF_H
