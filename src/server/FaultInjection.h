//===- server/FaultInjection.h - Deterministic transport fault injection --------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Transport` decorator that injects network failures between the
/// restorer and the authentication server: dropped requests, delays,
/// truncated / corrupted responses, disconnects after the request was
/// delivered, and duplicated requests. Each round trip is one point of a
/// `FaultSchedule` (support/FaultSchedule.h), so a script places a fault
/// on an exact round trip (the fault-matrix tests) and a rate soaks the
/// retry paths (the stress tests), and a failing run replays exactly.
///
/// The decorator is thread-safe and wraps any `Transport` (loopback in
/// tests and benches, the TCP client in soak runs).
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_SERVER_FAULTINJECTION_H
#define SGXELIDE_SERVER_FAULTINJECTION_H

#include "crypto/Drbg.h"
#include "server/Transport.h"
#include "support/FaultSchedule.h"

#include <array>

namespace elide {

/// The kinds a round trip can apply; the fault matrix runs each.
inline constexpr std::array<FaultKind, 6> TransportFaultKinds = {
    FaultKind::Drop, FaultKind::Delay, FaultKind::Truncate, FaultKind::Corrupt,
    FaultKind::DisconnectMidFrame, FaultKind::DuplicateRequest};

/// The decorator. Owns no transport -- the inner one must outlive it.
class FaultInjectingTransport : public Transport {
public:
  /// \p DelayMs is the latency a `Delay` adds.
  FaultInjectingTransport(Transport &Inner, FaultPlan Plan, int DelayMs = 5)
      : Inner(Inner), Schedule(std::move(Plan)), DelayMs(DelayMs) {}

  Expected<Bytes> roundTrip(BytesView Request) override;

  /// Round trips seen and faults applied.
  FaultCounts counts() const { return Schedule.counts(); }

private:
  Transport &Inner;
  FaultSchedule<Drbg> Schedule;
  const int DelayMs;
};

} // namespace elide

#endif // SGXELIDE_SERVER_FAULTINJECTION_H
