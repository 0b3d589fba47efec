//===- server/FaultInjection.cpp - Deterministic transport fault injection ------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "server/FaultInjection.h"

#include <chrono>
#include <thread>

using namespace elide;

Expected<Bytes> FaultInjectingTransport::roundTrip(BytesView Request) {
  FaultKind Kind = Schedule.next(TransportFaultKinds);
  switch (Kind) {
  case FaultKind::Drop:
    // The request evaporates before reaching the server.
    Schedule.applied(Kind);
    return makeTransportError(TransportErrc::InjectedFault,
                              "injected fault: request dropped");

  case FaultKind::Delay:
    Schedule.applied(Kind);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
    return Inner.roundTrip(Request);

  case FaultKind::Truncate: {
    ELIDE_TRY(Bytes Response, Inner.roundTrip(Request));
    if (Response.size() > 1) {
      Response.resize(1 + Schedule.effectBelow(Response.size() - 1));
      Schedule.applied(Kind);
    }
    return Response;
  }

  case FaultKind::Corrupt: {
    ELIDE_TRY(Bytes Response, Inner.roundTrip(Request));
    if (!Response.empty()) {
      size_t At = Schedule.effectBelow(Response.size());
      Response[At] ^= static_cast<uint8_t>(1 + Schedule.effectBelow(255));
      Schedule.applied(Kind);
    }
    return Response;
  }

  case FaultKind::DisconnectMidFrame:
    // The server processes the request (its state advances), but the
    // connection dies before the response frame completes -- the nastiest
    // case for client-side recovery.
    Schedule.applied(Kind);
    (void)Inner.roundTrip(Request);
    return makeTransportError(TransportErrc::PeerClosed,
                              "injected fault: peer disconnected mid-frame");

  case FaultKind::DuplicateRequest:
    // A retransmission bug / aggressive middlebox delivers the request
    // twice; the client consumes one response. Exercises server-side
    // idempotency.
    Schedule.applied(Kind);
    (void)Inner.roundTrip(Request);
    return Inner.roundTrip(Request);

  default:
    return Inner.roundTrip(Request);
  }
}
