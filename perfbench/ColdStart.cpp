//===- perfbench/ColdStart.cpp - Launch, restore and first ecall ----------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `cold_start` workload: one thread, closed loop. One op loads a
/// sanitized image (EADD/EEXTEND measurement, EINIT), attaches a fresh
/// host (no sealed state), restores through an in-process AuthServer, and
/// makes one known-answer ecall. The seed draws the app and storage mode.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "elide/HostRuntime.h"

using namespace elide;
using namespace perfbench;

namespace {

/// The benchmark's own in-process transport: hands each frame to
/// `AuthServer::handle`, counts it, and times it as a server span.
class TimedLoopback final : public Transport {
public:
  TimedLoopback(AuthServer &Server, Tracer &T) : Server(Server), T(T) {}

  Expected<Bytes> roundTrip(BytesView Request) override {
    ++Frames;
    bool Hello = !Request.empty() && Request[0] == FrameHello;
    ScopedSpan Span(T, Hello ? "server.handle_hello" : "server.handle_record");
    return Server.handle(Request);
  }

  size_t Frames = 0;

private:
  AuthServer &Server;
  Tracer &T;
};

class ColdStart final : public Workload {
public:
  ColdStart(uint64_t Seed, Tracer &T)
      : Seed(Seed), T(T),
        Order(apps::allApps().size() * Fixture::ModesPerApp,
              deriveSeed(Seed, 10)) {}

  Error setUp();
  PhaseResult runPhase(double Seconds) override;
  void countMetrics(std::vector<Metric> &Out) const override;
  size_t canaryMismatches() const override { return Mismatches; }

private:
  struct Endpoint {
    std::unique_ptr<AuthServer> Server;
    std::unique_ptr<TimedLoopback> Link;
  };
  /// What one op retired and sent, compared across ops of a kind.
  struct Counts {
    uint64_t RestoreInstructions = 0;
    size_t Frames = 0;
    bool operator==(const Counts &) const = default;
  };

  Error runOp(size_t Kind, double &LatencyMs, Counts &C);
  size_t handshakes() const;

  uint64_t Seed;
  Tracer &T;
  std::unique_ptr<Fixture> F;
  std::vector<Endpoint> Endpoints; ///< One per kind.
  Deck Order;
  std::vector<Counts> Reference; ///< Per kind, from the warm-up.
  size_t Mismatches = 0;
  size_t MeasuredOps = 0;
  size_t MeasuredHandshakes = 0;
  uint64_t NextOp = 1;
};

Error ColdStart::setUp() {
  ELIDE_TRY(F, buildFixture(Seed, T));
  for (size_t K = 0; K < F->Builds.size(); ++K) {
    Endpoint E;
    E.Server = std::make_unique<AuthServer>(
        serverConfigFor(F->Builds[K], *F->Plat, deriveSeed(Seed, 200 + K)));
    E.Link = std::make_unique<TimedLoopback>(*E.Server, T);
    Endpoints.push_back(std::move(E));
  }

  // Warm-up: one op per app x mode, which also fixes the exact counts
  // every later op of that kind must repeat.
  Reference.resize(F->Builds.size());
  for (size_t I = 0; I < F->Builds.size(); ++I) {
    size_t K = Order.next();
    double Ms = 0;
    if (Error Err = runOp(K, Ms, Reference[K]))
      return makeError("warm-up " + F->Builds[K].kindName() + ": " +
                       Err.message());
  }
  return Error::success();
}

Error ColdStart::runOp(size_t Kind, double &LatencyMs, Counts &C) {
  const AppBuild &B = F->Builds[Kind];
  const KnownAnswer &Answer = F->Answers[Kind / Fixture::ModesPerApp];
  TimedLoopback &Link = *Endpoints[Kind].Link;
  OpScope Op(NextOp++);
  size_t Frames0 = Link.Frames;

  Clock::time_point Start = Clock::now();
  std::unique_ptr<sgx::Enclave> E;
  {
    ScopedSpan Span(T, "sgx.load");
    ELIDE_TRY(E, loadSanitized(*F, B));
  }
  ElideHost Host(&Link, &F->Plat->Qe);
  if (!B.remote())
    Host.setSecretDataFile(B.Artifacts.SecretData);
  Host.attach(*E);
  uint64_t Retired0 = E->instructionsRetired();
  Expected<uint64_t> Status = [&] {
    ScopedSpan Span(T, "elide.restore");
    return Host.restore(*E);
  }();
  uint64_t Retired1 = E->instructionsRetired();
  Expected<sgx::EcallResult> First = [&] {
    ScopedSpan Span(T, "app.first_ecall");
    return E->ecall(Answer.Ecall, Answer.Input, Answer.OutLen);
  }();
  LatencyMs =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();

  if (!Status)
    return makeError("restore failed: " + Status.errorMessage());
  if (*Status != RestoreOk)
    return makeError(std::string("restore status ") +
                     restoreStatusName(*Status));
  if (Error Err = checkRestoredText(*E, B))
    return Err;
  if (Error Err = checkKnownAnswer(First, Answer))
    return Err;
  C.RestoreInstructions = Retired1 - Retired0;
  C.Frames = Link.Frames - Frames0;
  return Error::success();
}

size_t ColdStart::handshakes() const {
  size_t N = 0;
  for (const Endpoint &E : Endpoints)
    N += E.Server->stats().HandshakesCompleted;
  return N;
}

PhaseResult ColdStart::runPhase(double Seconds) {
  size_t Handshakes0 = handshakes();
  PhaseResult R = closedLoop(deadlineAfter(Seconds), [this](double &Ms) {
    size_t K = Order.next();
    Counts C;
    if (Error Err = runOp(K, Ms, C))
      return makeError(F->Builds[K].kindName() + ": " + Err.message());
    if (!(C == Reference[K]))
      ++Mismatches;
    return Error::success();
  });
  MeasuredOps += R.LatencyMs.size();
  MeasuredHandshakes += handshakes() - Handshakes0;
  return R;
}

void ColdStart::countMetrics(std::vector<Metric> &Out) const {
  // Means over the app x mode kinds: exact for a given build, whatever
  // mix of kinds a run happened to complete.
  double Instructions = 0, Frames = 0, DataBytes = 0;
  for (size_t K = 0; K < Reference.size(); ++K) {
    Instructions += static_cast<double>(Reference[K].RestoreInstructions);
    Frames += static_cast<double>(Reference[K].Frames);
    DataBytes += static_cast<double>(F->Builds[K].Artifacts.Meta.DataLength);
  }
  double Kinds = static_cast<double>(Reference.size());
  Out.push_back({"vm.restore_instructions", Instructions / Kinds, "instr"});
  Out.push_back({"elide.restored_bytes", DataBytes / Kinds, "bytes"});
  Out.push_back({"server.frames_per_op", Frames / Kinds, "frame/op"});
  Out.push_back({"server.handshakes_per_op",
                 MeasuredOps ? static_cast<double>(MeasuredHandshakes) /
                                   static_cast<double>(MeasuredOps)
                             : 0,
                 "handshake/op"});
}

} // namespace

Expected<std::unique_ptr<Workload>> perfbench::makeColdStart(uint64_t Seed,
                                                             Tracer &T) {
  auto W = std::make_unique<ColdStart>(Seed, T);
  if (Error Err = W->setUp())
    return Err;
  return std::unique_ptr<Workload>(std::move(W));
}
