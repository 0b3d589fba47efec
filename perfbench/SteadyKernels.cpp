//===- perfbench/SteadyKernels.cpp - Restored apps in steady state --------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `steady_kernels` workload: one thread. Set-up launches and restores
/// the seven sanitized enclaves (storage mode drawn from the seed); one op
/// runs one app's built-in suite, which checks every output against its
/// oracle. The seed draws the app order. No loader, crypto or server code
/// runs in the loop: this is the steady state of Figures 3/4.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "elide/HostRuntime.h"

using namespace elide;
using namespace perfbench;

namespace {

/// Span names, one per app (static storage for the recorder).
const std::vector<std::string> &suiteSpanNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const apps::AppSpec &App : apps::allApps())
      N.push_back("app.suite." + App.Name);
    return N;
  }();
  return Names;
}

class SteadyKernels final : public Workload {
public:
  SteadyKernels(uint64_t Seed, Tracer &T)
      : Seed(Seed), T(T), Order(apps::allApps().size(), deriveSeed(Seed, 11)) {}

  Error setUp();
  PhaseResult runPhase(double Seconds) override;
  void countMetrics(std::vector<Metric> &Out) const override;
  size_t canaryMismatches() const override { return Mismatches; }

private:
  /// One launched and restored app, kept for the whole run.
  struct Restored {
    std::unique_ptr<AuthServer> Server;
    std::unique_ptr<LoopbackTransport> Link;
    std::unique_ptr<ElideHost> Host;
    std::unique_ptr<sgx::Enclave> E;
  };

  Error runSuite(size_t App, double &LatencyMs, uint64_t &Instructions);

  uint64_t Seed;
  Tracer &T;
  std::unique_ptr<Fixture> F;
  std::vector<Restored> Apps;
  Deck Order;
  std::vector<uint64_t> Reference; ///< Instructions per suite, per app.
  size_t Mismatches = 0;
  uint64_t NextOp = 1;
  double TracedSuiteMs = 0;
  uint64_t TracedInstructions = 0;
};

Error SteadyKernels::setUp() {
  ELIDE_TRY(F, buildFixture(Seed, T));
  Drbg ModeRng(deriveSeed(Seed, 12));
  for (size_t A = 0; A < apps::allApps().size(); ++A) {
    const AppBuild &B = F->Builds[Fixture::kind(A, ModeRng.nextBelow(2) == 0)];
    Restored R;
    R.Server = std::make_unique<AuthServer>(
        serverConfigFor(B, *F->Plat, deriveSeed(Seed, 300 + A)));
    R.Link = std::make_unique<LoopbackTransport>(*R.Server);
    R.Host = std::make_unique<ElideHost>(R.Link.get(), &F->Plat->Qe);
    if (!B.remote())
      R.Host->setSecretDataFile(B.Artifacts.SecretData);
    ELIDE_TRY(R.E, loadSanitized(*F, B));
    R.Host->attach(*R.E);
    ELIDE_TRY(uint64_t Status, R.Host->restore(*R.E));
    if (Status != RestoreOk)
      return makeError(B.kindName() + ": restore status " +
                       restoreStatusName(Status));
    if (Error Err = checkRestoredText(*R.E, B))
      return Err;
    const KnownAnswer &K = F->Answers[A];
    if (Error Err = checkKnownAnswer(R.E->ecall(K.Ecall, K.Input, K.OutLen), K))
      return Err;
    Apps.push_back(std::move(R));
  }

  // Warm-up: one suite per app, which also fixes the instruction count
  // every later suite of that app must repeat.
  Reference.resize(Apps.size());
  for (size_t A = 0; A < Apps.size(); ++A) {
    double Ms = 0;
    if (Error Err = runSuite(A, Ms, Reference[A]))
      return makeError("warm-up " + apps::allApps()[A].Name + ": " +
                       Err.message());
  }
  return Error::success();
}

Error SteadyKernels::runSuite(size_t App, double &LatencyMs,
                              uint64_t &Instructions) {
  sgx::Enclave &E = *Apps[App].E;
  OpScope Op(NextOp++);
  uint64_t Retired0 = E.instructionsRetired();
  Clock::time_point Start = Clock::now();
  Error Err = [&] {
    ScopedSpan Span(T, suiteSpanNames()[App].c_str());
    return apps::allApps()[App].RunWorkload(E);
  }();
  LatencyMs =
      std::chrono::duration<double, std::milli>(Clock::now() - Start).count();
  Instructions = E.instructionsRetired() - Retired0;
  return Err;
}

PhaseResult SteadyKernels::runPhase(double Seconds) {
  return closedLoop(deadlineAfter(Seconds), [this](double &Ms) {
    size_t A = Order.next();
    uint64_t Instructions = 0;
    if (Error Err = runSuite(A, Ms, Instructions))
      return makeError(apps::allApps()[A].Name + ": " + Err.message());
    if (Instructions != Reference[A])
      ++Mismatches;
    if (T.on()) {
      TracedSuiteMs += Ms;
      TracedInstructions += Instructions;
    }
    return Error::success();
  });
}

void SteadyKernels::countMetrics(std::vector<Metric> &Out) const {
  for (size_t A = 0; A < Reference.size(); ++A)
    Out.push_back({"vm.suite_instructions." + apps::allApps()[A].Name,
                   static_cast<double>(Reference[A]), "instr"});
  Out.push_back({"vm.minstr_per_s",
                 TracedSuiteMs > 0 ? static_cast<double>(TracedInstructions) /
                                         (TracedSuiteMs * 1e3)
                                   : 0,
                 "Minstr/s"});
}

} // namespace

Expected<std::unique_ptr<Workload>>
perfbench::makeSteadyKernels(uint64_t Seed, Tracer &T) {
  auto W = std::make_unique<SteadyKernels>(Seed, T);
  if (Error Err = W->setUp())
    return Err;
  return std::unique_ptr<Workload>(std::move(W));
}
