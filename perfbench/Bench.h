//===- perfbench/Bench.h - Shared pieces of the benchmark -----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads share: the set-up fixture (7 apps x 2 storage
/// modes built through the real pipeline, plus the platform), the per-op
/// output checks, the seeded op order, and the workload interface the
/// main loop in Main.cpp runs.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_PERFBENCH_BENCH_H
#define SGXELIDE_PERFBENCH_BENCH_H

#include "Trace.h"

#include "apps/App.h"
#include "crypto/Drbg.h"
#include "elide/Pipeline.h"
#include "server/AuthServer.h"
#include "server/Transport.h"
#include "sgx/Attestation.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using elide::Bytes;
using elide::BytesView;
using elide::Error;
using elide::Expected;

/// A 64-bit value derived from the run seed for one purpose (\p Salt), so
/// every input the program receives comes from `--seed`.
uint64_t deriveSeed(uint64_t Seed, uint64_t Salt);

/// One measured value as the result line reports it.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The simulated platform: one device, its attestation authority and
/// quoting enclave.
struct Platform {
  explicit Platform(uint64_t Seed);
  Platform(const Platform &) = delete;
  Platform &operator=(const Platform &) = delete;

  elide::sgx::SgxDevice Device;
  elide::sgx::AttestationAuthority Authority;
  elide::sgx::QuotingEnclave Qe;
};

/// One app built in one storage mode, with what the per-op checks need.
struct AppBuild {
  const elide::apps::AppSpec *App = nullptr;
  elide::SecretStorage Mode = elide::SecretStorage::Remote;
  elide::BuildOptions Options;
  elide::BuildArtifacts Artifacts;
  /// Where `.text` sits and what the plain build holds there: the
  /// restored text must read back byte-identical.
  uint64_t TextAddr = 0;
  Bytes PlainText;

  bool remote() const { return Mode == elide::SecretStorage::Remote; }
  std::string kindName() const;
};

/// The first ecall an app makes after restore, with its known answer.
struct KnownAnswer {
  std::string Ecall;
  Bytes Input;
  size_t OutLen = 0;
  uint64_t Status = 0;
  Bytes Output;
};

/// Everything every workload's set-up builds.
struct Fixture {
  std::unique_ptr<Platform> Plat;
  /// Indexed by `kind(App, Mode)`: app-major, remote before local.
  std::vector<AppBuild> Builds;
  /// Indexed by app.
  std::vector<KnownAnswer> Answers;

  static constexpr size_t ModesPerApp = 2;
  static size_t kind(size_t App, bool Remote) {
    return App * ModesPerApp + (Remote ? 0 : 1);
  }
};

/// Runs the build pipeline for every app in both modes (each build is an
/// `elide.build` span) and derives the known answers.
Expected<std::unique_ptr<Fixture>> buildFixture(uint64_t Seed, Tracer &T);

/// An authentication server configuration serving \p B.
elide::AuthServerConfig serverConfigFor(const AppBuild &B, const Platform &P,
                                        uint64_t Seed);

/// Loads the sanitized image of \p B on the fixture's device.
Expected<std::unique_ptr<elide::sgx::Enclave>>
loadSanitized(const Fixture &F, const AppBuild &B);

/// The restored `.text`, read back through the enclave, equals the plain
/// build's `.text`.
Error checkRestoredText(elide::sgx::Enclave &E, const AppBuild &B);

/// The first ecall's result equals its known answer.
Error checkKnownAnswer(const Expected<elide::sgx::EcallResult> &R,
                       const KnownAnswer &K);

/// Seeded op order: each round visits every kind once, in a fresh seeded
/// order, so every run of a given length sees the same mix.
class Deck {
public:
  Deck(size_t Kinds, uint64_t Seed);
  size_t next();

private:
  elide::Drbg Rng;
  std::vector<size_t> Order;
  size_t Pos;
};

/// What one measured phase produced.
struct PhaseResult {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::vector<double> LatencyMs; ///< Verified ops only.
  double Seconds = 0;            ///< Wall time of the phase.
  std::string FirstError;
};

/// Runs \p Op back to back until \p End. \p Op sets the latency of an op
/// that passed its checks, or returns why it failed.
PhaseResult closedLoop(Clock::time_point End,
                       const std::function<Error(double &LatencyMs)> &Op);

/// The time point \p Seconds from now.
Clock::time_point deadlineAfter(double Seconds);

/// A workload: its factory sets it up (built, started, warmed up); the
/// main loop then runs timed phases and asks for its count metrics.
class Workload {
public:
  virtual ~Workload();
  /// Runs the closed loop for \p Seconds. Tracing is on for the whole
  /// phase or off for the whole phase, as the tracer says.
  virtual PhaseResult runPhase(double Seconds) = 0;
  /// Appends the per-layer metrics that are counts rather than spans.
  virtual void countMetrics(std::vector<Metric> &Out) const = 0;
  /// Ops whose exact counts differed from the warm-up's (canaries).
  virtual size_t canaryMismatches() const = 0;
};

Expected<std::unique_ptr<Workload>> makeColdStart(uint64_t Seed, Tracer &T);
Expected<std::unique_ptr<Workload>> makeSteadyKernels(uint64_t Seed,
                                                      Tracer &T);
Expected<std::unique_ptr<Workload>> makeProvisioning(uint64_t Seed,
                                                     Tracer &T);

} // namespace perfbench

#endif // SGXELIDE_PERFBENCH_BENCH_H
