//===- bench/BenchCommon.h - Shared benchmark scaffolding -------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scenario plumbing shared by `paper_report` and the ablations: build
/// artifacts per app (cached -- compilation is not what the paper times),
/// provisioned servers, and launch helpers. Each binary prints
/// paper-style tables.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_BENCH_BENCHCOMMON_H
#define SGXELIDE_BENCH_BENCHCOMMON_H

#include "apps/App.h"
#include "elide/HostRuntime.h"
#include "elide/Pipeline.h"
#include "server/Transport.h"

#include <memory>

namespace elide {
namespace bench {

/// Everything needed to launch and restore one app in one storage mode.
struct BenchScenario {
  const apps::AppSpec *App = nullptr;
  BuildOptions Options;
  BuildArtifacts Artifacts;
  std::unique_ptr<sgx::SgxDevice> Device;
  std::unique_ptr<sgx::AttestationAuthority> Authority;
  std::unique_ptr<sgx::QuotingEnclave> Qe;
  std::unique_ptr<AuthServer> Server;
  std::unique_ptr<LoopbackTransport> Link;

  /// Loads the sanitized image and attaches a fresh host (no sealed state
  /// unless \p ReuseHost is supplied).
  struct Launch {
    std::unique_ptr<sgx::Enclave> E;
    std::unique_ptr<ElideHost> Host;
  };
  Launch launchSanitized(ElideHost *ReuseHost = nullptr);

  /// Loads the plain (unsanitized) baseline image.
  Launch launchPlain();
};

/// Builds (and caches) the scenario for an app in a storage mode.
/// Aborts the process with a diagnostic on pipeline errors -- benchmarks
/// have no business continuing with broken artifacts.
BenchScenario &scenarioFor(const std::string &AppName, SecretStorage Storage);

/// Prints a horizontal rule + centered title for the paper-style tables.
void printTableHeader(const std::string &Title);

} // namespace bench
} // namespace elide

#endif // SGXELIDE_BENCH_BENCHCOMMON_H
