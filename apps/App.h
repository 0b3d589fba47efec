//===- apps/App.h - The ported benchmark applications ---------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The seven benchmarks of the paper's Table 1, re-implemented with their
/// trusted components in Elc: four cryptographic algorithms (AES, DES,
/// SHA1, SHAs), two games (2048, Biniax), and a reverse-engineering
/// challenge (Crackme). Each `AppSpec` bundles the trusted sources, the
/// untrusted workload driver (the app's "built-in test suite", used by
/// Figures 3 and 4), and bookkeeping for Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_APPS_APP_H
#define SGXELIDE_APPS_APP_H

#include "elc/Compiler.h"
#include "sgx/Enclave.h"

#include <functional>
#include <vector>

namespace elide {
namespace apps {

/// One ported benchmark.
struct AppSpec {
  std::string Name;
  /// Trusted component sources (the secret algorithms).
  std::vector<elc::SourceFile> TrustedSources;
  /// The untrusted workload: runs the app's built-in test suite against a
  /// loaded (and, if sanitized, restored) enclave. Fails on any wrong
  /// output -- the enclave code must be *correct*, not merely runnable.
  std::function<Error(sgx::Enclave &)> RunWorkload;
  /// Games run indefinitely in the paper and are excluded from the
  /// overhead figures (they do appear in Tables 1 and 2).
  bool IsGame = false;
  /// Lines of Elc in the trusted component (Table 1's "LOC w/ SGX, TC").
  size_t trustedLoc() const;
};

/// All seven benchmarks, in the paper's Table 1 order.
const std::vector<AppSpec> &allApps();

/// Looks an app up by name; aborts if missing (programmer error).
const AppSpec &appByName(const std::string &Name);

// Individual factories (used by examples that want one app).
AppSpec makeAesApp();
AppSpec makeDesApp();
AppSpec makeSha1App();
AppSpec makeShasApp();
AppSpec make2048App();
AppSpec makeBiniaxApp();
AppSpec makeCrackmeApp();

} // namespace apps
} // namespace elide

#endif // SGXELIDE_APPS_APP_H
