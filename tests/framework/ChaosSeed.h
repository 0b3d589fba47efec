//===- tests/framework/ChaosSeed.h - Reproducing-seed plumbing -----------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One-line seed reproduction for every chaos/soak suite. Each seeded
/// test wraps its randomness root in a `ChaosSeedScope`:
///
///   ChaosSeedScope Seed("lifecycle-soak", 2024);
///   FaultPlan Plan;
///   Plan.Seed = Seed.value();
///
/// The scope resolves the effective seed -- `ELIDE_CHAOS_SEED` in the
/// environment overrides the suite default, which is how a failure gets
/// replayed -- and, if the test has failed by the time the scope closes,
/// prints a single line with the exact command to reproduce:
///
///   [chaos-seed] lifecycle-soak failed with seed 2024; replay with
///   ELIDE_CHAOS_SEED=2024 ctest -R <test> ...
///
/// Header-only on purpose: every suite already links gtest, and keeping
/// it out of a library means no CMake edits when a new suite adopts it.
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_TESTS_FRAMEWORK_CHAOSSEED_H
#define SGXELIDE_TESTS_FRAMEWORK_CHAOSSEED_H

#include "gtest/gtest.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace elide {
namespace testing {

/// The suite's effective seed: `ELIDE_CHAOS_SEED` when set and parseable,
/// \p Default otherwise.
inline uint64_t chaosSeedOr(uint64_t Default) {
  const char *Env = std::getenv("ELIDE_CHAOS_SEED");
  if (!Env || !*Env)
    return Default;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Env, &End, 0);
  if (End == Env || *End != '\0')
    return Default;
  return V;
}

/// RAII seed holder: resolves the effective seed at construction and
/// prints the one-line reproduction recipe if the surrounding test failed.
class ChaosSeedScope {
public:
  ChaosSeedScope(std::string Label, uint64_t Default)
      : Label(std::move(Label)), Seed(chaosSeedOr(Default)) {}

  ChaosSeedScope(const ChaosSeedScope &) = delete;
  ChaosSeedScope &operator=(const ChaosSeedScope &) = delete;

  ~ChaosSeedScope() {
    if (!::testing::Test::HasFailure())
      return;
    const ::testing::TestInfo *Info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::fprintf(stderr,
                 "[chaos-seed] %s failed with seed %llu; replay with "
                 "ELIDE_CHAOS_SEED=%llu ctest -R '%s.%s'\n",
                 Label.c_str(), static_cast<unsigned long long>(Seed),
                 static_cast<unsigned long long>(Seed),
                 Info ? Info->test_suite_name() : "?",
                 Info ? Info->name() : "?");
  }

  /// The seed every generator in the test must derive from.
  uint64_t value() const { return Seed; }

  /// A distinct but seed-determined value for a second generator in the
  /// same test (jitter RNGs, per-client seeds, ...).
  uint64_t derived(uint64_t Salt) const {
    return Seed ^ (0x9e3779b97f4a7c15ULL * (Salt + 1));
  }

private:
  std::string Label;
  uint64_t Seed;
};

} // namespace testing
} // namespace elide

#endif // SGXELIDE_TESTS_FRAMEWORK_CHAOSSEED_H
