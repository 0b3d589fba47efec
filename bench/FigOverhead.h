//===- bench/FigOverhead.h - Shared Figure 3 / Figure 4 harness --------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The overhead experiment behind Figures 3 and 4: run each non-game
/// benchmark's built-in test suite end-to-end -- enclave creation,
/// (restoration,) workload -- under plain SGX and under SgxElide, and
/// report runtime normalized to the SGX baseline. The games are excluded,
/// as in the paper ("since the games run forever, we did not measure their
/// overhead").
///
//===----------------------------------------------------------------------===//

#ifndef SGXELIDE_BENCH_FIGOVERHEAD_H
#define SGXELIDE_BENCH_FIGOVERHEAD_H

#include "elide/Sanitizer.h"

namespace elide {
namespace bench {

/// Runs the experiment for one storage mode and prints the figure's data
/// series. Returns main()'s exit status.
int runOverheadFigure(int argc, char **argv, SecretStorage Storage,
                      const char *FigureName);

} // namespace bench
} // namespace elide

#endif // SGXELIDE_BENCH_FIGOVERHEAD_H
