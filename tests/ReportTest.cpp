//===- tests/ReportTest.cpp - The bench JSON emitter ------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON shape every bench artifact but BENCH_provisioning.json
/// shares: perfbench's `metrics` object under the bench's name.
///
//===----------------------------------------------------------------------===//

#include "bench/Report.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace elide::bench;

namespace {

TEST(ReportTest, RendersMetricsInOrderAndNonFiniteAsZero) {
  Report R("paper_report");
  R.add("fig3.AES.relative_pct", 100.25, "%");
  R.add("fig3.AES.suite_instructions_plain", 5645357, "instr");
  R.add("broken", std::nan(""), "ms");
  EXPECT_EQ(R.render(),
            "{\n"
            "  \"bench\": \"paper_report\",\n"
            "  \"metrics\": {\n"
            "    \"fig3.AES.relative_pct\": {\"value\": 100.25, \"unit\": "
            "\"%\"},\n"
            "    \"fig3.AES.suite_instructions_plain\": {\"value\": 5645357, "
            "\"unit\": \"instr\"},\n"
            "    \"broken\": {\"value\": 0, \"unit\": \"ms\"}\n"
            "  }\n"
            "}\n");
}

TEST(ReportTest, EmptyReportIsStillAnObject) {
  EXPECT_EQ(Report("ablation_dispatch").render(),
            "{\n  \"bench\": \"ablation_dispatch\",\n  \"metrics\": {\n  }\n}\n");
}

} // namespace
