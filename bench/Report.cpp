//===- bench/Report.cpp - The bench JSON emitter -----------------------------===//
//
// Part of the SgxElide reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench/Report.h"

#include "support/File.h"

#include <cmath>
#include <cstdio>

using namespace elide;
using namespace elide::bench;

void Report::add(std::string Name, double Value, std::string Unit) {
  Metrics.push_back({std::move(Name), std::isfinite(Value) ? Value : 0,
                     std::move(Unit)});
}

std::string Report::render() const {
  std::string Json = "{\n  \"bench\": \"" + Bench + "\",\n  \"metrics\": {";
  char Value[32];
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    std::snprintf(Value, sizeof(Value), "%.10g", M.Value);
    Json += (I ? ",\n    \"" : "\n    \"") + M.Name + "\": {\"value\": " +
            Value + ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "\n  }\n}\n";
  return Json;
}

Error Report::write(const std::string &Path) const {
  if (Error E = writeFileBytes(Path, bytesOfString(render())))
    return E;
  std::printf("\nwrote %s\n", Path.c_str());
  return Error::success();
}
