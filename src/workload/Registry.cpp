//===- workload/Registry.cpp - Benchmark registry --------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "workload/scenario/ScenarioWorkload.h"

#include <stdexcept>

using namespace aoci;

const std::vector<std::string> &aoci::workloadNames() {
  static const std::vector<std::string> Names = {
      "compress", "jess", "db",   "javac",
      "mpegaudio", "mtrt", "jack", "SPECjbb2000"};
  return Names;
}

Workload aoci::makeWorkload(const std::string &Name, WorkloadParams Params) {
  if (Name == "compress")
    return makeCompress(Params);
  if (Name == "jess")
    return makeJess(Params);
  if (Name == "db")
    return makeDb(Params);
  if (Name == "javac")
    return makeJavac(Params);
  if (Name == "mpegaudio")
    return makeMpegaudio(Params);
  if (Name == "mtrt")
    return makeMtrt(Params);
  if (Name == "jack")
    return makeJack(Params);
  if (Name == "SPECjbb2000")
    return makeJbb(Params);
  // Built-in adversarial scenarios ("scn-...") are addressable wherever a
  // workload name is, but stay out of workloadNames() so the Table 1 grid
  // and its fingerprint goldens are unchanged.
  if (const ScenarioSpec *S = findBuiltinScenario(Name))
    return makeScenarioWorkload(*S, Params);
  throw std::invalid_argument("unknown workload '" + Name + "'");
}
