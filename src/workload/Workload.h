//===- workload/Workload.h - Benchmark program registry ---------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark suite: synthetic stand-ins for SPECjvm98 and SPECjbb2000
/// (Table 1). Each generator hand-crafts the hot kernel that gives its
/// namesake benchmark its policy-discriminating behaviour (monomorphic
/// loops, context-dependent polymorphism, comparator dispatch, large
/// methods, phases, ...) and pads the program with a procedurally
/// generated cold library sized to approximate Table 1's class / method /
/// bytecode counts. See each generator's file comment for its behavioural
/// signature.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_WORKLOAD_WORKLOAD_H
#define AOCI_WORKLOAD_WORKLOAD_H

#include "bytecode/Program.h"

#include <memory>
#include <string>
#include <vector>

namespace aoci {

/// A runnable benchmark.
struct Workload {
  std::string Name;
  std::string Description;
  Program Prog;
  /// Entry methods, one per green thread (mtrt uses two).
  std::vector<MethodId> Entries;
};

/// Generator knobs shared by all workloads.
struct WorkloadParams {
  /// Determinism seed for procedural structure and input streams.
  uint64_t Seed = 1;
  /// Multiplies the main-loop iteration counts; 1.0 targets a run long
  /// enough for a few hundred timer samples, which is what the adaptive
  /// system needs to reach steady state.
  double Scale = 1.0;
};

/// The suite in Table 1 order.
const std::vector<std::string> &workloadNames();

/// Builds workload \p Name: a workloadNames() entry or a built-in
/// scenario ("scn-..."). Throws std::invalid_argument naming any other.
Workload makeWorkload(const std::string &Name, WorkloadParams Params);

/// Individual generators.
Workload makeCompress(WorkloadParams Params);
Workload makeJess(WorkloadParams Params);
Workload makeDb(WorkloadParams Params);
Workload makeJavac(WorkloadParams Params);
Workload makeMpegaudio(WorkloadParams Params);
Workload makeMtrt(WorkloadParams Params);
Workload makeJack(WorkloadParams Params);
Workload makeJbb(WorkloadParams Params);

} // namespace aoci

#endif // AOCI_WORKLOAD_WORKLOAD_H
