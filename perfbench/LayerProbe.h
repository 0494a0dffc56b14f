//===- perfbench/LayerProbe.h - Per-layer host timing ----------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer host time, measured from outside the program. A grid run is
/// rebuilt the way runExperiment() assembles it — makeWorkload, a
/// VirtualMachine, an AdaptiveSystem, attach() — and then the three
/// public hooks the VM calls out through are replaced by timing wrappers
/// that forward to what attach() installed:
///
///   - the SampleSink, forwarding to AdaptiveSystem::onSample, each call
///     classified by classifySample();
///   - the OsrDriver, forwarding to the adaptive system's OSR manager;
///   - the code cache's eviction preference, counting victim probes and
///     forwarding to Controller::preferKeepInCache.
///
/// Whatever VirtualMachine::run spends outside the wrappers is the VM's
/// own time (dispatch, call/return, baseline compiles, eviction-driven
/// re-baselining). The wrappers charge no simulated cycles, so a wrapped
/// run must reproduce runExperiment()'s simulated results exactly;
/// main.cpp checks that on every run.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PERFBENCH_LAYERPROBE_H
#define AOCI_PERFBENCH_LAYERPROBE_H

#include "BenchMath.h"

#include "harness/Experiment.h"

#include <cstdint>

namespace perfbench {

/// Host seconds and counters per layer, summed over wrapped runs.
struct LayerTotals {
  /// makeWorkload host time.
  double BuildSeconds = 0;
  /// VirtualMachine::run host time, wrappers included.
  double RunSeconds = 0;
  double SampleSeconds[NumSampleKinds] = {0, 0, 0};
  uint64_t SampleCalls[NumSampleKinds] = {0, 0, 0};
  double OsrSeconds = 0;
  uint64_t OsrCalls = 0;
  uint64_t VictimProbes = 0;

  uint64_t Instructions = 0;
  uint64_t Calls = 0;
  uint64_t InlinedCalls = 0;
  uint64_t OptCompilations = 0;
  uint64_t Evictions = 0;
  uint64_t RecompilesAfterEvict = 0;
  uint64_t FusedRunsInstalled = 0;
  uint64_t FusedBatchesExecuted = 0;
  uint64_t Deopts = 0;
  uint64_t OsrEntries = 0;

  double sampleSeconds(SampleKind K) const {
    return SampleSeconds[static_cast<unsigned>(K)];
  }
  uint64_t sampleCalls(SampleKind K) const {
    return SampleCalls[static_cast<unsigned>(K)];
  }
  /// Host time inside the wrappers (the adaptive system and OSR driver).
  double wrappedSeconds() const;
  /// VirtualMachine::run time outside the wrappers.
  double vmSelfSeconds() const { return RunSeconds - wrappedSeconds(); }
};

/// The simulated outcome of one wrapped run, for comparison with the
/// same run's RunResult.
struct WrappedOutcome {
  uint64_t WallCycles = 0;
  int64_t ProgramResult = 0;
  uint64_t Instructions = 0;
};

/// Runs \p Config (a registry workload or built-in scenario, no trace
/// sink, no warm start) with the timing wrappers, adding its host time
/// and counters to \p Totals.
WrappedOutcome runWrapped(const aoci::RunConfig &Config, LayerTotals &Totals);

} // namespace perfbench

#endif // AOCI_PERFBENCH_LAYERPROBE_H
