//===- perfbench/SelfTest.cpp - Benchmark self-tests ------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// `perfbench --self-test`: checks the benchmark's own arithmetic and the
// per-layer probe before any number it reports is trusted. run.py runs it
// on every invocation; it takes well under a second.
//
//===----------------------------------------------------------------------===//

#include "BenchMath.h"
#include "LayerProbe.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace aoci;
using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", What.c_str());
  }
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

void testPercentileRule() {
  check(minSamplesForPercentile(90) == 100, "p90 needs 100 samples");
  check(minSamplesForPercentile(50) == 20, "p50 needs 20 samples");
  check(minSamplesForPercentile(95) == 200, "p95 needs 200 samples");
  double V = 0;
  check(tailPercentile(iota(100), 90, V) && V == 90,
        "p90 of 1..100 is 90 with 10 samples beyond");
  check(!tailPercentile(iota(99), 90, V),
        "p90 of 99 samples has only 9 beyond and is refused");
  check(tailPercentile(iota(20), 50, V) && V == 10, "p50 of 1..20 is 10");
  check(!tailPercentile(iota(19), 50, V), "p50 of 19 samples is refused");
  check(tailPercentile(iota(200), 95, V) && V == 190 &&
            !tailPercentile(iota(199), 95, V),
        "p95 needs 10 samples beyond rank 190 of 200");
  check(!tailPercentile(iota(1000), 0, V) &&
            !tailPercentile(iota(1000), 100, V),
        "p0 and p100 are refused");
  std::vector<double> Shuffled = {5, 3, 9, 1, 7};
  for (int I = 0; I != 5; ++I)
    Shuffled.insert(Shuffled.end(), {5, 3, 9, 1, 7});
  check(!tailPercentile(Shuffled, 90, V), "p90 of 30 samples is refused");
  check(tailPercentile(Shuffled, 50, V) && V == 5,
        "p50 of unsorted samples is the nearest-rank median");
  check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5 &&
            median({}) == 0,
        "median of odd, even and empty sample sets");
}

void testFailedFraction() {
  StepTally T;
  check(T.failedFrac() == 1, "nothing attempted counts as failed");
  T.add(true);
  T.add(true);
  T.add(true);
  T.add(false);
  check(T.Attempted == 4 && T.Failed == 1 && T.failedFrac() == 0.25,
        "one failed step of four");
  T.addLost(4);
  check(T.Attempted == 8 && T.Failed == 5 && T.failedFrac() == 0.625,
        "a lost sweep counts every step as attempted and failed");
}

void testParallelEfficiency() {
  check(parallelEfficiency(8, 2, 4) == 1, "fully busy pool");
  check(parallelEfficiency(4, 2, 4) == 0.5, "half busy pool");
  check(parallelEfficiency(1, 0, 4) == 0 && parallelEfficiency(1, 2, 0) == 0,
        "no capacity gives 0, not a division by zero");
}

void testClassifier() {
  AosStats Before;
  AosStats After = Before;
  After.SamplesSeen = 1;
  check(classifySample(Before, After) == SampleKind::Listener,
        "a sample that moved no organizer counter is a listener call");
  After.DecayWakeups = 1;
  check(classifySample(Before, After) == SampleKind::Organizer,
        "a decay wakeup is an organizer call");
  After = Before;
  After.ControllerRequests = 2;
  check(classifySample(Before, After) == SampleKind::Organizer,
        "a controller request is an organizer call");
  After.OptCompilations = 1;
  check(classifySample(Before, After) == SampleKind::Compile,
        "a sample that compiled is a compile call");
}

void testArgumentParsing() {
  uint64_t U = 0;
  check(parseUnsignedArg("42", 0, 100, U) && U == 42, "plain integer");
  for (const char *Bad : {"", "-1", "+1", " 1", "1 ", "abc", "1.5", "101",
                          "18446744073709551616"})
    check(!parseUnsignedArg(Bad, 0, 100, U),
          std::string("unsigned rejects '") + Bad + "'");
  check(!parseUnsignedArg("0", 1, 64, U), "below the minimum");
  double D = 0;
  check(parsePositiveArg("0.25", 16, D) && D == 0.25, "plain scale");
  check(parsePositiveArg(".5", 16, D) && D == 0.5, "leading dot");
  check(parsePositiveArg("1e1", 16, D) && D == 10, "exponent form");
  for (const char *Bad : {"", "abc", "0", "0.0", "-1", " 1", "1x", "nan",
                          "inf", "1e400", "17", "0x1p2", "1e-400"})
    check(!parsePositiveArg(Bad, 16, D),
          std::string("positive rejects '") + Bad + "'");
}

/// The probe on tiny runs: every onSample call is classified exactly
/// once, all three kinds occur, and the wrapped run reproduces
/// runExperiment() exactly.
void testProbeOnTinyRuns() {
  RunConfig Plain;
  Plain.WorkloadName = "jess";
  Plain.Params.Scale = 0.05;
  Plain.Policy = PolicyKind::Fixed;
  Plain.MaxDepth = 3;

  RunConfig Churn = Plain;
  Churn.WorkloadName = "scn-cache-churn";
  Churn.Params.Scale = 0.5;
  Churn.Model.CodeCache.CapacityBytes = 12000;
  Churn.Model.Fuse.Enabled = true;
  Churn.Aos.Osr.Enabled = true;

  for (const RunConfig *C : {&Plain, &Churn}) {
    const std::string Name = C->WorkloadName;
    const RunResult Expected = runExperiment(*C);
    LayerTotals T;
    const WrappedOutcome Got = runWrapped(*C, T);
    check(Got.WallCycles == Expected.WallCycles &&
              Got.ProgramResult == Expected.ProgramResult,
          Name + ": wrapped run reproduces runExperiment");
    const uint64_t Calls = T.sampleCalls(SampleKind::Listener) +
                           T.sampleCalls(SampleKind::Organizer) +
                           T.sampleCalls(SampleKind::Compile);
    check(Calls == Expected.SamplesTaken,
          Name + ": every onSample call classified once (" +
              std::to_string(Calls) + " vs " +
              std::to_string(Expected.SamplesTaken) + " samples)");
    check(T.sampleCalls(SampleKind::Listener) > 0 &&
              T.sampleCalls(SampleKind::Organizer) > 0 &&
              T.sampleCalls(SampleKind::Compile) > 0,
          Name + ": listener, organizer and compile calls all occur");
    check(T.sampleCalls(SampleKind::Compile) <= Expected.OptCompilations &&
              T.OptCompilations == Expected.OptCompilations,
          Name + ": compile calls bounded by opt compilations");
    check(T.RunSeconds >= T.wrappedSeconds() && T.wrappedSeconds() > 0,
          Name + ": wrapper time lies inside run time");
  }
  // The churn configuration must exercise the OSR and eviction wrappers.
  LayerTotals T;
  runWrapped(Churn, T);
  check(T.Evictions > 0 && T.VictimProbes > 0,
        "churn: evictions probe the controller's preference");
  check(T.OsrCalls > 0, "churn: the OSR driver wrapper is called");
  check(T.FusedRunsInstalled > 0, "churn: fused runs are installed");
}

} // namespace

int perfbench::runSelfTests() {
  testPercentileRule();
  testFailedFraction();
  testParallelEfficiency();
  testClassifier();
  testArgumentParsing();
  testProbeOnTinyRuns();
  if (Failures == 0)
    std::fprintf(stderr, "perfbench: self-tests passed\n");
  return Failures;
}
