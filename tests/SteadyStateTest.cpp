//===- tests/SteadyStateTest.cpp - Warmup/steady split detection -----------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The detector is a pure function of (event stream, wall cycles), so
// most cases here hand-build sinks with surgically placed events and
// golden-match the formatted verdict: every verdict string, split
// computation, and counter is pinned. A mismatch means the detection
// contract drifted; regenerate with AOCI_UPDATE_GOLDEN=1 only for an
// intentional change. The last cases run real scenario workloads to tie
// the detector to the trace stream the VM actually emits.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "harness/SteadyState.h"
#include "workload/scenario/ScenarioSpec.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace aoci;

namespace {

constexpr const char *VerdictDrift = "the steady-state verdict changed";

void addCompileComplete(TraceSink &Sink, uint64_t Cycle, uint64_t Dur) {
  TraceEvent &E = Sink.append(TraceEventKind::CompileComplete, 2, Cycle);
  E.Dur = Dur;
}

void addWakeup(TraceSink &Sink, uint64_t Cycle) {
  Sink.append(TraceEventKind::OrganizerWakeup, 3, Cycle);
}

void addPhaseShift(TraceSink &Sink, uint64_t Cycle, int64_t Phase,
                   int64_t Phases) {
  TraceEvent &E =
      Sink.append(TraceEventKind::PhaseShift, TraceTrackVm, Cycle);
  E.A = Phase;
  E.B = Phases;
}

/// A run that settled: all compilation done by 10% of the run, decay
/// ticks evenly spaced through the rest.
TraceSink settledSink() {
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  Sink.append(TraceEventKind::CompileRequest, 6, 50'000);
  addCompileComplete(Sink, 80'000, 20'000);
  for (uint64_t C = 120'000; C < 1'000'000; C += 40'000)
    addWakeup(Sink, C);
  return Sink;
}

} // namespace

TEST(SteadyStateTest, SettledRun) {
  TraceSink Sink = settledSink();
  SteadyStateResult R = detectSteadyState(Sink, 1'000'000);
  EXPECT_TRUE(R.Computed);
  EXPECT_TRUE(R.Reached);
  EXPECT_EQ(R.WarmupCycles, 100'000u); // compile end = 80k + 20k dur.
  EXPECT_EQ(R.SteadyCycles, 900'000u);
  expectMatchesGolden("steady_settled.golden", formatSteadyState(R),
                      VerdictDrift);
}

TEST(SteadyStateTest, CompilerNeverQuiet) {
  // A compile finishing at the final cycle leaves no tail at all.
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  addCompileComplete(Sink, 900'000, 100'000);
  SteadyStateResult R = detectSteadyState(Sink, 1'000'000);
  EXPECT_TRUE(R.Computed);
  EXPECT_FALSE(R.Reached);
  expectMatchesGolden("steady_never_quiet.golden", formatSteadyState(R),
                      VerdictDrift);
}

TEST(SteadyStateTest, TailTooShort) {
  // Compilation quiet only for the last 5% — under MinSteadyFraction.
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  addCompileComplete(Sink, 940'000, 10'000);
  SteadyStateResult R = detectSteadyState(Sink, 1'000'000);
  EXPECT_TRUE(R.Computed);
  EXPECT_FALSE(R.Reached);
  expectMatchesGolden("steady_short_tail.golden", formatSteadyState(R),
                      VerdictDrift);
}

TEST(SteadyStateTest, UnstableWakeupDensity) {
  // All tail wakeups crammed into the first of 8 windows: the organizer
  // is visibly bursty, so the run has not settled even though the
  // compiler is quiet.
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  addCompileComplete(Sink, 90'000, 10'000);
  for (uint64_t C = 100'000; C < 116'000; C += 1'000)
    addWakeup(Sink, C);
  SteadyStateResult R = detectSteadyState(Sink, 1'000'000);
  EXPECT_TRUE(R.Computed);
  EXPECT_FALSE(R.Reached);
  expectMatchesGolden("steady_unstable_density.golden",
                      formatSteadyState(R), VerdictDrift);
}

TEST(SteadyStateTest, EmptyRun) {
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  SteadyStateResult R = detectSteadyState(Sink, 0);
  EXPECT_TRUE(R.Computed);
  EXPECT_FALSE(R.Reached);
  expectMatchesGolden("steady_empty.golden", formatSteadyState(R),
                      VerdictDrift);
}

TEST(SteadyStateTest, InsufficientKindMaskMeansUnknown) {
  // A sink that never recorded compile events cannot support a verdict;
  // the detector must refuse rather than declare a bogus "settled".
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::OrganizerWakeup));
  addWakeup(Sink, 500'000);
  SteadyStateResult R = detectSteadyState(Sink, 1'000'000);
  EXPECT_FALSE(R.Computed);
  EXPECT_FALSE(R.Reached);
  EXPECT_EQ(R.Why, "trace lacks steady-state kinds");

  TraceSink Disabled;
  EXPECT_FALSE(detectSteadyState(Disabled, 1'000'000).Computed);
}

TEST(SteadyStateTest, PhaseShiftRestartsWarmup) {
  // Negative case from the issue: detection must never declare steady
  // state while workload phases are still flipping. Same quiet compiler
  // as the settled case, but shifts spread through the whole run — the
  // last one pins the split past the tail minimum.
  TraceSink Sink = settledSink();
  for (uint64_t C = 200'000; C <= 950'000; C += 250'000)
    addPhaseShift(Sink, C, static_cast<int64_t>(C / 250'000), 4);
  SteadyStateResult R = detectSteadyState(Sink, 1'000'000);
  EXPECT_TRUE(R.Computed);
  EXPECT_FALSE(R.Reached) << "a flipping run must not count as settled";
  EXPECT_EQ(R.LastPhaseShiftCycle, 950'000u);
  EXPECT_EQ(R.Why, "steady tail too short");

  // Once the last shift leaves a long quiet tail, the verdict flips
  // back and the split lands exactly on that shift.
  TraceSink Calm = settledSink();
  addPhaseShift(Calm, 200'000, 1, 2);
  SteadyStateResult R2 = detectSteadyState(Calm, 1'000'000);
  EXPECT_TRUE(R2.Reached);
  EXPECT_EQ(R2.WarmupCycles, 200'000u);
}

TEST(SteadyStateTest, RealScenarioRunSplitsDeterministically) {
  // End-to-end: the phase-flip adversary traced through a real VM run
  // emits exactly one phase-shift per phase, and the detector's split
  // covers the last of them. Two identical runs must agree bit-for-bit.
  RunConfig Config;
  Config.WorkloadName = "scn-phase-flip";
  Config.Params.Scale = 0.5;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  TraceSink Sink;
  Sink.enable(steadyStateKindMask());
  Config.Trace = &Sink;
  RunResult R = runExperiment(Config);

  unsigned Shifts = 0;
  uint64_t LastShift = 0;
  Sink.forEach([&](const TraceEvent &E) {
    if (E.Kind == TraceEventKind::PhaseShift) {
      ++Shifts;
      EXPECT_EQ(E.B, 2) << "phase count arg";
      LastShift = E.Cycle;
    }
  });
  EXPECT_EQ(Shifts, 2u) << "one phase-shift per phase, exactly";

  SteadyStateResult V = detectSteadyState(Sink, R.WallCycles);
  ASSERT_TRUE(V.Computed);
  EXPECT_EQ(V.LastPhaseShiftCycle, LastShift);
  EXPECT_GE(V.WarmupCycles, LastShift)
      << "warmup can never end before the last phase shift";

  TraceSink Sink2;
  Sink2.enable(steadyStateKindMask());
  RunConfig Config2 = Config;
  Config2.Trace = &Sink2;
  RunResult R2 = runExperiment(Config2);
  EXPECT_EQ(R2.WallCycles, R.WallCycles);
  EXPECT_EQ(formatSteadyState(detectSteadyState(Sink2, R2.WallCycles)),
            formatSteadyState(V));
}

TEST(SteadyStateTest, MetricsCarryTheVerdict) {
  // The grid runner fills the verdict through makeMetrics; check the
  // plumbing via a tiny traced grid.
  GridConfig Config;
  Config.Workloads = {"scn-megamorphic-storm"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {3};
  Config.Params.Scale = 0.5;
  Config.Trace = true;
  Config.TraceKindMask = steadyStateKindMask();
  GridResults Results = runGrid(Config);
  ASSERT_EQ(Results.metrics().size(), 2u); // baseline + one cell.
  for (size_t I = 0; I != Results.metrics().size(); ++I) {
    const RunMetrics &M = Results.metrics()[I];
    EXPECT_TRUE(M.SteadyKnown);
    if (M.SteadyReached) {
      EXPECT_GT(M.SteadyCycles, 0u);
      EXPECT_EQ(M.WarmupCycles + M.SteadyCycles,
                Results.runs()[I].WallCycles);
    }
  }
}
