//===- tests/TraceTest.cpp - Event tracing subsystem tests -----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The observability layer's contracts (see OBSERVABILITY.md):
//   (1) zero simulated cost — a traced run's results are bit-identical
//       to an untraced run's, and FingerprintTest's goldens never move;
//   (2) determinism — the exported JSON is a pure function of the run
//       config, byte-identical between serial and parallel sweeps;
//   (3) fidelity — the stream is ordered by (cycle, seq), honours the
//       kind filter, and survives the ring cap by dropping oldest first;
//   (4) one contract — the checked-in JSON Schema is the one generated
//       from the kind table, the jq validator enforces it, and
//       OBSERVABILITY.md's field tables and track map follow the table.
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "trace/TraceJson.h"
#include "trace/TraceSink.h"
#include "vm/Overhead.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <set>
#include <sstream>
#include <sys/wait.h>

using namespace aoci;

namespace {

//===----------------------------------------------------------------------===//
// Filter parsing (the --trace-filter vocabulary).
//===----------------------------------------------------------------------===//

TEST(TraceFilterTest, EmptyListMeansAllKinds) {
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("", Mask, Error));
  EXPECT_EQ(Mask, TraceAllKinds);
}

TEST(TraceFilterTest, EveryKindNameRoundTrips) {
  for (unsigned I = 0; I != NumTraceEventKinds; ++I) {
    const TraceEventKind K = static_cast<TraceEventKind>(I);
    uint32_t Mask = 0;
    std::string Error;
    ASSERT_TRUE(parseTraceFilter(traceEventKindName(K), Mask, Error))
        << traceEventKindName(K);
    EXPECT_EQ(Mask, traceKindBit(K));
  }
}

TEST(TraceFilterTest, CommaListUnionsKinds) {
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("sample,gc-pause,plan-site", Mask, Error));
  EXPECT_EQ(Mask, traceKindBit(TraceEventKind::Sample) |
                      traceKindBit(TraceEventKind::GcPause) |
                      traceKindBit(TraceEventKind::PlanSite));
}

TEST(TraceFilterTest, UnknownTokenIsNamedInTheError) {
  uint32_t Mask = 0;
  std::string Error;
  EXPECT_FALSE(parseTraceFilter("sample,bogus-kind", Mask, Error));
  EXPECT_NE(Error.find("bogus-kind"), std::string::npos);
}

TEST(TraceFilterTest, EmptyItemIsRejectedNamingTheList) {
  // Same rule as --tenants: a stray comma is an error, not a skipped item.
  for (const char *List : {"sample,,gc-pause", "sample,", ",sample"}) {
    uint32_t Mask = 0;
    std::string Error;
    EXPECT_FALSE(parseTraceFilter(List, Mask, Error)) << List;
    EXPECT_NE(Error.find("empty trace filter item"), std::string::npos)
        << Error;
    EXPECT_NE(Error.find(std::string("'") + List + "'"), std::string::npos)
        << Error;
  }
}

TEST(TraceFilterTest, AllCommasIsAnEmptyFilterError) {
  uint32_t Mask = 0;
  std::string Error;
  EXPECT_FALSE(parseTraceFilter(",,,", Mask, Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Sink mechanics: ordering, filtering, the ring cap, stream adoption.
//===----------------------------------------------------------------------===//

TEST(TraceSinkTest, WantsHonoursEnableAndKindMask) {
  TraceSink Sink;
  EXPECT_FALSE(Sink.wants(TraceEventKind::Sample));
  Sink.enable(traceKindBit(TraceEventKind::GcPause));
  EXPECT_TRUE(Sink.wants(TraceEventKind::GcPause));
  EXPECT_FALSE(Sink.wants(TraceEventKind::Sample));
  Sink.disable();
  EXPECT_FALSE(Sink.wants(TraceEventKind::GcPause));
}

TEST(TraceSinkTest, SortedEventsOrdersByCycleThenSeq) {
  TraceSink Sink;
  Sink.enable();
  // Duration events are stamped at interval *start*, so emission order is
  // not cycle order; the canonical stream must re-sort.
  Sink.append(TraceEventKind::Sample, TraceTrackVm, 500);
  Sink.append(TraceEventKind::CompileComplete, TraceTrackVm, 100);
  Sink.append(TraceEventKind::Sample, TraceTrackVm, 500);
  std::vector<TraceEvent> Events = Sink.sortedEvents();
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0].Cycle, 100u);
  EXPECT_EQ(Events[1].Cycle, 500u);
  EXPECT_EQ(Events[2].Cycle, 500u);
  // Ties break on emission sequence, keeping the sort stable.
  EXPECT_LT(Events[1].Seq, Events[2].Seq);
}

TEST(TraceSinkTest, CapacityDropsWholeOldestChunks) {
  TraceSink Sink;
  Sink.enable();
  Sink.setCapacity(2048); // two 1024-event chunks
  constexpr uint64_t Total = 5000;
  for (uint64_t I = 0; I != Total; ++I)
    Sink.append(TraceEventKind::Sample, TraceTrackVm, I);
  EXPECT_LE(Sink.numEvents(), 2048u);
  EXPECT_EQ(Sink.numEvents() + Sink.droppedEvents(), Total);
  // What survives is the most recent window: the first retained event's
  // sequence number equals the drop count.
  std::vector<TraceEvent> Events = Sink.sortedEvents();
  ASSERT_FALSE(Events.empty());
  EXPECT_EQ(Events.front().Seq, Sink.droppedEvents());
  EXPECT_EQ(Events.back().Seq, Total - 1);
}

TEST(TraceSinkTest, ClearKeepsSettings) {
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::Sample));
  Sink.setCapacity(4096);
  Sink.append(TraceEventKind::Sample, TraceTrackVm, 1);
  Sink.clear();
  EXPECT_EQ(Sink.numEvents(), 0u);
  EXPECT_EQ(Sink.droppedEvents(), 0u);
  EXPECT_TRUE(Sink.enabled());
  EXPECT_EQ(Sink.kindMask(), traceKindBit(TraceEventKind::Sample));
  EXPECT_EQ(Sink.capacity(), 4096u);
}

TEST(TraceSinkTest, AdoptEventsTakesTheOtherStream) {
  TraceSink Donor;
  Donor.enable();
  Donor.append(TraceEventKind::GcPause, TraceTrackVm, 42).A = 7;
  Donor.captureMethodNames(1, [](uint32_t) { return "Main.run"; });

  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::Sample)); // settings to keep
  Sink.append(TraceEventKind::Sample, TraceTrackVm, 1);
  Sink.adoptEvents(std::move(Donor));

  ASSERT_EQ(Sink.numEvents(), 1u);
  std::vector<TraceEvent> Events = Sink.sortedEvents();
  EXPECT_EQ(Events[0].Kind, TraceEventKind::GcPause);
  EXPECT_EQ(Events[0].Cycle, 42u);
  EXPECT_EQ(Events[0].A, 7);
  EXPECT_EQ(Sink.methodName(0), "Main.run");
  EXPECT_EQ(Sink.kindMask(), traceKindBit(TraceEventKind::Sample));
}

//===----------------------------------------------------------------------===//
// (1) Zero simulated cost: traced and untraced runs are bit-identical.
//===----------------------------------------------------------------------===//

RunConfig smallRun() {
  RunConfig Config;
  Config.WorkloadName = "compress";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 2;
  Config.Params.Scale = 0.05;
  return Config;
}

TEST(TraceCostTest, TracingDoesNotMoveTheSimulatedClock) {
  RunConfig Untraced = smallRun();
  RunResult Plain = runExperiment(Untraced);

  TraceSink Sink;
  Sink.enable();
  RunConfig Traced = smallRun();
  Traced.Trace = &Sink;
  RunResult WithTrace = runExperiment(Traced);

  expectSameRun(Plain, WithTrace);
  EXPECT_GT(Sink.numEvents(), 0u);
}

TEST(TraceCostTest, AttachedButDisabledSinkRecordsNothing) {
  TraceSink Sink; // never enabled
  RunConfig Config = smallRun();
  Config.Trace = &Sink;
  RunResult R = runExperiment(Config);
  EXPECT_EQ(Sink.numEvents(), 0u);
  expectSameRun(runExperiment(smallRun()), R);
}

TEST(TraceCostTest, KindMaskFiltersAtTheHook) {
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::CompileComplete));
  RunConfig Config = smallRun();
  Config.Trace = &Sink;
  runExperiment(Config);
  ASSERT_GT(Sink.numEvents(), 0u);
  Sink.forEach([](const TraceEvent &E) {
    EXPECT_EQ(E.Kind, TraceEventKind::CompileComplete);
  });
}

//===----------------------------------------------------------------------===//
// Event fidelity on runs engineered to reach the rare kinds.
//===----------------------------------------------------------------------===//

TEST(TraceEventsTest, GcPausesAreRecordedAsDurationEvents) {
  // The default GC trigger (4MB) is never reached by the scaled-down
  // workloads, so pin it low on the allocation-heavy one (mirrors
  // FingerprintTest's "SPECjbb2000+gc" row).
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::GcPause));
  RunConfig Config;
  Config.WorkloadName = "SPECjbb2000";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.1;
  Config.Model.GcTriggerBytes = 50000;
  Config.Trace = &Sink;
  RunResult R = runExperiment(Config);

  ASSERT_GT(Sink.numEvents(), 0u);
  uint64_t PauseCycles = 0;
  Sink.forEach([&](const TraceEvent &E) {
    ASSERT_EQ(E.Kind, TraceEventKind::GcPause);
    EXPECT_GT(E.Dur, 0u) << "gc-pause is a duration event";
    EXPECT_GE(E.A, 50000) << "bytesSinceGc reaches the trigger";
    PauseCycles += E.Dur;
  });
  EXPECT_EQ(PauseCycles, R.GcCycles)
      << "pause durations must sum to the run's GC cycles";
}

TEST(TraceEventsTest, GuardFallbacksAreRecordedPerOccurrence) {
  // mtrt is the guard-heavy workload (the paper's polymorphic-receiver
  // stress case); every counted fallback must emit one event.
  TraceSink Sink;
  Sink.enable(traceKindBit(TraceEventKind::GuardFallback));
  RunConfig Config;
  Config.WorkloadName = "mtrt";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.1;
  Config.Trace = &Sink;
  RunResult R = runExperiment(Config);

  ASSERT_GT(R.GuardFallbacks, 0u);
  uint64_t Fallbacks = 0;
  Sink.forEach([&](const TraceEvent &E) {
    ASSERT_EQ(E.Kind, TraceEventKind::GuardFallback);
    ++Fallbacks;
    EXPECT_NE(E.Method, UINT32_MAX);
  });
  EXPECT_EQ(Fallbacks, R.GuardFallbacks)
      << "one guard-fallback event per counted fallback";
}

TEST(TraceEventsTest, BestOfKeepsExactlyTheBestTrialsStream) {
  TraceSink A, B;
  A.enable();
  B.enable();
  RunConfig Config = smallRun();
  Config.Trace = &A;
  RunResult RA = runBestOf(Config, 3);
  Config.Trace = &B;
  RunResult RB = runBestOf(Config, 3);
  EXPECT_EQ(RA.WallCycles, RB.WallCycles);
  // Pure function of the config: both invocations keep the same trial,
  // hence byte-identical exports.
  std::ostringstream JsonA, JsonB;
  writeChromeTrace(JsonA, A, "best");
  writeChromeTrace(JsonB, B, "best");
  EXPECT_GT(A.numEvents(), 0u);
  EXPECT_EQ(JsonA.str(), JsonB.str());
}

//===----------------------------------------------------------------------===//
// (2) Determinism: serial and parallel grid exports are byte-identical.
//===----------------------------------------------------------------------===//

TEST(TraceGridTest, ParallelGridTraceMatchesSerialByteForByte) {
  GridConfig Config;
  Config.Workloads = {"compress", "jack"};
  Config.Policies = {PolicyKind::Fixed, PolicyKind::Parameterless};
  Config.Depths = {2, 4};
  Config.Params.Scale = 0.1;
  Config.Trace = true;

  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGridParallel(Config, 4);

  ASSERT_EQ(Serial.traces().size(), Parallel.traces().size());
  ASSERT_EQ(Serial.traceNames(), Parallel.traceNames());
  // One stream per planned run: baseline + policies x depths, per workload.
  EXPECT_EQ(Serial.traces().size(),
            Config.Workloads.size() *
                (1 + Config.Policies.size() * Config.Depths.size()));

  std::ostringstream SerialJson, ParallelJson;
  exportGridTrace(SerialJson, Serial);
  exportGridTrace(ParallelJson, Parallel);
  EXPECT_GT(SerialJson.str().size(), 2u);
  EXPECT_EQ(SerialJson.str(), ParallelJson.str())
      << "the merged trace must be independent of the job count";
}

TEST(TraceGridTest, GridKindMaskRestrictsEveryStream) {
  GridConfig Config;
  Config.Workloads = {"compress"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2};
  Config.Params.Scale = 0.05;
  Config.Trace = true;
  Config.TraceKindMask = traceKindBit(TraceEventKind::OrganizerWakeup);
  GridResults Results = runGrid(Config);
  ASSERT_EQ(Results.traces().size(), 2u); // baseline + one cell
  for (const TraceSink &Sink : Results.traces())
    Sink.forEach([](const TraceEvent &E) {
      EXPECT_EQ(E.Kind, TraceEventKind::OrganizerWakeup);
    });
}

//===----------------------------------------------------------------------===//
// (3) Golden JSON: the exported bytes themselves are pinned.
//===----------------------------------------------------------------------===//

const std::string SourceDir = AOCI_SOURCE_DIR;
const std::string GoldenDir = AOCI_GOLDEN_DIR;
constexpr const char *TraceDrift =
    "the adaptive system's event stream, the JSON serialization or the "
    "kind table changed; update OBSERVABILITY.md if the schema moved";

TEST(TraceGoldenTest, AdaptiveLoopTraceJsonMatchesGolden) {
  // The decision-level kinds only: high-volume per-sample kinds (sample,
  // listener-record, guard-fallback) would bloat the fixture without
  // pinning anything the filtered kinds don't.
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("organizer-wakeup,controller-decision,"
                               "compile-request,compile-complete,"
                               "plan-install,plan-site",
                               Mask, Error))
      << Error;
  TraceSink Sink;
  Sink.enable(Mask);
  RunConfig Config;
  Config.WorkloadName = "compress";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 2;
  Config.Params.Scale = 0.02;
  Config.Trace = &Sink;
  runExperiment(Config);

  std::ostringstream Json;
  writeChromeTrace(Json, Sink, "compress/fixed.d2");
  expectMatchesGolden("trace_compress_fixed_d2.golden", Json.str(),
                      TraceDrift);
}

TEST(TraceGoldenTest, EveryKindRendersAsPinned) {
  // One hand-built event per kind (several for the enum args), so every
  // kind's rendering is pinned even where no stock run produces it.
  // Covers every enum label, both bool values, a negative signed arg, the
  // m<id> method-name fallback, and plan-site with and without a callee.
  TraceSink Sink;
  Sink.enable();
  const char *const Names[] = {"Main.main", "Shape.area", "Circle.area"};
  Sink.captureMethodNames(3, [&](uint32_t M) { return Names[M]; });
  uint64_t Cycle = 0;
  auto Add = [&](const TraceEvent &Payload) {
    Cycle += 10;
    TraceEvent &E = Sink.append(Payload.Kind, Payload.Track, Cycle);
    const uint64_t Seq = E.Seq;
    E = Payload;
    E.Cycle = Cycle;
    E.Seq = Seq;
  };
  using K = TraceEventKind;
  const TraceTrack Listeners = traceTrack(AosComponent::Listeners);
  const TraceTrack Compilation = traceTrack(AosComponent::Compilation);
  const TraceTrack Ai = traceTrack(AosComponent::AiOrganizer);
  const TraceTrack Controller = traceTrack(AosComponent::Controller);
  const int64_t NoCallee = -1;

  Add({.Kind = K::Sample, .Method = 0, .A = 1, .B = 0});
  Add({.Kind = K::Sample, .Thread = 1, .Method = 7, .A = 0, .B = 1});
  Add({.Kind = K::ListenerRecord, .Track = Listeners, .Method = 0, .A = 0,
       .B = 2, .C = 1});
  Add({.Kind = K::ListenerRecord, .Track = Listeners, .Method = 1, .A = 1,
       .B = 3, .C = 2});
  Add({.Kind = K::OrganizerWakeup,
       .Track = traceTrack(AosComponent::MethodOrganizer), .A = 0, .B = 0,
       .C = 5, .D = 1});
  Add({.Kind = K::OrganizerWakeup, .Track = Ai, .A = 1, .B = 0, .C = 3,
       .D = 2});
  Add({.Kind = K::OrganizerWakeup,
       .Track = traceTrack(AosComponent::DecayOrganizer), .A = 2, .B = 1,
       .C = 8, .D = 0});
  Add({.Kind = K::OrganizerWakeup, .Track = Ai, .A = 3, .B = 2, .C = 4,
       .D = 1});
  Add({.Kind = K::ControllerDecision, .Track = Controller, .Method = 1,
       .A = 0, .B = 2, .X = 12.5, .Y = 4000, .Z = 1500.25});
  Add({.Kind = K::CompileRequest, .Track = Controller, .Method = 1, .A = 2,
       .B = 0, .C = 0, .D = 1});
  Add({.Kind = K::CompileRequest, .Track = Controller, .Method = 2, .A = 2,
       .B = 1, .C = 1, .D = 2});
  Add({.Dur = 500, .Kind = K::CompileComplete, .Track = Compilation,
       .Method = 1, .A = 2, .B = 640, .C = -32, .D = 2, .E = 1});
  Add({.Kind = K::PlanInstall, .Track = Compilation, .Method = 0, .A = 2,
       .B = 4, .C = 3, .D = 2});
  Add({.Kind = K::PlanSite, .Track = Compilation, .Method = 0, .A = 3,
       .B = 0, .C = 1, .D = 0, .E = 2});
  Add({.Kind = K::PlanSite, .Track = Compilation, .Method = 0, .A = 5,
       .B = 1, .C = 1, .D = 1, .E = 1});
  Add({.Kind = K::PlanSite, .Track = Compilation, .Method = 0, .A = 7,
       .B = 1, .C = 2, .D = 1, .E = 2});
  Add({.Kind = K::PlanSite, .Track = Compilation, .Method = 0, .A = 9,
       .B = 0, .C = 0, .D = 0, .E = NoCallee});
  Add({.Kind = K::GuardFallback, .Method = 1, .A = 4, .B = 2});
  Add({.Dur = 200, .Kind = K::GcPause, .A = 1048576, .B = 0});
  Add({.Kind = K::OsrEnter, .Method = 0, .A = 0, .B = 2, .C = 5, .D = 1,
       .X = 2500.5});
  Add({.Kind = K::OsrExit, .Method = 0, .A = 0, .B = 2, .C = 900,
       .D = 300});
  Add({.Kind = K::Deopt, .Method = 0, .A = 2, .B = 6, .C = 2, .E = 1});
  Add({.Kind = K::CodeEvict, .Track = Compilation, .Method = 2, .A = 2,
       .B = 128, .C = 1, .D = 4096, .E = 0});
  Add({.Kind = K::PhaseShift, .Method = 1, .A = 1, .B = 3});
  Add({.Kind = K::FuseInstall, .Track = Compilation, .Method = 1, .A = 2,
       .B = 3, .C = 9, .D = 144});
  Add({.Kind = K::ProfileLoad, .Track = Ai, .A = 2, .B = 5, .C = 3, .D = 4,
       .E = 1, .X = 2});
  Add({.Kind = K::SharePublish, .Track = Compilation, .Method = 1, .A = 2,
       .B = 640, .C = 0, .D = 1});
  Add({.Kind = K::ShareHit, .Track = Compilation, .Method = 1, .A = 2,
       .B = 640, .C = 12000, .D = 0});
  Add({.Kind = K::ShareEvict, .Track = Compilation, .Method = 1, .A = 2,
       .B = 640, .C = 0, .D = 2});
  Add({.Kind = K::BudgetDecision, .Track = Ai, .Method = 0, .A = 1, .B = 40,
       .C = 60, .D = 1, .E = 1, .X = 0.75});
  Add({.Kind = K::BudgetDecision, .Track = Ai, .Method = 0, .A = 2, .B = 90,
       .C = 60, .D = 0, .E = 0, .X = 0.125});

  std::ostringstream Json;
  writeChromeTrace(Json, Sink, "every-kind");
  expectMatchesGolden("trace_every_kind.golden", Json.str(),
                      TraceDrift);
}

//===----------------------------------------------------------------------===//
// (4) One contract: the kind table drives the schema, and the validator and
//     OBSERVABILITY.md agree with it.
//===----------------------------------------------------------------------===//

TEST(TraceSchemaTest, CheckedInSchemaIsTheGeneratedOne) {
  std::ostringstream Schema;
  writeTraceSchema(Schema);
  expectMatchesFile(SourceDir + "/docs/trace-event.schema.json", Schema.str(),
                    TraceDrift);
}

/// The type column OBSERVABILITY.md gives an arg.
std::string docType(const tracekind::Arg &Arg) {
  switch (Arg.Type) {
  case tracekind::Method:
  case tracekind::Enum:
    return "string";
  case tracekind::Int:
    return "int";
  case tracekind::Count:
    return "int ≥ 1";
  case tracekind::SignedInt:
    return "signed int";
  case tracekind::Number:
    return "float";
  case tracekind::Bool:
    return "bool";
  }
  return "?";
}

TEST(TraceSchemaTest, ObservabilityFieldTablesFollowTheKindTable) {
  const std::vector<std::string> Lines =
      readLines(SourceDir + "/OBSERVABILITY.md");
  ASSERT_FALSE(Lines.empty());
  const auto Sections = std::count_if(
      Lines.begin(), Lines.end(),
      [](const std::string &L) { return L.starts_with("### `"); });
  EXPECT_EQ(Sections, static_cast<long>(NumTraceEventKinds));
  for (const tracekind::Spec &Row : tracekind::Table) {
    SCOPED_TRACE(Row.Name);
    const std::string Heading = std::string("### `") + Row.Name + "`";
    auto It = std::find_if(Lines.begin(), Lines.end(),
                           [&](const std::string &L) {
                             return L.starts_with(Heading);
                           });
    ASSERT_NE(It, Lines.end()) << "no section " << Heading;
    // The section's arg table: rows whose first cell is a `key`.
    std::vector<std::vector<std::string>> Rows;
    for (++It; It != Lines.end() && !It->starts_with("#"); ++It) {
      if (It->starts_with("| `"))
        Rows.push_back(tableCells(*It));
      else if (!Rows.empty())
        break;
    }
    std::vector<std::string> Documented, Declared;
    for (const std::vector<std::string> &Cells : Rows)
      Documented.push_back(Cells.at(0) + " " + Cells.at(1));
    for (const tracekind::Arg &Arg : Row.args())
      Declared.push_back(std::string("`") + Arg.Key + "` " + docType(Arg));
    ASSERT_EQ(Documented, Declared);
    for (size_t I = 0; I != Rows.size(); ++I)
      for (const char *Label : Row.args()[I].Labels)
        EXPECT_NE(Rows[I].at(2).find(std::string("`\"") + Label + "\"`"),
                  std::string::npos)
            << Row.args()[I].Key << " does not list label " << Label;
  }
}

TEST(TraceSchemaTest, ObservabilityTrackMapFollowsTheKindTable) {
  const std::vector<std::string> Lines =
      readLines(SourceDir + "/OBSERVABILITY.md");
  auto It = std::find(Lines.begin(), Lines.end(), "## Timeline tracks");
  ASSERT_NE(It, Lines.end());
  unsigned Tid = 0;
  for (++It; It != Lines.end() && !It->starts_with("## "); ++It) {
    const std::vector<std::string> Cells = tableCells(*It);
    if (!It->starts_with("| ") || Cells.size() < 3 || Cells[0].empty() ||
        !std::isdigit(static_cast<unsigned char>(Cells[0][0])))
      continue;
    SCOPED_TRACE(*It);
    ASSERT_EQ(Cells[0], std::to_string(Tid));
    EXPECT_EQ(Cells[1], std::string("`") + traceTrackName(Tid) + "`");
    std::set<std::string> Documented, Declared;
    for (const std::string &Kind : codeSpans(Cells[2]))
      Documented.insert(Kind);
    for (const tracekind::Spec &Row : tracekind::Table)
      if (Row.Tids & (1u << Tid))
        Declared.insert(Row.Name);
    EXPECT_EQ(Documented, Declared);
    ++Tid;
  }
  EXPECT_EQ(Tid, 1 + NumAosTraceTracks);
}

/// Runs \p Command through the shell; returns its exit status and its
/// combined stdout and stderr.
std::pair<int, std::string> runShell(const std::string &Command) {
  FILE *Pipe = popen((Command + " 2>&1").c_str(), "r");
  if (!Pipe)
    return {-1, "popen failed"};
  std::string Out;
  char Buf[4096];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), Pipe))
    Out.append(Buf, N);
  const int Status = pclose(Pipe);
  return {WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, Out};
}

TEST(TraceSchemaTest, ValidatorRejectsEachViolation) {
#ifndef AOCI_JQ
  GTEST_SKIP() << "jq was not found when the build was configured";
#else
  const std::string Validate =
      std::string(AOCI_JQ) + " -e --slurpfile schema " + SourceDir +
      "/docs/trace-event.schema.json -f " + SourceDir +
      "/tools/validate_trace.jq";
  const std::string Golden = GoldenDir + "/trace_every_kind.golden";
  const auto [OkStatus, OkOut] = runShell(Validate + " " + Golden);
  ASSERT_EQ(OkStatus, 0) << OkOut;

  // Each mutation of the every-kind golden and a phrase of the diagnostic
  // it must draw.
  const std::pair<const char *, const char *> Mutations[] = {
      {R"jq((.traceEvents[] | select(.name == "sample") | .tid) = 2)jq",
       "unexpected tid 2"},
      {R"jq(del(.traceEvents[] | select(.name == "deopt")
          | .args.topMethod))jq",
       "missing required arg 'topMethod'"},
      {R"jq((.traceEvents[] | select(.name == "gc-pause")
          | .args.bogus) = 1)jq",
       "unexpected arg 'bogus'"},
      {R"jq((.traceEvents[] | select(.name == "organizer-wakeup")
          | .args.organizer) = "gc-organizer")jq",
       "arg 'organizer' is \"gc-organizer\", not one of"},
      {R"jq((.traceEvents[] | select(.name == "budget-decision")
          | .args.accepted) = "yes")jq",
       "arg 'accepted' is \"yes\", not of type boolean"},
      {R"jq((.traceEvents[] | select(.name == "compile-request")
          | .args.queueDepth) = 0)jq",
       "arg 'queueDepth' is 0, below the minimum 1"},
      {R"jq((.traceEvents[] | select(.name == "sample")
          | .args.sampleIndex) = 0.5)jq",
       "arg 'sampleIndex' is 0.5, not of type integer"},
      {R"jq((.traceEvents[] | select(.name == "sample") | .args.method) = 5)jq",
       "arg 'method' is 5, not of type string"},
      {R"jq(.traceEvents[8].name = "bogus-kind")jq",
       "unknown event kind 'bogus-kind'"},
  };
  for (const auto &[Filter, Message] : Mutations) {
    SCOPED_TRACE(Filter);
    const auto [Status, Out] = runShell(std::string(AOCI_JQ) + " '" + Filter +
                                        "' " + Golden + " | " + Validate);
    EXPECT_NE(Status, 0) << Out;
    EXPECT_NE(Out.find(Message), std::string::npos) << Out;
  }
#endif
}

} // namespace
