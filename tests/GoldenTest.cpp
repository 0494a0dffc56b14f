//===- tests/GoldenTest.cpp - Golden-file tests for report formats ---------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Exact-output fixtures for the machine-readable exporters whose format
// downstream figure scripts parse: CsvExport, the serve CSV and
// PlanPrinter. The inputs are hand-built (no VM runs), so a mismatch can
// only mean the report format drifted. To intentionally change a format,
// regenerate the fixtures with AOCI_UPDATE_GOLDEN=1 and review the diff.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "harness/CsvExport.h"
#include "harness/Serve.h"
#include "opt/PlanPrinter.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

using namespace aoci;

namespace {

constexpr const char *FormatDrift = "the report format changed";

/// A RunResult with every exported field filled from a small integer
/// tag, so each CSV column exercises a distinct value.
RunResult syntheticRun(const std::string &Workload, PolicyKind Policy,
                       unsigned Depth, uint64_t Tag) {
  RunResult R;
  R.WorkloadName = Workload;
  R.Policy = Policy;
  R.MaxDepth = Depth;
  R.WallCycles = 1000000 + Tag * 1111;
  R.OptBytesResident = 40000 - Tag * 13;
  R.OptBytesGenerated = 90000 + Tag * 17;
  R.OptCompileCycles = 220000 - Tag * 19;
  R.BaselineCompileCycles = 50000 + Tag;
  for (unsigned C = 0; C != NumAosComponents; ++C)
    R.ComponentCycles[C] = (Tag + 1) * 100 * (C + 1);
  R.OptCompilations = static_cast<unsigned>(30 + Tag);
  R.GuardFallbacks = 500 + Tag * 7;
  R.InlinedCalls = 80000 + Tag * 23;
  R.SamplesTaken = 400 + Tag;
  return R;
}

/// A fixed two-workload, two-policy, two-depth grid.
GridResults syntheticGrid() {
  GridResults Results;
  uint64_t Tag = 0;
  for (const char *W : {"alpha", "beta"}) {
    Results.add(syntheticRun(W, PolicyKind::ContextInsensitive, 1, Tag++),
                RunMetrics{/*IsBaseline=*/true});
    for (PolicyKind Policy :
         {PolicyKind::Fixed, PolicyKind::Parameterless})
      for (unsigned D : {2u, 3u})
        Results.add(syntheticRun(W, Policy, D, Tag++), RunMetrics{});
  }
  return Results;
}

/// The header cells of a rendered CSV.
std::set<std::string> headerCells(const std::string &Csv) {
  std::set<std::string> Cells;
  std::stringstream In(Csv.substr(0, Csv.find('\n')));
  for (std::string Cell; std::getline(In, Cell, ',');)
    Cells.insert(Cell);
  return Cells;
}

} // namespace

TEST(RunCounterTableTest, NamesAndReadersAreUnique) {
  // A reader names its counter in CSV column lists and exclusions, so
  // two rows may share neither a name nor a reader.
  std::set<std::string> Names;
  std::set<runcounter::Reader> Readers;
  for (const runcounter::Spec &Row : runcounter::Table) {
    EXPECT_TRUE(Names.insert(Row.Name).second) << "duplicate " << Row.Name;
    EXPECT_TRUE(Readers.insert(Row.Get).second) << "shared " << Row.Name;
  }
}

TEST(RunCounterTableTest, ObservabilityListsEveryCounter) {
  // OBSERVABILITY.md's "Run counters" table, row by row: name, unit,
  // subsystem and the CSVs whose header carries the name.
  const std::pair<const char *, std::set<std::string>> Csvs[] = {
      {"grid", headerCells(exportCsv(GridResults(), {}, {}))},
      {"metrics", headerCells(exportMetricsCsv(GridResults()))},
      {"serve", headerCells(exportServeCsv(ServeResults()))}};
  const std::vector<std::string> Lines =
      readLines(std::string(AOCI_SOURCE_DIR) + "/OBSERVABILITY.md");
  auto It = std::find(Lines.begin(), Lines.end(), "## Run counters");
  ASSERT_NE(It, Lines.end()) << "no \"## Run counters\" section";
  std::vector<std::string> Documented;
  for (++It; It != Lines.end() && !It->starts_with("## "); ++It)
    if (It->starts_with("| `")) {
      const std::vector<std::string> Cells = tableCells(*It);
      Documented.push_back(Cells.at(0) + " | " + Cells.at(1) + " | " +
                           Cells.at(2) + " | " + Cells.at(3));
    }
  ASSERT_EQ(Documented.size(), std::size(runcounter::Table));
  for (size_t I = 0; I != Documented.size(); ++I) {
    const runcounter::Spec &Row = runcounter::Table[I];
    std::string In;
    for (const auto &[Csv, Header] : Csvs)
      if (Header.count(Row.Name))
        In += (In.empty() ? "" : ", ") + std::string(Csv);
    EXPECT_EQ(Documented[I], std::string("`") + Row.Name + "` | " +
                                 Row.Unit + " | " + Row.Subsystem + " | " +
                                 (In.empty() ? "—" : In));
  }
}

TEST(GoldenTest, CsvExportFormat) {
  GridResults Results = syntheticGrid();
  std::string Csv =
      exportCsv(Results, {PolicyKind::Fixed, PolicyKind::Parameterless},
                {2, 3});
  expectMatchesGolden("csv_export.golden", Csv, FormatDrift);
}

TEST(GoldenTest, MetricsCsvFormat) {
  GridResults Results;
  RunResult R;
  R.WorkloadName = "alpha";
  R.Policy = PolicyKind::ContextInsensitive;
  R.MaxDepth = 1;
  R.WallCycles = 1000000;
  RunMetrics M;
  M.IsBaseline = true;
  M.Worker = 0;
  M.QueueLatencyNs = 1200;
  M.HostNs = 4500000;
  Results.add(R, M);
  R.Policy = PolicyKind::Fixed;
  R.MaxDepth = 3;
  R.WallCycles = 980000;
  R.FusedRuns = 12;
  R.FusedOps = 87;
  R.FusedBytes = 4176;
  R.WarmStarted = true;
  R.WarmStart.TracesApplied = 57;
  R.WarmStart.TracesDropped = 3;
  R.OptCompileCycles = 180000;
  M.IsBaseline = false;
  M.Worker = 2;
  M.QueueLatencyNs = 800;
  M.HostNs = 3900000;
  M.SteadyKnown = true;
  M.SteadyReached = true;
  M.WarmupCycles = 120000;
  M.SteadyCycles = 860000;
  Results.add(R, M);
  R.MaxDepth = 4;
  R.WallCycles = 990000;
  R.FusedRuns = 0;
  R.FusedOps = 0;
  R.FusedBytes = 0;
  R.WarmStarted = false;
  R.WarmStart = WarmStartStats();
  R.OptCompileCycles = 0;
  M.Worker = 1;
  M.QueueLatencyNs = 950;
  M.HostNs = 4100000;
  M.SteadyReached = false;
  M.WarmupCycles = 990000;
  M.SteadyCycles = 0;
  Results.add(R, M);
  // Every column of this row holds a distinct nonzero value (the two
  // yes/no columns differ), so swapping any two columns changes the bytes.
  R.Policy = PolicyKind::Parameterless;
  R.MaxDepth = 5;
  R.WallCycles = 970001;
  R.FusedRuns = 11;
  R.FusedOps = 83;
  R.FusedBytes = 4099;
  R.WarmStarted = true;
  R.WarmStart.TracesApplied = 41;
  R.WarmStart.DecisionsDropped = 9;
  R.OptCompileCycles = 175003;
  R.ShareHits = 13;
  R.SharePublishes = 17;
  R.ShareCyclesSaved = 23029;
  R.SharedCodeBytes = 3061;
  R.PrivateCodeBytes = 5077;
  R.BudgetUnitsSpent = 619;
  R.BudgetCandidatesPruned = 29;
  R.EstimateErrorPct = 12.3456;
  M.Worker = 6;
  M.QueueLatencyNs = 707;
  M.HostNs = 3800009;
  M.SteadyReached = false;
  M.WarmupCycles = 110003;
  M.SteadyCycles = 860011;
  Results.add(R, M);
  expectMatchesGolden("metrics_csv.golden", exportMetricsCsv(Results),
                      FormatDrift);
}

TEST(GoldenTest, ServeCsvFormat) {
  // Two sessions whose every column holds a distinct value (kind differs
  // between them), so swapping any two columns changes the bytes.
  ServeResults Results;
  for (uint64_t Tag : {1u, 2u}) {
    ServeSessionResult &S = Results.Sessions.emplace_back();
    S.SessionId = static_cast<unsigned>(Tag);
    S.TenantName = Tag == 1 ? "compress" : "scn-phase-shift";
    S.IsScenario = Tag == 2;
    S.StartRound = static_cast<unsigned>(2 + Tag);
    S.RoundsRun = 5 + Tag;
    S.WallCycles = 7000000 + Tag * 1111;
    S.ProgramResult = Tag == 1 ? 249601 : -3511;
    S.OptCompilations = static_cast<unsigned>(30 + Tag);
    S.OptCompileCycles = 480000 + Tag * 19;
    S.ShareHits = 40 + Tag;
    S.SharePublishes = 50 + Tag;
    S.ShareCyclesSaved = 440000 + Tag * 23;
    S.SharedEvictionsApplied = 60 + Tag;
    S.PinnedSharedEvicts = 70 + Tag;
    S.SharedCodeBytes = 7800 + Tag * 7;
    S.PrivateCodeBytes = 437000 + Tag * 29;
    S.Evictions = 80 + Tag;
    S.Deopts = 90 + Tag;
    S.OsrEntries = 100 + Tag;
  }
  expectMatchesGolden("serve_csv.golden", exportServeCsv(Results), FormatDrift);
}

TEST(GoldenTest, PlanPrinterFormat) {
  // The Figure 1 shape in miniature: runTest inlines get twice; each
  // copy guard-inlines one hashCode implementation, and one nests a
  // proven helper.
  ProgramBuilder B;
  ClassId Main = B.addClass("Main");
  ClassId Map = B.addClass("HashMap");
  ClassId KeyA = B.addClass("KeyA");
  MethodId RunTest =
      B.declareMethod(Main, "runTest", MethodKind::Static, 0, true);
  MethodId Get = B.declareMethod(Map, "get", MethodKind::Virtual, 1, true);
  MethodId HashA =
      B.declareMethod(KeyA, "hashCode", MethodKind::Virtual, 0, true);
  MethodId Helper =
      B.declareMethod(KeyA, "helper", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Helper);
    E.iconst(1).ret();
    E.finish();
  }
  {
    CodeEmitter E = B.code(HashA);
    E.invokeStatic(Helper).ret();
    E.finish();
  }
  {
    CodeEmitter E = B.code(Get);
    E.load(1).invokeVirtual(HashA).ret();
    E.finish();
  }
  {
    CodeEmitter E = B.code(RunTest);
    E.newObject(Map).newObject(KeyA).invokeVirtual(Get).pop();
    E.newObject(Map).newObject(KeyA).invokeVirtual(Get).ret();
    E.finish();
  }
  B.setEntry(RunTest);
  Program P = B.build();

  CodeVariant Variant;
  Variant.M = RunTest;
  Variant.Level = OptLevel::Opt2;
  Variant.CodeBytes = 1930;
  Variant.CompileCycles = 48500;
  InlineNode::SiteDecision &First = Variant.Plan.Root.getOrCreate(2);
  InlineCase &GetCase1 = First.Cases.emplace_back();
  GetCase1.Callee = Get;
  GetCase1.Guarded = false;
  GetCase1.BodyUnits = 12;
  GetCase1.Body = std::make_unique<InlineNode>();
  InlineCase &Hash1 = GetCase1.Body->getOrCreate(1).Cases.emplace_back();
  Hash1.Callee = HashA;
  Hash1.Guarded = true;
  Hash1.BodyUnits = 5;
  Hash1.Body = std::make_unique<InlineNode>();
  InlineCase &Nested = Hash1.Body->getOrCreate(0).Cases.emplace_back();
  Nested.Callee = Helper;
  Nested.Guarded = false;
  Nested.BodyUnits = 2;
  InlineNode::SiteDecision &Second = Variant.Plan.Root.getOrCreate(6);
  InlineCase &GetCase2 = Second.Cases.emplace_back();
  GetCase2.Callee = Get;
  GetCase2.Guarded = true;
  GetCase2.BodyUnits = 12;
  Variant.Plan.recountStatistics();

  expectMatchesGolden("plan_printer.golden", describeVariant(P, Variant),
                      FormatDrift);
}
