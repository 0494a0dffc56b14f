//===- harness/Experiment.cpp - Experiment runner ---------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "harness/SteadyState.h"
#include "opt/PlanPrinter.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "trace/TraceJson.h"
#include "workload/scenario/ScenarioWorkload.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

using namespace aoci;

LiveRun::LiveRun(const RunConfig &Config)
    : Config(Config),
      W(Config.Scenario
            ? makeScenarioWorkload(*Config.Scenario, Config.Params)
            : makeWorkload(Config.WorkloadName, Config.Params)),
      VM(W.Prog, Config.Model),
      Policy(makePolicy(Config.Policy, Config.MaxDepth)) {
  // Attach the trace sink before the first addThread() so lazy baseline
  // compilations of the entry methods are captured too.
  if (Config.Trace)
    VM.setTraceSink(Config.Trace);
  Aos = std::make_unique<AdaptiveSystem>(VM, *Policy, Config.Aos);
  if (Config.CollectTraceStats)
    Aos->traceListener().enableStatistics();
}

void LiveRun::start() {
  Aos->attach();
  if (Config.WarmStart)
    Warm = Aos->warmStart(*Config.WarmStart);
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
}

bool LiveRun::finished() const {
  return std::all_of(VM.threads().begin(), VM.threads().end(),
                     [](const auto &T) { return T->Finished; });
}

RunResult LiveRun::harvest() {
  const CodeManager &Code = VM.codeManager();
  const ExecutionCounters &Counters = VM.counters();
  const AosStats &Stats = Aos->stats();
  const OsrStats &Osr = Aos->osrStats();
  RunResult R;
  R.WorkloadName = W.Name;
  R.Policy = Config.Policy;
  R.MaxDepth = Config.MaxDepth;
  R.WallCycles = VM.cycles();
  R.OptBytesGenerated = Code.optimizedBytesGenerated();
  R.OptBytesResident = Code.optimizedBytesResident();
  R.OptCompileCycles = Code.optCompileCycles();
  R.BaselineCompileCycles = Code.baselineCompileCycles();
  for (unsigned C = 0; C != NumAosComponents; ++C)
    R.ComponentCycles[C] =
        VM.overheadMeter().cycles(static_cast<AosComponent>(C));
  R.GcCycles = Counters.GcCycles;
  R.OptCompilations = Stats.OptCompilations;
  R.GuardTests = Counters.GuardTestsExecuted;
  R.GuardFallbacks = Counters.GuardFallbacks;
  R.InlinedCalls = Counters.InlinedCallsEntered;
  R.SamplesTaken = Counters.SamplesTaken;
  R.ProgramResult = VM.threads().front()->Result.asInt();
  R.OsrEntries = Osr.OsrEntries;
  R.Deopts = Osr.Deopts;
  R.DeoptFramesRemapped = Osr.DeoptFramesRemapped;
  R.OsrTransitionCycles = Osr.TransitionCyclesCharged;
  R.OsrCyclesRecovered = Osr.CyclesRecoveredEstimate;
  R.LiveCodeBytes = Code.liveCodeBytes();
  R.PeakCodeBytes = Code.peakCodeBytes();
  R.Evictions = Code.numEvictions();
  R.RecompilesAfterEvict = Code.recompilesAfterEvict();
  R.FusedRuns = Code.fusedRunsInstalled();
  R.FusedOps = Code.fusedOpsTotal();
  R.FusedBytes = Code.fusedBytesTotal();
  R.FusedBatchesExecuted = Counters.FusedRunsExecuted;
  R.ShareHits = Stats.ShareHits;
  R.SharePublishes = Stats.SharePublishes;
  R.ShareCyclesSaved = Stats.ShareCyclesSaved;
  R.SharedCodeBytes = Code.sharedInBytesLive();
  R.PrivateCodeBytes = R.LiveCodeBytes - R.SharedCodeBytes;
  R.BudgetUnitsSpent = Stats.BudgetUnitsSpent;
  R.BudgetCandidatesAccepted = Stats.BudgetCandidatesAccepted;
  R.BudgetCandidatesPruned = Stats.BudgetCandidatesPruned;
  R.EstimateErrorPct = Aos->calibration().meanAbsErrorPct();
  R.WarmStarted = Config.WarmStart != nullptr;
  R.WarmStart = Warm;
  R.DecayEntriesDropped = Stats.DecayEntriesDropped;
  if (Config.CaptureProfile)
    R.CapturedProfile = serializeProfileData(Aos->snapshotProfile(W.Name));
  if (Config.CapturePlans)
    for (const auto &V : Code.allVariants())
      if (V->Level != OptLevel::Baseline && Code.current(V->M) == V.get())
        R.Plans += describeVariant(W.Prog, *V);

  R.ClassesLoaded = W.Prog.numClasses();
  for (MethodId M = 0; M != W.Prog.numMethods(); ++M) {
    if (!Code.current(M))
      continue;
    ++R.MethodsCompiled;
    R.BytecodesCompiled += W.Prog.method(M).bytecodeCount();
  }
  if (Config.CollectTraceStats)
    R.TraceStats = Aos->traceListener().statistics();
  return R;
}

RunResult aoci::runExperiment(const RunConfig &Config) {
  LiveRun Run(Config);
  Run.start();
  Run.vm().run();
  return Run.harvest();
}

uint64_t aoci::deriveRunSeed(const RunConfig &Config, unsigned Trial) {
  // Trial 0 keeps the configured seed so a single-trial grid cell is
  // exactly the configured run.
  if (Trial == 0)
    return Config.Model.SampleJitterSeed;
  // FNV-1a over every configuration field that identifies the run,
  // finished with a SplitMix64 avalanche. Nothing here depends on when
  // or where the run executes.
  uint64_t H = 0xcbf29ce484222325ull;
  auto MixByte = [&H](unsigned char B) {
    H ^= B;
    H *= 0x100000001b3ull;
  };
  auto Mix = [&MixByte](uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      MixByte(static_cast<unsigned char>(V >> (8 * I)));
  };
  for (char C : Config.WorkloadName)
    MixByte(static_cast<unsigned char>(C));
  if (Config.Scenario)
    for (char C : printScenario(*Config.Scenario))
      MixByte(static_cast<unsigned char>(C));
  Mix(static_cast<uint64_t>(Config.Policy));
  Mix(Config.MaxDepth);
  Mix(Config.Params.Seed);
  uint64_t ScaleBits = 0;
  static_assert(sizeof(Config.Params.Scale) == sizeof(ScaleBits));
  std::memcpy(&ScaleBits, &Config.Params.Scale, sizeof(ScaleBits));
  Mix(ScaleBits);
  Mix(Config.Model.SampleJitterSeed);
  Mix(Trial);
  H += 0x9e3779b97f4a7c15ull;
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
  return H ^ (H >> 31);
}

RunResult aoci::runBestOf(const RunConfig &Config, unsigned Trials) {
  assert(Trials >= 1 && "need at least one trial");
  RunResult Best;
  // Each trial records into its own local sink; only the best trial's
  // stream survives into the caller's sink, matching the best-of run
  // the CSVs report.
  TraceSink BestTrace;
  for (unsigned T = 0; T != Trials; ++T) {
    RunConfig Trial = Config;
    Trial.Model.SampleJitterSeed = deriveRunSeed(Config, T);
    TraceSink TrialTrace;
    if (Config.Trace) {
      TrialTrace.enable(Config.Trace->kindMask());
      TrialTrace.setCapacity(Config.Trace->capacity());
      Trial.Trace = &TrialTrace;
    }
    RunResult R = runExperiment(Trial);
    if (T == 0 || R.WallCycles < Best.WallCycles) {
      Best = std::move(R);
      BestTrace = std::move(TrialTrace);
    }
  }
  if (Config.Trace)
    Config.Trace->adoptEvents(std::move(BestTrace));
  return Best;
}

GridConfig::GridConfig() {
  Workloads = workloadNames();
  Policies = {PolicyKind::Fixed,           PolicyKind::Parameterless,
              PolicyKind::ClassMethods,    PolicyKind::LargeMethods,
              PolicyKind::HybridParamClass, PolicyKind::HybridParamLarge};
}

const RunResult &GridResults::baseline(const std::string &Workload) const {
  auto It = Baselines.find(Workload);
  assert(It != Baselines.end() && "baseline not run");
  return Runs[It->second];
}

const RunResult &GridResults::cell(const std::string &Workload,
                                   PolicyKind Policy,
                                   unsigned Depth) const {
  auto It = Cells.find(
      CellKey{Workload, static_cast<uint8_t>(Policy), Depth});
  assert(It != Cells.end() && "cell not run");
  return Runs[It->second];
}

double GridResults::speedupPercent(const std::string &Workload,
                                   PolicyKind Policy,
                                   unsigned Depth) const {
  return aoci::speedupPercent(
      static_cast<double>(baseline(Workload).WallCycles),
      static_cast<double>(cell(Workload, Policy, Depth).WallCycles));
}

double GridResults::codeSizePercent(const std::string &Workload,
                                    PolicyKind Policy,
                                    unsigned Depth) const {
  // "Compiled code space" is the resident optimized code: the bytes of
  // optimized machine code installed once the system converges. The
  // cumulative-generated figure (which also counts code obsoleted by
  // recompilation) tracks compile *time* and is reported separately.
  return percentChange(
      static_cast<double>(baseline(Workload).OptBytesResident),
      static_cast<double>(cell(Workload, Policy, Depth).OptBytesResident));
}

double GridResults::compileTimePercent(const std::string &Workload,
                                       PolicyKind Policy,
                                       unsigned Depth) const {
  return percentChange(
      static_cast<double>(baseline(Workload).OptCompileCycles),
      static_cast<double>(cell(Workload, Policy, Depth).OptCompileCycles));
}

void GridResults::add(RunResult R, RunMetrics M) {
  if (M.IsBaseline) {
    Workloads.push_back(R.WorkloadName);
    Baselines.emplace(R.WorkloadName, Runs.size());
  } else {
    Cells.emplace(CellKey{R.WorkloadName, static_cast<uint8_t>(R.Policy),
                          R.MaxDepth},
                  Runs.size());
  }
  Runs.push_back(std::move(R));
  Metrics.push_back(M);
}

namespace {

/// One scheduled run of a sweep. Both the serial and the parallel
/// runner execute the same plan, built by planGrid() below, which is
/// what makes their GridResults identical by construction.
struct PlannedRun {
  RunConfig Config;
  bool IsBaseline = false;
};

std::vector<PlannedRun> planGrid(const GridConfig &Config) {
  std::vector<PlannedRun> Plan;
  Plan.reserve(Config.Workloads.size() *
               (1 + Config.Policies.size() * Config.Depths.size()));
  for (const std::string &Name : Config.Workloads) {
    PlannedRun Base;
    Base.Config.WorkloadName = Name;
    Base.Config.Params = Config.Params;
    Base.Config.Policy = PolicyKind::ContextInsensitive;
    Base.Config.MaxDepth = 1;
    Base.Config.Aos = Config.Aos;
    Base.Config.Model = Config.Model;
    Base.Config.WarmStart = Config.WarmStart;
    Base.Config.CaptureProfile = Config.CaptureProfile;
    Base.IsBaseline = true;
    Plan.push_back(Base);
    for (PolicyKind Policy : Config.Policies) {
      for (unsigned Depth : Config.Depths) {
        PlannedRun Cell = Base;
        Cell.Config.Policy = Policy;
        Cell.Config.MaxDepth = Depth;
        Cell.IsBaseline = false;
        Plan.push_back(std::move(Cell));
      }
    }
  }
  return Plan;
}

/// Display name of one grid run's trace stream ("workload/policy.dN").
std::string runTraceName(const PlannedRun &Run) {
  if (Run.IsBaseline)
    return Run.Config.WorkloadName + "/cins";
  return Run.Config.WorkloadName + "/" +
         policyKindName(Run.Config.Policy) + ".d" +
         std::to_string(Run.Config.MaxDepth);
}

uint64_t elapsedNs(std::chrono::steady_clock::time_point From,
                   std::chrono::steady_clock::time_point To) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(To - From)
          .count());
}

/// A sweep in flight: the plan plus each planned run's result, host
/// record and trace sink, all in plan order. Both runners execute runs
/// through run(), so their GridResults are identical by construction.
struct Sweep {
  std::vector<PlannedRun> Plan;
  std::vector<RunResult> Runs;
  std::vector<RunMetrics> Metrics;
  /// One enabled sink per run when tracing, else empty (the lock-free
  /// discipline: a sink is only ever appended to by its run's worker).
  std::vector<TraceSink> Sinks;

  explicit Sweep(const GridConfig &Config)
      : Plan(planGrid(Config)), Runs(Plan.size()), Metrics(Plan.size()) {
    if (!Config.Trace)
      return;
    Sinks.resize(Plan.size());
    for (size_t I = 0; I != Plan.size(); ++I) {
      Sinks[I].enable(Config.TraceKindMask);
      Plan[I].Config.Trace = &Sinks[I];
    }
  }

  /// Executes plan entry \p I (best of \p Trials) and records its host
  /// metrics. Safe to call concurrently for distinct \p I.
  void run(size_t I, unsigned Trials, unsigned Worker,
           uint64_t QueueLatencyNs) {
    const auto Start = std::chrono::steady_clock::now();
    Runs[I] = runBestOf(Plan[I].Config, Trials);
    RunMetrics &M = Metrics[I];
    M.IsBaseline = Plan[I].IsBaseline;
    M.Worker = Worker;
    M.QueueLatencyNs = QueueLatencyNs;
    M.HostNs = elapsedNs(Start, std::chrono::steady_clock::now());
    // The steady/warmup split comes from the run's own trace stream; a
    // grid without tracing (or with a filter missing the needed kinds)
    // reports the verdict as unknown rather than guessing.
    if (Plan[I].Config.Trace) {
      const SteadyStateResult S =
          detectSteadyState(*Plan[I].Config.Trace, Runs[I].WallCycles);
      M.SteadyKnown = S.Computed;
      M.SteadyReached = S.Reached;
      M.WarmupCycles = S.WarmupCycles;
      M.SteadyCycles = S.SteadyCycles;
    }
  }

  /// Folds the executed runs, in plan order, into a GridResults.
  GridResults finish() {
    GridResults Results;
    for (size_t I = 0; I != Plan.size(); ++I) {
      Results.add(std::move(Runs[I]), Metrics[I]);
      if (!Sinks.empty())
        Results.addTrace(std::move(Sinks[I]), runTraceName(Plan[I]));
    }
    return Results;
  }
};

} // namespace

GridResults
aoci::runGrid(const GridConfig &Config,
              const std::function<void(const std::string &)> &Progress) {
  Sweep S(Config);
  // The serial runner keeps its richer progress lines: by the time a
  // cell finishes its workload's baseline has too, so the line can
  // already report the relative quantities.
  const RunResult *Baseline = nullptr;
  for (size_t I = 0; I != S.Plan.size(); ++I) {
    S.run(I, Config.Trials, /*Worker=*/0, /*QueueLatencyNs=*/0);
    const RunResult &R = S.Runs[I];
    if (S.Plan[I].IsBaseline) {
      Baseline = &R;
      if (Progress)
        Progress(formatString(
            "%-12s cins: %llu cycles, %llu opt bytes (%llu resident)",
            R.WorkloadName.c_str(),
            static_cast<unsigned long long>(R.WallCycles),
            static_cast<unsigned long long>(R.OptBytesGenerated),
            static_cast<unsigned long long>(R.OptBytesResident)));
    } else if (Progress) {
      Progress(formatString(
          "%-12s %-10s max=%u: speedup %s, code %s",
          R.WorkloadName.c_str(), policyKindName(R.Policy), R.MaxDepth,
          formatPercent(
              aoci::speedupPercent(
                  static_cast<double>(Baseline->WallCycles),
                  static_cast<double>(R.WallCycles)))
              .c_str(),
          formatPercent(
              percentChange(
                  static_cast<double>(Baseline->OptBytesGenerated),
                  static_cast<double>(R.OptBytesGenerated)))
              .c_str()));
    }
  }
  return S.finish();
}

GridResults aoci::runGridParallel(
    const GridConfig &Config, unsigned Jobs,
    const std::function<void(const std::string &)> &Progress) {
  if (Jobs == 0)
    Jobs = std::thread::hardware_concurrency();
  if (Jobs == 0)
    Jobs = 1;
  Sweep S(Config);
  // Declared before the pool: if a run throws, get() below unwinds while
  // the pool still drains the remaining runs, which may report progress.
  std::mutex ProgressMutex;
  {
    ThreadPool Pool(Jobs);
    std::vector<std::future<void>> Futures;
    Futures.reserve(S.Plan.size());
    for (size_t I = 0; I != S.Plan.size(); ++I) {
      auto Enqueued = std::chrono::steady_clock::now();
      Futures.push_back(Pool.submit([&, I, Enqueued] {
        S.run(I, Config.Trials, ThreadPool::currentWorkerId(),
              elapsedNs(Enqueued, std::chrono::steady_clock::now()));
        if (Progress) {
          // Relative quantities need the workload's baseline, which may
          // still be in flight on another worker; report absolutes.
          const RunResult &R = S.Runs[I];
          std::lock_guard<std::mutex> Lock(ProgressMutex);
          Progress(formatString(
              "%-12s %-10s max=%u: %llu cycles, %llu opt bytes "
              "(%llu resident; worker %u, %.1f host ms)",
              R.WorkloadName.c_str(),
              S.Plan[I].IsBaseline ? "cins" : policyKindName(R.Policy),
              R.MaxDepth, static_cast<unsigned long long>(R.WallCycles),
              static_cast<unsigned long long>(R.OptBytesGenerated),
              static_cast<unsigned long long>(R.OptBytesResident),
              S.Metrics[I].Worker,
              static_cast<double>(S.Metrics[I].HostNs) / 1e6));
        }
      }));
    }
    // get() rather than wait(): a run that threw re-throws here, and the
    // pool's destructor then drains the rest before the unwind goes on.
    for (std::future<void> &F : Futures)
      F.get();
  }
  return S.finish();
}

void aoci::exportGridTrace(std::ostream &OS, const GridResults &Results) {
  std::vector<TraceProcess> Procs;
  Procs.reserve(Results.traces().size());
  for (size_t I = 0; I != Results.traces().size(); ++I)
    Procs.push_back(TraceProcess{&Results.traces()[I],
                                 Results.traceNames()[I]});
  writeChromeTrace(OS, Procs);
}
