//===- perfbench/main.cpp - End-to-end host benchmark -----------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
//
// Measures the host cost of producing the paper's simulated results, end
// to end, through the program's public entry points only: runGridParallel
// and runServe for the timed passes, makeWorkload for set-up, and
// VirtualMachine + AdaptiveSystem (LayerProbe.h) for the per-layer split.
//
//   perfbench --workload paper-grid|serve-mix|cache-churn --seed N
//             --seconds S --trace 0|1 [--jobs N] [--scale X]
//   perfbench --self-test
//
// One invocation: run each program the workload uses once on a plain
// VirtualMachine as the output reference, run the workload once at
// --jobs 1 (determinism reference and warm-up), then repeat whole passes
// at the workload's job count until --seconds have elapsed. Between
// passes it times building every program (set-up) and a fixed
// calibration kernel (HostSpeed.h); host times are reported at the
// kernel's reference speed. Every pass's CSV must equal the --jobs 1 CSV
// and every run's or session's result must equal its reference. With
// --trace 1 it then runs the per-layer pass and a pass with the
// program's own event tracing on. The last stdout line is one JSON
// object (see README.md); metrics are listed above it by name and unit.
//
//===----------------------------------------------------------------------===//

#include "BenchMath.h"
#include "HostSpeed.h"
#include "LayerProbe.h"

#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "harness/Serve.h"
#include "support/ThreadPool.h"
#include "workload/scenario/ScenarioSpec.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <numeric>
#include <optional>
#include <ostream>
#include <set>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

using namespace aoci;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

double processCpuSeconds() {
  timespec T{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) / 1e9;
}

double peakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024;
}

//===----------------------------------------------------------------------===//
// Options.
//===----------------------------------------------------------------------===//

constexpr uint64_t MaxJobs = 64;
constexpr double MaxSeconds = 600;
constexpr double MaxScale = 16;
/// Set-up repetitions taken before the first timed pass and after each
/// one, and the fewest whose median is setup_s.
constexpr unsigned SetupRepsPerGap = 3;
constexpr unsigned MinSetupReps = 21;
/// The step-time tail percentile. Not p90: on paper-grid the 90th
/// percentile of per-run host time falls where the jess and db clusters
/// meet, and moved by a third between passes of one seed; the 95th lies
/// inside db's upper cluster and stays within a few percent.
constexpr unsigned TailPercentile = 95;

const char *const Usage =
    "usage: perfbench --workload paper-grid|serve-mix|cache-churn "
    "--seed N --seconds S --trace 0|1 [--jobs N] [--scale X]\n"
    "       perfbench --self-test\n";

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Jobs = 0;
  /// Multiplies every workload's run-length scale.
  double Scale = 1;
};

bool parseOptions(int Argc, char **Argv, Options &O, std::string &Error) {
  unsigned HardwareJobs = std::thread::hardware_concurrency();
  O.Jobs = std::clamp(HardwareJobs, 1u, 4u);
  for (int I = 1; I < Argc; I += 2) {
    const std::string Flag = Argv[I];
    if (I + 1 >= Argc) {
      Error = "missing value for " + Flag;
      return false;
    }
    const std::string Value = Argv[I + 1];
    uint64_t U = 0;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      if (!parseUnsignedArg(Value, 0, UINT32_MAX, U)) {
        Error = "--seed must be an integer in 0..4294967295, got '" +
                Value + "'";
        return false;
      }
      O.Seed = U;
    } else if (Flag == "--seconds") {
      if (!parsePositiveArg(Value, MaxSeconds, O.Seconds)) {
        Error = "--seconds must be a finite number in (0, 600], got '" +
                Value + "'";
        return false;
      }
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1") {
        Error = "--trace must be 0 or 1, got '" + Value + "'";
        return false;
      }
      O.Trace = Value == "1";
    } else if (Flag == "--jobs") {
      if (!parseUnsignedArg(Value, 1, MaxJobs, U)) {
        Error = "--jobs must be an integer in 1..64, got '" + Value + "'";
        return false;
      }
      O.Jobs = static_cast<unsigned>(U);
    } else if (Flag == "--scale") {
      if (!parsePositiveArg(Value, MaxScale, O.Scale)) {
        Error = "--scale must be a finite number in (0, 16], got '" +
                Value + "'";
        return false;
      }
    } else {
      Error = "unknown argument '" + Flag + "'";
      return false;
    }
  }
  if (O.Workload != "paper-grid" && O.Workload != "serve-mix" &&
      O.Workload != "cache-churn") {
    Error = O.Workload.empty() ? "--workload is required"
                               : "unknown workload '" + O.Workload + "'";
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

struct WorkloadSpec {
  bool Serve = false;
  GridConfig Grid;
  ServeConfig ServeCfg;
  /// The program behind every VM of one pass, one entry per grid
  /// workload or serve session: what set-up builds and what the
  /// references run.
  std::vector<std::string> Programs;
};

WorkloadSpec makeSpec(const Options &O) {
  WorkloadSpec S;
  if (O.Workload == "serve-mix") {
    S.Serve = true;
    S.ServeCfg.Tenants = {{"compress", 2}, {"jess", 2},      {"db", 2},
                          {"javac", 2},    {"mpegaudio", 1}, {"mtrt", 1},
                          {"jack", 1},     {"SPECjbb2000", 1}};
    for (const std::string &Scn : scenarioNames())
      S.ServeCfg.Tenants.push_back({Scn, 1});
    for (const ServeTenantSpec &T : S.ServeCfg.Tenants)
      for (unsigned I = 0; I != T.Count; ++I)
        S.Programs.push_back(T.Name);
    S.ServeCfg.Params.Seed = O.Seed;
    // Long slices keep rounds few (about 130) and long (about 20 ms):
    // each round ends in a barrier, and with 4M-cycle slices the time
    // idle workers took to wake made wall_s spread by a third between
    // runs whose CPU time agreed within 4%.
    S.ServeCfg.Params.Scale = 6.0 * O.Scale;
    S.ServeCfg.SliceCycles = 12000000;
    S.ServeCfg.ShareCapacityBytes = 20000;
    S.ServeCfg.Model.CodeCache.CapacityBytes = 30000;
    return S;
  }
  // paper-grid is the default GridConfig sweep at fidelity defaults.
  S.Grid.Params.Seed = O.Seed;
  S.Grid.Params.Scale = 0.5 * O.Scale;
  if (O.Workload == "cache-churn") {
    for (const std::string &Scn : scenarioNames())
      S.Grid.Workloads.push_back(Scn);
    S.Grid.Depths = {4, 5};
    S.Grid.Model.CodeCache.CapacityBytes = 12000;
    S.Grid.Model.Fuse.Enabled = true;
    S.Grid.Aos.Osr.Enabled = true;
  }
  S.Programs = S.Grid.Workloads;
  return S;
}

/// One planned grid run, in runGridParallel's plan order (per workload:
/// the cins baseline, then policies x depths).
struct PlannedRun {
  RunConfig Config;
  bool IsBaseline = false;
};

std::vector<PlannedRun> planRuns(const GridConfig &G) {
  std::vector<PlannedRun> Plan;
  for (const std::string &Name : G.Workloads) {
    PlannedRun Base;
    Base.Config.WorkloadName = Name;
    Base.Config.Params = G.Params;
    Base.Config.Aos = G.Aos;
    Base.Config.Model = G.Model;
    Base.IsBaseline = true;
    Plan.push_back(Base);
    for (PolicyKind P : G.Policies)
      for (unsigned D : G.Depths) {
        PlannedRun Cell = Base;
        Cell.Config.Policy = P;
        Cell.Config.MaxDepth = D;
        Cell.IsBaseline = false;
        Plan.push_back(std::move(Cell));
      }
  }
  return Plan;
}

//===----------------------------------------------------------------------===//
// Set-up and references.
//===----------------------------------------------------------------------===//

WorkloadParams paramsOf(const WorkloadSpec &S) {
  return S.Serve ? S.ServeCfg.Params : S.Grid.Params;
}

/// Appends \p Reps samples of the host seconds it takes to build every
/// program of one pass.
void sampleSetup(const WorkloadSpec &S, unsigned Reps,
                 std::vector<double> &Samples) {
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    const Clock::time_point Start = Clock::now();
    for (const std::string &Name : S.Programs)
      makeWorkload(Name, paramsOf(S));
    Samples.push_back(secondsBetween(Start, Clock::now()));
  }
}

/// What a program computes and how many bytecodes it executes when run
/// on a plain VirtualMachine: no sample sink, hence no adaptive system
/// and no optimizing compiler.
struct Reference {
  int64_t Result = 0;
  uint64_t Instructions = 0;
};

std::map<std::string, Reference> computeReferences(const WorkloadSpec &S) {
  std::map<std::string, Reference> Refs;
  for (const std::string &Name : S.Programs) {
    if (Refs.count(Name))
      continue;
    const Workload W = makeWorkload(Name, paramsOf(S));
    VirtualMachine VM(W.Prog);
    for (MethodId Entry : W.Entries)
      VM.addThread(Entry);
    VM.run();
    Refs[Name] = {VM.threads().front()->Result.asInt(),
                  VM.counters().InstructionsExecuted};
  }
  return Refs;
}

//===----------------------------------------------------------------------===//
// Passes.
//===----------------------------------------------------------------------===//

/// A streambuf that discards what is written: the trace export target,
/// so export time is measured without a file system in the way.
class NullBuf final : public std::streambuf {
protected:
  int_type overflow(int_type C) override { return traits_type::not_eof(C); }
  std::streamsize xsputn(const char *, std::streamsize N) override {
    return N;
  }
};

/// Serve-side counters (zero for grid passes).
struct ServeLedger {
  uint64_t Hits = 0;
  uint64_t Publishes = 0;
  uint64_t SharedEvictions = 0;
  double HitRate = 0;
  uint64_t Rounds = 0;
  uint64_t SerialTailRounds = 0;
  uint64_t OptCompilations = 0;
  uint64_t Evictions = 0;
  uint64_t Deopts = 0;
  uint64_t OsrEntries = 0;
};

/// One pass over the workload: a whole grid sweep or a whole serve.
struct Pass {
  bool Threw = false;
  std::string Error;
  double WallSeconds = 0;
  double CpuSeconds = 0;
  /// Exported CSV (exportCsv / exportServeCsv); empty when it threw.
  std::string Csv;
  /// Host ms per step: RunMetrics::HostNs for a grid, the gap between
  /// consecutive Progress callbacks for a serve.
  std::vector<double> StepMs;
  /// Host ms each grid run waited for a worker.
  std::vector<double> QueueMs;
  /// Sum of RunMetrics::HostNs, in seconds (grid only).
  double BusySeconds = 0;
  StepTally Steps;
  uint64_t SimCycles = 0;
  uint64_t SimCodeBytes = 0;
  uint64_t SimCompileCycles = 0;
  uint64_t SimInstructions = 0;
  ServeLedger Ledger;
  uint64_t TraceEvents = 0;
  double TraceExportMs = 0;
};

Pass runGridPass(const WorkloadSpec &S, unsigned Jobs,
                 const std::map<std::string, Reference> &Refs, bool Trace) {
  GridConfig C = S.Grid;
  C.Trace = Trace;
  const std::vector<PlannedRun> Plan = planRuns(C);
  Pass P;
  const double Cpu0 = processCpuSeconds();
  const Clock::time_point Start = Clock::now();
  GridResults R;
  try {
    R = runGridParallel(C, Jobs);
  } catch (const std::exception &E) {
    P.Threw = true;
    P.Error = E.what();
    P.Steps.addLost(Plan.size());
    return P;
  }
  P.WallSeconds = secondsBetween(Start, Clock::now());
  P.CpuSeconds = processCpuSeconds() - Cpu0;
  P.Csv = exportCsv(R, C.Policies, C.Depths);
  for (const RunMetrics &M : R.metrics()) {
    P.StepMs.push_back(static_cast<double>(M.HostNs) / 1e6);
    P.QueueMs.push_back(static_cast<double>(M.QueueLatencyNs) / 1e6);
    P.BusySeconds += static_cast<double>(M.HostNs) / 1e9;
  }
  for (const PlannedRun &Run : Plan) {
    const RunConfig &RC = Run.Config;
    const RunResult &RR =
        Run.IsBaseline ? R.baseline(RC.WorkloadName)
                       : R.cell(RC.WorkloadName, RC.Policy, RC.MaxDepth);
    const Reference &Ref = Refs.at(RC.WorkloadName);
    P.Steps.add(RR.ProgramResult == Ref.Result);
    P.SimCycles += RR.WallCycles;
    P.SimCodeBytes += RR.OptBytesGenerated;
    P.SimCompileCycles += RR.OptCompileCycles;
    P.SimInstructions += Ref.Instructions;
  }
  if (Trace) {
    for (const TraceSink &T : R.traces())
      P.TraceEvents += T.numEvents();
    NullBuf Buf;
    std::ostream OS(&Buf);
    const Clock::time_point ExportStart = Clock::now();
    exportGridTrace(OS, R);
    P.TraceExportMs = secondsBetween(ExportStart, Clock::now()) * 1e3;
  }
  return P;
}

Pass runServePass(const WorkloadSpec &S, unsigned Jobs,
                  const std::map<std::string, Reference> &Refs, bool Trace) {
  ServeConfig C = S.ServeCfg;
  C.Trace = Trace;
  Pass P;
  Clock::time_point LastRound;
  bool SeenRound = false;
  auto Progress = [&](const std::string &) {
    const Clock::time_point Now = Clock::now();
    if (SeenRound)
      P.StepMs.push_back(secondsBetween(LastRound, Now) * 1e3);
    LastRound = Now;
    SeenRound = true;
  };
  const double Cpu0 = processCpuSeconds();
  const Clock::time_point Start = Clock::now();
  ServeResults R;
  try {
    R = runServe(C, Jobs, Progress);
  } catch (const std::exception &E) {
    P.Threw = true;
    P.Error = E.what();
    P.Steps.addLost(1);
    return P;
  }
  P.WallSeconds = secondsBetween(Start, Clock::now());
  P.CpuSeconds = processCpuSeconds() - Cpu0;
  P.Csv = exportServeCsv(R);

  // A round fails when a session that finished in it computed the wrong
  // result.
  std::set<uint64_t> FailedRounds;
  std::vector<unsigned> ActivePerRound(R.Rounds, 0);
  for (const ServeSessionResult &Sess : R.Sessions) {
    const Reference &Ref = Refs.at(Sess.TenantName);
    if (Sess.ProgramResult != Ref.Result)
      FailedRounds.insert(Sess.StartRound +
                          std::max<uint64_t>(Sess.RoundsRun, 1) - 1);
    for (uint64_t Rd = Sess.StartRound;
         Rd < Sess.StartRound + Sess.RoundsRun && Rd < R.Rounds; ++Rd)
      ++ActivePerRound[Rd];
    P.SimCycles += Sess.WallCycles;
    P.SimCodeBytes += Sess.SharedCodeBytes + Sess.PrivateCodeBytes;
    P.SimInstructions += Ref.Instructions;
    P.Ledger.Hits += Sess.ShareHits;
    P.Ledger.Publishes += Sess.SharePublishes;
    P.Ledger.OptCompilations += Sess.OptCompilations;
    P.Ledger.Evictions += Sess.Evictions;
    P.Ledger.Deopts += Sess.Deopts;
    P.Ledger.OsrEntries += Sess.OsrEntries;
  }
  for (uint64_t Rd = 0; Rd != R.Rounds; ++Rd)
    P.Steps.add(FailedRounds.count(Rd) == 0);
  P.SimCompileCycles = R.totalCompileCyclesPaid();
  P.Ledger.SharedEvictions = R.ShareEvictions;
  P.Ledger.HitRate = R.hitRate();
  P.Ledger.Rounds = R.Rounds;
  P.Ledger.SerialTailRounds = static_cast<uint64_t>(
      std::count(ActivePerRound.begin(), ActivePerRound.end(), 1u));
  if (Trace) {
    for (const TraceSink &T : R.Traces)
      P.TraceEvents += T.numEvents();
    NullBuf Buf;
    std::ostream OS(&Buf);
    const Clock::time_point ExportStart = Clock::now();
    exportServeTrace(OS, R);
    P.TraceExportMs = secondsBetween(ExportStart, Clock::now()) * 1e3;
  }
  return P;
}

Pass runPass(const WorkloadSpec &S, unsigned Jobs,
             const std::map<std::string, Reference> &Refs, bool Trace) {
  return S.Serve ? runServePass(S, Jobs, Refs, Trace)
                 : runGridPass(S, Jobs, Refs, Trace);
}

/// The per-layer pass: every planned grid run executed twice, serially,
/// once by runExperiment() and once rebuilt with the LayerProbe wrappers,
/// alternating which goes first. The wrapped run must reproduce the plain
/// one's simulated results and the reference's bytecode count; pairing
/// the two runs keeps host-speed drift out of the wrappers' overhead.
struct LayerPass {
  LayerTotals Totals;
  /// Host seconds of the plain and the wrapped runs, makeWorkload
  /// included in both.
  double PlainSeconds = 0;
  double WrappedSeconds = 0;
  /// A step fails when its simulated results or bytecode count diverge.
  StepTally Steps;
};

LayerPass runLayerPass(const WorkloadSpec &S,
                       const std::map<std::string, Reference> &Refs) {
  LayerPass L;
  const std::vector<PlannedRun> Plan = planRuns(S.Grid);
  for (size_t I = 0; I != Plan.size(); ++I) {
    const RunConfig &RC = Plan[I].Config;
    bool Ok = false;
    try {
      RunResult Plain;
      WrappedOutcome Wrapped;
      auto RunPlain = [&] {
        const Clock::time_point Start = Clock::now();
        Plain = runExperiment(RC);
        L.PlainSeconds += secondsBetween(Start, Clock::now());
      };
      auto RunWrapped = [&] {
        const Clock::time_point Start = Clock::now();
        Wrapped = runWrapped(RC, L.Totals);
        L.WrappedSeconds += secondsBetween(Start, Clock::now());
      };
      if (I % 2 == 0) {
        RunPlain();
        RunWrapped();
      } else {
        RunWrapped();
        RunPlain();
      }
      Ok = Wrapped.WallCycles == Plain.WallCycles &&
           Wrapped.ProgramResult == Plain.ProgramResult &&
           Wrapped.Instructions == Refs.at(RC.WorkloadName).Instructions;
    } catch (const std::exception &E) {
      std::fprintf(stderr, "perfbench: wrapped run %s threw: %s\n",
                   RC.WorkloadName.c_str(), E.what());
    }
    L.Steps.add(Ok);
  }
  return L;
}

//===----------------------------------------------------------------------===//
// Reporting.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// All significant digits; counts (below 2^53) print as plain integers.
std::string formatValue(const Metric &M) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
  return Buf;
}

double requirePercentile(const std::vector<double> &Samples, unsigned Pct,
                         const char *What) {
  double V = 0;
  if (!tailPercentile(Samples, Pct, V)) {
    std::fprintf(stderr,
                 "perfbench: %s: %zu samples cannot support p%u (need %zu)\n",
                 What, Samples.size(), Pct, minSamplesForPercentile(Pct));
    std::exit(1);
  }
  return V;
}

int runBenchmark(const Options &O) {
  const WorkloadSpec S = makeSpec(O);
  std::fprintf(stderr, "perfbench: %s seed=%llu jobs=%u seconds=%g%s\n",
               O.Workload.c_str(), static_cast<unsigned long long>(O.Seed),
               O.Jobs, O.Seconds, O.Trace ? " (traced)" : "");

  const Clock::time_point RefStart = Clock::now();
  const std::map<std::string, Reference> Refs = computeReferences(S);

  // The --jobs 1 pass: determinism reference, source of the simulated
  // totals, and warm-up for the timed passes.
  const Pass Serial = runPass(S, 1, Refs, /*Trace=*/false);
  std::fprintf(stderr,
               "perfbench: references and --jobs 1 pass: %.3f s (pass "
               "%.3f s)\n",
               secondsBetween(RefStart, Clock::now()), Serial.WallSeconds);
  // Set-up is timed on the warm heap the passes leave behind: in a cold
  // process the first builds also pay for page faults, whose number
  // varies from process to process. Its samples are spread over the
  // timed region, between passes: on a shared 4-vCPU x86 VM, host speed
  // switched between two levels about 1.6x apart for a second or more at
  // a time, so a burst of back-to-back samples reported whichever level
  // it fell in.
  std::vector<double> SetupSamples;
  sampleSetup(S, SetupRepsPerGap, SetupSamples);
  // The calibration kernel runs after each timed pass, on as many threads
  // as the passes use. Its tables are allocated only once peak memory has
  // been read, so they do not count in peak_rss_mb.
  std::optional<HostSpeedProbe> Probe;
  std::vector<double> KernelSamples;
  StepTally Tally = Serial.Steps;
  bool Deterministic = !Serial.Threw;
  if (Serial.Threw)
    std::fprintf(stderr, "perfbench: --jobs 1 pass threw: %s\n",
                 Serial.Error.c_str());

  std::vector<Pass> Timed;
  double PeakRssMb = 0;
  size_t StepSamples = 0;
  // Past --seconds, passes continue only while they add step samples.
  bool Extend = true;
  bool Done = false;
  const Clock::time_point TimedStart = Clock::now();
  do {
    Pass P = runPass(S, O.Jobs, Refs, /*Trace=*/false);
    if (P.Threw) {
      std::fprintf(stderr, "perfbench: timed pass threw: %s\n",
                   P.Error.c_str());
    } else if (P.Csv != Serial.Csv) {
      std::fprintf(stderr, "perfbench: --jobs %u CSV differs from --jobs 1\n",
                   O.Jobs);
      Deterministic = false;
      P.Steps.Failed = P.Steps.Attempted;
    }
    std::fprintf(stderr, "perfbench: pass %zu: %.3f s wall, %.3f s cpu\n",
                 Timed.size(), P.WallSeconds, P.CpuSeconds);
    Tally.Attempted += P.Steps.Attempted;
    Tally.Failed += P.Steps.Failed;
    StepSamples += P.StepMs.size();
    Extend = !P.StepMs.empty();
    const double LastWall = P.WallSeconds;
    Timed.push_back(std::move(P));
    // Peak memory is taken after the first timed pass, so it does not
    // grow with the number of passes a faster build fits in --seconds.
    if (Timed.size() == 1) {
      PeakRssMb = peakRssMb();
      Probe.emplace(O.Jobs);
    }
    sampleSetup(S, SetupRepsPerGap, SetupSamples);
    KernelSamples.push_back(Probe->sample());
    std::fprintf(stderr, "perfbench: calibration kernel: %.4f s\n",
                 KernelSamples.back());
    // The timed region ends at the pass boundary nearest --seconds.
    Done = secondsBetween(TimedStart, Clock::now()) + LastWall / 2 >=
           O.Seconds;
  } while (!Done ||
           (Extend && StepSamples < minSamplesForPercentile(TailPercentile)));
  if (SetupSamples.size() < MinSetupReps)
    sampleSetup(S, MinSetupReps - SetupSamples.size(), SetupSamples);
  const double SetupSeconds = median(SetupSamples);
  // A mean, not a median: each 0.1 s kernel sample falls in one of the
  // host's speed levels, while each pass averages over many of them.
  const double KernelSeconds =
      std::accumulate(KernelSamples.begin(), KernelSamples.end(), 0.0) /
      static_cast<double>(KernelSamples.size());

  std::vector<double> Walls, Cpus, StepMs, QueueMs;
  double BusySeconds = 0, PassWallSum = 0;
  for (const Pass &P : Timed) {
    if (P.Threw)
      continue;
    Walls.push_back(P.WallSeconds);
    Cpus.push_back(P.CpuSeconds);
    StepMs.insert(StepMs.end(), P.StepMs.begin(), P.StepMs.end());
    QueueMs.insert(QueueMs.end(), P.QueueMs.begin(), P.QueueMs.end());
    BusySeconds += P.BusySeconds;
    PassWallSum += P.WallSeconds;
  }
  if (Walls.empty()) {
    std::fprintf(stderr, "perfbench: every timed pass threw\n");
    return 1;
  }
  const double WallS = median(Walls);

  std::vector<Metric> Metrics;
  bool Faithful = true;
  if (!O.Trace) {
    // Host times are reported at the reference host speed (HostSpeed.h).
    const double ToReference = HostSpeedProbe::ReferenceSeconds / KernelSeconds;
    const double CpuS = median(Cpus);
    const double StepP50 = requirePercentile(StepMs, 50, "step_p50_ms");
    const double StepP95 =
        requirePercentile(StepMs, TailPercentile, "step_p95_ms");
    std::printf("raw host times: setup_s %.6g, wall_s %.6g, cpu_s %.6g, "
                "step_p50_ms %.6g, step_p95_ms %.6g; calibration kernel "
                "%.6g s (reference %.6g s)\n",
                SetupSeconds, WallS, CpuS, StepP50, StepP95, KernelSeconds,
                HostSpeedProbe::ReferenceSeconds);
    Metrics = {
        {"setup_s", SetupSeconds * ToReference, "s"},
        {"wall_s", WallS * ToReference, "s"},
        {"cpu_s", CpuS * ToReference, "s"},
        {"peak_rss_mb", PeakRssMb, "MB"},
        {"step_p50_ms", StepP50 * ToReference, "ms"},
        {"step_p95_ms", StepP95 * ToReference, "ms"},
        {"sim_minstr_per_s",
         static_cast<double>(Serial.SimInstructions) / 1e6 /
             (WallS * ToReference),
         "Minstr/s"},
        {"passed_frac", 1 - Tally.failedFrac(), "fraction"},
        {"sim_cycles", static_cast<double>(Serial.SimCycles), "cycles"},
        {"sim_opt_code_bytes", static_cast<double>(Serial.SimCodeBytes),
         "bytes"},
        {"sim_compile_cycles", static_cast<double>(Serial.SimCompileCycles),
         "cycles"},
    };
  } else {
    LayerPass L;
    if (!S.Serve) {
      // On a pool worker, where every grid run executes: the main
      // thread's allocator arena returns and re-faults memory between
      // runs, which alone made a main-thread pass about 10% slower.
      ThreadPool Worker(1);
      L = Worker.submit([&] { return runLayerPass(S, Refs); }).get();
      Tally.Attempted += L.Steps.Attempted;
      Tally.Failed += L.Steps.Failed;
      if (L.Steps.Failed) {
        std::fprintf(stderr,
                     "perfbench: %llu wrapped runs diverged from "
                     "runExperiment\n",
                     static_cast<unsigned long long>(L.Steps.Failed));
        Faithful = false;
      }
    }
    Pass Traced = runPass(S, O.Jobs, Refs, /*Trace=*/true);
    Tally.Attempted += Traced.Steps.Attempted;
    Tally.Failed += Traced.Steps.Failed;
    if (Traced.Threw || Traced.Csv != Serial.Csv) {
      std::fprintf(stderr, "perfbench: traced pass differs from untraced\n");
      Deterministic = false;
    }
    const LayerTotals &T = L.Totals;
    const ServeLedger &Ledger = Serial.Ledger;
    auto Count = [](const std::string &Name, uint64_t V) {
      return Metric{Name, static_cast<double>(V), "count"};
    };
    const double BuildMs =
        S.Serve ? SetupSeconds * 1e3 : T.BuildSeconds * 1e3;
    const double VmSelf = T.vmSelfSeconds();
    const double ParallelEff =
        S.Serve ? parallelEfficiency(Serial.WallSeconds, WallS, O.Jobs)
                : parallelEfficiency(BusySeconds, PassWallSum, O.Jobs);
    double QueueP90 = 0;
    if (!S.Serve)
      QueueP90 = requirePercentile(QueueMs, 90, "harness.queue_wait_p90_ms");
    const double ProbeOverheadPct =
        S.Serve ? 0
                : (L.WrappedSeconds / L.PlainSeconds - 1) * 100;
    Metrics = {
        {"workload.build_ms", BuildMs, "ms"},
        {"vm.self_s", VmSelf, "s"},
        {"vm.ns_per_instr",
         T.Instructions ? VmSelf * 1e9 / static_cast<double>(T.Instructions)
                        : 0,
         "ns"},
        Count("vm.instructions",
              S.Serve ? Serial.SimInstructions : T.Instructions),
        Count("vm.calls", T.Calls),
        Count("vm.inlined_calls", T.InlinedCalls),
        Count("codecache.evictions",
              S.Serve ? Ledger.Evictions : T.Evictions),
        Count("codecache.recompiles_after_evict", T.RecompilesAfterEvict),
        Count("codecache.victim_probes", T.VictimProbes),
        {"core.listener_s", T.sampleSeconds(SampleKind::Listener), "s"},
        Count("core.listener_calls", T.sampleCalls(SampleKind::Listener)),
        {"core.organizer_s", T.sampleSeconds(SampleKind::Organizer), "s"},
        Count("core.organizer_calls", T.sampleCalls(SampleKind::Organizer)),
        {"core.compile_s", T.sampleSeconds(SampleKind::Compile), "s"},
        Count("core.compile_calls", T.sampleCalls(SampleKind::Compile)),
        Count("opt.compilations",
              S.Serve ? Ledger.OptCompilations : T.OptCompilations),
        Count("fuse.runs_installed", T.FusedRunsInstalled),
        Count("fuse.batches_executed", T.FusedBatchesExecuted),
        {"osr.driver_s", T.OsrSeconds, "s"},
        Count("osr.calls", T.OsrCalls),
        Count("osr.deopts", S.Serve ? Ledger.Deopts : T.Deopts),
        Count("osr.entries", S.Serve ? Ledger.OsrEntries : T.OsrEntries),
        Count("share.hits", Ledger.Hits),
        Count("share.publishes", Ledger.Publishes),
        Count("share.evictions", Ledger.SharedEvictions),
        {"share.hit_rate", Ledger.HitRate, "fraction"},
        Count("serve.rounds", Ledger.Rounds),
        Count("serve.serial_tail_rounds", Ledger.SerialTailRounds),
        {"harness.queue_wait_p90_ms", QueueP90, "ms"},
        {"harness.parallel_eff", ParallelEff, "fraction"},
        {"probe.overhead_pct", ProbeOverheadPct, "%"},
        {"trace.overhead_pct",
         Traced.Threw ? 0 : (Traced.WallSeconds / WallS - 1) * 100, "%"},
        Count("trace.events", Traced.TraceEvents),
        {"trace.export_ms", Traced.TraceExportMs, "ms"},
    };
  }

  const bool Correct = Tally.Failed == 0 && Deterministic && Faithful;
  std::printf("%s: %zu timed passes, %zu step samples, failed_frac %.17g "
              "(%llu of %llu steps)\n",
              O.Workload.c_str(), Timed.size(), StepMs.size(),
              Tally.failedFrac(),
              static_cast<unsigned long long>(Tally.Failed),
              static_cast<unsigned long long>(Tally.Attempted));
  for (const Metric &M : Metrics)
    std::printf("  %-34s %20s %s\n", M.Name.c_str(), formatValue(M).c_str(),
                M.Unit.c_str());
  std::string Json = "{\"correct\": ";
  Json += Correct ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Tally.Attempted);
  Json += ", \"failed\": " + std::to_string(Tally.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"" + Metrics[I].Name + "\": {\"value\": " +
            formatValue(Metrics[I]) + ", \"unit\": \"" + Metrics[I].Unit +
            "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::string(Argv[1]) == "--self-test")
    return runSelfTests() == 0 ? 0 : 1;
  Options O;
  std::string Error;
  if (!parseOptions(Argc, Argv, O, Error)) {
    std::fprintf(stderr, "perfbench: %s\n%s", Error.c_str(), Usage);
    return 2;
  }
  try {
    return runBenchmark(O);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
