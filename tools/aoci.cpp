//===- tools/aoci.cpp - The AOCI command-line driver ------------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// A single driver over the whole library; `aoci` alone prints the usage.
// Every flag is declared once, in the Flags table below: its name, value
// syntax, the subcommands that accept it, and a checked parser that
// writes the value into the subcommand's own default config. The same
// table generates the usage synopses.
//
//===----------------------------------------------------------------------===//

#include "bytecode/Disassembler.h"
#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "harness/Fuzzer.h"
#include "harness/Reporters.h"
#include "harness/Serve.h"
#include "harness/SteadyState.h"
#include "profile/ProfileIo.h"
#include "support/StringUtils.h"
#include "trace/TraceJson.h"
#include "workload/scenario/ScenarioSpec.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

using namespace aoci;

namespace {

/// The subcommands that take flags, as bits of a flag's accepting set.
enum CommandBit : unsigned {
  CmdRun = 1u << 0,
  CmdGrid = 1u << 1,
  CmdTrace = 1u << 2,
  CmdFuzz = 1u << 3,
  CmdSteady = 1u << 4,
  CmdServe = 1u << 5,
};
constexpr unsigned CmdAll = (CmdServe << 1) - 1;
/// The commands that run the adaptive system with a chosen organizer.
constexpr unsigned CmdAos = CmdRun | CmdGrid | CmdTrace | CmdServe;
/// The commands that take a --policy/--depth pair.
constexpr unsigned CmdPolicy = CmdRun | CmdTrace | CmdSteady | CmdServe;

/// One command line, parsed: the command's own default config, which the
/// flags edit in place, plus the driver-level settings.
struct Options {
  explicit Options(unsigned Command);
  /// The binding pointers below point into this object.
  Options(const Options &) = delete;
  Options &operator=(const Options &) = delete;

  /// The command's config: Run serves run, trace and steady; the others
  /// serve their namesakes. Each keeps its own defaults (ServeConfig and
  /// FuzzConfig turn OSR on, for instance).
  RunConfig Run;
  GridConfig Grid;
  ServeConfig Serve;
  FuzzConfig Fuzz;
  /// The fields the configs share, bound to the command's config.
  WorkloadParams *Params = &Run.Params;
  AosSystemConfig *Aos = &Run.Aos;
  CostModel *Model = &Run.Model;
  PolicyKind *Policy = &Run.Policy;
  unsigned *Depth = &Run.MaxDepth;
  std::shared_ptr<const ProfileData> *WarmStart = &Run.WarmStart;

  std::vector<std::string> Operands;
  std::vector<std::string> Workloads = workloadNames();
  unsigned Trials = 1;
  /// 0 lets runGridParallel pick hardware_concurrency; serve defaults
  /// to 1. Results are byte-identical for every job count.
  unsigned Jobs = 0;
  uint64_t MaxEvents = 0;
  uint32_t TraceMask = TraceAllKinds;
  std::string TraceFilter, TraceOut, ProfileOut, Csv, MetricsCsv, JsonOut,
      OutDir, KnownDir;
  std::string Report = "all";
  bool Plans = false, TraceStats = false, ShowMetrics = false;
  /// Each flag given so far, with its value: a repeat is an error.
  std::map<std::string, std::string> Seen;
};

Options::Options(unsigned Command) {
  auto bind = [this](auto &Config) {
    Params = &Config.Params;
    Aos = &Config.Aos;
    Model = &Config.Model;
  };
  if (Command == CmdGrid) {
    bind(Grid);
    WarmStart = &Grid.WarmStart;
  } else if (Command == CmdFuzz) {
    bind(Fuzz);
  } else if (Command == CmdServe) {
    bind(Serve);
    Policy = &Serve.Policy;
    Depth = &Serve.MaxDepth;
    WarmStart = &Serve.WarmStart;
    Jobs = 1;
  }
}

//===----------------------------------------------------------------------===//
// Checked value parsers. Each reports a diagnostic naming the flag and
// the offending value to stderr and returns false on bad input.
//===----------------------------------------------------------------------===//

bool reject(const char *Flag, const char *Expected, const std::string &Value) {
  std::fprintf(stderr, "%s takes %s, not '%s'\n", Flag, Expected,
               Value.c_str());
  return false;
}

/// Whole-token unsigned decimal in [Min, Max]: no sign, whitespace or
/// trailing junk, no overflow.
bool toUnsigned(const std::string &Value, uint64_t Min, uint64_t Max,
                uint64_t &Out) {
  bool Valid = !Value.empty();
  for (char C : Value)
    Valid &= std::isdigit(static_cast<unsigned char>(C)) != 0;
  errno = 0;
  const unsigned long long V =
      Valid ? std::strtoull(Value.c_str(), nullptr, 10) : 0;
  if (!Valid || errno == ERANGE || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

/// toUnsigned over the range of \p Out's type, starting at \p Min.
template <typename T>
bool parseCount(const char *Flag, const std::string &Value, T &Out,
                T Min = 0) {
  uint64_t V = 0;
  const uint64_t Max = std::numeric_limits<T>::max();
  if (!toUnsigned(Value, Min, Max, V)) {
    std::fprintf(stderr, "%s expects an integer from %llu to %llu, got '%s'\n",
                 Flag, static_cast<unsigned long long>(Min),
                 static_cast<unsigned long long>(Max), Value.c_str());
    return false;
  }
  Out = static_cast<T>(V);
  return true;
}

/// Reports a library parser's \p Error under \p Context unless \p Ok.
bool check(bool Ok, const std::string &Context, const std::string &Error) {
  if (!Ok)
    std::fprintf(stderr, "%s: %s\n", Context.c_str(), Error.c_str());
  return Ok;
}

/// A real-valued flag: parseReal with its diagnostic reported.
bool parseRealFlag(const char *Flag, const std::string &Value,
                   RealFloor Bound, double &Out) {
  std::string Error;
  return check(parseReal(Value, Bound, Out, Error), Flag, Error);
}

bool parseOnOff(const char *Flag, const std::string &Value, bool &On) {
  if (Value != "on" && Value != "off")
    return reject(Flag, "'on' or 'off'", Value);
  On = Value == "on";
  return true;
}

/// `on|off|level=N`: fusion on optimized code, off, or from opt level N.
bool parseFuse(const char *Flag, const std::string &Value, FuseConfig &Fuse) {
  uint64_t Level = 0;
  if (Value == "on" || Value == "off") {
    Fuse.Enabled = Value == "on";
  } else if (Value.rfind("level=", 0) == 0 &&
             toUnsigned(Value.substr(6), 0, NumOptLevels - 1, Level)) {
    Fuse.Enabled = true;
    Fuse.MinLevel = static_cast<uint8_t>(Level);
  } else {
    const std::string Expected =
        "'on', 'off' or 'level=N' with N from 0 to " +
        std::to_string(NumOptLevels - 1);
    return reject(Flag, Expected.c_str(), Value);
  }
  return true;
}

bool parsePolicy(const char *Flag, const std::string &Value,
                 PolicyKind &Out) {
  return check(parsePolicyKind(Value, Out), Flag,
               "unknown policy '" + Value + "'");
}

/// True when \p Name is runnable: a Table 1 workload or a built-in
/// adversarial scenario. \p Context names the flag or command.
bool checkWorkload(const char *Context, const std::string &Name) {
  const std::vector<std::string> &Names = workloadNames();
  return check(std::find(Names.begin(), Names.end(), Name) != Names.end() ||
                   findBuiltinScenario(Name),
               Context, "unknown workload '" + Name + "'");
}

/// A non-empty comma-separated list, each item checked by \p ParseItem.
template <typename T, typename Fn>
bool parseList(const char *Flag, const std::string &Value,
               std::vector<T> &Out, Fn ParseItem) {
  std::vector<T> Items;
  std::stringstream In(Value);
  for (std::string Text; std::getline(In, Text, ',');) {
    if (Text.empty())
      continue;
    T Item{};
    if (!ParseItem(Text, Item))
      return false;
    Items.push_back(Item);
  }
  if (Items.empty())
    return reject(Flag, "a comma-separated list", Value);
  Out = std::move(Items);
  return true;
}

/// Reads all of \p Path into \p Text; \p Context names the flag or
/// command in the diagnostic.
bool readFile(const std::string &Context, const std::string &Path,
              std::string &Text) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  Text = Buffer.str();
  return check(static_cast<bool>(In), Context,
               "cannot read '" + Path + "'");
}

/// Reads and parses a `--warm-start` v2 profile file. Parse warnings
/// (unknown sections/keys under the forward-compat rules) go to stderr;
/// errors carry the line/section/token diagnostic from parseProfile().
bool loadWarmStart(const char *Flag, const std::string &Path,
                   std::shared_ptr<const ProfileData> &Out) {
  auto Profile = std::make_shared<ProfileData>();
  std::string Text, Error;
  if (!readFile(Flag, Path, Text) ||
      !check(parseProfile(Text, *Profile, Error),
             std::string(Flag) + ": '" + Path + "'", Error))
    return false;
  for (const std::string &W : Profile->Warnings)
    std::fprintf(stderr, "%s: warning: %s\n", Path.c_str(), W.c_str());
  Out = std::move(Profile);
  return true;
}

/// The grid reports, in print order (`--report all` prints each).
using GridReportFn = std::string (*)(const GridResults &,
                                     const std::vector<PolicyKind> &,
                                     const std::vector<unsigned> &);
const std::pair<const char *, GridReportFn> GridReports[] = {
    {"fig4", reportFigure4},   {"fig5", reportFigure5},
    {"compile", reportCompileTime}, {"fig6", reportFigure6},
    {"summary", reportSummary},
};

//===----------------------------------------------------------------------===//
// The flag table.
//===----------------------------------------------------------------------===//

/// One command-line flag, declared once.
struct Flag {
  const char *Name;
  /// Value placeholder for the usage text; null for a switch.
  const char *Syntax;
  /// The commands that accept the flag (CommandBit mask).
  unsigned Commands;
  /// Checked parser writing into the command's Options; when null the
  /// value is stored verbatim into Text.
  bool (*Apply)(Options &O, const char *Flag, const std::string &Value);
  std::string Options::*Text = nullptr;
};

const Flag Flags[] = {
    {"--policy", "P", CmdPolicy,
     [](auto &O, auto F, auto &V) { return parsePolicy(F, V, *O.Policy); }},
    {"--depth", "N", CmdPolicy,
     [](auto &O, auto F, auto &V) { return parseCount(F, V, *O.Depth, 1u); }},
    {"--workloads", "a,b", CmdGrid | CmdSteady,
     [](auto &O, auto F, auto &V) {
       return parseList(F, V, O.Workloads, [F](auto &S, auto &Out) {
         Out = S;
         return checkWorkload(F, S);
       });
     }},
    {"--policies", "p,q", CmdGrid,
     [](auto &O, auto F, auto &V) {
       return parseList(F, V, O.Grid.Policies, [F](auto &S, auto &Out) {
         return parsePolicy(F, S, Out);
       });
     }},
    {"--depths", "2,3", CmdGrid,
     [](auto &O, auto F, auto &V) {
       return parseList(F, V, O.Grid.Depths, [F](auto &S, auto &D) {
         return parseCount(F, S, D, 1u);
       });
     }},
    {"--tenants", "a[:N],b[:N]", CmdServe,
     [](auto &O, auto F, auto &V) {
       std::string Error;
       return check(parseTenantList(V, O.Serve.Tenants, Error), F, Error);
     }},
    {"--scale", "X", CmdAll,
     [](auto &O, auto F, auto &V) {
       return parseRealFlag(F, V, RealFloor::Positive, O.Params->Scale);
     }},
    {"--seed", "N", CmdPolicy,
     [](auto &O, auto F, auto &V) { return parseCount(F, V, O.Params->Seed); }},
    {"--seed", "N", CmdFuzz,
     [](auto &O, auto F, auto &V) { return parseCount(F, V, O.Fuzz.Seed); }},
    {"--trials", "N", CmdGrid | CmdTrace | CmdSteady,
     [](auto &O, auto F, auto &V) { return parseCount(F, V, O.Trials, 1u); }},
    {"--jobs", "N", CmdGrid | CmdServe,
     [](auto &O, auto F, auto &V) { return parseCount(F, V, O.Jobs); }},
    {"--osr", "on|off", CmdAll,
     [](auto &O, auto F, auto &V) {
       return parseOnOff(F, V, O.Aos->Osr.Enabled);
     }},
    {"--code-cache", "BYTES", CmdAll,
     [](auto &O, auto F, auto &V) {
       return parseCount(F, V, O.Model->CodeCache.CapacityBytes);
     }},
    {"--fuse", "on|off|level=N", CmdAll,
     [](auto &O, auto F, auto &V) { return parseFuse(F, V, O.Model->Fuse); }},
    {"--organizer", "threshold|budget", CmdAos,
     [](auto &O, auto F, auto &V) {
       if (V != "threshold" && V != "budget")
         return reject(F, "'threshold' or 'budget'", V);
       O.Aos->Organizer = V == "budget" ? InlineOrganizerKind::Budget
                                        : InlineOrganizerKind::Threshold;
       return true;
     }},
    {"--budget-inflation", "F", CmdAos,
     [](auto &O, auto F, auto &V) {
       return parseRealFlag(F, V, RealFloor::Positive,
                            O.Aos->Budget.InflationFactor);
     }},
    {"--budget-slack", "U", CmdAos,
     [](auto &O, auto F, auto &V) {
       return parseCount(F, V, O.Aos->Budget.SlackUnits);
     }},
    {"--budget-explore", "U", CmdAos,
     [](auto &O, auto F, auto &V) {
       return parseCount(F, V, O.Aos->Budget.ExplorationUnits);
     }},
    {"--budget-min-weight", "W", CmdAos,
     [](auto &O, auto F, auto &V) {
       return parseRealFlag(F, V, RealFloor::NonNegative,
                            O.Aos->Budget.MinCandidateWeight);
     }},
    {"--plans", nullptr, CmdRun,
     [](auto &O, auto, auto &) { return O.Plans = true; }},
    {"--trace-stats", nullptr, CmdRun,
     [](auto &O, auto, auto &) { return O.TraceStats = true; }},
    {"--profile-out", "FILE", CmdRun | CmdTrace, nullptr,
     &Options::ProfileOut},
    {"--profile-out", "DIR", CmdGrid, nullptr, &Options::ProfileOut},
    {"--warm-start", "FILE", CmdAos,
     [](auto &O, auto F, auto &V) {
       return loadWarmStart(F, V, *O.WarmStart);
     }},
    {"--trace-out", "FILE", CmdGrid | CmdTrace | CmdServe, nullptr,
     &Options::TraceOut},
    {"--trace-filter", "kinds", CmdGrid | CmdTrace | CmdServe,
     [](auto &O, auto F, auto &V) {
       std::string Error;
       O.TraceFilter = V;
       return check(parseTraceFilter(V, O.TraceMask, Error), F, Error);
     }},
    {"--max-events", "N", CmdTrace,
     [](auto &O, auto F, auto &V) { return parseCount(F, V, O.MaxEvents); }},
    {"--csv", "FILE", CmdGrid | CmdServe, nullptr, &Options::Csv},
    {"--metrics-csv", "FILE", CmdGrid, nullptr, &Options::MetricsCsv},
    {"--metrics", nullptr, CmdGrid,
     [](auto &O, auto, auto &) { return O.ShowMetrics = true; }},
    {"--report", "fig4|fig5|fig6|compile|summary|all", CmdGrid,
     [](auto &O, auto F, auto &V) {
       bool Known = V == "all";
       for (const auto &[Name, Fn] : GridReports)
         Known |= V == Name;
       if (!Known)
         return reject(F, "fig4, fig5, fig6, compile, summary or all", V);
       O.Report = V;
       return true;
     }},
    {"--json", "FILE", CmdSteady, nullptr, &Options::JsonOut},
    {"--budget", "N", CmdFuzz,
     [](auto &O, auto F, auto &V) { return parseCount(F, V, O.Fuzz.Budget); }},
    {"--policy-a", "P", CmdFuzz,
     [](auto &O, auto F, auto &V) {
       return parsePolicy(F, V, O.Fuzz.PolicyA);
     }},
    {"--depth-a", "N", CmdFuzz,
     [](auto &O, auto F, auto &V) {
       return parseCount(F, V, O.Fuzz.DepthA, 1u);
     }},
    {"--policy-b", "P", CmdFuzz,
     [](auto &O, auto F, auto &V) {
       return parsePolicy(F, V, O.Fuzz.PolicyB);
     }},
    {"--depth-b", "N", CmdFuzz,
     [](auto &O, auto F, auto &V) {
       return parseCount(F, V, O.Fuzz.DepthB, 1u);
     }},
    {"--threshold", "PCT", CmdFuzz,
     [](auto &O, auto F, auto &V) {
       return parseRealFlag(F, V, RealFloor::None, O.Fuzz.ThresholdPct);
     }},
    {"--workload-seed", "N", CmdFuzz,
     [](auto &O, auto F, auto &V) { return parseCount(F, V, O.Params->Seed); }},
    {"--max-diffs", "N", CmdFuzz,
     [](auto &O, auto F, auto &V) {
       return parseCount(F, V, O.Fuzz.MaxDifferentials);
     }},
    {"--out", "DIR", CmdFuzz, nullptr, &Options::OutDir},
    {"--known", "DIR", CmdFuzz, nullptr, &Options::KnownDir},
    {"--slice", "CYCLES", CmdServe,
     [](auto &O, auto F, auto &V) {
       return parseCount(F, V, O.Serve.SliceCycles, uint64_t{1});
     }},
    {"--stagger", "N", CmdServe,
     [](auto &O, auto F, auto &V) {
       return parseCount(F, V, O.Serve.StaggerRounds);
     }},
    {"--share-cache", "BYTES|off", CmdServe,
     [](auto &O, auto F, auto &V) {
       O.Serve.ShareEnabled = V != "off";
       O.Serve.ShareCapacityBytes = 0;
       return V == "off" || parseCount(F, V, O.Serve.ShareCapacityBytes);
     }},
};

//===----------------------------------------------------------------------===//
// Subcommands.
//===----------------------------------------------------------------------===//

/// Writes \p Bytes to \p Path; names the file on stderr when \p What is
/// given.
bool writeFile(const std::string &Path, const std::string &Bytes,
               const char *What = nullptr) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
    return false;
  }
  Out << Bytes;
  if (What)
    std::fprintf(stderr, "%s written to %s\n", What, Path.c_str());
  return true;
}

/// A counter as printf's %llu expects it.
unsigned long long ull(uint64_t V) { return V; }

void printProgress(const std::string &Line) {
  std::fprintf(stderr, "%s\n", Line.c_str());
}

int cmdList(Options &) {
  for (const std::string &Name : workloadNames()) {
    Workload W = makeWorkload(Name, WorkloadParams{1, 0.01});
    std::printf("%-12s %s\n", Name.c_str(), W.Description.c_str());
  }
  std::printf("adversarial scenarios:\n");
  for (const std::string &Name : scenarioNames()) {
    Workload W = makeWorkload(Name, WorkloadParams{1, 0.01});
    std::printf("%-22s %s\n", Name.c_str(), W.Description.c_str());
  }
  return 0;
}

/// Runs every Table 1 workload once under \p Config.
std::vector<RunResult> runSuite(RunConfig Config) {
  std::vector<RunResult> Runs;
  for (const std::string &Name : workloadNames()) {
    Config.WorkloadName = Name;
    Runs.push_back(runExperiment(Config));
  }
  return Runs;
}

int cmdTable1(Options &) {
  std::printf("%s", reportTable1(runSuite(RunConfig())).c_str());
  return 0;
}

int cmdSection4(Options &) {
  // A deep fixed policy records full chains; the chain statistics
  // themselves are policy-independent instrumentation.
  RunConfig Config;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 5;
  Config.CollectTraceStats = true;
  std::printf("%s", reportSection4(runSuite(Config)).c_str());
  return 0;
}

int cmdRun(Options &O) {
  RunConfig &Config = O.Run;
  Config.WorkloadName = O.Operands[0];
  if (!checkWorkload("run", Config.WorkloadName))
    return 1;
  Config.CollectTraceStats = O.TraceStats;
  Config.CapturePlans = O.Plans;
  Config.CaptureProfile = !O.ProfileOut.empty();
  const RunResult R = runExperiment(Config);

  if (Config.WarmStart) {
    const WarmStartStats &S = R.WarmStart;
    std::printf("warm start     %llu entries applied, %llu dropped "
                "(%llu traces, %llu decisions, %llu hot methods, "
                "%llu refusals)\n",
                ull(S.applied()), ull(S.dropped()), ull(S.TracesApplied),
                ull(S.DecisionsApplied), ull(S.HotMethodsApplied),
                ull(S.RefusalsApplied));
    if (S.ThresholdMismatches != 0)
      std::fprintf(stderr,
                   "warning: %llu saved threshold(s) differ from this "
                   "run's configuration (live values win)\n",
                   ull(S.ThresholdMismatches));
  }
  std::printf("workload       %s (policy %s)\n", R.WorkloadName.c_str(),
              makePolicy(R.Policy, R.MaxDepth)->name().c_str());
  std::printf("wall cycles    %llu\n", ull(R.WallCycles));
  std::printf("result         %lld\n",
              static_cast<long long>(R.ProgramResult));
  std::printf("samples        %llu\n", ull(R.SamplesTaken));
  std::printf("opt compiles   %llu (%llu cycles)\n", ull(R.OptCompilations),
              ull(R.OptCompileCycles));
  std::printf("opt code bytes %llu resident / %llu generated\n",
              ull(R.OptBytesResident), ull(R.OptBytesGenerated));
  std::printf("inlined calls  %llu (guard fallbacks %llu)\n",
              ull(R.InlinedCalls), ull(R.GuardFallbacks));
  if (Config.Aos.Organizer == InlineOrganizerKind::Budget)
    std::printf("budget         %llu candidate units accepted "
                "(%llu candidates), %llu pruned; estimator error %.1f%%\n",
                ull(R.BudgetUnitsSpent), ull(R.BudgetCandidatesAccepted),
                ull(R.BudgetCandidatesPruned), R.EstimateErrorPct);
  if (Config.Aos.Osr.Enabled)
    std::printf("osr            %llu entries, %llu deopts (%llu frames); "
                "%llu cycles charged, ~%llu recovered\n",
                ull(R.OsrEntries), ull(R.Deopts), ull(R.DeoptFramesRemapped),
                ull(R.OsrTransitionCycles), ull(R.OsrCyclesRecovered));
  if (Config.Model.CodeCache.enabled())
    std::printf("code cache     %llu live / %llu peak bytes (cap %llu); "
                "%llu evictions, %llu recompiles after evict\n",
                ull(R.LiveCodeBytes), ull(R.PeakCodeBytes),
                ull(Config.Model.CodeCache.CapacityBytes), ull(R.Evictions),
                ull(R.RecompilesAfterEvict));
  if (Config.Model.Fuse.Enabled)
    std::printf("fusion         %llu runs (%llu instrs) installed, "
                "%llu host bytes; %llu batches executed\n",
                ull(R.FusedRuns), ull(R.FusedOps), ull(R.FusedBytes),
                ull(R.FusedBatchesExecuted));
  for (unsigned C = 0; C != NumAosComponents; ++C)
    std::printf("aos %-21s %8.4f%%\n",
                aosComponentName(static_cast<AosComponent>(C)),
                100.0 * static_cast<double>(R.ComponentCycles[C]) /
                    static_cast<double>(R.WallCycles));
  if (O.TraceStats)
    std::printf("trace stats    %llu samples, %.0f%% parameterless "
                "callees, mean depth %.2f\n",
                ull(R.TraceStats.numSamples()),
                R.TraceStats.calleeParameterlessFraction() * 100,
                R.TraceStats.meanRecordedDepth());
  if (O.Plans)
    std::printf("\ninstalled optimized code:\n%s", R.Plans.c_str());
  if (!O.ProfileOut.empty()) {
    if (!writeFile(O.ProfileOut, R.CapturedProfile))
      return 1;
    std::printf("v2 profile saved to %s\n", O.ProfileOut.c_str());
  }
  return 0;
}

int cmdTrace(Options &O) {
  RunConfig &Config = O.Run;
  Config.WorkloadName = O.Operands[0];
  if (!checkWorkload("trace", Config.WorkloadName))
    return 1;
  Config.CaptureProfile = !O.ProfileOut.empty();
  TraceSink Sink;
  Sink.enable(O.TraceMask);
  Sink.setCapacity(O.MaxEvents);
  Config.Trace = &Sink;
  const RunResult R = runBestOf(Config, O.Trials);
  if (!O.ProfileOut.empty() &&
      !writeFile(O.ProfileOut, R.CapturedProfile, "v2 profile"))
    return 1;

  const std::string ProcessName =
      Config.Policy == PolicyKind::ContextInsensitive
          ? Config.WorkloadName + "/cins"
          : Config.WorkloadName + "/" + policyKindName(Config.Policy) +
                ".d" + std::to_string(Config.MaxDepth);
  std::fprintf(stderr,
               "%s: %llu cycles, %llu events recorded (%llu dropped)\n",
               ProcessName.c_str(), ull(R.WallCycles), ull(Sink.numEvents()),
               ull(Sink.droppedEvents()));
  if (O.TraceOut.empty()) {
    writeChromeTrace(std::cout, Sink, ProcessName);
    return 0;
  }
  std::ostringstream Trace;
  writeChromeTrace(Trace, Sink, ProcessName);
  return writeFile(O.TraceOut, Trace.str(), "trace") ? 0 : 1;
}

int cmdGrid(Options &O) {
  GridConfig &Config = O.Grid;
  Config.Workloads = O.Workloads;
  Config.Trials = O.Trials;
  Config.Trace = !O.TraceOut.empty() || !O.TraceFilter.empty();
  Config.TraceKindMask = O.TraceMask;
  Config.CaptureProfile = !O.ProfileOut.empty();
  const GridResults Results = runGridParallel(Config, O.Jobs, printProgress);

  for (const auto &[Name, Report] : GridReports)
    if (O.Report == "all" || O.Report == Name)
      std::printf("%s\n",
                  Report(Results, Config.Policies, Config.Depths).c_str());
  if (O.ShowMetrics)
    std::printf("%s\n", reportRunMetrics(Results).c_str());
  if (!O.Csv.empty() &&
      !writeFile(O.Csv, exportCsv(Results, Config.Policies, Config.Depths),
                 "csv"))
    return 1;
  if (!O.MetricsCsv.empty() &&
      !writeFile(O.MetricsCsv, exportMetricsCsv(Results), "metrics csv"))
    return 1;
  if (!O.TraceOut.empty()) {
    std::ostringstream Trace;
    exportGridTrace(Trace, Results);
    if (!writeFile(O.TraceOut, Trace.str(), "trace"))
      return 1;
  }
  if (!O.ProfileOut.empty()) {
    std::filesystem::create_directories(O.ProfileOut);
    size_t Written = 0;
    auto save = [&](const RunResult &R, const std::string &Stem) {
      const std::filesystem::path Path =
          std::filesystem::path(O.ProfileOut) / (Stem + ".prof");
      if (!writeFile(Path.string(), R.CapturedProfile))
        return false;
      ++Written;
      return true;
    };
    for (const std::string &W : Results.workloads()) {
      if (!save(Results.baseline(W), W + "-cins"))
        return 1;
      for (PolicyKind Policy : Config.Policies)
        for (unsigned D : Config.Depths)
          if (!save(Results.cell(W, Policy, D),
                    W + "-" + policyKindName(Policy) + "-d" +
                        std::to_string(D)))
            return 1;
    }
    std::fprintf(stderr, "%zu v2 profile(s) written to %s\n", Written,
                 O.ProfileOut.c_str());
  }
  return 0;
}

/// Reads and parses one `.scn` file; reports errors to stderr.
bool loadScenarioFile(const std::string &Path, ScenarioSpec &Spec) {
  std::string Text, Error;
  return readFile("scenario", Path, Text) &&
         check(parseScenario(Text, Spec, Error), Path, Error);
}

/// Parses every `*.scn` under \p Dir (sorted by filename, so results are
/// stable across filesystems). Returns false on any parse error.
bool loadScenarioDir(const std::string &Dir,
                     std::vector<ScenarioSpec> &Specs) {
  std::error_code Ec;
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec))
    if (Entry.path().extension() == ".scn")
      Files.push_back(Entry.path());
  if (Ec) {
    std::fprintf(stderr, "cannot list '%s': %s\n", Dir.c_str(),
                 Ec.message().c_str());
    return false;
  }
  std::sort(Files.begin(), Files.end());
  for (const auto &Path : Files) {
    ScenarioSpec Spec;
    if (!loadScenarioFile(Path.string(), Spec))
      return false;
    Specs.push_back(std::move(Spec));
  }
  return true;
}

int cmdFuzz(Options &O) {
  // The corpus of already-known findings, keyed on the canonical spec
  // (name and expect block stripped), so a rename is not "new".
  std::vector<std::string> KnownKeys;
  if (!O.KnownDir.empty()) {
    std::vector<ScenarioSpec> Corpus;
    if (!loadScenarioDir(O.KnownDir, Corpus))
      return 1;
    for (const ScenarioSpec &S : Corpus)
      KnownKeys.push_back(scenarioSearchKey(S));
    std::fprintf(stderr, "loaded %zu known reproducer(s) from %s\n",
                 KnownKeys.size(), O.KnownDir.c_str());
  }

  FuzzResults Results = runFuzz(O.Fuzz, printProgress);
  std::fprintf(stderr,
               "fuzz: %u candidate(s), %llu run(s), %zu differential(s)\n",
               Results.CandidatesTried, ull(Results.TotalRuns),
               Results.Differentials.size());

  bool FoundNew = false;
  for (const FuzzDifferential &D : Results.Differentials) {
    const std::string Text = printScenario(D.Spec);
    const bool Known =
        std::find(KnownKeys.begin(), KnownKeys.end(),
                  scenarioSearchKey(D.Spec)) != KnownKeys.end();
    if (!O.KnownDir.empty() && !Known)
      FoundNew = true;
    std::printf("# %s: %s %+.2f%% over %s (shrunk from %+.2f%%)%s\n%s\n",
                D.Spec.Name.c_str(), D.Spec.Expect.PolicyA.c_str(),
                D.DeltaPct, D.Spec.Expect.PolicyB.c_str(),
                D.OriginalDeltaPct,
                Known ? " [known]" : "", Text.c_str());
    if (!O.OutDir.empty()) {
      std::filesystem::create_directories(O.OutDir);
      const std::filesystem::path Path =
          std::filesystem::path(O.OutDir) / (D.Spec.Name + ".scn");
      if (!writeFile(Path.string(), Text, "reproducer"))
        return 1;
    }
  }
  if (FoundNew) {
    std::fprintf(stderr, "fuzz: NEW differential(s) not in %s\n",
                 O.KnownDir.c_str());
    return 1;
  }
  return 0;
}

int cmdReplay(Options &O) {
  const char *File = O.Operands[0].c_str();
  ScenarioSpec Spec;
  if (!loadScenarioFile(File, Spec))
    return 1;
  if (!Spec.HasExpectation) {
    std::fprintf(stderr, "%s has no expect block; nothing to replay\n", File);
    return 1;
  }
  PolicyKind Check;
  if (!parsePolicyKind(Spec.Expect.PolicyA, Check) ||
      !parsePolicyKind(Spec.Expect.PolicyB, Check)) {
    std::fprintf(stderr, "%s: unknown policy in expect block\n", File);
    return 1;
  }
  const double Delta = replayScenario(Spec);
  const bool SameSign =
      (Delta > 0) == (Spec.Expect.MinDeltaPct > 0) ||
      Spec.Expect.MinDeltaPct == 0;
  std::printf("%s: %s vs %s delta %+.2f%% (recorded %+.2f%%) -> %s\n",
              Spec.Name.c_str(), Spec.Expect.PolicyA.c_str(),
              Spec.Expect.PolicyB.c_str(), Delta, Spec.Expect.MinDeltaPct,
              SameSign ? "reproduced" : "NOT reproduced");
  return SameSign ? 0 : 1;
}

int cmdSteady(Options &O) {
  bool AllReached = true;
  std::string Json = "{\"workloads\":[";
  std::printf("%-22s %12s %12s %12s  %s\n", "workload", "wall Mcy",
              "warmup Mcy", "steady Mcy", "verdict");
  for (size_t I = 0; I != O.Workloads.size(); ++I) {
    const std::string &Name = O.Workloads[I];
    RunConfig Config = O.Run;
    Config.WorkloadName = Name;
    TraceSink Sink;
    Sink.enable(steadyStateKindMask());
    Config.Trace = &Sink;
    const RunResult R = runBestOf(Config, O.Trials);
    const SteadyStateResult S = detectSteadyState(Sink, R.WallCycles);
    AllReached &= S.Reached;
    std::printf("%-22s %12.2f %12.2f %12.2f  %s (%s)\n", Name.c_str(),
                static_cast<double>(R.WallCycles) / 1e6,
                static_cast<double>(S.WarmupCycles) / 1e6,
                static_cast<double>(S.SteadyCycles) / 1e6,
                S.Reached ? "steady" : "NOT steady", S.Why.c_str());
    Json += formatString(
        "%s{\"name\":\"%s\",\"reached\":%s,\"wallCycles\":%llu,"
        "\"warmupCycles\":%llu,\"steadyCycles\":%llu,\"why\":\"%s\"}",
        I == 0 ? "" : ",", jsonEscape(Name).c_str(),
        S.Reached ? "true" : "false", ull(R.WallCycles),
        ull(S.WarmupCycles), ull(S.SteadyCycles), jsonEscape(S.Why).c_str());
  }
  Json += formatString("],\"allReached\":%s}\n",
                       AllReached ? "true" : "false");
  if (!O.JsonOut.empty() && !writeFile(O.JsonOut, Json, "verdict"))
    return 1;
  return AllReached ? 0 : 1;
}

int cmdServe(Options &O) {
  ServeConfig &Config = O.Serve;
  if (!O.Seen.count("--tenants")) {
    std::fprintf(stderr, "serve: --tenants is required\n");
    return 1;
  }
  Config.Trace = !O.TraceOut.empty();
  Config.TraceKindMask = O.TraceMask;
  const ServeResults Results = runServe(Config, O.Jobs, printProgress);

  std::printf("%s", reportServe(Results).c_str());
  if (!O.Csv.empty() &&
      !writeFile(O.Csv, exportServeCsv(Results), "serve csv"))
    return 1;
  if (!O.TraceOut.empty()) {
    std::ostringstream Trace;
    exportServeTrace(Trace, Results);
    if (!writeFile(O.TraceOut, Trace.str(), "trace"))
      return 1;
  }
  return 0;
}

int cmdDisasm(Options &O) {
  const std::string &Name = O.Operands[0];
  if (!checkWorkload("disasm", Name))
    return 1;
  Workload W = makeWorkload(Name, WorkloadParams{1, 0.01});
  if (O.Operands.size() == 1) {
    std::printf("%s", disassembleProgram(W.Prog).c_str());
    return 0;
  }
  MethodId M = W.Prog.findMethod(O.Operands[1]);
  if (M == InvalidMethodId) {
    std::fprintf(stderr, "no method '%s' in %s\n", O.Operands[1].c_str(),
                 Name.c_str());
    return 1;
  }
  std::printf("%s", disassembleMethod(W.Prog, M).c_str());
  return 0;
}

/// One subcommand.
struct Command {
  const char *Name;
  /// Its CommandBit; 0 for a command that takes no flags.
  unsigned Bit;
  /// Positional operands, for the usage text, and their count range.
  const char *Operands;
  unsigned MinOperands, MaxOperands;
  int (*Run)(Options &);
};

const Command Commands[] = {
    {"list", 0, "", 0, 0, cmdList},
    {"table1", 0, "", 0, 0, cmdTable1},
    {"section4", 0, "", 0, 0, cmdSection4},
    {"run", CmdRun, " <workload>", 1, 1, cmdRun},
    {"grid", CmdGrid, "", 0, 0, cmdGrid},
    {"trace", CmdTrace, " <workload>", 1, 1, cmdTrace},
    {"disasm", 0, " <workload> [method]", 1, 2, cmdDisasm},
    {"fuzz", CmdFuzz, "", 0, 0, cmdFuzz},
    {"replay", 0, " <file.scn>", 1, 1, cmdReplay},
    {"steady", CmdSteady, "", 0, 0, cmdSteady},
    {"serve", CmdServe, "", 0, 0, cmdServe},
};

const char *const HelpText =
    "policies: cins fixed paramLess class large hybrid1 hybrid2 "
    "imprecision\n"
    "workloads: Table 1 names plus the built-in adversarial scenarios\n"
    "  (scn-megamorphic-storm, scn-phase-flip, scn-alloc-burst,\n"
    "  scn-cache-churn)\n"
    "section4: the Section 4 trace statistics, from every Table 1\n"
    "  workload under the fixed policy at depth 5\n"
    "fuzz: searches seeded scenario mutations for runs where policy A\n"
    "  beats policy B by more than the threshold; shrinks each finding\n"
    "  and writes replayable .scn reproducers (--out). With --known DIR\n"
    "  the exit status is 1 iff a differential not in DIR was found.\n"
    "steady: runs each workload traced and reports the warmup/steady\n"
    "  split; exit status is 1 unless every run reached steady state.\n"
    "serve: runs the --tenants sessions (required) concurrently against\n"
    "  one process-wide shared code cache (variants keyed by method +\n"
    "  inline-plan fingerprint + opt level); a hit charges only the\n"
    "  link cost. Deterministic for any --jobs. --share-cache bounds\n"
    "  the shared index (off disables sharing entirely); --stagger\n"
    "  offsets session start rounds; --slice sets the per-round cycle\n"
    "  slice. OSR defaults ON in serve so shared evictions can deopt\n"
    "  live sessions.\n"
    "--policy: a context-sensitive policy defaults to --depth 4\n"
    "--osr: transfer live activations onto replacement code at loop\n"
    "  backedges (on-stack replacement + deoptimization); default off\n"
    "--organizer: how inlining rules are codified from the DCG.\n"
    "  'threshold' (default) is the paper's 1.5% hot-trace organizer;\n"
    "  'budget' prices candidates with measured compiled sizes (falling\n"
    "  back to a self-calibrating estimate for never-compiled callees)\n"
    "  under per-caller inflation and global exploration budgets.\n"
    "  Budget knobs: --budget-inflation F (per-caller budget = caller\n"
    "  units x F + slack; default 2.5), --budget-slack U (default 80),\n"
    "  --budget-explore U (per-wakeup pool for estimate-priced\n"
    "  candidates; default 600), --budget-min-weight W (candidate noise\n"
    "  floor; default 1.5). Emits uncharged budget-decision trace events.\n"
    "--code-cache: bound total installed code bytes; victims are chosen\n"
    "  deterministically (least-recently-invoked by simulated cycle) and\n"
    "  live activations deoptimize first; 0 (default) = unbounded\n"
    "--profile-out: save the run's full AOS decision state (DCG trace\n"
    "  weights, hot-method samples, inline decisions and refusals) as a\n"
    "  versioned v2 profile; see docs/profile-format.md. On grid, DIR\n"
    "  receives one .prof per run\n"
    "--warm-start: re-seed the adaptive system from a v2 profile before\n"
    "  the run; stale entries are dropped and counted, never fatal.\n"
    "--fuse: superinstruction fusion — lower straight-line runs of hot\n"
    "  method bodies into batched handlers at install time. Host-side\n"
    "  only: simulated cycles are bit-identical on or off. 'on' fuses\n"
    "  optimized code (opt level >= 1), 'level=N' fuses at opt level >= N\n"
    "  (level=0 includes baseline code); default off\n"
    "trace kinds: comma-separated event names (see OBSERVABILITY.md), "
    "e.g.\n"
    "  --trace-filter sample,controller-decision,compile-complete\n";

/// Prints the usage, its synopses generated from Commands and Flags.
int usage() {
  std::string Text = "usage:\n";
  for (const Command &C : Commands) {
    std::string Line = std::string("  aoci ") + C.Name + C.Operands;
    const std::string Indent(std::strlen(C.Name) + 7, ' ');
    for (const Flag &F : Flags) {
      if (!(F.Commands & C.Bit))
        continue;
      const std::string Item = std::string("[") + F.Name +
                               (F.Syntax ? std::string(" ") + F.Syntax : "") +
                               "]";
      if (Line.size() + 1 + Item.size() > 78) {
        Text += Line + "\n";
        Line = Indent;
      }
      Line += " " + Item;
    }
    Text += Line + "\n";
  }
  std::fprintf(stderr, "%s%s", Text.c_str(), HelpText);
  return 1;
}

/// Applies argv[2..] onto \p O: flags through the table, everything else
/// as operands. Returns false after reporting the first error.
bool parseArgs(int Argc, char **Argv, const Command &Cmd, Options &O) {
  for (int I = 2; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Cmd.Bit == 0 || Arg.empty() || Arg[0] != '-') {
      O.Operands.push_back(Arg);
      continue;
    }
    const Flag *F = std::find_if(
        std::begin(Flags), std::end(Flags), [&](const Flag &Candidate) {
          return Arg == Candidate.Name && (Candidate.Commands & Cmd.Bit);
        });
    if (F == std::end(Flags)) {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", Cmd.Name,
                   Arg.c_str());
      usage();
      return false;
    }
    std::string Value;
    if (F->Syntax) {
      if (I + 1 == Argc) {
        std::fprintf(stderr, "%s: missing value for '%s'\n", Cmd.Name,
                     Arg.c_str());
        return false;
      }
      Value = Argv[++I];
    }
    const auto [Prev, Fresh] = O.Seen.emplace(Arg, Value);
    if (!Fresh) {
      std::fprintf(stderr, "%s given twice: '%s', then '%s'\n", F->Name,
                   Prev->second.c_str(), Value.c_str());
      return false;
    }
    if (!F->Apply)
      O.*(F->Text) = Value;
    else if (!F->Apply(O, F->Name, Value))
      return false;
  }
  if (O.Operands.size() > Cmd.MaxOperands) {
    std::fprintf(stderr, "%s: unexpected operand '%s'\n", Cmd.Name,
                 O.Operands[Cmd.MaxOperands].c_str());
    usage();
    return false;
  }
  if (O.Operands.size() < Cmd.MinOperands) {
    std::fprintf(stderr, "%s: missing operand\n", Cmd.Name);
    usage();
    return false;
  }
  // A context-sensitive policy without an explicit depth runs at 4.
  if (O.Seen.count("--policy") && !O.Seen.count("--depth") &&
      *O.Policy != PolicyKind::ContextInsensitive)
    *O.Depth = 4;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  for (const Command &C : Commands) {
    if (C.Name != std::string(Argv[1]))
      continue;
    Options O(C.Bit);
    if (!parseArgs(Argc, Argv, C, O))
      return 1;
    try {
      return C.Run(O);
    } catch (const std::invalid_argument &E) {
      // A configuration the library refuses, such as a --scale that
      // overflows a workload's loop counts.
      std::fprintf(stderr, "%s: %s\n", C.Name, E.what());
      return 1;
    }
  }
  return usage();
}
