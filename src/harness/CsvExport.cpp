//===- harness/CsvExport.cpp - Machine-readable result export --------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "harness/CsvExport.h"

#include "support/StringUtils.h"

using namespace aoci;
using runcounter::field;

namespace {

/// One run of a sweep, as the grid and metrics CSVs see it.
struct GridRow {
  const RunResult *Run;
  bool IsBaseline;
  /// The sweep, for the grid CSV's deltas.
  const GridResults *Results = nullptr;
  /// The run's host record, for the metrics CSV.
  const RunMetrics *Host = nullptr;
};

using Column = CsvColumn<GridRow>;

constexpr Column WorkloadColumn{
    "workload", [](const GridRow &X) { return X.Run->WorkloadName; }};
constexpr Column PolicyColumn{
    "policy", [](const GridRow &X) -> std::string {
      return X.IsBaseline ? "cins" : policyKindName(X.Run->Policy);
    }};
constexpr Column MaxDepthColumn{
    "max_depth",
    [](const GridRow &X) { return std::to_string(X.Run->MaxDepth); }};

/// Component \p C's share of the run's wall cycles (Figure 6).
template <AosComponent C> std::string wallShare(const GridRow &X) {
  return formatString("%.6f", X.Run->componentFraction(C));
}

/// A cell's change over its baseline (Figures 4 and 5); empty on
/// baseline rows.
template <double (GridResults::*Delta)(const std::string &, PolicyKind,
                                       unsigned) const>
std::string delta(const GridRow &X) {
  if (X.IsBaseline)
    return "";
  return formatString("%.4f", (X.Results->*Delta)(X.Run->WorkloadName,
                                                  X.Run->Policy,
                                                  X.Run->MaxDepth));
}

constexpr Column GridColumns[] = {
    WorkloadColumn,
    PolicyColumn,
    MaxDepthColumn,
    field<&RunResult::WallCycles>,
    field<&RunResult::OptBytesResident>,
    field<&RunResult::OptBytesGenerated>,
    field<&RunResult::OptCompileCycles>,
    field<&RunResult::OptCompilations>,
    field<&RunResult::GuardFallbacks>,
    field<&RunResult::InlinedCalls>,
    field<&RunResult::SamplesTaken>,
    {"aos_listeners", wallShare<AosComponent::Listeners>},
    {"aos_compilation", wallShare<AosComponent::Compilation>},
    {"aos_decay", wallShare<AosComponent::DecayOrganizer>},
    {"aos_ai", wallShare<AosComponent::AiOrganizer>},
    {"aos_method", wallShare<AosComponent::MethodOrganizer>},
    {"aos_controller", wallShare<AosComponent::Controller>},
    {"speedup_pct", delta<&GridResults::speedupPercent>},
    {"code_size_pct", delta<&GridResults::codeSizePercent>},
    {"compile_time_pct", delta<&GridResults::compileTimePercent>},
};

/// The metrics CSV's column for host-record member \p M.
template <auto M> std::string host(const GridRow &X) {
  return std::to_string(X.Host->*M);
}

constexpr Column MetricsColumns[] = {
    WorkloadColumn,
    PolicyColumn,
    MaxDepthColumn,
    {"kind",
     [](const GridRow &X) -> std::string {
       return X.IsBaseline ? "baseline" : "cell";
     }},
    {"worker", host<&RunMetrics::Worker>},
    {"queue_ns", host<&RunMetrics::QueueLatencyNs>},
    {"host_ns", host<&RunMetrics::HostNs>},
    {field<&RunResult::WallCycles>, "run_cycles"},
    {"steady",
     [](const GridRow &X) -> std::string {
       return !X.Host->SteadyKnown    ? "n/a"
              : X.Host->SteadyReached ? "yes"
                                      : "no";
     }},
    {"warmup_cycles", host<&RunMetrics::WarmupCycles>},
    {"steady_cycles", host<&RunMetrics::SteadyCycles>},
    field<&RunResult::FusedRuns>,
    field<&RunResult::FusedOps>,
    field<&RunResult::FusedBytes>,
    field<&RunResult::WarmStarted>,
    runcounter::warmApplied,
    runcounter::warmDropped,
    field<&RunResult::OptCompileCycles>,
    field<&RunResult::ShareHits>,
    field<&RunResult::SharePublishes>,
    field<&RunResult::ShareCyclesSaved>,
    field<&RunResult::SharedCodeBytes>,
    field<&RunResult::PrivateCodeBytes>,
    field<&RunResult::BudgetUnitsSpent>,
    field<&RunResult::BudgetCandidatesPruned>,
    field<&RunResult::EstimateErrorPct>,
};

} // namespace

std::string aoci::formatCounter(const runcounter::Spec &Counter,
                                const RunResult &R) {
  const runcounter::Bits V = Counter.Get(R);
  switch (Counter.Fmt) {
  case runcounter::Count:
    return std::to_string(V);
  case runcounter::Signed:
    return std::to_string(static_cast<int64_t>(V));
  case runcounter::Fixed4:
    return formatString("%.4f", std::bit_cast<double>(V));
  case runcounter::YesNo:
    return V ? "yes" : "no";
  }
  return "";
}

std::string aoci::exportCsv(const GridResults &Results,
                            const std::vector<PolicyKind> &Policies,
                            const std::vector<unsigned> &Depths) {
  std::vector<GridRow> Rows;
  for (const std::string &W : Results.workloads()) {
    Rows.push_back({&Results.baseline(W), true, &Results});
    for (PolicyKind Policy : Policies)
      for (unsigned D : Depths)
        Rows.push_back({&Results.cell(W, Policy, D), false, &Results});
  }
  return renderCsv<GridRow>(GridColumns, Rows);
}

std::string aoci::exportMetricsCsv(const GridResults &Results) {
  std::vector<GridRow> Rows;
  for (size_t I = 0; I != Results.runs().size(); ++I) {
    const RunMetrics &M = Results.metrics()[I];
    Rows.push_back({&Results.runs()[I], M.IsBaseline, nullptr, &M});
  }
  return renderCsv<GridRow>(MetricsColumns, Rows);
}
