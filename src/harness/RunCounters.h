//===- harness/RunCounters.h - The run counter table ------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every counter a RunResult carries, declared once: its CSV name, unit,
/// owning subsystem, CSV cell format and how to read it. The grid,
/// metrics and serve CSVs render their counter columns from this table
/// (each CSV is an ordered list of counters beside its own columns; see
/// CsvExport.h), and the tests' run-equality check iterates it. A
/// new counter is one RunResult field, one LiveRun::harvest() line and
/// one row here; OBSERVABILITY.md's "Run counters" section lists the
/// rows and a test keeps it in step.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_HARNESS_RUNCOUNTERS_H
#define AOCI_HARNESS_RUNCOUNTERS_H

#include "harness/Experiment.h"

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

namespace aoci {
namespace runcounter {

/// How a counter renders in a CSV cell (formatCounter in CsvExport.h).
enum Format : uint8_t {
  Count,  ///< Unsigned integer.
  Signed, ///< Signed integer.
  Fixed4, ///< Floating point, four decimals.
  YesNo,  ///< "yes" when non-zero, else "no".
};

/// A counter's value as 64 bits: the count, a Signed counter's two's
/// complement, a Fixed4 counter's double bit pattern, or 0/1 for YesNo.
/// Two runs agree on a counter exactly when these bits are equal.
using Bits = uint64_t;

/// Reads one counter from a run. A counter is named by its reader: CSV
/// column lists and the tests' exclusions list readers.
using Reader = Bits (*)(const RunResult &);

/// Reads RunResult member \p M.
template <auto M> constexpr Bits field(const RunResult &R) {
  if constexpr (std::is_floating_point_v<
                    std::remove_cvref_t<decltype(R.*M)>>)
    return std::bit_cast<Bits>(R.*M);
  else
    return static_cast<Bits>(R.*M);
}

/// Reads AOS component \p C's cycles (Figure 6's basis).
template <AosComponent C> constexpr Bits component(const RunResult &R) {
  return R.ComponentCycles[static_cast<unsigned>(C)];
}

/// Reads warm-start section counter \p M.
template <uint64_t WarmStartStats::*M>
constexpr Bits warm(const RunResult &R) {
  return R.WarmStart.*M;
}

inline Bits warmApplied(const RunResult &R) { return R.WarmStart.applied(); }
inline Bits warmDropped(const RunResult &R) { return R.WarmStart.dropped(); }

/// One counter: its CSV column name, unit, owning subsystem, reader and
/// CSV format.
struct Spec {
  const char *Name;
  const char *Unit;
  const char *Subsystem;
  Reader Get;
  Format Fmt = Count;
};

inline constexpr Spec Table[] = {
    {"wall_cycles", "cycles", "vm", field<&RunResult::WallCycles>},
    {"opt_bytes_generated", "bytes", "compiler",
     field<&RunResult::OptBytesGenerated>},
    {"opt_bytes_resident", "bytes", "compiler",
     field<&RunResult::OptBytesResident>},
    {"opt_compile_cycles", "cycles", "compiler",
     field<&RunResult::OptCompileCycles>},
    {"baseline_compile_cycles", "cycles", "compiler",
     field<&RunResult::BaselineCompileCycles>},
    {"aos_listeners_cycles", "cycles", "aos",
     component<AosComponent::Listeners>},
    {"aos_compilation_cycles", "cycles", "aos",
     component<AosComponent::Compilation>},
    {"aos_decay_cycles", "cycles", "aos",
     component<AosComponent::DecayOrganizer>},
    {"aos_ai_cycles", "cycles", "aos", component<AosComponent::AiOrganizer>},
    {"aos_method_cycles", "cycles", "aos",
     component<AosComponent::MethodOrganizer>},
    {"aos_controller_cycles", "cycles", "aos",
     component<AosComponent::Controller>},
    {"gc_cycles", "cycles", "vm", field<&RunResult::GcCycles>},
    {"opt_compilations", "count", "aos", field<&RunResult::OptCompilations>},
    {"guard_tests", "count", "vm", field<&RunResult::GuardTests>},
    {"guard_fallbacks", "count", "vm", field<&RunResult::GuardFallbacks>},
    {"inlined_calls", "count", "vm", field<&RunResult::InlinedCalls>},
    {"samples", "count", "vm", field<&RunResult::SamplesTaken>},
    {"result", "value", "program", field<&RunResult::ProgramResult>, Signed},
    {"osr_entries", "count", "osr", field<&RunResult::OsrEntries>},
    {"deopts", "count", "osr", field<&RunResult::Deopts>},
    {"deopt_frames_remapped", "count", "osr",
     field<&RunResult::DeoptFramesRemapped>},
    {"osr_transition_cycles", "cycles", "osr",
     field<&RunResult::OsrTransitionCycles>},
    {"osr_cycles_recovered", "cycles", "osr",
     field<&RunResult::OsrCyclesRecovered>},
    {"live_code_bytes", "bytes", "code-cache",
     field<&RunResult::LiveCodeBytes>},
    {"peak_code_bytes", "bytes", "code-cache",
     field<&RunResult::PeakCodeBytes>},
    {"evictions", "count", "code-cache", field<&RunResult::Evictions>},
    {"recompiles_after_evict", "count", "code-cache",
     field<&RunResult::RecompilesAfterEvict>},
    {"fused_runs", "count", "fusion", field<&RunResult::FusedRuns>},
    {"fused_ops", "count", "fusion", field<&RunResult::FusedOps>},
    {"fused_bytes", "bytes", "fusion", field<&RunResult::FusedBytes>},
    {"fused_batches_executed", "count", "fusion",
     field<&RunResult::FusedBatchesExecuted>},
    {"share_hits", "count", "share", field<&RunResult::ShareHits>},
    {"share_publishes", "count", "share", field<&RunResult::SharePublishes>},
    {"share_saved_cycles", "cycles", "share",
     field<&RunResult::ShareCyclesSaved>},
    {"shared_bytes", "bytes", "share", field<&RunResult::SharedCodeBytes>},
    {"private_bytes", "bytes", "share", field<&RunResult::PrivateCodeBytes>},
    {"budget_spent", "units", "budget", field<&RunResult::BudgetUnitsSpent>},
    {"budget_accepted", "count", "budget",
     field<&RunResult::BudgetCandidatesAccepted>},
    {"budget_pruned", "count", "budget",
     field<&RunResult::BudgetCandidatesPruned>},
    {"estimate_err_pct", "percent", "budget",
     field<&RunResult::EstimateErrorPct>, Fixed4},
    {"warm_start", "flag", "warm-start", field<&RunResult::WarmStarted>, YesNo},
    {"warm_applied", "count", "warm-start", warmApplied},
    {"warm_dropped", "count", "warm-start", warmDropped},
    {"warm_traces_applied", "count", "warm-start",
     warm<&WarmStartStats::TracesApplied>},
    {"warm_traces_dropped", "count", "warm-start",
     warm<&WarmStartStats::TracesDropped>},
    {"warm_decisions_applied", "count", "warm-start",
     warm<&WarmStartStats::DecisionsApplied>},
    {"warm_decisions_dropped", "count", "warm-start",
     warm<&WarmStartStats::DecisionsDropped>},
    {"warm_hot_methods_applied", "count", "warm-start",
     warm<&WarmStartStats::HotMethodsApplied>},
    {"warm_hot_methods_dropped", "count", "warm-start",
     warm<&WarmStartStats::HotMethodsDropped>},
    {"warm_refusals_applied", "count", "warm-start",
     warm<&WarmStartStats::RefusalsApplied>},
    {"warm_refusals_dropped", "count", "warm-start",
     warm<&WarmStartStats::RefusalsDropped>},
    {"warm_threshold_mismatches", "count", "warm-start",
     warm<&WarmStartStats::ThresholdMismatches>},
    {"decay_dropped", "count", "aos", field<&RunResult::DecayEntriesDropped>},
    {"classes_loaded", "count", "program", field<&RunResult::ClassesLoaded>},
    {"methods_compiled", "count", "program",
     field<&RunResult::MethodsCompiled>},
    {"bytecodes_compiled", "count", "program",
     field<&RunResult::BytecodesCompiled>},
};

/// The row read by \p Get; throws std::invalid_argument when no row has
/// that reader.
inline const Spec &find(Reader Get) {
  for (const Spec &Row : Table)
    if (Row.Get == Get)
      return Row;
  throw std::invalid_argument("no run counter has this reader");
}

} // namespace runcounter
} // namespace aoci

#endif // AOCI_HARNESS_RUNCOUNTERS_H
