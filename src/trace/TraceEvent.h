//===- trace/TraceEvent.h - Typed AOS trace events ---------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event taxonomy of the observability subsystem: everything the
/// adaptive loop does between a timer sample and an installed inline plan
/// is representable as one fixed-size TraceEvent keyed to the simulated
/// clock. Each kind's name, tracks and named args are declared once, in
/// tracekind::Table at the end of this file; the Chrome trace-event JSON
/// rendering (trace/TraceJson.h), the JSON Schema and the OBSERVABILITY.md
/// field tables all follow that table.
///
/// Events are plain data on purpose: the sink appends them with no
/// formatting, allocation, or clock charge, and the export layer turns
/// them into named JSON arguments per kind.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_TRACE_TRACEEVENT_H
#define AOCI_TRACE_TRACEEVENT_H

#include <cstdint>
#include <iterator>
#include <span>

namespace aoci {

/// Every event type the instrumentation emits. The names returned by
/// traceEventKindName() are the `name` field of the exported JSON and the
/// vocabulary of `--trace-filter`.
enum class TraceEventKind : uint8_t {
  /// A delivered yieldpoint timer sample (prologue or loop backedge).
  Sample,
  /// A listener buffered one sample (method listener or trace listener).
  ListenerRecord,
  /// An organizer activation: method-sample, DCG/AI, decay, missing-edge.
  OrganizerWakeup,
  /// One controller cost/benefit evaluation, with the analytic model's
  /// inputs and the chosen level.
  ControllerDecision,
  /// A recompilation request entering the compilation queue.
  CompileRequest,
  /// A compilation finishing (baseline or optimizing); a duration event
  /// spanning the compile cycles.
  CompileComplete,
  /// An optimized code variant (with its inline plan) being installed.
  PlanInstall,
  /// One call site's inlining verdict within an installed plan.
  PlanSite,
  /// A call site where every inline guard failed (fallback dispatch).
  GuardFallback,
  /// A garbage-collection pause; a duration event spanning the pause.
  GcPause,
  /// An on-stack replacement: a live activation transferred onto a newly
  /// installed variant at a loop backedge.
  OsrEnter,
  /// An OSR-entered frame returning; carries the cycles it ran in the
  /// replacement code and the estimated cycles the transfer recovered.
  OsrExit,
  /// A deoptimization: a stale inlined frame group re-established on the
  /// baseline variants of its source methods.
  Deopt,
  /// The bounded code cache reclaiming a variant (capacity pressure).
  CodeEvict,
  /// A workload phase transition: the first baseline compilation of a
  /// phase-start marker method (see Program::markPhaseStart). Emitted
  /// uncharged by scenario workloads; the steady-state detector uses it
  /// to keep warmup from being declared over while phases still flip.
  PhaseShift,
  /// Superinstruction fusion attached straight-line handlers to a freshly
  /// installed variant (CostModel::Fuse enabled at the variant's level).
  /// Uncharged host-side bookkeeping; a zero run count records that
  /// fusion ran but found nothing to batch.
  FuseInstall,
  /// A persisted profile re-seeded the AOS state before the run
  /// (AdaptiveSystem::warmStart, the `--warm-start` flag): per-section
  /// applied counts plus the total dropped by stale-name resolution.
  /// Emitted uncharged, at most once per run, before the first sample.
  ProfileLoad,
  /// A compiled variant entering the process-wide shared code cache
  /// (serve mode, src/share/): the publishing session paid the full
  /// compile cost and made the plan available to other tenants.
  SharePublish,
  /// A shared-cache hit: the session found a published variant with the
  /// same (method, inline-plan fingerprint, level) key and charged only
  /// the install/link cost instead of a full compilation.
  ShareHit,
  /// A shared-cache eviction (capacity pressure on the shared index):
  /// the entry is tombstoned and every session that installed it deopts
  /// and rematerializes, exactly like a private code-cache eviction.
  ShareEvict,
  /// One pricing decision by the budget organizer (`--organizer budget`):
  /// a candidate callee priced against the caller's remaining size budget
  /// with measured units (from the AosDatabase compile ledger) or a
  /// calibrated estimate. Emitted uncharged from the AI-organizer track
  /// so budget and threshold runs stay cycle-comparable.
  BudgetDecision,
};

/// The timeline a trace event renders on. Track 0 is the virtual machine
/// itself (samples, guard fallbacks, GC); tracks 1..NumAosComponents map
/// to AosComponent c at track c+1, so Figure 6's component breakdown
/// becomes a set of named Perfetto tracks.
using TraceTrack = uint8_t;
constexpr TraceTrack TraceTrackVm = 0;
/// Number of component tracks (TraceSink.cpp asserts this matches
/// NumAosComponents; the trace library stays bytecode/vm-independent).
constexpr unsigned NumAosTraceTracks = 6;

/// Perfetto-visible name of \p Track ("VirtualMachine" or the
/// aosComponentName of the mapped component).
const char *traceTrackName(TraceTrack Track);

/// One recorded event. `Cycle` is the simulated clock at emission;
/// `Seq` is the per-sink monotonic sequence number that makes the stable
/// sort by (cycle, seq) — and therefore the exported byte stream — fully
/// deterministic. The A..E / X..Z payload slots are kind-specific;
/// tracekind::Table says which arg reads which slot.
struct TraceEvent {
  uint64_t Cycle = 0;
  uint64_t Seq = 0;
  /// Non-zero for duration events (CompileComplete, GcPause): the event
  /// spans [Cycle, Cycle + Dur).
  uint64_t Dur = 0;
  TraceEventKind Kind = TraceEventKind::Sample;
  TraceTrack Track = TraceTrackVm;
  /// Green-thread id for VM-side events; 0 elsewhere.
  uint32_t Thread = 0;
  /// Primary method (MethodId); UINT32_MAX when not applicable.
  uint32_t Method = UINT32_MAX;
  /// Kind-specific integer payload.
  int64_t A = 0, B = 0, C = 0, D = 0, E = 0;
  /// Kind-specific floating payload (controller cost/benefit inputs).
  double X = 0, Y = 0, Z = 0;
};

/// The per-kind contract, declared once: each row of tracekind::Table
/// gives a kind's name, the tids it may render on, and its JSON args in
/// output order with their types and payload slots. The exporter renders
/// from it, writeTraceSchema() generates docs/trace-event.schema.json
/// (which tools/validate_trace.jq reads) from it, and TraceTest checks
/// OBSERVABILITY.md against it.
namespace tracekind {

/// An arg's JSON rendering and schema constraint.
enum ArgType : uint8_t {
  Method,    ///< Qualified name of the MethodId in the slot ("m<id>" when
             ///< no name was captured); the arg is omitted for UINT32_MAX.
  Int,       ///< Integer, minimum 0.
  Count,     ///< Integer, minimum 1.
  SignedInt, ///< Integer, no bound.
  Number,    ///< Floating point (%.6g), minimum 0; reads X, Y or Z.
  Bool,      ///< true when the slot is non-zero.
  Enum,      ///< Labels[slot value]; anything else renders "<invalid>".
};

/// The TraceEvent field an arg reads: Id is `Method`, and Verdict is
/// plan-site's derived label index from D (any case guarded) and C
/// (inlined cases). The floating slots X..Z come last.
enum Slot : uint8_t { Id, Thread, A, B, C, D, E, Verdict, X, Y, Z };

/// One named arg of a kind's `args` object.
struct Arg {
  const char *Key = nullptr;
  ArgType Type = Int;
  Slot From = Id;
  std::span<const char *const> Labels = {};
  /// Absent from the schema's `required` list.
  bool Optional = false;
};

/// Track masks: bit t allows tid t. Track c+1 is AosComponent c
/// (vm/Overhead.h), so these follow the AosComponent order.
enum : uint8_t {
  OnVm = 1 << 0,
  OnListeners = 1 << 1,
  OnCompilation = 1 << 2,
  OnDecay = 1 << 3,
  OnAi = 1 << 4,
  OnMethodOrganizer = 1 << 5,
  OnController = 1 << 6,
};

constexpr unsigned MaxArgs = 7;

/// One kind: its JSON `name` (and `--trace-filter` token), allowed tids
/// and args.
struct Spec {
  TraceEventKind Kind;
  const char *Name;
  uint8_t Tids;
  Arg Args[MaxArgs];

  /// The declared args, in output order.
  constexpr std::span<const Arg> args() const {
    size_t N = 0;
    while (N != MaxArgs && Args[N].Key)
      ++N;
    return {Args, N};
  }
};

inline constexpr const char *ListenerLabels[] = {"method", "trace"};
/// Indexed by the OrganizerId of core/AdaptiveSystem.cpp.
inline constexpr const char *OrganizerLabels[] = {
    "method-organizer", "ai-organizer", "decay-organizer", "missing-edge"};
inline constexpr const char *OriginLabels[] = {"controller", "missing-edge"};
inline constexpr const char *VerdictLabels[] = {"unguarded", "guarded-mono",
                                                "guarded-poly"};

using K = TraceEventKind;

/// One row per TraceEventKind, in enum order.
inline constexpr Spec Table[] = {
    {K::Sample, "sample", OnVm,
     {{"method", Method}, {"atPrologue", Bool, A}, {"sampleIndex", Int, B},
      {"thread", Int, Thread}}},
    {K::ListenerRecord, "listener-record", OnListeners,
     {{"method", Method}, {"listener", Enum, A, ListenerLabels},
      {"depth", Int, B}, {"buffered", Int, C}}},
    {K::OrganizerWakeup, "organizer-wakeup", OnDecay | OnAi | OnMethodOrganizer,
     {{"organizer", Enum, A, OrganizerLabels}, {"wakeup", Int, B},
      {"examined", Int, C}, {"acted", Int, D}}},
    {K::ControllerDecision, "controller-decision", OnController,
     {{"method", Method}, {"curLevel", Int, A}, {"chosenLevel", Int, B},
      {"samples", Number, X}, {"futureAtCurrent", Number, Y},
      {"bestCost", Number, Z}}},
    {K::CompileRequest, "compile-request", OnController,
     {{"method", Method}, {"level", Int, A}, {"sameLevel", Bool, B},
      {"origin", Enum, C, OriginLabels}, {"queueDepth", Count, D}}},
    {K::CompileComplete, "compile-complete", OnCompilation,
     {{"method", Method}, {"level", Int, A}, {"codeBytes", Int, B},
      {"sizeDelta", SignedInt, C}, {"bodies", Int, D}, {"guards", Int, E}}},
    {K::PlanInstall, "plan-install", OnCompilation,
     {{"method", Method}, {"level", Int, A}, {"sites", Count, B},
      {"bodies", Int, C}, {"guards", Int, D}}},
    {K::PlanSite, "plan-site", OnCompilation,
     {{"root", Method}, {"site", Int, A}, {"depth", Int, B},
      {"verdict", Enum, Verdict, VerdictLabels}, {"cases", Int, C},
      {"callee", Method, E, {}, /*Optional=*/true}}},
    {K::GuardFallback, "guard-fallback", OnVm,
     {{"method", Method}, {"site", Int, A}, {"target", Method, B},
      {"thread", Int, Thread}}},
    {K::GcPause, "gc-pause", OnVm,
     {{"bytesSinceGc", Int, A}, {"pauseIndex", Int, B}}},
    {K::OsrEnter, "osr-enter", OnVm,
     {{"method", Method}, {"fromLevel", Int, A}, {"toLevel", Int, B},
      {"pc", Int, C}, {"serial", Int, D}, {"expectedSavings", Number, X},
      {"thread", Int, Thread}}},
    {K::OsrExit, "osr-exit", OnVm,
     {{"method", Method}, {"fromLevel", Int, A}, {"level", Int, B},
      {"cyclesInVariant", Int, C}, {"recovered", Int, D},
      {"thread", Int, Thread}}},
    {K::Deopt, "deopt", OnVm,
     {{"method", Method}, {"frames", Count, A}, {"pc", Int, B},
      {"fromLevel", Int, C}, {"topMethod", Method, E},
      {"thread", Int, Thread}}},
    {K::CodeEvict, "code-evict", OnCompilation,
     {{"method", Method}, {"level", Int, A}, {"codeBytes", Int, B},
      {"serial", Int, C}, {"liveBytes", Int, D}, {"evictionIndex", Int, E}}},
    {K::PhaseShift, "phase-shift", OnVm,
     {{"method", Method}, {"phase", Int, A}, {"phases", Count, B}}},
    {K::FuseInstall, "fuse-install", OnCompilation,
     {{"method", Method}, {"level", Int, A}, {"runs", Int, B},
      {"opsFused", Int, C}, {"fusedBytes", Int, D}}},
    {K::ProfileLoad, "profile-load", OnAi,
     {{"version", Count, A}, {"traces", Int, B}, {"decisions", Int, C},
      {"hotMethods", Int, D}, {"refusals", Int, E}, {"dropped", Number, X}}},
    {K::SharePublish, "share-publish", OnCompilation,
     {{"method", Method}, {"level", Int, A}, {"codeBytes", Int, B},
      {"publishSeq", Int, C}, {"entries", Count, D}}},
    {K::ShareHit, "share-hit", OnCompilation,
     {{"method", Method}, {"level", Int, A}, {"codeBytes", Int, B},
      {"cyclesSaved", Int, C}, {"publishSeq", Int, D}}},
    {K::ShareEvict, "share-evict", OnCompilation,
     {{"method", Method}, {"level", Int, A}, {"codeBytes", Int, B},
      {"publishSeq", Int, C}, {"installers", Count, D}}},
    {K::BudgetDecision, "budget-decision", OnAi,
     {{"method", Method}, {"callee", Method, A}, {"units", Count, B},
      {"remaining", Int, C}, {"accepted", Bool, D}, {"measured", Bool, E},
      {"weight", Number, X}}},
};

constexpr bool rowsFollowTheEnum() {
  for (size_t I = 0; I != std::size(Table); ++I)
    if (static_cast<size_t>(Table[I].Kind) != I)
      return false;
  return static_cast<size_t>(K::BudgetDecision) + 1 == std::size(Table);
}
static_assert(rowsFollowTheEnum(),
              "tracekind::Table needs one row per TraceEventKind, in order");

} // namespace tracekind

constexpr unsigned NumTraceEventKinds = std::size(tracekind::Table);

/// Stable kebab-case names (JSON `name` field, `--trace-filter` tokens).
constexpr const char *traceEventKindName(TraceEventKind K) {
  return tracekind::Table[static_cast<unsigned>(K)].Name;
}

/// Bitmask helpers for event-kind filters.
constexpr uint32_t traceKindBit(TraceEventKind K) {
  return 1u << static_cast<unsigned>(K);
}
constexpr uint32_t TraceAllKinds = (1u << NumTraceEventKinds) - 1;

} // namespace aoci

#endif // AOCI_TRACE_TRACEEVENT_H
