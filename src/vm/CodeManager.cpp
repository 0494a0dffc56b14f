//===- vm/CodeManager.cpp - Installed-code registry -----------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "vm/CodeManager.h"

#include "fuse/FusionBuilder.h"
#include "support/Audit.h"
#include "trace/TraceSink.h"
#include "vm/Overhead.h"

#include <algorithm>
#include <cassert>
#include <string>

using namespace aoci;

namespace {

void indexNode(const Program &P, InlineNode &Node, MethodId Body) {
  Node.buildIndex(static_cast<uint32_t>(P.method(Body).Body.size()));
  for (auto &Decision : Node.Sites)
    for (InlineCase &Case : Decision.Cases)
      if (Case.Body)
        indexNode(P, *Case.Body, Case.Callee);
}

unsigned countSites(const InlineNode &Node) {
  unsigned N = static_cast<unsigned>(Node.Sites.size());
  for (const auto &Decision : Node.Sites)
    for (const InlineCase &Case : Decision.Cases)
      if (Case.Body)
        N += countSites(*Case.Body);
  return N;
}

/// Emits one plan-site event per decided call site, depth-first in site
/// order — the per-site context-sensitivity verdicts of the installed
/// plan.
void emitPlanSites(TraceSink &Trace, const CodeVariant &V,
                   const InlineNode &Node, unsigned Depth) {
  for (const auto &Decision : Node.Sites) {
    bool Guarded = false;
    for (const InlineCase &Case : Decision.Cases)
      Guarded |= Case.Guarded;
    TraceEvent &E =
        Trace.append(TraceEventKind::PlanSite,
                     traceTrack(AosComponent::Compilation), V.CompiledAtCycle);
    E.Method = V.M;
    E.A = Decision.Site;
    E.B = Depth;
    E.C = static_cast<int64_t>(Decision.Cases.size());
    E.D = Guarded ? 1 : 0;
    E.E = Decision.Cases.empty() ? -1 : Decision.Cases.front().Callee;
    for (const InlineCase &Case : Decision.Cases)
      if (Case.Body)
        emitPlanSites(Trace, V, *Case.Body, Depth + 1);
  }
}

} // namespace

void CodeVariant::indexPlanSites(const Program &P) {
  if (!Plan.empty())
    indexNode(P, Plan.Root, M);
}

const CodeVariant *CodeManager::install(std::unique_ptr<CodeVariant> Variant) {
  assert(Variant && "installing a null variant");
  assert(Variant->M < Current.size() && "method id out of range");

  CodeVariant *Ptr = Variant.get();
  Ptr->indexPlanSites(P);
  // Superinstruction fusion: staged lowering of the method body into
  // batched straight-line handlers, attached to the variant the moment it
  // is installed. Host-side only — no simulated cycle is charged, and the
  // batch charges equal the per-PC entries they replace.
  const bool FuseEligible = Model.Fuse.enabledFor(Ptr->Level);
  if (FuseEligible) {
    Ptr->Fused = buildFusedProgram(P, P.method(Ptr->M), Ptr->Level, Model);
    if (Ptr->Fused) {
      FusedRunsInstalled += Ptr->Fused->Runs.size();
      FusedOpsTotal += Ptr->Fused->OpsFused;
      FusedBytesTotal += Ptr->Fused->FusedBytes;
    }
  }
  Ptr->SerialNumber = InstallCount[Ptr->M]++;
  Ptr->InstallSeq = static_cast<unsigned>(Variants.size());
  // Installation counts as a use: freshly compiled code must not be the
  // least-recently-used victim before it ever runs.
  Ptr->LastUsedCycle = Ptr->CompiledAtCycle;

  if (Ptr->Level == OptLevel::Baseline) {
    BaseCompileCyclesTotal += Ptr->CompileCycles;
  } else {
    OptBytesGenerated += Ptr->CodeBytes;
    OptCompileCyclesTotal += Ptr->CompileCycles;
  }
  ++NumCompiles[static_cast<unsigned>(Ptr->Level)];
  LiveBytes += Ptr->CodeBytes;
  if (PendingRecompile[Ptr->M]) {
    ++RecompilesAfterEvict;
    PendingRecompile[Ptr->M] = 0;
  }

  const CodeVariant *Prev = Current[Ptr->M];
  if (Trace) {
    if (Trace->wants(TraceEventKind::CompileComplete)) {
      // A duration event spanning the compile: it started CompileCycles
      // before the installation-time clock value.
      TraceEvent &E = Trace->append(TraceEventKind::CompileComplete,
                                    traceTrack(AosComponent::Compilation),
                                    Ptr->CompiledAtCycle - Ptr->CompileCycles);
      E.Dur = Ptr->CompileCycles;
      E.Method = Ptr->M;
      E.A = static_cast<int64_t>(Ptr->Level);
      E.B = static_cast<int64_t>(Ptr->CodeBytes);
      E.C = static_cast<int64_t>(Ptr->CodeBytes) -
            static_cast<int64_t>(Prev ? Prev->CodeBytes : 0);
      E.D = Ptr->Plan.NumInlineBodies;
      E.E = Ptr->Plan.NumGuards;
    }
    if (!Ptr->Plan.empty() && Trace->wants(TraceEventKind::PlanInstall)) {
      TraceEvent &E = Trace->append(TraceEventKind::PlanInstall,
                                    traceTrack(AosComponent::Compilation),
                                    Ptr->CompiledAtCycle);
      E.Method = Ptr->M;
      E.A = static_cast<int64_t>(Ptr->Level);
      E.B = countSites(Ptr->Plan.Root);
      E.C = Ptr->Plan.NumInlineBodies;
      E.D = Ptr->Plan.NumGuards;
    }
    if (!Ptr->Plan.empty() && Trace->wants(TraceEventKind::PlanSite))
      emitPlanSites(*Trace, *Ptr, Ptr->Plan.Root, /*Depth=*/0);
    if (FuseEligible && Trace->wants(TraceEventKind::FuseInstall)) {
      // Emitted whenever fusion was attempted at an eligible level, even
      // when the body yielded no runs — a zero row is how a trace shows
      // fusion was on but found nothing to batch. Uncharged, like every
      // observability event.
      TraceEvent &E = Trace->append(TraceEventKind::FuseInstall,
                                    traceTrack(AosComponent::Compilation),
                                    Ptr->CompiledAtCycle);
      E.Method = Ptr->M;
      E.A = static_cast<int64_t>(Ptr->Level);
      E.B = Ptr->Fused ? static_cast<int64_t>(Ptr->Fused->Runs.size()) : 0;
      E.C = Ptr->Fused ? Ptr->Fused->OpsFused : 0;
      E.D = Ptr->Fused ? static_cast<int64_t>(Ptr->Fused->FusedBytes) : 0;
    }
  }

  // A baseline rematerialized as a deoptimization target (the cache
  // evicted the original while optimized code was still dispatched) must
  // not demote the method: the optimized current keeps receiving calls,
  // and eviction falls back to this baseline if the current goes next.
  const bool KeepCurrent = Ptr->Level == OptLevel::Baseline &&
                           Prev != nullptr &&
                           Prev->Level != OptLevel::Baseline;
  if (!KeepCurrent)
    Current[Ptr->M] = Ptr;
  if (Ptr->Level == OptLevel::Baseline)
    Baseline[Ptr->M] = Ptr;
  Variants.push_back(std::move(Variant));
  LiveSlot.push_back(static_cast<uint32_t>(Live.size()));
  Live.push_back(Ptr);

  if (Delegate && audit::enabled())
    Delegate->auditCodeChange("install");
  enforceCapacity(Ptr);
  // The high-water mark is taken at install boundaries outside eviction
  // passes: baselines materialized mid-deopt transiently overshoot until
  // the triggering pass finishes reclaiming.
  if (!InEviction && LiveBytes > PeakBytes)
    PeakBytes = LiveBytes;
  auditAccounting("install");
  return Ptr;
}

bool CodeManager::evictNow(const CodeVariant &V) {
  // InstallSeq is the variant's position in Variants, which both proves
  // ownership and yields the mutable variant without a scan.
  const bool Owned =
      V.InstallSeq < Variants.size() && Variants[V.InstallSeq].get() == &V;
  assert(Owned && "evictNow on a variant this manager does not own");
  if (!Owned || V.Evicted)
    return true;
  CodeVariant *Target = Variants[V.InstallSeq].get();
  if (!Delegate)
    return false; // liveness unknowable: pinned, like enforceCapacity
  // Mirror enforceCapacity's re-entrancy discipline: baselines the deopt
  // rematerializes mid-eviction must not recursively evict or move the
  // high-water mark.
  const bool Outer = !InEviction;
  InEviction = true;
  bool Reclaimed = false;
  if (Delegate->prepareEviction(*Target)) {
    evict(*Target);
    Reclaimed = true;
  }
  if (Outer) {
    InEviction = false;
    if (LiveBytes > PeakBytes)
      PeakBytes = LiveBytes;
    auditAccounting("evict-now");
  }
  return Reclaimed;
}

uint64_t CodeManager::sharedInBytesLive() const {
  uint64_t Bytes = 0;
  for (const CodeVariant *V : Live)
    if (V->SharedIn)
      Bytes += V->CodeBytes;
  return Bytes;
}

uint64_t CodeManager::optimizedBytesResident() const {
  uint64_t Bytes = 0;
  for (const CodeVariant *V : Current)
    if (V && V->Level != OptLevel::Baseline)
      Bytes += V->CodeBytes;
  return Bytes;
}

namespace {

/// Deterministic victim order: least-recently-invoked first under Lru
/// (install sequence breaking ties), pure install order under Fifo. Both
/// keys derive from the simulated clock alone, and InstallSeq is unique,
/// so this is a strict total order: the first candidate under it is the
/// same whatever order the candidates are scanned in.
bool victimBefore(EvictPolicy Policy, const CodeVariant &A,
                  const CodeVariant &B) {
  if (Policy == EvictPolicy::Lru && A.LastUsedCycle != B.LastUsedCycle)
    return A.LastUsedCycle < B.LastUsedCycle;
  return A.InstallSeq < B.InstallSeq;
}

} // namespace

void CodeManager::enforceCapacity(const CodeVariant *JustInstalled) {
  if (!Model.CodeCache.enabled() || InEviction)
    return;
  if (!Delegate)
    return; // liveness unknowable: everything is pinned
  InEviction = true;
  std::vector<const CodeVariant *> Pinned;
  while (LiveBytes > Model.CodeCache.CapacityBytes) {
    CodeVariant *Victim = nullptr;
    bool VictimPreferred = false;
    for (CodeVariant *V : Live) {
      if (V == JustInstalled ||
          std::find(Pinned.begin(), Pinned.end(), V) != Pinned.end())
        continue;
      // The controller's prefer-keep hook only reorders: preferred
      // variants lose to any non-preferred candidate, and within a tier
      // the policy order decides.
      bool Preferred = PreferKeep && PreferKeep(V->M);
      if (!Victim || (VictimPreferred && !Preferred) ||
          (VictimPreferred == Preferred &&
           victimBefore(Model.CodeCache.Policy, *V, *Victim))) {
        Victim = V;
        VictimPreferred = Preferred;
      }
    }
    if (!Victim)
      break; // every remaining variant is pinned or just installed
    if (!Delegate->prepareEviction(*Victim)) {
      Pinned.push_back(Victim);
      continue;
    }
    evict(*Victim);
  }
  InEviction = false;
}

void CodeManager::evict(CodeVariant &V) {
  assert(!V.Evicted && "double eviction");
  V.Evicted = true;
  // Swap-remove from the live index: the victim order never depends on
  // the index order (see victimBefore).
  CodeVariant *Last = Live.back();
  Live[LiveSlot[V.InstallSeq]] = Last;
  LiveSlot[Last->InstallSeq] = LiveSlot[V.InstallSeq];
  Live.pop_back();
  // Fused handlers die with the code. prepareEviction proved no frame is
  // suspended in this variant, and pushFrame/retargetFrame re-read the
  // pointer on every (re)entry, so nothing can still hold the old map.
  // Recompile-on-re-entry derives a fresh program for the new variant.
  V.Fused.reset();
  LiveBytes -= V.CodeBytes;
  ++Evictions;

  if (Current[V.M] == &V) {
    // Fall back to the method's baseline if it is still live; otherwise
    // the method re-enters through ensureCompiled (a recompile).
    const CodeVariant *Base = Baseline[V.M];
    Current[V.M] = (Base && Base != &V && !Base->Evicted) ? Base : nullptr;
  }
  if (Baseline[V.M] == &V)
    Baseline[V.M] = nullptr;
  if (Current[V.M] == nullptr)
    PendingRecompile[V.M] = 1;

  Delegate->chargeEviction(Model.EvictReclaimCycles);

  if (Trace && Trace->wants(TraceEventKind::CodeEvict)) {
    TraceEvent &E = Trace->append(TraceEventKind::CodeEvict,
                                  traceTrack(AosComponent::Compilation),
                                  Delegate->evictionClock());
    E.Method = V.M;
    E.A = static_cast<int64_t>(V.Level);
    E.B = static_cast<int64_t>(V.CodeBytes);
    E.C = V.SerialNumber;
    E.D = static_cast<int64_t>(LiveBytes);
    E.E = static_cast<int64_t>(Evictions - 1);
  }

  if (audit::enabled())
    Delegate->auditCodeChange("evict");
  auditAccounting("evict");
}

void CodeManager::auditAccounting(const char *Where) const {
  if (!audit::enabled())
    return;
  uint64_t Sum = 0;
  size_t NumLive = 0;
  for (const auto &V : Variants) {
    if (V->Evicted)
      continue;
    Sum += V->CodeBytes;
    ++NumLive;
    const uint32_t Slot = LiveSlot[V->InstallSeq];
    audit::check(Slot < Live.size() && Live[Slot] == V.get(), "CodeManager",
                 std::string(Where) + ": live variant #" +
                     std::to_string(V->InstallSeq) +
                     " is missing from the live index");
  }
  // Every live variant sits in its own slot, so with equal sizes the
  // index holds nothing else (no tombstone, no duplicate).
  audit::check(NumLive == Live.size(), "CodeManager",
               std::string(Where) + ": live index holds " +
                   std::to_string(Live.size()) + " variants, " +
                   std::to_string(NumLive) + " are live");
  audit::check(Sum == LiveBytes, "CodeManager",
               std::string(Where) + ": live-byte ledger " +
                   std::to_string(LiveBytes) + " != sum of live variants " +
                   std::to_string(Sum));
  for (size_t M = 0; M != Current.size(); ++M) {
    const CodeVariant *C = Current[M];
    audit::check(!C || (!C->Evicted && C->M == M), "CodeManager",
                 std::string(Where) + ": current[" + std::to_string(M) +
                     "] is evicted or mismatched");
    const CodeVariant *B = Baseline[M];
    audit::check(!B || (!B->Evicted && B->M == M &&
                        B->Level == OptLevel::Baseline),
                 "CodeManager",
                 std::string(Where) + ": baseline[" + std::to_string(M) +
                     "] is evicted or mismatched");
  }
  audit::check(InEviction || PeakBytes >= LiveBytes, "CodeManager",
               std::string(Where) + ": peak below live bytes");
}
