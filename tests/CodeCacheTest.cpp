//===- tests/CodeCacheTest.cpp - Bounded code cache tests ------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The bounded code cache's contracts (see DESIGN.md, "Bounded code
// cache"):
//   (1) cache off (CapacityBytes == 0) — and a capacity that never binds
//       — are byte-identical to the unbounded registry;
//   (2) eviction is deterministic: victims follow (LastUsedCycle,
//       InstallSeq), so a parallel grid sweep with eviction on exports
//       the same CSV bytes as a serial one, and picking them from the
//       live index alone finds the victims a scan of every variant ever
//       installed finds;
//   (3) evicting code with live activations routes through the OSR
//       driver's deoptimization and is the identity on source-level
//       frame state; unevictable activations pin their variant instead;
//   (4) a method whose code was fully evicted recompiles on re-entry,
//       also when an inline-cache hit dispatches to it;
//   (5) code-evict trace events cost zero simulated cycles and their
//       exported JSON bytes are pinned by a golden fixture.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "osr/FrameMap.h"
#include "osr/OsrManager.h"
#include "support/Audit.h"
#include "trace/TraceJson.h"
#include "trace/TraceSink.h"
#include "vm/VirtualMachine.h"

#include "DeepProgram.h"
#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <utility>

using namespace aoci;

namespace {

//===----------------------------------------------------------------------===//
// Hand-built programs (the deep call chain is in DeepProgram.h)
//===----------------------------------------------------------------------===//

/// A monomorphic virtual-dispatch loop, the inline cache's natural
/// habitat: main() { i = N; s = 0; obj = new A; while (i != 0)
/// { s += obj.f(); i--; } return s; } with A::f() returning 1.
struct VirtualLoopProgram {
  Program P;
  MethodId Main = InvalidMethodId;
  MethodId F = InvalidMethodId;

  explicit VirtualLoopProgram(int64_t N) {
    ProgramBuilder B;
    ClassId A = B.addClass("A");
    F = B.declareMethod(A, "f", MethodKind::Virtual, 0, true);
    {
      CodeEmitter E = B.code(F);
      E.iconst(1).vreturn();
      E.finish();
    }
    Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
    {
      CodeEmitter E = B.code(Main);
      auto Top = E.newLabel();
      auto Exit = E.newLabel();
      E.iconst(N).store(0).iconst(0).store(1);
      E.newObject(A).store(2);
      E.bind(Top);
      E.load(0).ifZero(Exit);
      E.load(1).load(2).invokeVirtual(F).iadd().store(1);
      E.load(0).iconst(1).isub().store(0);
      E.jump(Top);
      E.bind(Exit);
      E.load(1).vreturn();
      E.finish();
    }
    B.setEntry(Main);
    P = B.build();
  }
};

//===----------------------------------------------------------------------===//
// (1) A capacity that never binds is byte-identical to the cache off.
//===----------------------------------------------------------------------===//

TEST(CodeCacheOffTest, HugeCapacityIsByteIdenticalToUnbounded) {
  RunConfig Off;
  Off.WorkloadName = "compress";
  Off.Policy = PolicyKind::Fixed;
  Off.MaxDepth = 2;
  Off.Params.Scale = 0.05;
  ASSERT_EQ(Off.Model.CodeCache.CapacityBytes, 0u) << "cache defaults off";

  RunConfig Huge = Off;
  Huge.Model.CodeCache.CapacityBytes = 100000000; // never binds

  RunResult A = runExperiment(Off);
  RunResult B = runExperiment(Huge);
  expectSameRun(A, B);
  EXPECT_EQ(A.Evictions, 0u);
  EXPECT_EQ(B.Evictions, 0u);
  EXPECT_EQ(A.RecompilesAfterEvict, 0u);
  EXPECT_GT(A.LiveCodeBytes, 0u) << "byte ledgers run with the cache off too";
  EXPECT_GE(A.PeakCodeBytes, A.LiveCodeBytes);
}

//===----------------------------------------------------------------------===//
// Capacity property on a stock workload, and run-to-run determinism.
//===----------------------------------------------------------------------===//

TEST(CodeCacheExperimentTest, CapacityBoundsAndRecompilesOnMpegaudio) {
  RunConfig Config;
  Config.WorkloadName = "mpegaudio";
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 3;
  Config.Params.Scale = 0.5;
  Config.Aos.Osr.Enabled = true;
  Config.Model.CodeCache.CapacityBytes = 6000;

  RunConfig Unbounded = Config;
  Unbounded.Model.CodeCache.CapacityBytes = 0;

  RunResult R = runExperiment(Config);
  EXPECT_GT(R.Evictions, 0u) << "the capacity must actually bind";
  EXPECT_GT(R.RecompilesAfterEvict, 0u)
      << "re-entering a fully evicted method must recompile it";
  EXPECT_LE(R.LiveCodeBytes, Config.Model.CodeCache.CapacityBytes)
      << "final live bytes exceed the configured capacity";
  EXPECT_GE(R.PeakCodeBytes, R.LiveCodeBytes);

  // Eviction trades code space for recompilation; it must never change
  // what the program computes.
  RunResult Free = runExperiment(Unbounded);
  EXPECT_EQ(R.ProgramResult, Free.ProgramResult);
  EXPECT_GT(Free.LiveCodeBytes, Config.Model.CodeCache.CapacityBytes)
      << "the workload must not fit the capacity, or nothing is tested";

  // Victim selection is a pure function of simulated state: the same
  // configuration evicts identically every time.
  RunResult Again = runExperiment(Config);
  expectSameRun(R, Again);
}

//===----------------------------------------------------------------------===//
// (4) Recompile on re-entry after a cold method's code is evicted.
//===----------------------------------------------------------------------===//

TEST(CodeCacheEvictionTest, RecompileOnReentryAfterEviction) {
  audit::Scope Audited;
  const int64_t Calls = 6, Iters = 40;
  DeepProgram D = deepProgram(Calls, Iters);

  CostModel Model;
  const uint64_t MainBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize());
  const uint64_t OuterBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize());
  const uint64_t MidBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize());
  const uint64_t InnerBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  const uint64_t BigBytes = 5000;
  // Exactly one baseline must go to fit the big install; the LRU order
  // (outer is the least recently *entered* of the three callees) makes
  // outer's baseline the deterministic victim.
  Model.CodeCache.CapacityBytes =
      MainBytes + MidBytes + InnerBytes + BigBytes;

  VirtualMachine VM(D.P, Model);
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T,
            [&] { return VM.codeManager().baseline(D.Inner) != nullptr; });
  stepUntil(VM, T, [&] { return T.Frames.size() == 1; });
  const CodeVariant *OldOuter = VM.codeManager().baseline(D.Outer);
  ASSERT_NE(OldOuter, nullptr);
  ASSERT_EQ(VM.codeManager().liveCodeBytes(),
            MainBytes + OuterBytes + MidBytes + InnerBytes);

  auto Big = planlessVariant(D.P, D.Main, OptLevel::Opt2);
  Big->CodeBytes = BigBytes;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));

  // outer's baseline was tombstoned, not freed: the pointer stays valid
  // (a stale use is an auditable bug, not a use-after-free), the method
  // simply has no code until its next invocation.
  EXPECT_EQ(VM.codeManager().numEvictions(), 1u);
  EXPECT_TRUE(OldOuter->Evicted);
  EXPECT_EQ(VM.codeManager().baseline(D.Outer), nullptr);
  EXPECT_EQ(VM.codeManager().current(D.Outer), nullptr);
  EXPECT_LE(VM.codeManager().liveCodeBytes(), Model.CodeCache.CapacityBytes);

  // Re-entry recompiles. A too-small capacity keeps churning after that
  // (the working set genuinely does not fit), so the exact totals are
  // workload-shaped — but deterministic, and always at least the first
  // recompile.
  VM.run();
  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u);
  EXPECT_GE(VM.codeManager().recompilesAfterEvict(), 1u);
  const CodeVariant *NewOuter = VM.codeManager().baseline(D.Outer);
  ASSERT_NE(NewOuter, nullptr) << "outer must have been re-baselined";
  EXPECT_NE(NewOuter, OldOuter);
  EXPECT_FALSE(NewOuter->Evicted);
}

//===----------------------------------------------------------------------===//
// (3) Evicting a live inline group deoptimizes it, bit-identically.
//===----------------------------------------------------------------------===//

TEST(CodeCacheEvictionTest, EvictingLiveInlineGroupDeoptsAndPreservesState) {
  audit::Scope Audited;
  const int64_t Calls = 3, Iters = 300;
  DeepProgram D = deepProgram(Calls, Iters);

  CostModel Model;
  const uint64_t BaselineSum =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  const uint64_t PlannedBytes = 4000, BigBytes = 4000;
  // Room for all baselines plus ONE of the two optimized variants: the
  // second install must evict the first even though a live inline group
  // is suspended in it.
  Model.CodeCache.CapacityBytes = BaselineSum + PlannedBytes + 100;

  VirtualMachine VM(D.P, Model);
  OsrManager Mgr;
  VM.setOsrDriver(&Mgr);
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T,
            [&] { return VM.codeManager().baseline(D.Inner) != nullptr; });

  auto Planned = plannedOuter(D, OptLevel::Opt1);
  Planned->CodeBytes = PlannedBytes;
  Planned->CompiledAtCycle = VM.cycles();
  const CodeVariant *PlannedPtr = VM.codeManager().install(std::move(Planned));
  stepUntil(VM, T, [&] {
    return T.Frames.size() == 4 && T.Frames[1].Variant == PlannedPtr;
  });

  std::vector<FrameSnapshot> Snaps;
  for (size_t F = 0; F != T.Frames.size(); ++F)
    Snaps.push_back(snapshotFrame(T, F));

  auto Big = planlessVariant(D.P, D.Main, OptLevel::Opt2);
  Big->CodeBytes = BigBytes;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));

  // The cold callee baselines went first (LRU), which forces the planned
  // variant's eviction-deopt to *rematerialize* baselines — including
  // outer's, whose only other code was the victim itself.
  EXPECT_EQ(VM.codeManager().numEvictions(), 4u)
      << "outer/mid/inner baselines, then the planned variant";
  EXPECT_TRUE(PlannedPtr->Evicted) << "tombstoned, not freed";
  EXPECT_EQ(Mgr.stats().Deopts, 1u);
  EXPECT_EQ(Mgr.stats().DeoptFramesRemapped, 3u);
  EXPECT_EQ(VM.codeManager().recompilesAfterEvict(), 2u)
      << "mid and inner lost their only code; outer's current survived "
         "until the planned eviction itself";
  EXPECT_LE(VM.codeManager().liveCodeBytes(), Model.CodeCache.CapacityBytes);

  // The whole group is physical again, on live (non-evicted) baselines.
  ASSERT_EQ(T.Frames.size(), 4u);
  for (size_t F = 1; F != 4; ++F) {
    EXPECT_FALSE(T.Frames[F].Inlined) << "frame " << F;
    ASSERT_NE(T.Frames[F].Variant, nullptr);
    EXPECT_FALSE(T.Frames[F].Variant->Evicted) << "frame " << F;
    EXPECT_EQ(T.Frames[F].Variant->Level, OptLevel::Baseline) << "frame " << F;
  }
  EXPECT_EQ(T.Frames[1].Variant, VM.codeManager().baseline(D.Outer));
  EXPECT_EQ(T.Frames[2].Variant, VM.codeManager().baseline(D.Mid));
  EXPECT_EQ(T.Frames[3].Variant, VM.codeManager().baseline(D.Inner));

  // The eviction-deopt was the identity on source-level state: locals
  // and operand stacks of all four frames are bit-identical.
  for (size_t F = 0; F != 4; ++F)
    expectSameValues(Snaps[F], T, F);

  VM.run();
  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u);
}

//===----------------------------------------------------------------------===//
// (4) An inline-cache hit never dispatches into evicted code.
//===----------------------------------------------------------------------===//

TEST(CodeCacheIcTest, EvictionInvalidatesInlineCacheMemo) {
  // The regression this guards is the classic stale-IC JIT bug: a call
  // site whose inline cache remembers the code it last dispatched into
  // enters that code after it was evicted. The inline cache memoizes
  // only the receiver class and target method, and every hit reads the
  // target's current code, so after f's code is evicted the next hit at
  // main's call site must recompile f instead of entering the tombstone.
  audit::Scope Audited;
  const int64_t N = 200;
  VirtualLoopProgram VP(N);

  CostModel Model;
  const uint64_t MainBytes =
      Model.codeBytes(OptLevel::Baseline, VP.P.method(VP.Main).machineSize());
  const uint64_t BigBytes = 5000;
  // Fits main's baseline and the big install; f's baseline must go.
  Model.CodeCache.CapacityBytes = MainBytes + BigBytes;

  VirtualMachine VM(VP.P, Model);
  VM.addThread(VP.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  // At least one dispatch has resolved (populating the site's memo), and
  // f's frame has returned, so its baseline is evictable.
  stepUntil(VM, T, [&] { return VM.codeManager().baseline(VP.F) != nullptr; });
  stepUntil(VM, T, [&] { return T.Frames.size() == 1; });
  const CodeVariant *FBase = VM.codeManager().baseline(VP.F);
  ASSERT_NE(FBase, nullptr);

  auto Big = planlessVariant(VP.P, VP.Main, OptLevel::Opt2);
  Big->CodeBytes = BigBytes;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));

  EXPECT_GE(VM.codeManager().numEvictions(), 1u);
  EXPECT_TRUE(FBase->Evicted);
  EXPECT_EQ(VM.codeManager().current(VP.F), nullptr);

  // The next dispatch must miss the invalidated memo, recompile f, and
  // the loop completes correctly on the fresh code.
  VM.run();
  EXPECT_EQ(T.Result.asInt(), N);
  EXPECT_EQ(T.SlabTop, 0u);
  EXPECT_GE(VM.codeManager().recompilesAfterEvict(), 1u);
  const CodeVariant *FNow = VM.codeManager().current(VP.F);
  ASSERT_NE(FNow, nullptr);
  EXPECT_NE(FNow, FBase);
  EXPECT_FALSE(FNow->Evicted);
}

//===----------------------------------------------------------------------===//
// (2) Grid determinism with eviction on.
//===----------------------------------------------------------------------===//

TEST(CodeCacheGridTest, ParallelGridCsvMatchesSerialWithEvictionOn) {
  GridConfig Config;
  Config.Workloads = {"compress", "mpegaudio"};
  Config.Policies = {PolicyKind::Fixed};
  Config.Depths = {2, 3};
  Config.Params.Scale = 0.3;
  Config.Aos.Osr.Enabled = true;
  Config.Model.CodeCache.CapacityBytes = 6000;

  GridResults Serial = runGrid(Config);
  GridResults Parallel = runGridParallel(Config, 4);

  const std::string SerialCsv =
      exportCsv(Serial, Config.Policies, Config.Depths);
  const std::string ParallelCsv =
      exportCsv(Parallel, Config.Policies, Config.Depths);
  EXPECT_EQ(SerialCsv, ParallelCsv)
      << "victim selection must be deterministic across job counts";

  // The sweep must actually evict, and the per-run eviction counts (kept
  // out of the frozen CSV, reported via metrics) must agree too.
  auto totalEvictions = [](const GridResults &R) {
    uint64_t Total = 0;
    for (const RunResult &Run : R.runs())
      Total += Run.Evictions;
    return Total;
  };
  EXPECT_GT(totalEvictions(Serial), 0u);
  EXPECT_EQ(totalEvictions(Serial), totalEvictions(Parallel));
}

//===----------------------------------------------------------------------===//
// (2) The live index picks the victims a scan of every variant picks.
//===----------------------------------------------------------------------===//

/// The victims of one capacity pass, found the way a registry without a
/// live index finds them: scan every variant ever installed, tombstones
/// included, in install order for the first candidate in (prefer-keep
/// tier, policy order), skip it if pinned, evict it otherwise, until the
/// live bytes fit. \p Dead holds the tombstone flags of \p All before
/// the pass.
std::vector<const CodeVariant *>
scanVictims(const std::vector<std::unique_ptr<CodeVariant>> &All,
            std::vector<uint8_t> Dead, const CodeVariant *JustInstalled,
            const CodeCacheConfig &Cache,
            const std::function<bool(MethodId)> &PreferKeep,
            const std::function<bool(const CodeVariant &)> &Pinned,
            unsigned &PinnedSkips) {
  uint64_t LiveBytes = 0;
  for (size_t I = 0; I != All.size(); ++I)
    if (!Dead[I])
      LiveBytes += All[I]->CodeBytes;
  std::vector<uint8_t> Skipped(All.size(), 0);
  std::vector<const CodeVariant *> Victims;
  while (LiveBytes > Cache.CapacityBytes) {
    const CodeVariant *Best = nullptr;
    size_t BestAt = 0;
    bool BestKeep = false;
    for (size_t I = 0; I != All.size(); ++I) {
      const CodeVariant &V = *All[I];
      if (Dead[I] || Skipped[I] || &V == JustInstalled)
        continue;
      const bool Keep = PreferKeep && PreferKeep(V.M);
      // Scanning in install order, the earlier variant wins every tie.
      if (!Best || (BestKeep && !Keep) ||
          (BestKeep == Keep && Cache.Policy == EvictPolicy::Lru &&
           V.LastUsedCycle < Best->LastUsedCycle)) {
        Best = &V;
        BestAt = I;
        BestKeep = Keep;
      }
    }
    if (!Best)
      break;
    if (Pinned(*Best)) {
      Skipped[BestAt] = 1;
      ++PinnedSkips;
      continue;
    }
    Dead[BestAt] = 1;
    LiveBytes -= Best->CodeBytes;
    Victims.push_back(Best);
  }
  return Victims;
}

TEST(CodeCacheIndexTest, VictimsMatchAScanOfEveryVariant) {
  audit::Scope Audited;
  DeepProgram D = deepProgram(/*Calls=*/3, /*Iters=*/50);
  const MethodId Methods[] = {D.Main, D.Outer, D.Mid, D.Inner};

  for (EvictPolicy Policy : {EvictPolicy::Lru, EvictPolicy::Fifo}) {
    for (bool WithPreference : {false, true}) {
      SCOPED_TRACE(std::string(evictPolicyName(Policy)) +
                   (WithPreference ? " with" : " without") +
                   " a prefer-keep hook");
      CostModel Model;
      uint64_t BaselineSum = 0;
      for (MethodId M : Methods)
        BaselineSum +=
            Model.codeBytes(OptLevel::Baseline, D.P.method(M).machineSize());
      Model.CodeCache.CapacityBytes = BaselineSum + 1500;
      Model.CodeCache.Policy = Policy;

      VirtualMachine VM(D.P, Model);
      CodeManager &Code = VM.codeManager();
      std::function<bool(MethodId)> PreferKeep;
      if (WithPreference) {
        PreferKeep = [&D](MethodId M) { return M == D.Outer || M == D.Inner; };
        Code.setEvictPreference(PreferKeep);
      }
      TraceSink Sink;
      Sink.enable(traceKindBit(TraceEventKind::CodeEvict));
      VM.setTraceSink(&Sink);
      VM.addThread(D.P.entryMethod());
      ThreadState &T = *VM.threads()[0];
      // main, outer, mid and inner are all active on their baselines.
      // With no OSR driver a live activation cannot move, so all four
      // stay pinned through the churn below.
      stepUntil(VM, T, [&] { return T.Frames.size() == 4; });
      auto Pinned = [&T](const CodeVariant &V) {
        for (const Frame &F : T.Frames)
          if (F.Variant == &V)
            return true;
        return false;
      };
      // The victims' (method, serial) pairs, in eviction order.
      auto EvictedSince = [&Sink] {
        std::vector<std::pair<MethodId, int64_t>> Out;
        Sink.forEach([&Out](const TraceEvent &E) {
          Out.emplace_back(E.Method, E.C);
        });
        Sink.clear();
        return Out;
      };
      auto Expected = [](const std::vector<const CodeVariant *> &Victims) {
        std::vector<std::pair<MethodId, int64_t>> Out;
        for (const CodeVariant *V : Victims)
          Out.emplace_back(V->M, V->SerialNumber);
        return Out;
      };
      auto DeadFlags = [&Code] {
        std::vector<uint8_t> Dead;
        for (const auto &V : Code.allVariants())
          Dead.push_back(V->Evicted ? 1 : 0);
        return Dead;
      };

      std::mt19937_64 Rng(20260 + static_cast<unsigned>(Policy) * 2 +
                          (WithPreference ? 1 : 0));
      uint64_t Now = VM.cycles();
      unsigned PinnedSkips = 0, ForcedEvictions = 0;
      for (unsigned K = 0; K != 400; ++K) {
        const auto &All = Code.allVariants();
        const unsigned Op = Rng() % 8;
        if (Op == 0) {
          // An invocation restamps a variant's LRU key, possibly to a
          // value another variant already holds.
          const CodeVariant &V = *All[Rng() % All.size()];
          if (!V.Evicted)
            V.LastUsedCycle = Rng() % (Now + 1);
          continue;
        }
        if (Op == 1) {
          const CodeVariant &V = *All[Rng() % All.size()];
          const bool WasEvicted = V.Evicted;
          const bool Reclaimable = WasEvicted || !Pinned(V);
          ASSERT_EQ(Code.evictNow(V), Reclaimable) << "step " << K;
          EXPECT_EQ(V.Evicted, Reclaimable);
          const auto Events = EvictedSince();
          ASSERT_EQ(Events.size(), Reclaimable && !WasEvicted ? 1u : 0u);
          ForcedEvictions += static_cast<unsigned>(Events.size());
          continue;
        }
        const std::vector<uint8_t> DeadBefore = DeadFlags();
        const MethodId M = Methods[Rng() % 4];
        const OptLevel Level = Rng() % 2 ? OptLevel::Opt1 : OptLevel::Opt2;
        auto V = planlessVariant(D.P, M, Level);
        // Now and then a variant larger than the whole cache: the pass
        // evicts every unpinned variant and still cannot fit.
        V->CodeBytes = Rng() % 16 == 0 ? 5000 : 50 + Rng() % 700;
        Now += 1 + Rng() % 4;
        V->CompiledAtCycle = Now;
        const CodeVariant *Installed = Code.install(std::move(V));

        std::vector<uint8_t> Dead = DeadBefore;
        Dead.push_back(0);
        const auto Victims = scanVictims(All, Dead, Installed,
                                         Model.CodeCache, PreferKeep, Pinned,
                                         PinnedSkips);
        ASSERT_EQ(EvictedSince(), Expected(Victims)) << "step " << K;

        unsigned Serial = 0;
        uint64_t LiveBytes = 0;
        for (const auto &Other : All) {
          if (Other.get() != Installed && Other->M == Installed->M)
            ++Serial;
          if (!Other->Evicted)
            LiveBytes += Other->CodeBytes;
        }
        ASSERT_EQ(Installed->SerialNumber, Serial) << "step " << K;
        ASSERT_EQ(Code.liveCodeBytes(), LiveBytes) << "step " << K;
      }
      EXPECT_GT(Code.numEvictions(), 150u);
      EXPECT_GT(ForcedEvictions, 0u);
      EXPECT_GT(PinnedSkips, 0u) << "no pass ever met a pinned variant";

      VM.setTraceSink(nullptr);
      VM.run();
      EXPECT_EQ(T.Result.asInt(), deepProgramResult(3, 50));
    }
  }
}

//===----------------------------------------------------------------------===//
// (5) Golden trace: the code-evict event stream's bytes are pinned.
//===----------------------------------------------------------------------===//

TEST(CodeCacheGoldenTest, EvictTraceJsonMatchesGolden) {
  // The hand-driven live-group eviction again — four deterministic
  // code-evict events (three cold baselines, then the planned variant
  // after its deopt) — with only the code-evict kind recorded.
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("code-evict", Mask, Error)) << Error;
  TraceSink Sink;
  Sink.enable(Mask);

  const int64_t Calls = 3, Iters = 300;
  DeepProgram D = deepProgram(Calls, Iters);
  CostModel Model;
  const uint64_t BaselineSum =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  Model.CodeCache.CapacityBytes = BaselineSum + 4000 + 100;

  VirtualMachine VM(D.P, Model);
  VM.setTraceSink(&Sink);
  OsrManager Mgr;
  VM.setOsrDriver(&Mgr);
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];
  stepUntil(VM, T,
            [&] { return VM.codeManager().baseline(D.Inner) != nullptr; });
  auto Planned = plannedOuter(D, OptLevel::Opt1);
  Planned->CodeBytes = 4000;
  Planned->CompiledAtCycle = VM.cycles();
  const CodeVariant *PlannedPtr = VM.codeManager().install(std::move(Planned));
  stepUntil(VM, T, [&] {
    return T.Frames.size() == 4 && T.Frames[1].Variant == PlannedPtr;
  });
  auto Big = planlessVariant(D.P, D.Main, OptLevel::Opt2);
  Big->CodeBytes = 4000;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));
  VM.run();
  ASSERT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  ASSERT_EQ(VM.codeManager().numEvictions(), 4u);

  std::ostringstream Json;
  writeChromeTrace(Json, Sink, "code-cache/evict");
  expectMatchesGolden("trace_code_evict.golden", Json.str(),
                      "the eviction sequence or the JSON serialization "
                      "changed; update OBSERVABILITY.md if the schema moved");
}

//===----------------------------------------------------------------------===//
// Stress: install churn against a capacity the working set cannot fit.
//===----------------------------------------------------------------------===//

TEST(CodeCacheStressTest, EvictionChurnKeepsStateConsistent) {
  audit::Scope Audited;
  const int64_t Calls = 40, Iters = 120;
  DeepProgram D = deepProgram(Calls, Iters);

  CostModel Model;
  const uint64_t BaselineSum =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  // Too small for the baselines plus both optimized variants the churn
  // loop keeps re-installing: every few installs something must go,
  // frequently out from under the live inline group.
  Model.CodeCache.CapacityBytes = BaselineSum + 2500;

  VirtualMachine VM(D.P, Model);
  OsrManager Mgr;
  // Transfer at every opportunity: maximal churn, not cost/benefit.
  Mgr.setPolicy([](MethodId, const CodeVariant &, const CodeVariant &,
                   uint64_t, double *) { return true; });
  VM.setOsrDriver(&Mgr);
  VM.addThread(D.P.entryMethod());
  ThreadState &T = *VM.threads()[0];

  for (uint64_t K = 0; !T.Finished; ++K) {
    ASSERT_LT(K, 100000u) << "churn loop ran away";
    VM.step(T, 400);
    if (T.Finished)
      break;
    std::unique_ptr<CodeVariant> V;
    switch (K % 4) {
    case 0:
      V = planlessVariant(D.P, D.Outer, OptLevel::Opt2);
      V->CodeBytes = 1500;
      break;
    case 1:
      V = planlessVariant(D.P, D.Inner, OptLevel::Opt2);
      V->CodeBytes = 800;
      break;
    case 2:
      V = plannedOuter(D, OptLevel::Opt1);
      V->CodeBytes = 2500;
      break;
    default:
      V = planlessVariant(D.P, D.Inner, OptLevel::Opt1);
      V->CodeBytes = 800;
      break;
    }
    V->CompiledAtCycle = VM.cycles();
    VM.codeManager().install(std::move(V));
  }

  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u) << "every transition must keep the slab balanced";
  EXPECT_GT(VM.codeManager().numEvictions(), 0u);
  EXPECT_GT(Mgr.stats().Deopts, 0u);
}

} // namespace
