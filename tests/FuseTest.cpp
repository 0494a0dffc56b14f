//===- tests/FuseTest.cpp - Superinstruction fusion tests ------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The fusion subsystem's contracts (see DESIGN.md, "Superinstruction
// fusion"):
//   (1) runs are well-formed: straight-line, fusable opcodes only, no
//       branch target strictly inside, and the batch charge equals the
//       sum of the per-PC cost-table entries the run replaces;
//   (2) fused execution is bit-identical to per-bytecode dispatch at
//       every observable boundary — same clock, same instruction count,
//       same frames, locals and operand stacks — for every stepping
//       granularity and across the StopClock suspension path;
//   (3) fusion composes with inlining, OSR deoptimization and the
//       bounded code cache: a deopt landing inside a fused-run region
//       rematerializes exact source-level state, eviction frees the
//       handlers, and recompile-on-reentry re-derives them;
//   (4) whole-run and grid results are byte-identical with fusion on or
//       off, serial or parallel;
//   (5) fuse-install trace events cost zero simulated cycles and their
//       exported JSON bytes are pinned by a golden fixture.
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "fuse/FusionBuilder.h"
#include "harness/CsvExport.h"
#include "harness/Experiment.h"
#include "osr/FrameMap.h"
#include "osr/OsrManager.h"
#include "support/Audit.h"
#include "trace/TraceJson.h"
#include "trace/TraceSink.h"
#include "vm/VirtualMachine.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

using namespace aoci;

namespace {

/// Forces invariant auditing on for one scope (Release builds default it
/// off) and restores the prior setting on exit.
struct AuditScope {
  bool Prev;
  AuditScope() : Prev(audit::enabled()) { audit::setEnabled(true); }
  ~AuditScope() { audit::setEnabled(Prev); }
};

/// A cost model with fusion enabled down to baseline code, so hand-built
/// programs fuse on their very first (lazy baseline) compile.
CostModel fusedEverywhere() {
  CostModel Model;
  Model.Fuse.Enabled = true;
  Model.Fuse.MinLevel = 0;
  return Model;
}

//===----------------------------------------------------------------------===//
// Hand-built programs
//===----------------------------------------------------------------------===//

/// Same three-level call chain as CodeCacheTest/OsrTest:
///   main()   { t = 0; repeat Calls: t += outer(Iters); return t; }
///   outer(n) { return mid(n) + 1; }
///   mid(n)   { return inner(n) + 1; }
///   inner(n) { s = 0; while (n != 0) { s += n; n--; } return s; }
struct DeepProgram {
  Program P;
  MethodId Main = InvalidMethodId;
  MethodId Outer = InvalidMethodId;
  MethodId Mid = InvalidMethodId;
  MethodId Inner = InvalidMethodId;
  BytecodeIndex OuterCallsMid = 0;
  BytecodeIndex MidCallsInner = 0;
};

DeepProgram deepProgram(int64_t Calls, int64_t Iters) {
  DeepProgram D;
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  D.Inner = B.declareMethod(C, "inner", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(D.Inner);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.load(1).load(0).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  D.Mid = B.declareMethod(C, "mid", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(D.Mid);
    E.load(0);
    D.MidCallsInner = E.nextIndex();
    E.invokeStatic(D.Inner);
    E.iconst(1).iadd().vreturn();
    E.finish();
  }
  D.Outer = B.declareMethod(C, "outer", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(D.Outer);
    E.load(0);
    D.OuterCallsMid = E.nextIndex();
    E.invokeStatic(D.Mid);
    E.iconst(1).iadd().vreturn();
    E.finish();
  }
  D.Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(D.Main);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(Calls).store(0).iconst(0).store(1);
    E.bind(Top);
    E.load(0).ifZero(Exit);
    E.iconst(Iters).invokeStatic(D.Outer);
    E.load(1).iadd().store(1);
    E.load(0).iconst(1).isub().store(0);
    E.jump(Top);
    E.bind(Exit);
    E.load(1).vreturn();
    E.finish();
  }
  B.setEntry(D.Main);
  D.P = B.build();
  return D;
}

int64_t deepProgramResult(int64_t Calls, int64_t Iters) {
  return Calls * (Iters * (Iters + 1) / 2 + 2);
}

std::unique_ptr<CodeVariant> planlessVariant(const Program &P, MethodId M,
                                             OptLevel Level) {
  auto V = std::make_unique<CodeVariant>();
  V->M = M;
  V->Level = Level;
  V->MachineUnits = P.method(M).machineSize();
  return V;
}

std::unique_ptr<CodeVariant> plannedOuter(const DeepProgram &D,
                                          OptLevel Level) {
  InlineCase InnerCase;
  InnerCase.Callee = D.Inner;
  InnerCase.BodyUnits = D.P.method(D.Inner).machineSize();
  InlineCase MidCase;
  MidCase.Callee = D.Mid;
  MidCase.BodyUnits = D.P.method(D.Mid).machineSize();
  MidCase.Body = std::make_unique<InlineNode>();
  MidCase.Body->getOrCreate(D.MidCallsInner)
      .Cases.push_back(std::move(InnerCase));
  InlinePlan Plan;
  Plan.Root.getOrCreate(D.OuterCallsMid).Cases.push_back(std::move(MidCase));
  Plan.recountStatistics();
  Plan.TotalUnits = D.P.method(D.Outer).machineSize() +
                    D.P.method(D.Mid).machineSize() +
                    D.P.method(D.Inner).machineSize();
  auto V = planlessVariant(D.P, D.Outer, Level);
  V->MachineUnits = Plan.TotalUnits;
  V->Plan = std::move(Plan);
  return V;
}

/// A torture loop for the lowering: every fusable opcode, the symbolic
/// shuffles (dup/swap/pop, store-aliasing, the store peephole), heap and
/// array effects, instanceof on real and null receivers, the wrapping /
/// division-edge arithmetic cases, and a static call so runs start at
/// non-zero stack depth.
struct TortureProgram {
  Program P;
  MethodId Main = InvalidMethodId;
  MethodId Helper = InvalidMethodId;

  explicit TortureProgram(int64_t Iters) {
    const int64_t IntMin = std::numeric_limits<int64_t>::min();
    ProgramBuilder B;
    ClassId K = B.addClass("K", InvalidClassId, 2);
    Helper = B.declareMethod(K, "helper", MethodKind::Static, 1, true);
    {
      CodeEmitter E = B.code(Helper);
      E.load(0).iconst(1023).iand().vreturn();
      E.finish();
    }
    Main = B.declareMethod(K, "main", MethodKind::Static, 0, true);
    {
      CodeEmitter E = B.code(Main);
      auto Top = E.newLabel();
      auto Exit = E.newLabel();
      // locals: 0 = i, 1 = s, 2 = obj, 3 = arr, 4 = tmp
      E.iconst(Iters).store(0).iconst(0).store(1);
      E.newObject(K).store(2);
      E.iconst(5).newArray().store(3);
      E.bind(Top);
      E.load(0).ifZero(Exit);
      // Arithmetic with lazy-shuffle pressure.
      E.load(1).iconst(3).imul().iconst(7).iadd().iconst(11).irem();
      E.dup().swap().iadd().store(1);
      E.load(0).load(1).swap().dup().pop().iadd().store(1);
      // StoreLocal under a live alias of the stored local.
      E.load(1).iconst(5).store(1).store(4);
      E.load(1).load(4).iadd().store(1);
      // Object fields.
      E.load(2).load(1).putField(0);
      E.load(2).getField(0).load(0).iadd().store(1);
      E.load(2).load(2).getField(0).iconst(1).iadd().putField(1);
      E.load(2).getField(1).load(1).iadd().store(1);
      // Arrays.
      E.load(3).load(0).iconst(5).irem().load(1).arrayStore();
      E.load(3).load(0).iconst(5).irem().arrayLoad().store(4);
      E.load(3).arrayLength().load(4).iadd().store(4);
      // instanceof and tag-aware equality on nulls.
      E.load(2).instanceOf(K);
      E.constNull().instanceOf(K);
      E.iadd().load(4).iadd().store(4);
      E.constNull().constNull().icmpEq().load(4).iadd().store(4);
      // Division / remainder / shift edge cases.
      E.iconst(IntMin).iconst(-1).idiv();
      E.iconst(IntMin).iconst(-1).irem().iadd();
      E.iconst(123).iconst(0).idiv().iadd();
      E.iconst(123).iconst(0).irem().iadd();
      E.ineg().iconst(63).ishl().iconst(2).ishr();
      E.load(1).icmpLt().load(1).iadd().store(1);
      E.load(4).load(1).iadd().store(1);
      // A call, so the following run starts at stack depth 1.
      E.load(1).invokeStatic(Helper);
      E.iconst(1).iadd().store(1);
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

template <typename Pred>
void stepUntil(VirtualMachine &VM, ThreadState &T, Pred Done) {
  for (uint64_t I = 0; I != 10000000; ++I) {
    if (Done())
      return;
    ASSERT_FALSE(T.Finished) << "thread finished before the condition held";
    VM.step(T, 1);
  }
  FAIL() << "condition never held";
}

/// Locals and operand stack of \p S match frame \p Index bit for bit.
void expectSameValues(const FrameSnapshot &S, const ThreadState &T,
                      size_t Index) {
  FrameSnapshot Now = snapshotFrame(T, Index);
  EXPECT_EQ(S.Method, Now.Method);
  ASSERT_EQ(S.Locals.size(), Now.Locals.size());
  for (size_t I = 0; I != S.Locals.size(); ++I)
    EXPECT_TRUE(S.Locals[I].equals(Now.Locals[I])) << "local " << I;
  ASSERT_EQ(S.Stack.size(), Now.Stack.size());
  for (size_t I = 0; I != S.Stack.size(); ++I)
    EXPECT_TRUE(S.Stack[I].equals(Now.Stack[I])) << "stack slot " << I;
}

/// Every simulated-state observable of the two VMs agrees: clock,
/// instruction count, frame shapes, and every live slab value.
void expectLockstepState(const VirtualMachine &A, const ThreadState &TA,
                         const VirtualMachine &B, const ThreadState &TB) {
  ASSERT_EQ(A.cycles(), B.cycles());
  ASSERT_EQ(A.counters().InstructionsExecuted,
            B.counters().InstructionsExecuted);
  ASSERT_EQ(TA.Finished, TB.Finished);
  ASSERT_EQ(TA.SlabTop, TB.SlabTop);
  ASSERT_EQ(TA.Frames.size(), TB.Frames.size());
  for (size_t F = 0; F != TA.Frames.size(); ++F) {
    ASSERT_EQ(TA.Frames[F].Method, TB.Frames[F].Method) << "frame " << F;
    ASSERT_EQ(TA.Frames[F].PC, TB.Frames[F].PC) << "frame " << F;
    ASSERT_EQ(TA.Frames[F].LocalsBase, TB.Frames[F].LocalsBase);
    ASSERT_EQ(TA.Frames[F].StackBase, TB.Frames[F].StackBase);
  }
  for (uint32_t I = 0; I != TA.SlabTop; ++I)
    ASSERT_TRUE(TA.Slab[I].equals(TB.Slab[I])) << "slab slot " << I;
}

void expectIdenticalResults(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.WallCycles, B.WallCycles);
  EXPECT_EQ(A.OptBytesGenerated, B.OptBytesGenerated);
  EXPECT_EQ(A.OptBytesResident, B.OptBytesResident);
  EXPECT_EQ(A.OptCompileCycles, B.OptCompileCycles);
  EXPECT_EQ(A.BaselineCompileCycles, B.BaselineCompileCycles);
  for (unsigned C = 0; C != NumAosComponents; ++C)
    EXPECT_EQ(A.ComponentCycles[C], B.ComponentCycles[C]) << "component " << C;
  EXPECT_EQ(A.GcCycles, B.GcCycles);
  EXPECT_EQ(A.OptCompilations, B.OptCompilations);
  EXPECT_EQ(A.GuardTests, B.GuardTests);
  EXPECT_EQ(A.GuardFallbacks, B.GuardFallbacks);
  EXPECT_EQ(A.InlinedCalls, B.InlinedCalls);
  EXPECT_EQ(A.SamplesTaken, B.SamplesTaken);
  EXPECT_EQ(A.ProgramResult, B.ProgramResult);
  EXPECT_EQ(A.OsrEntries, B.OsrEntries);
  EXPECT_EQ(A.Deopts, B.Deopts);
  EXPECT_EQ(A.OsrTransitionCycles, B.OsrTransitionCycles);
  EXPECT_EQ(A.LiveCodeBytes, B.LiveCodeBytes);
  EXPECT_EQ(A.PeakCodeBytes, B.PeakCodeBytes);
  EXPECT_EQ(A.Evictions, B.Evictions);
  EXPECT_EQ(A.RecompilesAfterEvict, B.RecompilesAfterEvict);
}

//===----------------------------------------------------------------------===//
// (1) Run well-formedness and charge accounting, over a whole workload.
//===----------------------------------------------------------------------===//

TEST(FuseBuilderTest, RunsAreWellFormedOnWorkloadBodies) {
  WorkloadParams Params;
  Params.Scale = 0.05;
  Workload W = makeWorkload("compress", Params);
  CostModel Model;

  unsigned MethodsWithRuns = 0;
  for (MethodId M = 0; M != W.Prog.numMethods(); ++M) {
    const Method &Meth = W.Prog.method(M);
    if (Meth.Body.empty())
      continue;
    // Recompute branch targets independently of the builder.
    std::vector<bool> IsTarget(Meth.Body.size(), false);
    for (const Instruction &I : Meth.Body)
      if (isBranch(I.Op))
        IsTarget[static_cast<size_t>(I.Operand)] = true;

    for (OptLevel Level : {OptLevel::Baseline, OptLevel::Opt2}) {
      auto Fused = buildFusedProgram(W.Prog, Meth, Level, Model);
      if (!Fused)
        continue;
      ++MethodsWithRuns;
      ASSERT_EQ(Fused->RunAtPC.size(), Meth.Body.size());
      uint32_t Covered = 0;
      for (const FusedRun &R : Fused->Runs) {
        EXPECT_GE(R.Length, MinFusedRunLength);
        ASSERT_LE(R.StartPC + R.Length, Meth.Body.size());
        uint64_t Charge = 0;
        for (uint32_t PC = R.StartPC; PC != R.StartPC + R.Length; ++PC) {
          const Instruction &I = Meth.Body[PC];
          EXPECT_TRUE(isFusable(I.Op)) << "PC " << PC;
          if (PC != R.StartPC) {
            EXPECT_FALSE(IsTarget[PC])
                << "branch target strictly inside a run at PC " << PC;
          }
          Charge += I.machineSize() * Model.cyclesPerUnit(Level);
          // Only the start PC dispatches the run.
          EXPECT_EQ(Fused->RunAtPC[PC], PC == R.StartPC ? &R : nullptr);
        }
        EXPECT_EQ(R.BatchCharge, Charge)
            << "batch charge must equal the per-PC cost-table sum";
        const Instruction &Last = Meth.Body[R.StartPC + R.Length - 1];
        EXPECT_EQ(R.ChargeBeforeLast,
                  Charge - Last.machineSize() * Model.cyclesPerUnit(Level));
        EXPECT_GE(R.DepthBefore + 4u, R.DepthBefore); // no wrap nonsense
        // Profitability gate: an installed run's symbolic program must
        // be strictly smaller than the bytecode it covers — unelided
        // runs are a measured host-side loss and must not be kept.
        EXPECT_LT(R.NumOps, R.Length);
        Covered += R.Length;
      }
      EXPECT_EQ(Fused->OpsFused, Covered);
      EXPECT_GT(Fused->FusedBytes, 0u);
    }
  }
  EXPECT_GT(MethodsWithRuns, 0u)
      << "a real workload must contain fusable straight-line runs";
}

TEST(FuseBuilderTest, LoweringElidesPureShuffles) {
  // s = ((a + b) * 2) computed through dup/swap/pop noise: the symbolic
  // lowering must compile the shuffles away, leaving fewer fused ops than
  // source instructions.
  ProgramBuilder B;
  ClassId C = B.addClass("Main");
  MethodId Main = B.declareMethod(C, "main", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(Main);
    E.iconst(21).store(0).iconst(13).store(1);
    E.load(0).load(1).swap().iadd();
    E.dup().iadd();
    E.dup().pop().store(2);
    E.load(2).vreturn();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();

  CostModel Model;
  auto Fused =
      buildFusedProgram(P, P.method(Main), OptLevel::Baseline, Model);
  ASSERT_NE(Fused, nullptr);
  ASSERT_FALSE(Fused->Runs.empty());
  EXPECT_LT(Fused->Ops.size(), static_cast<size_t>(Fused->OpsFused))
      << "shuffles must lower to fewer ops than source instructions";

  // And the program still computes the right answer under fusion.
  VirtualMachine VM(P, fusedEverywhere());
  VM.addThread(P.entryMethod());
  VM.run();
  EXPECT_EQ(VM.threads()[0]->Result.asInt(), (21 + 13) * 2);
}

//===----------------------------------------------------------------------===//
// (2) Lockstep bit-identity at every stepping granularity.
//===----------------------------------------------------------------------===//

TEST(FuseLockstepTest, TortureLoopBitIdenticalAtEveryGranularity) {
  AuditScope Audited;
  const int64_t Iters = 40;
  TortureProgram TP(Iters);

  for (uint64_t K : {1u, 2u, 3u, 5u, 8u, 13u, 400u}) {
    VirtualMachine Plain(TP.P, CostModel{});
    VirtualMachine Fused(TP.P, fusedEverywhere());
    Plain.addThread(TP.P.entryMethod());
    Fused.addThread(TP.P.entryMethod());
    ThreadState &TPl = *Plain.threads()[0];
    ThreadState &TFu = *Fused.threads()[0];
    for (uint64_t Steps = 0; !TPl.Finished || !TFu.Finished; ++Steps) {
      ASSERT_LT(Steps, 10000000u) << "lockstep loop ran away (k=" << K << ")";
      Plain.step(TPl, K);
      Fused.step(TFu, K);
      expectLockstepState(Plain, TPl, Fused, TFu);
    }
    EXPECT_TRUE(TPl.Result.equals(TFu.Result)) << "k=" << K;
    EXPECT_EQ(TPl.SlabTop, 0u);
    EXPECT_EQ(Plain.counters().FusedRunsExecuted, 0u);
    if (K == 1) {
      // A one-instruction budget can never fit a run: pure fallback.
      EXPECT_EQ(Fused.counters().FusedRunsExecuted, 0u);
    } else if (K >= 8) {
      EXPECT_GT(Fused.counters().FusedRunsExecuted, 0u)
          << "the batched fast path never executed at k=" << K;
    }
  }
}

TEST(FuseLockstepTest, CycleLimitSuspensionBitIdentical) {
  // Exercises the StopClock fallback: resuming under a cycle limit that
  // lands inside a fused run must suspend at exact per-PC granularity.
  AuditScope Audited;
  TortureProgram TP(25);

  VirtualMachine Plain(TP.P, CostModel{});
  VirtualMachine Fused(TP.P, fusedEverywhere());
  Plain.addThread(TP.P.entryMethod());
  Fused.addThread(TP.P.entryMethod());
  ThreadState &TPl = *Plain.threads()[0];
  ThreadState &TFu = *Fused.threads()[0];
  uint64_t Limit = 1;
  for (uint64_t Rounds = 0; !TPl.Finished || !TFu.Finished; ++Rounds) {
    ASSERT_LT(Rounds, 1000000u) << "cycle-limit loop ran away";
    Plain.run(Limit);
    Fused.run(Limit);
    expectLockstepState(Plain, TPl, Fused, TFu);
    Limit += 97; // deliberately misaligned with any batch charge
  }
  EXPECT_TRUE(TPl.Result.equals(TFu.Result));
}

TEST(FuseLockstepTest, OptimizedAndInlinedVariantsStayLocked) {
  // Fusion must track recompilation: both VMs install the same optimized
  // variants mid-run (a planless Opt2 inner, then a fully inlined Opt1
  // outer) and must stay bit-identical through the transitions.
  AuditScope Audited;
  const int64_t Calls = 6, Iters = 30;
  DeepProgram DA = deepProgram(Calls, Iters);
  DeepProgram DB = deepProgram(Calls, Iters);

  VirtualMachine Plain(DA.P, CostModel{});
  VirtualMachine Fused(DB.P, fusedEverywhere());
  Plain.addThread(DA.P.entryMethod());
  Fused.addThread(DB.P.entryMethod());
  ThreadState &TPl = *Plain.threads()[0];
  ThreadState &TFu = *Fused.threads()[0];

  bool Installed = false;
  for (uint64_t Steps = 0; !TPl.Finished || !TFu.Finished; ++Steps) {
    ASSERT_LT(Steps, 10000000u) << "lockstep loop ran away";
    Plain.step(TPl, 7);
    Fused.step(TFu, 7);
    expectLockstepState(Plain, TPl, Fused, TFu);
    if (!Installed && Plain.codeManager().baseline(DA.Inner) != nullptr &&
        Fused.codeManager().baseline(DB.Inner) != nullptr) {
      Installed = true;
      auto InstallBoth = [&](std::unique_ptr<CodeVariant> VA,
                             std::unique_ptr<CodeVariant> VB) {
        VA->CompiledAtCycle = Plain.cycles();
        VB->CompiledAtCycle = Fused.cycles();
        Plain.codeManager().install(std::move(VA));
        Fused.codeManager().install(std::move(VB));
      };
      InstallBoth(planlessVariant(DA.P, DA.Inner, OptLevel::Opt2),
                  planlessVariant(DB.P, DB.Inner, OptLevel::Opt2));
      InstallBoth(plannedOuter(DA, OptLevel::Opt1),
                  plannedOuter(DB, OptLevel::Opt1));
    }
  }
  ASSERT_TRUE(Installed);
  EXPECT_EQ(TPl.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_TRUE(TPl.Result.equals(TFu.Result));

  // The fused VM actually attached handlers to the installs above.
  EXPECT_GT(Fused.codeManager().fusedRunsInstalled(), 0u);
  EXPECT_GT(Fused.codeManager().fusedBytesTotal(), 0u);
  EXPECT_GT(Fused.counters().FusedRunsExecuted, 0u);
  EXPECT_EQ(Plain.codeManager().fusedRunsInstalled(), 0u);
}

//===----------------------------------------------------------------------===//
// (3) Deopt inside a fused-run region; eviction frees and re-derives.
//===----------------------------------------------------------------------===//

TEST(FuseDeoptTest, EvictionDeoptInsideFusedRunRematerializesExactly) {
  AuditScope Audited;
  const int64_t Calls = 3, Iters = 300;
  DeepProgram D = deepProgram(Calls, Iters);

  CostModel Model = fusedEverywhere();
  const uint64_t BaselineSum =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Outer).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize()) +
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  const uint64_t PlannedBytes = 4000, BigBytes = 4000;
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
  ASSERT_NE(PlannedPtr->Fused, nullptr)
      << "the planned outer body must have fusable runs";

  // Park the thread with the inline group live and the innermost frame's
  // PC *strictly inside* a fused run of inner's baseline — the region a
  // deopt must rematerialize at source granularity.
  const CodeVariant *InnerBase = VM.codeManager().baseline(D.Inner);
  ASSERT_NE(InnerBase->Fused, nullptr);
  auto InsideFusedRun = [&] {
    if (T.Frames.size() != 4 || T.Frames[1].Variant != PlannedPtr)
      return false;
    const uint32_t PC = T.Frames[3].PC;
    const auto &Map = InnerBase->Fused->RunAtPC;
    if (PC >= Map.size() || Map[PC] != nullptr)
      return false; // not an interior PC
    for (const FusedRun &R : InnerBase->Fused->Runs)
      if (PC > R.StartPC && PC < R.StartPC + R.Length)
        return true;
    return false;
  };
  stepUntil(VM, T, InsideFusedRun);

  std::vector<FrameSnapshot> Snaps;
  for (size_t F = 0; F != T.Frames.size(); ++F)
    Snaps.push_back(snapshotFrame(T, F));

  auto Big = planlessVariant(D.P, D.Main, OptLevel::Opt2);
  Big->CodeBytes = BigBytes;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));

  EXPECT_TRUE(PlannedPtr->Evicted);
  EXPECT_EQ(PlannedPtr->Fused, nullptr)
      << "eviction must free the victim's fused handlers";
  EXPECT_GE(Mgr.stats().Deopts, 1u);

  // The deopt was the identity on source-level state even though the
  // resume PC sits mid-run, and every physical frame's fused-handler map
  // matches its (possibly rematerialized) baseline variant.
  ASSERT_EQ(T.Frames.size(), 4u);
  for (size_t F = 0; F != 4; ++F)
    expectSameValues(Snaps[F], T, F);
  for (size_t F = 0; F != 4; ++F) {
    const Frame &Fr = T.Frames[F];
    EXPECT_FALSE(Fr.Inlined) << "frame " << F;
    ASSERT_NE(Fr.Variant, nullptr);
    EXPECT_EQ(Fr.Fuse, Fr.Variant->Fused.get()) << "frame " << F;
  }

  VM.run();
  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  EXPECT_EQ(T.SlabTop, 0u);
}

TEST(FuseEvictionTest, HandlersFreedOnEvictAndRederivedOnReentry) {
  AuditScope Audited;
  const int64_t Calls = 6, Iters = 40;
  DeepProgram D = deepProgram(Calls, Iters);

  CostModel Model = fusedEverywhere();
  const uint64_t MainBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Main).machineSize());
  const uint64_t MidBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Mid).machineSize());
  const uint64_t InnerBytes =
      Model.codeBytes(OptLevel::Baseline, D.P.method(D.Inner).machineSize());
  const uint64_t BigBytes = 5000;
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
  ASSERT_NE(OldOuter->Fused, nullptr) << "baseline outer must have fused";
  const uint64_t RunsBefore = VM.codeManager().fusedRunsInstalled();

  auto Big = planlessVariant(D.P, D.Main, OptLevel::Opt2);
  Big->CodeBytes = BigBytes;
  Big->CompiledAtCycle = VM.cycles();
  VM.codeManager().install(std::move(Big));

  ASSERT_TRUE(OldOuter->Evicted);
  EXPECT_EQ(OldOuter->Fused, nullptr)
      << "tombstoned variants must not retain fused handlers";

  VM.run();
  EXPECT_EQ(T.Result.asInt(), deepProgramResult(Calls, Iters));
  const CodeVariant *NewOuter = VM.codeManager().baseline(D.Outer);
  ASSERT_NE(NewOuter, nullptr);
  ASSERT_NE(NewOuter, OldOuter);
  EXPECT_NE(NewOuter->Fused, nullptr)
      << "recompile-on-reentry must re-derive the handlers";
  EXPECT_GT(VM.codeManager().fusedRunsInstalled(), RunsBefore);
}

//===----------------------------------------------------------------------===//
// (4) Whole-run and grid byte-identity, fusion on vs off, serial vs jobs.
//===----------------------------------------------------------------------===//

TEST(FuseExperimentTest, RunResultsIdenticalWithFusionOnOsrAndCacheOn) {
  RunConfig Off;
  Off.WorkloadName = "mpegaudio";
  Off.Policy = PolicyKind::Fixed;
  Off.MaxDepth = 3;
  Off.Params.Scale = 0.3;
  Off.Aos.Osr.Enabled = true;
  Off.Model.CodeCache.CapacityBytes = 6000;
  ASSERT_FALSE(Off.Model.Fuse.Enabled) << "fusion defaults off";

  RunConfig On = Off;
  On.Model.Fuse.Enabled = true; // default MinLevel: optimized code only

  RunConfig Everywhere = Off;
  Everywhere.Model.Fuse = fusedEverywhere().Fuse;

  RunResult A = runExperiment(Off);
  RunResult B = runExperiment(On);
  RunResult C = runExperiment(Everywhere);
  expectIdenticalResults(A, B);
  expectIdenticalResults(A, C);
}

TEST(FuseGridTest, FusionAndJobCountNeverChangeTheGridCsv) {
  GridConfig Off;
  Off.Workloads = {"compress", "mpegaudio"};
  Off.Policies = {PolicyKind::Fixed, PolicyKind::Parameterless};
  Off.Depths = {2, 3};
  Off.Params.Scale = 0.3;
  Off.Aos.Osr.Enabled = true;
  Off.Model.CodeCache.CapacityBytes = 6000;

  GridConfig On = Off;
  On.Model.Fuse = fusedEverywhere().Fuse;

  const GridResults OffResults = runGrid(Off);
  const GridResults OnResults = runGrid(On);
  const GridResults OnParallel = runGridParallel(On, 4);

  const std::string OffCsv = exportCsv(OffResults, Off.Policies, Off.Depths);
  const std::string OnCsv = exportCsv(OnResults, On.Policies, On.Depths);
  EXPECT_EQ(OffCsv, OnCsv)
      << "fusion must never move a simulated cycle in the frozen CSV";

  const std::string OnParallelCsv =
      exportCsv(OnParallel, On.Policies, On.Depths);
  EXPECT_EQ(OnCsv, OnParallelCsv)
      << "fused sweeps must stay deterministic across job counts";

  // The metrics CSV as a whole legitimately differs across job counts
  // (worker ids, host timings), but the fusion ledger is a pure function
  // of installed code: serial and --jobs 4 must agree row for row, and a
  // fused sweep over optimizing policies must actually install handlers.
  const std::vector<RunResult> &Serial = OnResults.runs();
  const std::vector<RunResult> &Parallel = OnParallel.runs();
  ASSERT_EQ(Serial.size(), Parallel.size());
  uint64_t InstalledTotal = 0;
  for (size_t I = 0; I != Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].WorkloadName, Parallel[I].WorkloadName);
    EXPECT_EQ(Serial[I].FusedRuns, Parallel[I].FusedRuns)
        << "row " << I << " (" << Serial[I].WorkloadName << ")";
    EXPECT_EQ(Serial[I].FusedOps, Parallel[I].FusedOps) << "row " << I;
    EXPECT_EQ(Serial[I].FusedBytes, Parallel[I].FusedBytes) << "row " << I;
    InstalledTotal += Serial[I].FusedRuns;
  }
  EXPECT_GT(InstalledTotal, 0u)
      << "fused sweep never installed a handler; the metrics plumbing "
         "is dead";
  for (const RunResult &R : OffResults.runs()) {
    EXPECT_EQ(R.FusedRuns, 0u);
    EXPECT_EQ(R.FusedOps, 0u);
    EXPECT_EQ(R.FusedBytes, 0u);
  }
}

//===----------------------------------------------------------------------===//
// (5) Golden trace: the fuse-install event stream's bytes are pinned.
//===----------------------------------------------------------------------===//

void expectMatchesGolden(const std::string &Name, const std::string &Actual) {
  const std::string Path = std::string(AOCI_GOLDEN_DIR) + "/" + Name;
  if (const char *Update = std::getenv("AOCI_UPDATE_GOLDEN");
      Update && Update[0] == '1') {
    std::ofstream OutFile(Path, std::ios::binary);
    ASSERT_TRUE(OutFile) << "cannot write " << Path;
    OutFile << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing fixture " << Path
                  << " (regenerate with AOCI_UPDATE_GOLDEN=1)";
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), Actual)
      << "fuse-install trace export drifted from " << Path
      << "; either the fusion sequence or the JSON serialization "
         "changed. If intentional, rerun with AOCI_UPDATE_GOLDEN=1, "
         "review the fixture diff, and update OBSERVABILITY.md if the "
         "schema moved";
}

TEST(FuseGoldenTest, FuseInstallTraceJsonMatchesGolden) {
  uint32_t Mask = 0;
  std::string Error;
  ASSERT_TRUE(parseTraceFilter("fuse-install", Mask, Error)) << Error;
  TraceSink Sink;
  Sink.enable(Mask);

  const int64_t Calls = 4, Iters = 50;
  DeepProgram D = deepProgram(Calls, Iters);
  VirtualMachine VM(D.P, fusedEverywhere());
  VM.setTraceSink(&Sink);
  VM.addThread(D.P.entryMethod());
  VM.run();
  ASSERT_EQ(VM.threads()[0]->Result.asInt(), deepProgramResult(Calls, Iters));

  // Emission is uncharged: an identical run without the sink lands on the
  // same cycle.
  VirtualMachine Silent(D.P, fusedEverywhere());
  Silent.addThread(D.P.entryMethod());
  Silent.run();
  EXPECT_EQ(VM.cycles(), Silent.cycles());

  std::ostringstream Json;
  writeChromeTrace(Json, Sink, "fuse/install");
  expectMatchesGolden("trace_fuse_install.golden", Json.str());
}

} // namespace
