//===- tests/VmUnitTest.cpp - Small-unit tests for src/vm -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/ProgramBuilder.h"
#include "opt/PlanPrinter.h"
#include "support/Audit.h"
#include "vm/CodeManager.h"
#include "vm/Heap.h"
#include "vm/Overhead.h"
#include "vm/Value.h"
#include "vm/VirtualMachine.h"
#include "workload/FigureOne.h"
#include "workload/WorkloadCommon.h"

#include <gtest/gtest.h>

#include <map>

using namespace aoci;

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

TEST(ValueTest, KindsAndAccessors) {
  Value I = Value::makeInt(-7);
  Value R = Value::makeRef(42);
  Value N = Value::makeNull();
  EXPECT_TRUE(I.isInt());
  EXPECT_EQ(I.asInt(), -7);
  EXPECT_TRUE(R.isRef());
  EXPECT_EQ(R.asRef(), 42u);
  EXPECT_TRUE(N.isNull());
  EXPECT_TRUE(Value().isInt()) << "default value is integer zero";
  EXPECT_EQ(Value().asInt(), 0);
}

TEST(ValueTest, EqualityIsKindAndBits) {
  EXPECT_TRUE(Value::makeInt(5).equals(Value::makeInt(5)));
  EXPECT_FALSE(Value::makeInt(5).equals(Value::makeInt(6)));
  EXPECT_TRUE(Value::makeRef(3).equals(Value::makeRef(3)));
  EXPECT_FALSE(Value::makeRef(3).equals(Value::makeInt(3)))
      << "a reference never equals an integer";
  EXPECT_TRUE(Value::makeNull().equals(Value::makeNull()));
  EXPECT_FALSE(Value::makeNull().equals(Value::makeInt(0)));
}

//===----------------------------------------------------------------------===//
// Heap
//===----------------------------------------------------------------------===//

TEST(HeapTest, ObjectsAndArrays) {
  Heap H;
  ObjectRef O = H.allocateObject(3, 2);
  ObjectRef A = H.allocateArray(5);
  EXPECT_EQ(H.numObjects(), 2u);
  EXPECT_EQ(H.object(O).Klass, 3u);
  EXPECT_FALSE(H.object(O).IsArray);
  EXPECT_EQ(H.object(O).Slots.size(), 2u);
  EXPECT_TRUE(H.object(A).IsArray);
  EXPECT_EQ(H.object(A).Slots.size(), 5u);
  // Slots default to integer zero.
  EXPECT_TRUE(H.object(A).Slots[4].isInt());
}

TEST(HeapTest, AllocationMeterAndCollection) {
  Heap H;
  EXPECT_EQ(H.bytesSinceGc(), 0u);
  H.allocateObject(0, 4); // 16 + 32 bytes
  EXPECT_EQ(H.bytesSinceGc(), 48u);
  EXPECT_EQ(H.totalBytesAllocated(), 48u);
  H.noteCollection();
  EXPECT_EQ(H.bytesSinceGc(), 0u);
  EXPECT_EQ(H.totalBytesAllocated(), 48u) << "total is never reset";
}

//===----------------------------------------------------------------------===//
// OverheadMeter
//===----------------------------------------------------------------------===//

TEST(OverheadMeterTest, ChargesPerComponent) {
  OverheadMeter M;
  M.charge(AosComponent::Listeners, 10);
  M.charge(AosComponent::Compilation, 100);
  M.charge(AosComponent::Listeners, 5);
  EXPECT_EQ(M.cycles(AosComponent::Listeners), 15u);
  EXPECT_EQ(M.cycles(AosComponent::Compilation), 100u);
  EXPECT_EQ(M.cycles(AosComponent::Controller), 0u);
  EXPECT_EQ(M.total(), 115u);
}

TEST(OverheadMeterTest, ComponentNamesMatchFigureSix) {
  EXPECT_STREQ(aosComponentName(AosComponent::Listeners), "AOS Listeners");
  EXPECT_STREQ(aosComponentName(AosComponent::Compilation),
               "CompilationThread");
  EXPECT_STREQ(aosComponentName(AosComponent::DecayOrganizer),
               "DecayOrganizer");
  EXPECT_STREQ(aosComponentName(AosComponent::AiOrganizer), "AIOrganizer");
  EXPECT_STREQ(aosComponentName(AosComponent::MethodOrganizer),
               "MethodSampleOrganizer");
  EXPECT_STREQ(aosComponentName(AosComponent::Controller),
               "ControllerThread");
}

//===----------------------------------------------------------------------===//
// CodeManager
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<CodeVariant> variant(MethodId M, OptLevel Level,
                                     uint64_t Bytes, uint64_t Compile) {
  auto V = std::make_unique<CodeVariant>();
  V->M = M;
  V->Level = Level;
  V->CodeBytes = Bytes;
  V->CompileCycles = Compile;
  return V;
}

} // namespace

TEST(CodeManagerTest, InstallTracksCurrentAndSerials) {
  FigureOneProgram F = makeFigureOne(1);
  CodeManager CM(F.P);
  EXPECT_EQ(CM.current(2), nullptr);
  const CodeVariant *V0 = CM.install(variant(2, OptLevel::Baseline, 100, 10));
  EXPECT_EQ(CM.current(2), V0);
  EXPECT_EQ(V0->SerialNumber, 0u);
  const CodeVariant *V1 = CM.install(variant(2, OptLevel::Opt1, 200, 50));
  EXPECT_EQ(CM.current(2), V1);
  EXPECT_EQ(V1->SerialNumber, 1u);
  EXPECT_EQ(CM.allVariants().size(), 2u);
  EXPECT_EQ(CM.current(3), nullptr);
}

TEST(CodeManagerTest, LedgersSeparateBaselineFromOpt) {
  FigureOneProgram F = makeFigureOne(1);
  CodeManager CM(F.P);
  CM.install(variant(0, OptLevel::Baseline, 100, 10));
  CM.install(variant(1, OptLevel::Opt1, 200, 50));
  CM.install(variant(1, OptLevel::Opt2, 300, 70));
  EXPECT_EQ(CM.baselineCompileCycles(), 10u);
  EXPECT_EQ(CM.optCompileCycles(), 120u);
  EXPECT_EQ(CM.optimizedBytesGenerated(), 500u)
      << "cumulative includes the obsoleted opt1 variant";
  EXPECT_EQ(CM.optimizedBytesResident(), 300u)
      << "resident counts only the installed opt variant";
  EXPECT_EQ(CM.numCompiles(OptLevel::Baseline), 1u);
  EXPECT_EQ(CM.numCompiles(OptLevel::Opt1), 1u);
  EXPECT_EQ(CM.numCompiles(OptLevel::Opt2), 1u);
}

TEST(CodeManagerTest, OldVariantsStayAliveAfterReplacement) {
  FigureOneProgram F = makeFigureOne(1);
  CodeManager CM(F.P);
  const CodeVariant *Old = CM.install(variant(0, OptLevel::Opt1, 100, 10));
  CM.install(variant(0, OptLevel::Opt2, 200, 20));
  // Running activations keep raw pointers into replaced variants.
  EXPECT_EQ(Old->CodeBytes, 100u);
  EXPECT_NE(CM.current(0), Old);
}

//===----------------------------------------------------------------------===//
// InlineNode / PlanPrinter
//===----------------------------------------------------------------------===//

TEST(InlineNodeTest, FindAndGetOrCreateKeepSitesSorted) {
  InlineNode Node;
  Node.getOrCreate(9);
  Node.getOrCreate(2);
  Node.getOrCreate(5);
  EXPECT_EQ(&Node.getOrCreate(5), Node.find(5));
  EXPECT_EQ(Node.find(3), nullptr);
  ASSERT_EQ(Node.Sites.size(), 3u);
  EXPECT_LT(Node.Sites[0].Site, Node.Sites[1].Site);
  EXPECT_LT(Node.Sites[1].Site, Node.Sites[2].Site);
}

TEST(PlanPrinterTest, RendersGuardsAndNesting) {
  FigureOneProgram F = makeFigureOne(1);
  CodeVariant V;
  V.M = F.RunTest;
  V.Level = OptLevel::Opt2;
  V.CodeBytes = 1234;
  InlineCase GetCase;
  GetCase.Callee = F.Get;
  GetCase.Guarded = true;
  GetCase.BodyUnits = 54;
  GetCase.Body = std::make_unique<InlineNode>();
  InlineCase HashCase;
  HashCase.Callee = F.MyKeyHashCode;
  HashCase.BodyUnits = 4;
  GetCase.Body->getOrCreate(F.HashCodeSite)
      .Cases.push_back(std::move(HashCase));
  V.Plan.Root.getOrCreate(F.GetSite1).Cases.push_back(std::move(GetCase));
  V.Plan.recountStatistics();

  std::string Out = describeVariant(F.P, V);
  EXPECT_NE(Out.find("HashMapTest.runTest"), std::string::npos);
  EXPECT_NE(Out.find("opt2"), std::string::npos);
  EXPECT_NE(Out.find("1234 bytes"), std::string::npos);
  EXPECT_NE(Out.find("guard HashMap.get"), std::string::npos);
  EXPECT_NE(Out.find("MyKey.hashCode"), std::string::npos);
  // Nesting: the hashCode line is indented deeper than the get line.
  size_t GetPos = Out.find("guard HashMap.get");
  size_t HashPos = Out.find("MyKey.hashCode");
  EXPECT_LT(GetPos, HashPos);
}

//===----------------------------------------------------------------------===//
// Frame entry
//===----------------------------------------------------------------------===//

namespace {

/// main() { acc = 0; for (i = 4; i != 0; --i) { r = i % 2 ? new C : new A;
/// acc += r.f(i); acc += g(i); acc += h(i); } return acc; } under an opt2
/// plan that guard-inlines C.f at the virtual site (so A receivers take
/// the fallback call to A.f) and inlines h unguarded; g is called
/// physically. Every callee keeps four locals beyond its arguments and
/// leaves them nonzero, so the next call into the same slab window only
/// sees zeros if frame entry cleared them.
struct FrameEntryProgram {
  Program P;
  MethodId Main, AF, CF, G, H;
  /// Main's opt2 plan, moved into its code variant at install.
  InlinePlan Plan;
  const CodeVariant *MainCode = nullptr;
  const InlineNode *HBody = nullptr;
};

void emitLeafBody(CodeEmitter &E, unsigned Arg, int64_t K) {
  E.load(Arg).iconst(K).iadd().store(Arg + 1);
  E.load(Arg + 1).iconst(2).imul().store(Arg + 2);
  E.load(Arg + 2).iconst(1).isub().store(Arg + 3);
  E.load(Arg + 1).load(Arg + 2).iadd().load(Arg + 3).iadd().store(Arg + 4);
  E.load(Arg + 4).vreturn();
  E.finish();
}

FrameEntryProgram frameEntryProgram() {
  FrameEntryProgram F;
  ProgramBuilder B;
  ClassId A = B.addClass("A");
  F.AF = B.declareMethod(A, "f", MethodKind::Virtual, 1, true);
  {
    CodeEmitter E = B.code(F.AF);
    emitLeafBody(E, 1, 3);
  }
  ClassId C = B.addClass("C", A);
  F.CF = B.addOverride(C, F.AF);
  {
    CodeEmitter E = B.code(F.CF);
    emitLeafBody(E, 1, 5);
  }
  F.G = B.declareMethod(A, "g", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(F.G);
    emitLeafBody(E, 0, 7);
  }
  F.H = B.declareMethod(A, "h", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(F.H);
    emitLeafBody(E, 0, 11);
  }
  F.Main = B.declareMethod(A, "main", MethodKind::Static, 0, true);
  BytecodeIndex FSite = 0, HSite = 0;
  {
    CodeEmitter E = B.code(F.Main);
    E.iconst(0).store(0);
    emitCountedLoop(E, 1, 4, [&](CodeEmitter &L) {
      auto UseA = L.newLabel();
      auto Dispatch = L.newLabel();
      L.load(1).iconst(2).irem().ifZero(UseA);
      L.newObject(C).jump(Dispatch);
      L.bind(UseA);
      L.newObject(A);
      L.bind(Dispatch);
      L.load(1);
      FSite = L.nextIndex();
      L.invokeVirtual(F.AF).load(0).iadd().store(0);
      L.load(1).invokeStatic(F.G).load(0).iadd().store(0);
      L.load(1);
      HSite = L.nextIndex();
      L.invokeStatic(F.H).load(0).iadd().store(0);
    });
    E.load(0).vreturn();
    E.finish();
  }
  B.setEntry(F.Main);
  F.P = B.build();

  InlinePlan &Plan = F.Plan;
  InlineCase FCase;
  FCase.Callee = F.CF;
  FCase.Guarded = true;
  FCase.BodyUnits = F.P.method(F.CF).machineSize();
  Plan.Root.getOrCreate(FSite).Cases.push_back(std::move(FCase));
  InlineCase HCase;
  HCase.Callee = F.H;
  HCase.BodyUnits = F.P.method(F.H).machineSize();
  HCase.Body = std::make_unique<InlineNode>();
  F.HBody = HCase.Body.get();
  Plan.Root.getOrCreate(HSite).Cases.push_back(std::move(HCase));
  Plan.recountStatistics();
  Plan.TotalUnits = F.P.method(F.Main).machineSize() +
                    F.P.method(F.CF).machineSize() +
                    F.P.method(F.H).machineSize();
  return F;
}

/// Fusion down to baseline code, so physical frames carry a fused-handler
/// map and the test sees that inlined frames never do.
CostModel fusedModel() {
  CostModel Model;
  Model.Fuse.Enabled = true;
  Model.Fuse.MinLevel = 0;
  return Model;
}

/// Installs \p F's plan and runs main one instruction at a time under the
/// fused model, calling \p OnEntry(VM, Thread, SlabTopBefore) after each
/// step that pushed a frame.
template <typename Fn>
void stepThroughCalls(FrameEntryProgram &F, Fn OnEntry) {
  VirtualMachine VM(F.P, fusedModel());
  auto V = std::make_unique<CodeVariant>();
  V->M = F.Main;
  V->Level = OptLevel::Opt2;
  V->MachineUnits = F.Plan.TotalUnits;
  V->Plan = std::move(F.Plan);
  F.MainCode = VM.codeManager().install(std::move(V));
  ThreadState &T = *VM.threads()[VM.addThread(F.Main)];
  while (!T.Finished) {
    const size_t Depth = T.Frames.size();
    const uint32_t SlabTopBefore = T.SlabTop;
    VM.step(T, 1);
    if (T.Frames.size() == Depth + 1)
      OnEntry(VM, T, SlabTopBefore);
  }
}

} // namespace

TEST(FrameEntryTest, EveryFieldIsWrittenFromTheCallSite) {
  FrameEntryProgram F = frameEntryProgram();
  audit::Scope Audited;
  std::map<MethodId, unsigned> Entered;
  bool CheckedRoot = false;
  stepThroughCalls(F, [&](VirtualMachine &VM, ThreadState &T,
                          uint32_t SlabTopBefore) {
    if (!CheckedRoot) {
      const Frame &Root = T.Frames.front();
      EXPECT_EQ(Root.Method, F.Main);
      EXPECT_EQ(Root.Variant, F.MainCode);
      EXPECT_EQ(Root.PlanNode, &F.MainCode->Plan.Root);
      EXPECT_FALSE(Root.Inlined);
      EXPECT_EQ(Root.LocalsBase, 0u);
      EXPECT_EQ(Root.StackBase, F.P.method(F.Main).NumLocals);
      CheckedRoot = true;
    }
    const Frame &Fr = T.Frames.back();
    const Method &M = F.P.method(Fr.Method);
    SCOPED_TRACE(F.P.qualifiedName(Fr.Method));
    ASSERT_TRUE(Fr.Method == F.AF || Fr.Method == F.CF || Fr.Method == F.G ||
                Fr.Method == F.H);
    // C.f is guard-inlined and h inlined unguarded into main's opt2 code;
    // A.f (the guard's fallback) and g run physically on baseline code.
    const bool Inlined = Fr.Method == F.CF || Fr.Method == F.H;
    const CodeVariant *Code =
        Inlined ? F.MainCode : VM.codeManager().current(Fr.Method);
    ASSERT_NE(Code, nullptr);
    EXPECT_EQ(Fr.PC, 0u);
    EXPECT_EQ(Fr.Variant, Code);
    EXPECT_EQ(Fr.PlanNode, Fr.Method == F.H ? F.HBody : nullptr);
    EXPECT_EQ(Fr.Body, M.Body.data());
    EXPECT_EQ(Fr.Cost, VM.frameCostTable(Fr.Method, Code->Level, Inlined));
    ASSERT_NE(Fr.Hot, nullptr);
    EXPECT_EQ(Fr.Hot->Body, M.Body.data());
    EXPECT_EQ(Fr.LocalsBase, SlabTopBefore - M.numArgSlots());
    EXPECT_EQ(Fr.StackBase, Fr.LocalsBase + M.NumLocals);
    EXPECT_EQ(T.SlabTop, Fr.StackBase);
    EXPECT_EQ(Fr.Inlined, Inlined);
    if (Inlined) {
      EXPECT_EQ(Fr.Fuse, nullptr);
    } else {
      EXPECT_NE(Fr.Fuse, nullptr);
      EXPECT_EQ(Fr.Fuse, Code->Fused.get());
    }
    EXPECT_FALSE(Fr.OsrEntered);
    EXPECT_EQ(Fr.OsrEnterCycle, 0u);
    EXPECT_EQ(Fr.OsrFromLevel, OptLevel::Baseline);
    // Arguments arrive in place; every other local starts at zero.
    ASSERT_GE(M.NumLocals, M.numArgSlots() + 4);
    for (unsigned S = M.numArgSlots(); S != M.NumLocals; ++S)
      EXPECT_TRUE(T.Slab[Fr.LocalsBase + S].equals(Value::makeInt(0)))
          << "local " << S;
    EXPECT_NO_THROW(VM.auditState("frame-entry"));
    ++Entered[Fr.Method];
  });
  EXPECT_TRUE(CheckedRoot);
  EXPECT_EQ(Entered[F.CF], 2u) << "odd iterations pass the guard";
  EXPECT_EQ(Entered[F.AF], 2u) << "even iterations take the fallback";
  EXPECT_EQ(Entered[F.G], 4u);
  EXPECT_EQ(Entered[F.H], 4u);
}

TEST(FrameEntryTest, AuditCatchesAWrongCostTableOrSlabWindow) {
  FrameEntryProgram F = frameEntryProgram();
  audit::Scope Audited;
  bool Checked = false;
  stepThroughCalls(F, [&](VirtualMachine &VM, ThreadState &T, uint32_t) {
    if (Checked || T.Frames.back().Method != F.G)
      return;
    Checked = true;
    ASSERT_EQ(T.Frames.size(), 2u);
    Frame &Caller = T.Frames.front();
    Frame &Top = T.Frames.back();
    EXPECT_NO_THROW(VM.auditState("unit"));
    auto expectCaught = [&](const char *What, auto &Field, auto Bad) {
      const auto Good = Field;
      Field = Bad;
      EXPECT_THROW(VM.auditState("unit"), audit::AuditError) << What;
      Field = Good;
    };
    expectCaught("inlined cost table on a physical frame", Top.Cost,
                 VM.frameCostTable(F.G, Top.Variant->Level, true));
    expectCaught("another level's cost table", Top.Cost,
                 VM.frameCostTable(F.G, OptLevel::Opt2, false));
    expectCaught("locals above the stack base", Top.LocalsBase,
                 Top.StackBase + 1);
    expectCaught("top window above the slab top", Top.StackBase,
                 T.SlabTop + 1);
    expectCaught("caller window over the callee's locals", Caller.StackBase,
                 Top.LocalsBase + 1);
    EXPECT_NO_THROW(VM.auditState("unit"));
  });
  EXPECT_TRUE(Checked);
}
