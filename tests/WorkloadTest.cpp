//===- tests/WorkloadTest.cpp - Unit tests for src/workload -----------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "bytecode/SizeClass.h"
#include "bytecode/Verifier.h"
#include "core/AdaptiveSystem.h"
#include "vm/VirtualMachine.h"
#include "workload/FigureOne.h"
#include "workload/Workload.h"
#include "workload/WorkloadCommon.h"
#include "workload/scenario/ScenarioSpec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

using namespace aoci;

namespace {

WorkloadParams tinyParams() {
  WorkloadParams P;
  P.Seed = 7;
  P.Scale = 0.02; // Just enough to run the kernel, fast.
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Every workload: structural sanity
//===----------------------------------------------------------------------===//

class AllWorkloadsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllWorkloadsTest, VerifiesCleanly) {
  Workload W = makeWorkload(GetParam(), tinyParams());
  EXPECT_EQ(W.Name, GetParam());
  auto Errors = verifyProgram(W.Prog);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  EXPECT_FALSE(W.Entries.empty());
}

TEST_P(AllWorkloadsTest, RunsToCompletionWithoutAos) {
  Workload W = makeWorkload(GetParam(), tinyParams());
  VirtualMachine VM(W.Prog);
  for (MethodId Entry : W.Entries)
    VM.addThread(Entry);
  VM.run(/*CycleLimit=*/2'000'000'000ULL);
  for (const auto &T : VM.threads())
    EXPECT_TRUE(T->Finished) << "thread did not finish";
  EXPECT_GT(VM.counters().InstructionsExecuted, 1000u);
}

TEST_P(AllWorkloadsTest, DeterministicAcrossRuns) {
  auto runOnce = [&]() {
    Workload W = makeWorkload(GetParam(), tinyParams());
    VirtualMachine VM(W.Prog);
    for (MethodId Entry : W.Entries)
      VM.addThread(Entry);
    VM.run();
    return std::pair<uint64_t, int64_t>(
        VM.cycles(), VM.threads().front()->Result.asInt());
  };
  auto A = runOnce();
  auto B = runOnce();
  EXPECT_EQ(A.first, B.first);
  EXPECT_EQ(A.second, B.second);
}

TEST_P(AllWorkloadsTest, RunsUnderAdaptiveSystem) {
  WorkloadParams P = tinyParams();
  P.Scale = 0.15;
  Workload W = makeWorkload(GetParam(), P);

  // Reference result without any adaptation.
  int64_t Expected;
  {
    VirtualMachine VM(W.Prog);
    for (MethodId Entry : W.Entries)
      VM.addThread(Entry);
    VM.run();
    Expected = VM.threads().front()->Result.asInt();
  }

  // Same program under cins and under a context-sensitive policy:
  // semantics must be preserved by all the inlining.
  for (PolicyKind Kind :
       {PolicyKind::ContextInsensitive, PolicyKind::HybridParamLarge}) {
    VirtualMachine VM(W.Prog);
    auto Policy = makePolicy(Kind, 4);
    AdaptiveSystem Aos(VM, *Policy);
    Aos.attach();
    for (MethodId Entry : W.Entries)
      VM.addThread(Entry);
    VM.run();
    EXPECT_EQ(VM.threads().front()->Result.asInt(), Expected)
        << W.Name << " under " << policyKindName(Kind);
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, AllWorkloadsTest,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &Info) {
                           std::string Name = Info.param;
                           for (char &C : Name)
                             if (!isalnum(static_cast<unsigned char>(C)))
                               C = '_';
                           return Name;
                         });

//===----------------------------------------------------------------------===//
// Structural signatures per workload
//===----------------------------------------------------------------------===//

TEST(WorkloadShapeTest, TableOneOrderingOfProgramSizes) {
  // Table 1's relative ordering: jbb is the biggest program, db/compress
  // among the smallest, javac has the most bytecodes of SPECjvm98.
  WorkloadParams P = tinyParams();
  auto Count = [&](const std::string &Name) {
    Workload W = makeWorkload(Name, P);
    return std::tuple<unsigned, unsigned, uint64_t>(
        W.Prog.numClasses(), W.Prog.numMethods(), W.Prog.totalBytecodes());
  };
  auto [JbbC, JbbM, JbbB] = Count("SPECjbb2000");
  auto [DbC, DbM, DbB] = Count("db");
  auto [JavacC, JavacM, JavacB] = Count("javac");
  auto [CompressC, CompressM, CompressB] = Count("compress");
  EXPECT_GT(JbbM, JavacM);
  EXPECT_GT(JavacB, CompressB);
  EXPECT_GT(JavacC, DbC);
  EXPECT_GT(JbbB, DbB);
  EXPECT_LT(DbC, 60u);
  EXPECT_GT(JavacC, 150u);
  (void)JbbC;
  (void)DbM;
  (void)JavacB;
  (void)CompressC;
  (void)CompressM;
}

TEST(WorkloadShapeTest, JavacHasLargeMethodsInTheChain) {
  Workload W = makeWorkload("javac", tinyParams());
  MethodId Unit = W.Prog.findMethod("Parser.compileUnit");
  MethodId Expr = W.Prog.findMethod("Parser.parseExpr");
  MethodId Factor = W.Prog.findMethod("Parser.parseFactor");
  ASSERT_NE(Unit, InvalidMethodId);
  ASSERT_NE(Expr, InvalidMethodId);
  ASSERT_NE(Factor, InvalidMethodId);
  EXPECT_EQ(classifyMethod(W.Prog.method(Unit)), SizeClass::Large);
  EXPECT_EQ(classifyMethod(W.Prog.method(Expr)), SizeClass::Large);
  EXPECT_NE(classifyMethod(W.Prog.method(Factor)), SizeClass::Large);
}

TEST(WorkloadShapeTest, JackLexerIsParameterless) {
  Workload W = makeWorkload("jack", tinyParams());
  MethodId Next = W.Prog.findMethod("Lexer.nextToken");
  ASSERT_NE(Next, InvalidMethodId);
  EXPECT_TRUE(W.Prog.method(Next).isParameterless());
  EXPECT_TRUE(W.Prog.method(Next).hasReceiver());
}

TEST(WorkloadShapeTest, MtrtHasTwoThreads) {
  Workload W = makeWorkload("mtrt", tinyParams());
  EXPECT_EQ(W.Entries.size(), 2u);
}

TEST(WorkloadShapeTest, DbComparatorSiteIsFourWayPolymorphic) {
  Workload W = makeWorkload("db", tinyParams());
  ClassHierarchy CH(W.Prog);
  MethodId Compare = InvalidMethodId;
  for (MethodId M = 0; M != W.Prog.numMethods(); ++M) {
    const Method &Meth = W.Prog.method(M);
    if (Meth.Name == "compare" && Meth.IsAbstract)
      Compare = M;
  }
  ASSERT_NE(Compare, InvalidMethodId);
  EXPECT_EQ(CH.implementations(Compare).size(), 4u);
}

TEST(WorkloadShapeTest, ScaleControlsRunLength) {
  WorkloadParams Small = tinyParams();
  WorkloadParams Big = tinyParams();
  Big.Scale = 0.08;
  auto CyclesFor = [](const WorkloadParams &P) {
    Workload W = makeWorkload("compress", P);
    VirtualMachine VM(W.Prog);
    for (MethodId Entry : W.Entries)
      VM.addThread(Entry);
    VM.run();
    return VM.cycles();
  };
  EXPECT_GT(CyclesFor(Big), CyclesFor(Small) * 2);
}

TEST(WorkloadShapeTest, ScaledCountTruncatesRoundsAndRejectsOverflow) {
  EXPECT_EQ(scaledCount(2400, 0.05), static_cast<int64_t>(2400 * 0.05));
  EXPECT_EQ(scaledCount(10, 0.25), 2);
  EXPECT_EQ(scaledCount(10, 0.25, CountRounding::Nearest), 3);
  EXPECT_EQ(scaledCount(0x1p62, 1.0), int64_t{1} << 62);
  EXPECT_THROW(scaledCount(0x1p63, 1.0), std::invalid_argument);
  EXPECT_THROW(scaledCount(2400, 1e17), std::invalid_argument);
  EXPECT_THROW(scaledCount(2400, std::nan("")), std::invalid_argument);
}

TEST(WorkloadShapeTest, OverflowingScaleIsRejectedForEveryWorkload) {
  std::vector<std::string> Names = workloadNames();
  Names.insert(Names.end(), scenarioNames().begin(), scenarioNames().end());
  for (const std::string &Name : Names) {
    for (double Scale : {1e300, std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
      WorkloadParams P = tinyParams();
      P.Scale = Scale;
      EXPECT_THROW(makeWorkload(Name, P), std::invalid_argument)
          << Name << " at scale " << Scale;
    }
  }
}

//===----------------------------------------------------------------------===//
// Cold library
//===----------------------------------------------------------------------===//

TEST(ColdLibraryTest, GeneratesRequestedShape) {
  ProgramBuilder B;
  Rng R(3);
  ColdLibrarySpec Spec;
  Spec.NumClasses = 5;
  Spec.MethodsPerClass = 4;
  MethodId Init = addColdLibrary(B, R, Spec, "Lib");
  MethodId Main =
      B.declareMethod(B.program().method(Init).Owner, "main",
                      MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Main);
    E.invokeStatic(Init).ret();
    E.finish();
  }
  B.setEntry(Main);
  Program P = B.build();
  EXPECT_EQ(P.numClasses(), 5u);
  // 5 classes x (4 methods + driver) + init + main.
  EXPECT_EQ(P.numMethods(), 5u * 5u + 2u);
  EXPECT_TRUE(verifyProgram(P).empty());

  // Running it executes every generated method exactly once.
  VirtualMachine VM(P);
  VM.addThread(Main);
  VM.run();
  EXPECT_EQ(VM.codeManager().numCompiles(OptLevel::Baseline),
            P.numMethods());
}

TEST(ColdLibraryTest, DeterministicForEqualSeeds) {
  auto build = [] {
    ProgramBuilder B;
    Rng R(99);
    addColdLibrary(B, R, ColdLibrarySpec{8, 6, 24, 0.5, 0.25}, "X");
    return B.program().totalBytecodes();
  };
  EXPECT_EQ(build(), build());
}
