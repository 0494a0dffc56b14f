//===- workload/Jess.cpp - The jess workload --------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPECjvm98 _202_jess (an expert-system shell). Behavioural
/// signature: many small virtual methods on a Rete-style node hierarchy,
/// dispatched through shared helpers whose receiver is determined by the
/// *caller*:
///
///  - Engine.fire(node, token) holds an eval() site that is 50/50
///    between PatternNode and JoinNode context-insensitively (so both
///    targets get guard-inlined everywhere) but monomorphic per calling
///    context — context sensitivity halves the inlined code and drops a
///    guard test per dispatch;
///  - Memory.lookup(key) holds a 2-way code() site with the same shape;
///  - the terminal/negation node types flow through a rarely executed
///    path, keeping the hot profile two-way.
///
/// The dominance of 50/50 sites gives jess its paper personality: code
/// size decreases in almost every configuration with small speedups.
///
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "bytecode/ProgramBuilder.h"
#include "workload/WorkloadCommon.h"

using namespace aoci;

Workload aoci::makeJess(WorkloadParams Params) {
  Rng R(Params.Seed ^ 0x1E55ULL);
  ProgramBuilder B;

  // Token: (kind, value) with tiny final accessors.
  ClassId Token = B.addClass("Token", InvalidClassId, 2);
  MethodId GetKind =
      B.declareMethod(Token, "getKind", MethodKind::Virtual, 0, true, true);
  {
    CodeEmitter E = B.code(GetKind);
    E.load(0).getField(0).vreturn();
    E.finish();
  }
  MethodId GetValue =
      B.declareMethod(Token, "getValue", MethodKind::Virtual, 0, true, true);
  {
    CodeEmitter E = B.code(GetValue);
    E.load(0).getField(1).vreturn();
    E.finish();
  }

  // Node hierarchy: four small eval() implementations.
  ClassId Node = B.addAbstractClass("Node", InvalidClassId, 1); // weight
  MethodId Eval =
      B.declareAbstractMethod(Node, "eval", MethodKind::Virtual, 1, true);
  auto addNode = [&](const char *Name, int64_t WorkUnits,
                     ClassId &K) -> MethodId {
    K = B.addClass(Name, Node);
    MethodId M = B.addOverride(K, Eval);
    CodeEmitter E = B.code(M);
    E.load(1).invokeVirtual(GetValue);
    E.work(WorkUnits);
    E.load(0).getField(0).iadd();
    E.vreturn();
    E.finish();
    return M;
  };
  ClassId PatternK, JoinK, TermK, NegK;
  addNode("PatternNode", 8, PatternK);
  addNode("JoinNode", 11, JoinK);
  addNode("TerminalNode", 5, TermK);
  addNode("NegNode", 9, NegK);

  // Key hierarchy: the HashMap motif, two code() implementations.
  ClassId Key = B.addAbstractClass("Key", InvalidClassId, 1);
  MethodId Code =
      B.declareAbstractMethod(Key, "code", MethodKind::Virtual, 0, true);
  ClassId FactKey = B.addClass("FactKey", Key);
  MethodId FactCode = B.addOverride(FactKey, Code);
  {
    CodeEmitter E = B.code(FactCode);
    E.load(0).getField(0).iconst(3).imul().vreturn();
    E.finish();
  }
  ClassId BindKey = B.addClass("BindKey", Key);
  MethodId BindCode = B.addOverride(BindKey, Code);
  {
    CodeEmitter E = B.code(BindCode);
    E.load(0).getField(0).iconst(7).ixor().vreturn();
    E.finish();
  }

  // Memory: alpha-memory table with a medium lookup(key) containing the
  // 2-way code() site.
  ClassId Memory = B.addClass("Memory", InvalidClassId, 1); // slots array
  MethodId MemInit =
      B.declareMethod(Memory, "<init>", MethodKind::Special, 1, false);
  {
    CodeEmitter E = B.code(MemInit);
    E.load(0).load(1).newArray().putField(0).ret();
    E.finish();
  }
  MethodId Lookup =
      B.declareMethod(Memory, "lookup", MethodKind::Virtual, 1, true);
  {
    // Locals: 0=this 1=key 2=h 3=old
    CodeEmitter E = B.code(Lookup);
    E.load(1).invokeVirtual(Code).iconst(0x3FF).iand();
    E.load(0).getField(0).arrayLength().irem().store(2);
    E.load(0).getField(0).load(2).arrayLoad().store(3);
    E.load(0).getField(0).load(2);
    E.load(3).iconst(1).iadd();
    E.arrayStore();
    E.work(9);
    E.load(3).vreturn();
    E.finish();
  }

  // Engine: nodes, memory, and the shared fire() helper with the 4-way
  // eval() site.
  // Fields: 0=pattern 1=join 2=terminal 3=neg 4=memory
  ClassId Engine = B.addClass("Engine", InvalidClassId, 5);
  MethodId Fire =
      B.declareMethod(Engine, "fire", MethodKind::Virtual, 2, true);
  {
    // fire(node, token): bookkeeping + node.eval(token)
    // Locals: 0=this 1=node 2=token 3=acc
    CodeEmitter E = B.code(Fire);
    E.load(2).invokeVirtual(GetKind).store(3);
    E.work(26);
    E.load(1).load(2).invokeVirtual(Eval);
    E.load(3).iadd();
    E.vreturn();
    E.finish();
  }
  // fireRare(token): the terminal/negation path, reached on a small
  // fraction of tokens so it never dominates the profile.
  MethodId FireRare =
      B.declareMethod(Engine, "fireRare", MethodKind::Virtual, 1, true);
  {
    // Locals: 0=this 1=token
    CodeEmitter E = B.code(FireRare);
    E.load(0).getField(2).load(1).invokeVirtual(Eval);
    E.load(0).getField(3).load(1).invokeVirtual(Eval);
    E.iadd().work(12);
    E.vreturn();
    E.finish();
  }
  // assertFact(token, key): fire the pattern network; lookup by FactKey;
  // on every 16th token, run the rare terminal/negation path.
  MethodId AssertFact =
      B.declareMethod(Engine, "assertFact", MethodKind::Virtual, 2, true);
  {
    // Locals: 0=this 1=token 2=factKey 3=acc
    CodeEmitter E = B.code(AssertFact);
    auto SkipRare = E.newLabel();
    E.load(0).load(0).getField(0).load(1).invokeVirtual(Fire).store(3);
    E.load(0).getField(4).load(2).invokeVirtual(Lookup);
    E.load(3).iadd().store(3);
    E.load(1).invokeVirtual(GetValue).iconst(15).iand().ifNonZero(SkipRare);
    E.load(0).load(1).invokeVirtual(FireRare);
    E.load(3).iadd().store(3);
    E.bind(SkipRare);
    E.load(3).vreturn();
    E.finish();
  }
  // retractFact(token, key): fire the join network; lookup by BindKey.
  MethodId RetractFact =
      B.declareMethod(Engine, "retractFact", MethodKind::Virtual, 2, true);
  {
    CodeEmitter E = B.code(RetractFact);
    E.load(0).load(0).getField(1).load(1).invokeVirtual(Fire).store(3);
    E.load(0).getField(4).load(2).invokeVirtual(Lookup);
    E.load(3).iadd();
    E.vreturn();
    E.finish();
  }

  MethodId ColdInit = addColdLibrary(
      B, R, ColdLibrarySpec{168, 6, 28, 0.45, 0.3}, "Rete");

  ClassId MainK = B.addClass("JessMain");
  MethodId Main = B.declareMethod(MainK, "main", MethodKind::Static, 0, true);
  {
    // Locals: 0=engine 1=token 2=factKey 3=bindKey 4=loop 5=acc 6=tmp
    const int64_t Cycles = scaledCount(56000, Params.Scale);
    CodeEmitter E = B.code(Main);
    E.invokeStatic(ColdInit);
    E.newObject(Engine).store(0);
    E.load(0).newObject(PatternK).putField(0);
    E.load(0).newObject(JoinK).putField(1);
    E.load(0).newObject(TermK).putField(2);
    E.load(0).newObject(NegK).putField(3);
    E.newObject(Memory).store(6);
    E.load(6).iconst(64).invokeSpecial(MemInit);
    E.load(0).load(6).putField(4);
    E.newObject(FactKey).store(2);
    E.load(2).iconst(17).putField(0);
    E.newObject(BindKey).store(3);
    E.load(3).iconst(29).putField(0);
    E.iconst(0).store(5);
    emitCountedLoop(E, 4, Cycles, [&](CodeEmitter &L) {
      // Fresh token each cycle (allocation pressure, like jess).
      L.newObject(Token).store(1);
      L.load(1).load(4).iconst(3).irem().putField(0);
      L.load(1).load(4).putField(1);
      L.load(0).load(1).load(2).invokeVirtual(AssertFact);
      L.load(5).iadd().store(5);
      L.load(0).load(1).load(3).invokeVirtual(RetractFact);
      L.load(5).iadd().store(5);
    });
    E.load(5).vreturn();
    E.finish();
  }
  B.setEntry(Main);

  Workload W;
  W.Name = "jess";
  W.Description = "Expert-system shell stand-in: context-determined node "
                  "dispatch through shared helpers";
  W.Prog = B.build();
  W.Entries = {Main};
  return W;
}
