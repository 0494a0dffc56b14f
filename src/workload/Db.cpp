//===- workload/Db.cpp - The db workload ------------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPECjvm98 _209_db (memory-resident database). Behavioural
/// signature: comparator polymorphism. Database.compareAndMaybeSwap()
/// holds the compare() call site; four comparator classes each account
/// for ~25% of its receivers context-insensitively — below the
/// guard-inlining share floor, so the cins system leaves the site as a
/// full dynamic dispatch. Each sortBy* driver is monomorphic in context,
/// so context-sensitive profiles unlock guard inlining: *more* optimized
/// code but faster execution, the paper's observation that db's
/// "performance improvements were grouped with code size increases".
///
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "bytecode/ProgramBuilder.h"
#include "workload/WorkloadCommon.h"

using namespace aoci;

Workload aoci::makeDb(WorkloadParams Params) {
  Rng R(Params.Seed ^ 0xDBDBULL);
  ProgramBuilder B;

  // Record: name, age, id, city (as ints), with tiny final accessors.
  ClassId Record = B.addClass("Record", InvalidClassId, 4);
  MethodId Accessors[4];
  const char *AccessorNames[4] = {"getName", "getAge", "getId", "getCity"};
  for (unsigned I = 0; I != 4; ++I) {
    Accessors[I] = B.declareMethod(Record, AccessorNames[I],
                                   MethodKind::Virtual, 0, true, true);
    CodeEmitter E = B.code(Accessors[I]);
    E.load(0).getField(I).vreturn();
    E.finish();
  }

  // Comparator hierarchy: four small compare(a, b) implementations.
  ClassId Comparator = B.addAbstractClass("Comparator");
  MethodId Compare = B.declareAbstractMethod(Comparator, "compare",
                                             MethodKind::Virtual, 2, true);
  MethodId CompareImpls[4];
  const char *CmpNames[4] = {"NameComparator", "AgeComparator",
                             "IdComparator", "CityComparator"};
  for (unsigned I = 0; I != 4; ++I) {
    ClassId K = B.addClass(CmpNames[I], Comparator);
    CompareImpls[I] = B.addOverride(K, Compare);
    CodeEmitter E = B.code(CompareImpls[I]);
    E.load(1).invokeVirtual(Accessors[I]);
    E.load(2).invokeVirtual(Accessors[I]);
    E.isub();
    E.work(10); // collation beyond the key subtraction
    E.vreturn();
    E.finish();
  }

  // Database: records plus one comparator instance per sort order.
  // compareAndMaybeSwap(i, cmp) is the hot per-comparison helper holding
  // THE compare site; the sortBy* drivers hold the bubble loop and are
  // each monomorphic in the comparator they pass down.
  // Fields: 0=records 1..4=comparators
  ClassId Database = B.addClass("Database", InvalidClassId, 5);
  MethodId CompareAt = B.declareMethod(Database, "compareAndMaybeSwap",
                                       MethodKind::Virtual, 2, true);
  {
    // Locals: 0=this 1=i 2=cmp 3=a 4=b
    CodeEmitter E = B.code(CompareAt);
    auto NoSwap = E.newLabel();
    E.load(0).getField(0).load(1).iconst(1).isub().arrayLoad().store(3);
    E.load(0).getField(0).load(1).arrayLoad().store(4);
    E.load(2).load(3).load(4).invokeVirtual(Compare);
    E.iconst(0).icmpLe().ifNonZero(NoSwap);
    E.load(0).getField(0).load(1).iconst(1).isub().load(4).arrayStore();
    E.load(0).getField(0).load(1).load(3).arrayStore();
    E.iconst(1).vreturn();
    E.bind(NoSwap);
    E.iconst(0).vreturn();
    E.finish();
  }
  MethodId SortBy[4];
  const char *SortNames[4] = {"sortByName", "sortByAge", "sortById",
                              "sortByCity"};
  for (unsigned I = 0; I != 4; ++I) {
    SortBy[I] =
        B.declareMethod(Database, SortNames[I], MethodKind::Virtual, 1, true);
    // Locals: 0=this 1=passes 2=pass 3=acc 4=i
    CodeEmitter E = B.code(SortBy[I]);
    E.iconst(0).store(3);
    auto PassTop = E.newLabel();
    auto PassExit = E.newLabel();
    E.load(1).store(2);
    E.bind(PassTop);
    E.load(2).ifZero(PassExit);
    {
      auto Top = E.newLabel();
      auto Exit = E.newLabel();
      E.iconst(1).store(4);
      E.bind(Top);
      E.load(4).load(0).getField(0).arrayLength().icmpGe().ifNonZero(Exit);
      E.load(0).load(4).load(0).getField(I + 1).invokeVirtual(CompareAt);
      E.load(3).iadd().store(3);
      E.work(52); // index/statistics maintenance per element
      E.load(4).iconst(1).iadd().store(4);
      E.jump(Top);
      E.bind(Exit);
    }
    E.load(2).iconst(1).isub().store(2);
    E.jump(PassTop);
    E.bind(PassExit);
    E.work(18); // post-sort index maintenance
    E.load(3).vreturn();
    E.finish();
  }

  MethodId ColdInit = addColdLibrary(
      B, R, ColdLibrarySpec{32, 13, 30, 0.5, 0.25}, "DbLib");

  ClassId MainK = B.addClass("DbMain");
  MethodId Main = B.declareMethod(MainK, "main", MethodKind::Static, 0, true);
  {
    // Locals: 0=db 1=records 2=loop 3=acc 4=rec 5=i
    const int64_t Rounds = scaledCount(700, Params.Scale);
    const int64_t NumRecords = 48;
    CodeEmitter E = B.code(Main);
    E.invokeStatic(ColdInit);
    E.newObject(Database).store(0);
    E.iconst(NumRecords).newArray().store(1);
    E.load(0).load(1).putField(0);
    // Populate records with pseudo-random fields.
    emitCountedLoop(E, 5, NumRecords, [&](CodeEmitter &L) {
      L.newObject(Record).store(4);
      L.load(4).load(5).iconst(37).imul().iconst(101).irem().putField(0);
      L.load(4).load(5).iconst(13).imul().iconst(89).irem().putField(1);
      L.load(4).load(5).putField(2);
      L.load(4).load(5).iconst(7).imul().iconst(31).irem().putField(3);
      L.load(1).load(5).iconst(1).isub().load(4).arrayStore();
    });
    // Attach the comparators.
    for (unsigned I = 0; I != 4; ++I) {
      ClassId CmpClass = B.program().method(CompareImpls[I]).Owner;
      E.load(0).newObject(CmpClass).putField(I + 1);
    }
    E.iconst(0).store(3);
    emitCountedLoop(E, 2, Rounds, [&](CodeEmitter &L) {
      for (unsigned I = 0; I != 4; ++I) {
        L.load(0).iconst(3).invokeVirtual(SortBy[I]);
        L.load(3).iadd().store(3);
      }
    });
    E.load(3).vreturn();
    E.finish();
  }
  B.setEntry(Main);

  Workload W;
  W.Name = "db";
  W.Description = "In-memory database stand-in: 4-way comparator "
                  "polymorphism resolved only by calling context";
  W.Prog = B.build();
  W.Entries = {Main};
  return W;
}
