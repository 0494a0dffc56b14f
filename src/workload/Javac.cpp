//===- workload/Javac.cpp - The javac workload ------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPECjvm98 _213_javac (the JDK 1.0.2 compiler). Behavioural
/// signature: a deep recursive-descent call chain (compileUnit ->
/// parseDecl -> parseStmt -> parseExpr -> parseTerm -> parseFactor) with
/// *large* methods at two depths (compileUnit and parseExpr are above the
/// 25x-call never-inline threshold), plus a visitor-style typeOf()
/// dispatch over an expression hierarchy. The large methods give the
/// Large-Methods early-termination policy its stop points and keep the
/// inliner's budgets under pressure, which is where javac's code-size
/// behaviour in the paper comes from.
///
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "bytecode/ProgramBuilder.h"
#include "workload/WorkloadCommon.h"

using namespace aoci;

Workload aoci::makeJavac(WorkloadParams Params) {
  Rng R(Params.Seed ^ 0x7A3ACULL);
  ProgramBuilder B;

  // Expression hierarchy with a 3-way typeOf() dispatch.
  ClassId Expr = B.addAbstractClass("Expr", InvalidClassId, 1);
  MethodId TypeOf =
      B.declareAbstractMethod(Expr, "typeOf", MethodKind::Virtual, 1, true);
  MethodId TypeImpls[3];
  const char *ExprNames[3] = {"LiteralExpr", "BinaryExpr", "CallExpr"};
  ClassId ExprClasses[3];
  const int64_t TypeWork[3] = {4, 12, 16};
  for (unsigned I = 0; I != 3; ++I) {
    ExprClasses[I] = B.addClass(ExprNames[I], Expr);
    TypeImpls[I] = B.addOverride(ExprClasses[I], TypeOf);
    CodeEmitter E = B.code(TypeImpls[I]);
    E.load(0).getField(0).load(1).iadd();
    E.work(TypeWork[I]);
    E.vreturn();
    E.finish();
  }

  ClassId Checker = B.addClass("TypeChecker", InvalidClassId, 1);
  // check(expr, env): medium shared helper with the typeOf site.
  MethodId Check =
      B.declareMethod(Checker, "check", MethodKind::Virtual, 2, true);
  {
    CodeEmitter E = B.code(Check);
    E.work(22);
    E.load(1).load(2).invokeVirtual(TypeOf);
    E.load(0).getField(0).iadd();
    E.vreturn();
    E.finish();
  }

  // The recursive-descent parser chain. Fields: 0=pos 1=checker
  // 2..4 = pre-built expression nodes.
  ClassId Parser = B.addClass("Parser", InvalidClassId, 5);

  MethodId ParseFactor =
      B.declareMethod(Parser, "parseFactor", MethodKind::Virtual, 1, true);
  {
    // Small leaf: advance and fold.
    CodeEmitter E = B.code(ParseFactor);
    E.load(0).load(0).getField(0).iconst(1).iadd().putField(0);
    E.load(1).iconst(3).imul().work(4);
    E.vreturn();
    E.finish();
  }
  MethodId ParseTerm =
      B.declareMethod(Parser, "parseTerm", MethodKind::Virtual, 1, true);
  {
    // Small: two factor calls.
    CodeEmitter E = B.code(ParseTerm);
    E.load(0).load(1).invokeVirtual(ParseFactor);
    E.load(0).load(1).iconst(1).iadd().invokeVirtual(ParseFactor);
    E.iadd().vreturn();
    E.finish();
  }
  MethodId ParseExpr =
      B.declareMethod(Parser, "parseExpr", MethodKind::Virtual, 1, true);
  {
    // LARGE: heavy straight-line scanning plus term parsing and a
    // context-checked literal node.
    CodeEmitter E = B.code(ParseExpr);
    E.work(230);
    E.load(0).load(1).invokeVirtual(ParseTerm).store(2);
    E.load(0).getField(1).load(0).getField(2).load(1).invokeVirtual(Check);
    E.load(2).iadd();
    E.vreturn();
    E.finish();
  }
  MethodId ParseStmt =
      B.declareMethod(Parser, "parseStmt", MethodKind::Virtual, 1, true);
  {
    // Medium: expression plus a binary-node check.
    CodeEmitter E = B.code(ParseStmt);
    E.work(30);
    E.load(0).load(1).invokeVirtual(ParseExpr).store(2);
    E.load(0).getField(1).load(0).getField(3).load(1).invokeVirtual(Check);
    E.load(2).iadd();
    E.vreturn();
    E.finish();
  }
  MethodId ParseDecl =
      B.declareMethod(Parser, "parseDecl", MethodKind::Virtual, 1, true);
  {
    // Medium: two statements and a call-node check.
    CodeEmitter E = B.code(ParseDecl);
    E.work(24);
    E.load(0).load(1).invokeVirtual(ParseStmt).store(2);
    E.load(0).load(1).iconst(2).iadd().invokeVirtual(ParseStmt);
    E.load(2).iadd().store(2);
    E.load(0).getField(1).load(0).getField(4).load(1).invokeVirtual(Check);
    E.load(2).iadd();
    E.vreturn();
    E.finish();
  }
  MethodId CompileUnit =
      B.declareMethod(Parser, "compileUnit", MethodKind::Virtual, 1, true);
  {
    // LARGE driver: symbol table churn plus a handful of declarations.
    CodeEmitter E = B.code(CompileUnit);
    E.work(240);
    E.load(0).load(1).invokeVirtual(ParseDecl).store(2);
    E.load(0).load(1).iconst(7).iadd().invokeVirtual(ParseDecl);
    E.load(2).iadd();
    E.vreturn();
    E.finish();
  }

  MethodId ColdInit = addColdLibrary(
      B, R, ColdLibrarySpec{166, 8, 34, 0.45, 0.25}, "Jvc");

  ClassId MainK = B.addClass("JavacMain");
  MethodId Main = B.declareMethod(MainK, "main", MethodKind::Static, 0, true);
  {
    // Locals: 0=parser 1=loop 2=acc
    const int64_t Units = scaledCount(15000, Params.Scale);
    CodeEmitter E = B.code(Main);
    E.invokeStatic(ColdInit);
    E.newObject(Parser).store(0);
    E.load(0).newObject(Checker).putField(1);
    E.load(0).newObject(ExprClasses[0]).putField(2);
    E.load(0).newObject(ExprClasses[1]).putField(3);
    E.load(0).newObject(ExprClasses[2]).putField(4);
    E.iconst(0).store(2);
    emitCountedLoop(E, 1, Units, [&](CodeEmitter &L) {
      L.load(0).load(1).invokeVirtual(CompileUnit);
      L.load(2).iadd().store(2);
    });
    E.load(2).vreturn();
    E.finish();
  }
  B.setEntry(Main);

  Workload W;
  W.Name = "javac";
  W.Description = "Compiler stand-in: deep recursive-descent chains with "
                  "large methods and visitor-style type dispatch";
  W.Prog = B.build();
  W.Entries = {Main};
  return W;
}
