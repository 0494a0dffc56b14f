//===- workload/Jack.cpp - The jack workload --------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPECjvm98 _228_jack (a parser generator). Behavioural
/// signature: a token-driven recursive-descent parser. The lexer's
/// parameterless nextToken() is called from every production — the
/// Parameterless policy's natural stop point — and the shared
/// Parser.dispatch() helper holds a handler.handle() site whose receiver
/// is fully determined by which production called it (4 handler classes,
/// skewed by production frequency).
///
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "bytecode/ProgramBuilder.h"
#include "workload/WorkloadCommon.h"

using namespace aoci;

Workload aoci::makeJack(WorkloadParams Params) {
  Rng R(Params.Seed ^ 0x7ACCULL);
  ProgramBuilder B;

  // Lexer with a parameterless token reader.
  ClassId Lexer = B.addClass("Lexer", InvalidClassId, 2); // pos, mode
  MethodId NextToken = B.declareMethod(Lexer, "nextToken",
                                       MethodKind::Virtual, 0, true, true);
  {
    CodeEmitter E = B.code(NextToken);
    E.load(0).load(0).getField(0).iconst(1).iadd().putField(0);
    E.load(0).getField(0).iconst(11).imul().iconst(0xFF).iand();
    E.work(4);
    E.vreturn();
    E.finish();
  }

  // Handler hierarchy: four handle(token) implementations.
  ClassId Handler = B.addAbstractClass("TokenHandler", InvalidClassId, 1);
  MethodId Handle = B.declareAbstractMethod(Handler, "handle",
                                            MethodKind::Virtual, 1, true);
  const char *HandlerNames[4] = {"RuleHandler", "AltHandler", "TermHandler",
                                 "ActionHandler"};
  const int64_t HandlerWork[4] = {10, 8, 5, 13};
  ClassId HandlerClasses[4];
  for (unsigned I = 0; I != 4; ++I) {
    HandlerClasses[I] = B.addClass(HandlerNames[I], Handler);
    MethodId M = B.addOverride(HandlerClasses[I], Handle);
    CodeEmitter E = B.code(M);
    E.load(1).load(0).getField(0).ixor();
    E.work(HandlerWork[I]);
    E.vreturn();
    E.finish();
  }

  // Parser: lexer + one handler instance per production.
  // Fields: 0=lexer 1..4=handlers
  ClassId Parser = B.addClass("Parser", InvalidClassId, 5);
  // dispatch(handler, token): the shared helper with THE handle() site.
  MethodId Dispatch =
      B.declareMethod(Parser, "dispatch", MethodKind::Virtual, 2, true);
  {
    CodeEmitter E = B.code(Dispatch);
    E.work(15);
    E.load(1).load(2).invokeVirtual(Handle);
    E.vreturn();
    E.finish();
  }
  // parseTerm: leaf production — token + term handler.
  MethodId ParseTerm =
      B.declareMethod(Parser, "parseTerm", MethodKind::Virtual, 0, true);
  {
    // Locals: 0=this 1=tok
    CodeEmitter E = B.code(ParseTerm);
    E.work(66); // token-stream bookkeeping outside the dispatch path
    E.load(0).getField(0).invokeVirtual(NextToken).store(1);
    E.load(0).load(0).getField(3).load(1).invokeVirtual(Dispatch);
    E.vreturn();
    E.finish();
  }
  // parseAlternative: two terms + alt handler.
  MethodId ParseAlt =
      B.declareMethod(Parser, "parseAlternative", MethodKind::Virtual, 0,
                      true);
  {
    CodeEmitter E = B.code(ParseAlt);
    E.work(58); // alternative bookkeeping outside the dispatch path
    E.load(0).invokeVirtual(ParseTerm).store(1);
    E.load(0).invokeVirtual(ParseTerm).load(1).iadd().store(1);
    E.load(0).getField(0).invokeVirtual(NextToken).store(2);
    E.load(0).load(0).getField(2).load(2).invokeVirtual(Dispatch);
    E.load(1).iadd();
    E.vreturn();
    E.finish();
  }
  // parseRule: alternatives + rule handler, occasionally an action.
  MethodId ParseRule =
      B.declareMethod(Parser, "parseRule", MethodKind::Virtual, 0, true);
  {
    // Locals: 0=this 1=acc 2=tok
    CodeEmitter E = B.code(ParseRule);
    auto SkipAction = E.newLabel();
    E.load(0).invokeVirtual(ParseAlt).store(1);
    E.load(0).getField(0).invokeVirtual(NextToken).store(2);
    E.load(0).load(0).getField(1).load(2).invokeVirtual(Dispatch);
    E.load(1).iadd().store(1);
    // Every 4th token triggers the action handler.
    E.load(2).iconst(3).iand().ifNonZero(SkipAction);
    E.load(0).load(0).getField(4).load(2).invokeVirtual(Dispatch);
    E.load(1).iadd().store(1);
    E.bind(SkipAction);
    E.load(1).vreturn();
    E.finish();
  }

  MethodId ColdInit = addColdLibrary(
      B, R, ColdLibrarySpec{82, 8, 32, 0.5, 0.35}, "Jk");

  ClassId MainK = B.addClass("JackMain");
  MethodId Main = B.declareMethod(MainK, "main", MethodKind::Static, 0, true);
  {
    // Locals: 0=parser 1=loop 2=acc
    const int64_t Rules = scaledCount(36000, Params.Scale);
    CodeEmitter E = B.code(Main);
    E.invokeStatic(ColdInit);
    E.newObject(Parser).store(0);
    E.load(0).newObject(Lexer).putField(0);
    for (unsigned I = 0; I != 4; ++I)
      E.load(0).newObject(HandlerClasses[I]).putField(I + 1);
    E.iconst(0).store(2);
    emitCountedLoop(E, 1, Rules, [&](CodeEmitter &L) {
      L.load(0).invokeVirtual(ParseRule);
      L.load(2).iadd().store(2);
    });
    E.load(2).vreturn();
    E.finish();
  }
  B.setEntry(Main);

  Workload W;
  W.Name = "jack";
  W.Description = "Parser-generator stand-in: parameterless lexing and "
                  "production-determined handler dispatch";
  W.Prog = B.build();
  W.Entries = {Main};
  return W;
}
