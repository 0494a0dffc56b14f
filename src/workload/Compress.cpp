//===- workload/Compress.cpp - The compress workload ------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPECjvm98 _201_compress (Lempel-Ziv compression).
/// Behavioural signature: tight monomorphic loops over byte buffers with
/// tiny final accessor methods, a small static hash helper, and a
/// medium-sized kernel method. Virtually no polymorphism, so
/// context-insensitive profiles are already precise; the paper sees
/// near-zero performance deltas here, with code-size/compile-time shifts
/// coming only from profile dilution.
///
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "bytecode/ProgramBuilder.h"
#include "workload/WorkloadCommon.h"

using namespace aoci;

Workload aoci::makeCompress(WorkloadParams Params) {
  Rng R(Params.Seed ^ 0xC0312E55ULL);
  ProgramBuilder B;

  // Buffer: backing array + cursor, with tiny final accessors.
  ClassId Buffer = B.addClass("Buffer", InvalidClassId, 2); // data, pos
  MethodId BufInit =
      B.declareMethod(Buffer, "<init>", MethodKind::Special, 1, false);
  {
    // this.data = new[n]; this.pos = 0
    CodeEmitter E = B.code(BufInit);
    E.load(0).load(1).newArray().putField(0);
    E.load(0).iconst(0).putField(1);
    E.ret();
    E.finish();
  }
  MethodId BufReset =
      B.declareMethod(Buffer, "reset", MethodKind::Virtual, 0, false, true);
  {
    CodeEmitter E = B.code(BufReset);
    E.load(0).iconst(0).putField(1).ret();
    E.finish();
  }
  MethodId BufGet = B.declareMethod(Buffer, "get", MethodKind::Virtual, 1,
                                    true, /*IsFinal=*/true);
  {
    // get(i) = data[i % data.length]
    CodeEmitter E = B.code(BufGet);
    E.load(0).getField(0);
    E.load(1).load(0).getField(0).arrayLength().irem();
    E.arrayLoad().vreturn();
    E.finish();
  }
  MethodId BufPut = B.declareMethod(Buffer, "put", MethodKind::Virtual, 1,
                                    true, /*IsFinal=*/true);
  {
    // put(v): data[pos % len] = v; pos += 1; return pos
    CodeEmitter E = B.code(BufPut);
    E.load(0).getField(0);
    E.load(0).getField(1).load(0).getField(0).arrayLength().irem();
    E.load(1).arrayStore();
    E.load(0).load(0).getField(1).iconst(1).iadd().putField(1);
    E.load(0).getField(1).vreturn();
    E.finish();
  }

  // Hash table of LZW codes.
  ClassId CodeTable = B.addClass("CodeTable", InvalidClassId, 1); // codes
  MethodId TabInit =
      B.declareMethod(CodeTable, "<init>", MethodKind::Special, 1, false);
  {
    CodeEmitter E = B.code(TabInit);
    E.load(0).load(1).newArray().putField(0).ret();
    E.finish();
  }
  // Tiny static hash of (code, byte).
  MethodId Hash =
      B.declareMethod(CodeTable, "hash", MethodKind::Static, 2, true);
  {
    CodeEmitter E = B.code(Hash);
    E.load(0).iconst(5).ishl().load(1).ixor().iconst(0x7FFF).iand();
    E.vreturn();
    E.finish();
  }
  // Small probe: codes[h % len] exchange.
  MethodId Probe =
      B.declareMethod(CodeTable, "probe", MethodKind::Virtual, 2, true);
  {
    // probe(h, code): old = codes[h%len]; codes[h%len] = code; return old
    CodeEmitter E = B.code(Probe);
    E.load(0).getField(0);
    E.load(1).load(0).getField(0).arrayLength().irem();
    E.arrayLoad().store(3);
    E.load(0).getField(0);
    E.load(1).load(0).getField(0).arrayLength().irem();
    E.load(2).arrayStore();
    E.load(3).vreturn();
    E.finish();
  }

  ClassId Compressor = B.addClass("Compressor", InvalidClassId, 1); // table
  MethodId CompInit =
      B.declareMethod(Compressor, "<init>", MethodKind::Special, 1, false);
  {
    CodeEmitter E = B.code(CompInit);
    E.load(0).load(1).putField(0).ret();
    E.finish();
  }
  // The medium-sized kernel: one LZW step per input position.
  // step(in, out, i): code = hash(prev, in.get(i)); old = table.probe(...)
  MethodId Step =
      B.declareMethod(Compressor, "step", MethodKind::Virtual, 3, true);
  {
    // Locals: 0=this 1=in 2=out 3=i 4=byte 5=h
    CodeEmitter E = B.code(Step);
    E.load(1).load(3).invokeVirtual(BufGet).store(4);
    E.load(3).load(4).invokeStatic(Hash).store(5);
    E.load(0).getField(0).load(5).load(4).invokeVirtual(Probe);
    E.work(6); // arithmetic of the match/emit decision
    E.load(2).swap().invokeVirtual(BufPut);
    E.vreturn();
    E.finish();
  }
  // compressBlock(in, out, n): loop calling step once per position.
  MethodId Block =
      B.declareMethod(Compressor, "compressBlock", MethodKind::Virtual, 3,
                      true);
  {
    // Locals: 0=this 1=in 2=out 3=n 4=loop 5=acc
    CodeEmitter E = B.code(Block);
    E.iconst(0).store(5);
    // Loop bound comes from the n parameter rather than a constant.
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.load(3).store(4);
    E.bind(Top);
    E.load(4).ifZero(Exit);
    E.load(0).load(1).load(2).load(4).invokeVirtual(Step);
    E.load(5).iadd().store(5);
    E.load(4).iconst(1).isub().store(4);
    E.jump(Top);
    E.bind(Exit);
    E.load(5).vreturn();
    E.finish();
  }

  MethodId ColdInit = addColdLibrary(
      B, R, ColdLibrarySpec{41, 10, 36, 0.6, 0.25}, "Czlib");

  ClassId MainK = B.addClass("CompressMain");
  MethodId Main = B.declareMethod(MainK, "main", MethodKind::Static, 0, true);
  {
    // Locals: 0=in 1=out 2=comp 3=blockLoop 4=innerLoop 5=acc 6=i
    const int64_t Blocks = scaledCount(2400, Params.Scale);
    CodeEmitter E = B.code(Main);
    E.invokeStatic(ColdInit);
    E.newObject(Buffer).store(0);
    E.load(0).iconst(512).invokeSpecial(BufInit);
    E.newObject(Buffer).store(1);
    E.load(1).iconst(512).invokeSpecial(BufInit);
    E.newObject(CodeTable).dup().iconst(256).invokeSpecial(TabInit);
    E.store(6);
    E.newObject(Compressor).store(2);
    E.load(2).load(6).invokeSpecial(CompInit);
    E.iconst(0).store(5);
    emitCountedLoop(E, 3, Blocks, [&](CodeEmitter &L) {
      L.load(1).invokeVirtual(BufReset);
      L.load(2).load(0).load(1).iconst(64).invokeVirtual(Block);
      L.load(5).iadd().store(5);
    });
    E.load(5).vreturn();
    E.finish();
  }
  B.setEntry(Main);

  Workload W;
  W.Name = "compress";
  W.Description = "Lempel-Ziv compression stand-in: monomorphic loops, "
                  "tiny final accessors, medium kernel";
  W.Prog = B.build();
  W.Entries = {Main};
  return W;
}
