//===- workload/Mpegaudio.cpp - The mpegaudio workload ----------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPECjvm98 _222_mpegaudio (MP3 decoding). Behavioural
/// signature: numeric kernels — mostly *static* medium methods chained
/// decodeFrame -> requantize -> subbandSynthesis -> dct32 -> window, with
/// a parameterless bit-reader method (nextBits) called throughout. The
/// static-heavy chains make the Class-Methods policy terminate almost
/// immediately, and the parameterless reader gives the Parameterless
/// policy early stop points; dispatch is essentially monomorphic, so
/// the benefit of context here is almost purely dilution-driven compile
/// time and code space.
///
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "bytecode/ProgramBuilder.h"
#include "workload/WorkloadCommon.h"

using namespace aoci;

Workload aoci::makeMpegaudio(WorkloadParams Params) {
  Rng R(Params.Seed ^ 0x3E6AULL);
  ProgramBuilder B;

  // BitStream with a parameterless reader.
  ClassId BitStream = B.addClass("BitStream", InvalidClassId, 2); // pos, acc
  MethodId NextBits = B.declareMethod(BitStream, "nextBits",
                                      MethodKind::Virtual, 0, true, true);
  {
    // Parameterless: pos advances, a few bits come back.
    CodeEmitter E = B.code(NextBits);
    E.load(0).load(0).getField(0).iconst(7).iadd().putField(0);
    E.load(0).getField(0).iconst(0x1F).iand().vreturn();
    E.finish();
  }

  ClassId Dsp = B.addClass("Dsp");
  // window(sample): small static polish step.
  MethodId Window =
      B.declareMethod(Dsp, "window", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(Window);
    E.load(0).iconst(3).imul().iconst(11).irem().work(6).vreturn();
    E.finish();
  }
  // dct32(v): medium-heavy static transform.
  MethodId Dct32 = B.declareMethod(Dsp, "dct32", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(Dct32);
    E.work(130);
    E.load(0).invokeStatic(Window);
    E.load(0).iconst(1).iadd().invokeStatic(Window);
    E.iadd().vreturn();
    E.finish();
  }
  // subbandSynthesis(v): medium static.
  MethodId Subband =
      B.declareMethod(Dsp, "subbandSynthesis", MethodKind::Static, 1, true);
  {
    CodeEmitter E = B.code(Subband);
    E.work(45);
    E.load(0).invokeStatic(Dct32).vreturn();
    E.finish();
  }
  // requantize(bits, scale): medium static.
  MethodId Requantize =
      B.declareMethod(Dsp, "requantize", MethodKind::Static, 2, true);
  {
    CodeEmitter E = B.code(Requantize);
    E.work(38);
    E.load(0).load(1).imul().iconst(255).iand().vreturn();
    E.finish();
  }

  // Decoder: owns the bit stream; decodeFrame drives the chain.
  ClassId Decoder = B.addClass("Decoder", InvalidClassId, 1); // stream
  MethodId DecodeFrame =
      B.declareMethod(Decoder, "decodeFrame", MethodKind::Virtual, 1, true);
  {
    // Locals: 0=this 1=scale 2=bits 3=sample
    CodeEmitter E = B.code(DecodeFrame);
    E.load(0).getField(0).invokeVirtual(NextBits).store(2);
    E.load(2).load(1).invokeStatic(Requantize).store(3);
    E.load(3).invokeStatic(Subband).store(3);
    E.load(0).getField(0).invokeVirtual(NextBits);
    E.load(3).iadd();
    E.vreturn();
    E.finish();
  }

  MethodId ColdInit = addColdLibrary(
      B, R, ColdLibrarySpec{80, 8, 52, 0.7, 0.3}, "Mp3");

  ClassId MainK = B.addClass("MpegMain");
  MethodId Main = B.declareMethod(MainK, "main", MethodKind::Static, 0, true);
  {
    // Locals: 0=decoder 1=loop 2=acc
    const int64_t Frames = scaledCount(80000, Params.Scale);
    CodeEmitter E = B.code(Main);
    E.invokeStatic(ColdInit);
    E.newObject(Decoder).store(0);
    E.load(0).newObject(BitStream).putField(0);
    E.iconst(0).store(2);
    emitCountedLoop(E, 1, Frames, [&](CodeEmitter &L) {
      L.load(0).load(1).iconst(7).iand().invokeVirtual(DecodeFrame);
      L.load(2).iadd().store(2);
    });
    E.load(2).vreturn();
    E.finish();
  }
  B.setEntry(Main);

  Workload W;
  W.Name = "mpegaudio";
  W.Description = "MP3 decoder stand-in: static numeric kernel chains and "
                  "a parameterless bit reader";
  W.Prog = B.build();
  W.Entries = {Main};
  return W;
}
