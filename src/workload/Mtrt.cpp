//===- workload/Mtrt.cpp - The mtrt workload --------------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stand-in for SPECjvm98 _227_mtrt (two-thread raytracer). Behavioural
/// signature: an interface-dispatched intersect() over a shape array
/// whose receiver mix (spheres / triangles / planes, roughly 50/30/20) is
/// *inherently* polymorphic — calling context does not disambiguate it,
/// so this is the site where extra context only dilutes the profile, and
/// where the adaptive-imprecision policy should eventually give up.
/// Rendering runs on two green threads sharing the scene, exercising the
/// per-virtual-processor sampling path.
///
//===----------------------------------------------------------------------===//

#include "workload/Workload.h"

#include "bytecode/ProgramBuilder.h"
#include "workload/WorkloadCommon.h"

using namespace aoci;

Workload aoci::makeMtrt(WorkloadParams Params) {
  Rng R(Params.Seed ^ 0x377A7ULL);
  ProgramBuilder B;

  // Shape interface with three implementations.
  ClassId Shape = B.addInterface("Shape");
  MethodId Intersect = B.declareAbstractMethod(
      Shape, "intersect", MethodKind::Interface, 2, true);
  struct ShapeSpec {
    const char *Name;
    int64_t Work;
  };
  const ShapeSpec Specs[3] = {
      {"Sphere", 9}, {"Triangle", 14}, {"Plane", 6}};
  ClassId ShapeClasses[3];
  MethodId IntersectImpls[3];
  for (unsigned I = 0; I != 3; ++I) {
    ShapeClasses[I] = B.addClass(Specs[I].Name, InvalidClassId, 1);
    B.implement(ShapeClasses[I], Shape);
    IntersectImpls[I] = B.addOverride(ShapeClasses[I], Intersect);
    CodeEmitter E = B.code(IntersectImpls[I]);
    E.load(1).load(2).imul().load(0).getField(0).iadd();
    E.work(Specs[I].Work);
    E.vreturn();
    E.finish();
  }

  // Scene: shape array plus the trace/shade kernel.
  ClassId Scene = B.addClass("Scene", InvalidClassId, 1); // shapes
  // shade(hit, depth): small recursive shading bounce.
  MethodId Shade =
      B.declareMethod(Scene, "shade", MethodKind::Virtual, 2, true);
  {
    // Locals: 0=this 1=hit 2=depth
    CodeEmitter E = B.code(Shade);
    auto Base = E.newLabel();
    E.load(2).ifZero(Base);
    E.work(7);
    E.load(0).load(1).iconst(3).ishr().load(2).iconst(1).isub();
    E.invokeVirtual(Shade);
    E.load(1).iadd().vreturn();
    E.bind(Base);
    E.load(1).vreturn();
    E.finish();
  }
  // traceRay(ox, oy): medium; loops the shape array calling intersect.
  MethodId TraceRay =
      B.declareMethod(Scene, "traceRay", MethodKind::Virtual, 2, true);
  {
    // Locals: 0=this 1=ox 2=oy 3=i 4=best 5=shape
    CodeEmitter E = B.code(TraceRay);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.iconst(0).store(4);
    E.load(0).getField(0).arrayLength().store(3);
    E.bind(Top);
    E.load(3).ifZero(Exit);
    E.load(0).getField(0).load(3).iconst(1).isub().arrayLoad().store(5);
    E.load(5).load(1).load(2).invokeInterface(Intersect);
    E.load(4).iadd().store(4);
    E.load(3).iconst(1).isub().store(3);
    E.jump(Top);
    E.bind(Exit);
    E.load(0).load(4).iconst(2).invokeVirtual(Shade);
    E.vreturn();
    E.finish();
  }

  MethodId ColdInit = addColdLibrary(
      B, R, ColdLibrarySpec{55, 9, 32, 0.5, 0.3}, "Rt");

  // Render driver; both threads run it with their own scene instance
  // (the ISA has no statics), preserving the 5/3/2 shape mix.
  ClassId MainK = B.addClass("MtrtMain");
  MethodId RenderSlice =
      B.declareMethod(MainK, "renderSlice", MethodKind::Static, 1, true);
  {
    // Locals: 0=pixels 1=scene 2=arr 3=loop 4=acc
    const int64_t NumShapes = 10;
    CodeEmitter E = B.code(RenderSlice);
    E.newObject(Scene).store(1);
    E.iconst(NumShapes).newArray().store(2);
    E.load(1).load(2).putField(0);
    // 5 spheres, 3 triangles, 2 planes.
    for (int64_t I = 0; I != NumShapes; ++I) {
      unsigned Kind = I < 5 ? 0u : (I < 8 ? 1u : 2u);
      E.load(2).iconst(I).newObject(ShapeClasses[Kind]).arrayStore();
    }
    E.iconst(0).store(4);
    auto Top = E.newLabel();
    auto Exit = E.newLabel();
    E.load(0).store(3);
    E.bind(Top);
    E.load(3).ifZero(Exit);
    E.load(1).load(3).load(3).iconst(5).iand().invokeVirtual(TraceRay);
    E.load(4).iadd().store(4);
    E.load(3).iconst(1).isub().store(3);
    E.jump(Top);
    E.bind(Exit);
    E.load(4).vreturn();
    E.finish();
  }

  const int64_t PixelsPerThread = scaledCount(11000, Params.Scale);
  MethodId ThreadA =
      B.declareMethod(MainK, "renderThreadA", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(ThreadA);
    E.invokeStatic(ColdInit);
    E.iconst(PixelsPerThread).invokeStatic(RenderSlice).vreturn();
    E.finish();
  }
  MethodId ThreadB =
      B.declareMethod(MainK, "renderThreadB", MethodKind::Static, 0, true);
  {
    CodeEmitter E = B.code(ThreadB);
    E.iconst(PixelsPerThread).invokeStatic(RenderSlice).vreturn();
    E.finish();
  }
  B.setEntry(ThreadA);

  Workload W;
  W.Name = "mtrt";
  W.Description = "Two-thread raytracer stand-in: inherently polymorphic "
                  "interface dispatch over a shape array";
  W.Prog = B.build();
  W.Entries = {ThreadA, ThreadB};
  return W;
}
