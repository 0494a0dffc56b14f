//===- workload/WorkloadCommon.cpp - Shared generator utilities -----------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "workload/WorkloadCommon.h"

#include "support/StringUtils.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

using namespace aoci;

void aoci::emitCountedLoop(CodeEmitter &E, unsigned Slot, int64_t Count,
                           const std::function<void(CodeEmitter &)> &Body) {
  assert(Count >= 0 && "loop count must be non-negative");
  auto Top = E.newLabel();
  auto Exit = E.newLabel();
  E.iconst(Count).store(Slot);
  E.bind(Top);
  E.load(Slot).ifZero(Exit);
  Body(E);
  E.load(Slot).iconst(1).isub().store(Slot);
  E.jump(Top);
  E.bind(Exit);
}

int64_t aoci::scaledCount(double Base, double Scale, CountRounding Rounding) {
  const double X = Base * Scale;
  const double Count =
      Rounding == CountRounding::Nearest ? std::round(X) : std::trunc(X);
  // Every double in [-2^63, 2^63) converts exactly; NaN fails both tests.
  if (!(Count >= -0x1p63 && Count < 0x1p63))
    throw std::invalid_argument(formatString(
        "scale '%g' turns a loop count of %g into %g, which does not fit "
        "a 64-bit integer",
        Scale, Base, X));
  return static_cast<int64_t>(Count);
}

namespace {

/// Emits a straight-line body of roughly \p TargetBytecodes instructions
/// ending in the right return. Virtual methods may touch this.field0.
void emitFillerBody(CodeEmitter &E, const Method &M, Rng &R,
                    unsigned TargetBytecodes) {
  unsigned Emitted = 0;
  // Seed an accumulator from the parameters (if any).
  const unsigned FirstParam = M.hasReceiver() ? 1 : 0;
  if (M.NumParams > 0) {
    E.load(FirstParam);
    ++Emitted;
    for (unsigned I = 1; I != M.NumParams && I < 3; ++I) {
      E.load(FirstParam + I).iadd();
      Emitted += 2;
    }
  } else {
    E.iconst(static_cast<int64_t>(R.nextBelow(1000)));
    ++Emitted;
  }

  if (M.hasReceiver() && R.nextBool(0.5)) {
    E.load(0).getField(0).iadd();
    Emitted += 3;
  }

  while (Emitted + 3 < TargetBytecodes) {
    switch (R.nextBelow(4)) {
    case 0:
      E.iconst(static_cast<int64_t>(R.nextBelow(97) + 1)).iadd();
      Emitted += 2;
      break;
    case 1:
      E.iconst(static_cast<int64_t>(R.nextBelow(31) + 1)).ixor();
      Emitted += 2;
      break;
    case 2:
      E.work(static_cast<int64_t>(R.nextBelow(6) + 2));
      Emitted += 1;
      break;
    default:
      E.dup().iadd();
      Emitted += 2;
      break;
    }
  }

  if (M.ReturnsValue) {
    E.vreturn();
  } else {
    E.pop().ret();
  }
}

} // namespace

MethodId aoci::addColdLibrary(ProgramBuilder &B, Rng &R,
                              const ColdLibrarySpec &Spec,
                              const std::string &Prefix) {
  std::vector<MethodId> Drivers;

  for (unsigned C = 0; C != Spec.NumClasses; ++C) {
    ClassId K = B.addClass(formatString("%s%u", Prefix.c_str(), C),
                           InvalidClassId, /*NumFields=*/2);

    std::vector<MethodId> Generated;
    for (unsigned I = 0; I != Spec.MethodsPerClass; ++I) {
      const bool IsStatic = R.nextBool(Spec.StaticFraction);
      const unsigned NumParams =
          R.nextBool(Spec.ParameterlessFraction)
              ? 0
              : static_cast<unsigned>(R.nextBelow(3) + 1);
      const bool ReturnsValue = true;
      MethodId M = B.declareMethod(
          K, formatString("m%u", I),
          IsStatic ? MethodKind::Static : MethodKind::Virtual, NumParams,
          ReturnsValue);

      // Body size: wide spread around the average, with an occasional
      // large method so the Large-Methods policy has stop points.
      unsigned Target;
      if (R.nextBool(0.05)) {
        Target = 180 + static_cast<unsigned>(R.nextBelow(120));
      } else {
        Target = Spec.AvgBodyBytecodes / 3 +
                 static_cast<unsigned>(
                     R.nextBelow(Spec.AvgBodyBytecodes * 3 / 2 + 1));
      }

      CodeEmitter E = B.code(M);
      emitFillerBody(E, B.program().method(M), R, Target);
      E.finish();
      Generated.push_back(M);
    }

    // Per-class driver: invokes every generated method exactly once.
    MethodId Driver =
        B.declareMethod(K, "coldDriver", MethodKind::Static, 0, false);
    {
      CodeEmitter E = B.code(Driver);
      E.newObject(K).store(0);
      for (MethodId M : Generated) {
        const Method &Meth = B.program().method(M);
        if (Meth.hasReceiver())
          E.load(0);
        for (unsigned A = 0; A != Meth.NumParams; ++A)
          E.iconst(static_cast<int64_t>(A + 1));
        if (Meth.Kind == MethodKind::Static)
          E.invokeStatic(M);
        else
          E.invokeVirtual(M);
        if (Meth.ReturnsValue)
          E.pop();
      }
      E.ret();
      E.finish();
    }
    Drivers.push_back(Driver);
  }

  // Library init: run every driver once. Owned by the first filler class.
  assert(!Drivers.empty() && "cold library needs at least one class");
  MethodId Init =
      B.declareMethod(B.program().method(Drivers.front()).Owner,
                      "coldInit", MethodKind::Static, 0, false);
  {
    CodeEmitter E = B.code(Init);
    for (MethodId D : Drivers)
      E.invokeStatic(D);
    E.ret();
    E.finish();
  }
  return Init;
}
