//===- workload/WorkloadCommon.h - Shared generator utilities ---*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Utilities shared by the workload generators: counted-loop emission,
/// checked scaling of loop counts, receiver-rotation helpers, and the
/// procedurally generated cold library that pads class/method/bytecode
/// counts toward Table 1 without affecting the hot kernel (every cold
/// method is invoked exactly once from an init phase, so it is
/// baseline-compiled and counted but never becomes hot).
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_WORKLOAD_WORKLOADCOMMON_H
#define AOCI_WORKLOAD_WORKLOADCOMMON_H

#include "bytecode/ProgramBuilder.h"
#include "support/Rng.h"

#include <functional>

namespace aoci {

/// Emits "for (slot = Count; slot != 0; --slot) { Body }". \p Slot must
/// not be used by \p Body for anything else.
void emitCountedLoop(CodeEmitter &E, unsigned Slot, int64_t Count,
                     const std::function<void(CodeEmitter &)> &Body);

/// How scaledCount rounds the scaled product.
enum class CountRounding { TowardZero, Nearest };

/// \p Base * \p Scale as a loop trip count, rounded per \p Rounding.
/// Throws std::invalid_argument when the product is not a finite value
/// that fits int64_t (a scale of 1e300, say), where a plain conversion
/// would be undefined behaviour.
int64_t scaledCount(double Base, double Scale,
                    CountRounding Rounding = CountRounding::TowardZero);

/// Cold-library sizing.
struct ColdLibrarySpec {
  unsigned NumClasses = 10;
  unsigned MethodsPerClass = 8;
  /// Approximate bytecodes per generated body (varied +/-50% by the RNG).
  unsigned AvgBodyBytecodes = 24;
  /// Fraction of generated methods that are static (the rest virtual).
  double StaticFraction = 0.5;
  /// Fraction of generated methods with zero parameters.
  double ParameterlessFraction = 0.25;
};

/// Adds \p Spec.NumClasses filler classes (named Prefix0, Prefix1, ...)
/// full of straight-line methods, plus driver methods that invoke every
/// generated method exactly once. Returns the static init method the
/// workload's main should call before its kernel.
MethodId addColdLibrary(ProgramBuilder &B, Rng &R,
                        const ColdLibrarySpec &Spec,
                        const std::string &Prefix);

} // namespace aoci

#endif // AOCI_WORKLOAD_WORKLOADCOMMON_H
