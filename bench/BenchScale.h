//===- bench/BenchScale.h - The drivers' AOCI_SCALE handling -----*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Every measurement driver honors AOCI_SCALE, a finite positive run-length
// multiplier, and treats a bad one the same way: it prints
// "AOCI_SCALE: <why>" and exits 2. A value can be bad in two places: it
// does not parse, or it parses but a workload generator refuses it
// because a scaled loop count overflows int64 (scaledCount throws
// std::invalid_argument). Each driver's main is a function-try-block:
//
//   int main() try {
//     double Scale;
//     if (!readBenchScale(Scale))
//       return 2;
//     ...
//   } catch (const std::invalid_argument &E) {
//     return benchScaleRefused(E);
//   }
//
//===----------------------------------------------------------------------===//

#ifndef AOCI_BENCH_BENCHSCALE_H
#define AOCI_BENCH_BENCHSCALE_H

#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace aoci {

/// Reads AOCI_SCALE into \p Scale (1 when unset). Returns false after
/// printing the diagnostic when the value is not a finite positive real.
inline bool readBenchScale(double &Scale) {
  Scale = 1.0;
  std::string Error;
  if (const char *S = std::getenv("AOCI_SCALE");
      S && !parseReal(S, RealFloor::Positive, Scale, Error)) {
    std::fprintf(stderr, "AOCI_SCALE: %s\n", Error.c_str());
    return false;
  }
  return true;
}

/// Reports a scale a workload generator refused; returns the exit status.
inline int benchScaleRefused(const std::invalid_argument &E) {
  std::fprintf(stderr, "AOCI_SCALE: %s\n", E.what());
  return 2;
}

} // namespace aoci

#endif // AOCI_BENCH_BENCHSCALE_H
