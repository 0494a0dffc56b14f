//===- perfbench/BenchMath.h - Benchmark arithmetic -------------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host benchmark's arithmetic, kept apart from main.cpp so the
/// self-tests (SelfTest.cpp) can check it directly: the tail-percentile
/// rule, the step tally behind failed_frac, parallel efficiency, the
/// onSample classification, and strict argument parsing.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PERFBENCH_BENCHMATH_H
#define AOCI_PERFBENCH_BENCHMATH_H

#include "core/AdaptiveSystem.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A reported percentile must have at least this many samples strictly
/// beyond it, or it is not reported at all.
constexpr size_t MinTailSamples = 10;

/// Smallest sample count for which percentile \p Pct (1..99) has
/// MinTailSamples samples beyond it under tailPercentile()'s rank rule.
size_t minSamplesForPercentile(unsigned Pct);

/// Nearest-rank percentile: the sample of 1-based rank ceil(Pct * n / 100)
/// in sorted order. Returns false, leaving \p Out untouched, when fewer
/// than MinTailSamples samples lie beyond that rank or \p Pct is not in
/// 1..99.
bool tailPercentile(std::vector<double> Samples, unsigned Pct, double &Out);

/// Plain median (mean of the two middle samples for an even count); 0 for
/// no samples. Used for per-pass and per-repetition medians, which are
/// centres, not tail claims.
double median(std::vector<double> Samples);

/// Counts the steps an invocation attempted and how many of them failed
/// (threw, or produced an output that disagrees with the reference).
struct StepTally {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void add(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
  /// \p Steps steps that were lost together (a sweep that threw).
  void addLost(uint64_t Steps) {
    Attempted += Steps;
    Failed += Steps;
  }
  /// Failed / attempted; 1 when nothing was attempted (no evidence of
  /// success counts as failure).
  double failedFrac() const;
};

/// Sum of per-step busy seconds over the capacity the pool offered:
/// \p BusySeconds / (\p WallSeconds * \p Jobs). 0 when either factor of
/// the capacity is 0.
double parallelEfficiency(double BusySeconds, double WallSeconds,
                          unsigned Jobs);

/// What one AdaptiveSystem::onSample call did, judged by which AosStats
/// counters moved during it. A call that compiled is a Compile call even
/// though it also ran listeners and possibly organizers; one that woke an
/// organizer (or queued a request) without compiling is an Organizer
/// call; anything else only fed the listeners.
enum class SampleKind : unsigned { Listener, Organizer, Compile };
constexpr unsigned NumSampleKinds = 3;

SampleKind classifySample(const aoci::AosStats &Before,
                          const aoci::AosStats &After);

/// Parses a whole decimal string into [Min, Max]. No sign, no spaces, no
/// trailing characters; overflow is a failure.
bool parseUnsignedArg(const std::string &Text, uint64_t Min, uint64_t Max,
                      uint64_t &Out);

/// Parses a whole floating-point string that is finite, > 0 and <= Max.
bool parsePositiveArg(const std::string &Text, double Max, double &Out);

/// Runs the self-tests of SelfTest.cpp; returns the number of failed
/// checks.
int runSelfTests();

} // namespace perfbench

#endif // AOCI_PERFBENCH_BENCHMATH_H
