//===- perfbench/BenchMath.cpp - Benchmark arithmetic -----------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "BenchMath.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace perfbench;

namespace {

/// 1-based nearest rank of percentile \p Pct among \p N samples.
size_t nearestRank(unsigned Pct, size_t N) {
  return (static_cast<size_t>(Pct) * N + 99) / 100;
}

} // namespace

size_t perfbench::minSamplesForPercentile(unsigned Pct) {
  size_t N = 1;
  while (N - nearestRank(Pct, N) < MinTailSamples)
    ++N;
  return N;
}

bool perfbench::tailPercentile(std::vector<double> Samples, unsigned Pct,
                               double &Out) {
  if (Pct == 0 || Pct >= 100)
    return false;
  const size_t Rank = nearestRank(Pct, Samples.size());
  if (Rank == 0 || Samples.size() - Rank < MinTailSamples)
    return false;
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  Out = Samples[Rank - 1];
  return true;
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const size_t Mid = Samples.size() / 2;
  if (Samples.size() % 2 == 1)
    return Samples[Mid];
  return (Samples[Mid - 1] + Samples[Mid]) / 2;
}

double StepTally::failedFrac() const {
  if (Attempted == 0)
    return 1;
  return static_cast<double>(Failed) / static_cast<double>(Attempted);
}

double perfbench::parallelEfficiency(double BusySeconds, double WallSeconds,
                                     unsigned Jobs) {
  if (WallSeconds <= 0 || Jobs == 0)
    return 0;
  return BusySeconds / (WallSeconds * Jobs);
}

SampleKind perfbench::classifySample(const aoci::AosStats &Before,
                                     const aoci::AosStats &After) {
  if (After.OptCompilations != Before.OptCompilations)
    return SampleKind::Compile;
  if (After.MethodOrganizerWakeups != Before.MethodOrganizerWakeups ||
      After.DcgOrganizerWakeups != Before.DcgOrganizerWakeups ||
      After.DecayWakeups != Before.DecayWakeups ||
      After.MissingEdgeWakeups != Before.MissingEdgeWakeups ||
      After.ControllerRequests != Before.ControllerRequests ||
      After.MissingEdgeRequests != Before.MissingEdgeRequests)
    return SampleKind::Organizer;
  return SampleKind::Listener;
}

bool perfbench::parseUnsignedArg(const std::string &Text, uint64_t Min,
                                 uint64_t Max, uint64_t &Out) {
  if (Text.empty() || Text.size() > 20)
    return false;
  for (char C : Text)
    if (C < '0' || C > '9')
      return false;
  errno = 0;
  const unsigned long long V = std::strtoull(Text.c_str(), nullptr, 10);
  if (errno == ERANGE || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

bool perfbench::parsePositiveArg(const std::string &Text, double Max,
                                 double &Out) {
  // strtod alone would also take leading blanks, signs and hex forms.
  if (Text.empty() || Text.size() > 64 ||
      !((Text[0] >= '0' && Text[0] <= '9') || Text[0] == '.') ||
      Text.find_first_of("xX") != std::string::npos)
    return false;
  const char *Begin = Text.c_str();
  char *End = nullptr;
  errno = 0;
  const double V = std::strtod(Begin, &End);
  if (End != Begin + Text.size() || errno == ERANGE || !std::isfinite(V) ||
      V <= 0 || V > Max)
    return false;
  Out = V;
  return true;
}
