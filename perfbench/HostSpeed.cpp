//===- perfbench/HostSpeed.cpp - Host speed calibration -------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"

#include <chrono>
#include <thread>

using namespace perfbench;

namespace {

constexpr unsigned TableBits = 19;
constexpr uint64_t TableMask = (uint64_t(1) << TableBits) - 1;
constexpr size_t CodeSize = 4096;
constexpr uint64_t KernelSteps = 10000000;

/// Runs the kernel over \p Table; the result keeps the work observable.
uint64_t runKernel(const std::vector<uint8_t> &Code,
                   std::vector<uint32_t> &Table) {
  uint64_t Acc = 0, Pc = 0, Sp = 1;
  for (uint64_t I = 0; I != KernelSteps; ++I) {
    switch (Code[Pc]) {
    case 0:
      Acc += Table[Sp];
      break;
    case 1:
      Table[(Acc >> 3) & TableMask] = static_cast<uint32_t>(Acc);
      break;
    case 2:
      Acc = Acc * 31 + Pc;
      break;
    case 3:
      Sp = (Sp * 1103515245 + 12345) & TableMask;
      break;
    case 4:
      if (Acc & 1)
        Pc = (Pc + 7) % CodeSize;
      break;
    case 5:
      Acc ^= Table[(Sp + Pc) & TableMask];
      break;
    case 6:
      Acc -= Sp;
      break;
    default:
      Acc += Code[(Pc * 13) % CodeSize];
      break;
    }
    Pc = (Pc + 1) % CodeSize;
  }
  return Acc;
}

} // namespace

HostSpeedProbe::HostSpeedProbe(unsigned Threads)
    : Code(CodeSize),
      Tables(Threads, std::vector<uint32_t>(size_t(1) << TableBits)) {
  uint64_t X = 88172645463325252ULL;
  for (uint8_t &Op : Code) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    Op = static_cast<uint8_t>(X % 8);
  }
}

double HostSpeedProbe::sample() {
  std::vector<uint64_t> Sinks(Tables.size());
  std::vector<std::thread> Workers;
  const auto Start = std::chrono::steady_clock::now();
  for (size_t T = 0; T != Tables.size(); ++T)
    Workers.emplace_back(
        [this, T, &Sinks] { Sinks[T] = runKernel(Code, Tables[T]); });
  for (std::thread &W : Workers)
    W.join();
  const std::chrono::duration<double> Elapsed =
      std::chrono::steady_clock::now() - Start;
  // Reading the results keeps the compiler from dropping the kernel.
  volatile uint64_t Sink = 0;
  for (uint64_t S : Sinks)
    Sink = Sink + S;
  return Elapsed.count();
}
