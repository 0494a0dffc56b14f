//===- perfbench/HostSpeed.h - Host speed calibration ----------*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed calibration kernel that measures how fast the host runs right
/// now. On a shared VM the host's speed drifts by up to 2x over minutes
/// (measured on a shared 4-vCPU x86 VM: paper-grid's pass took 1.3 s in
/// one run and 2.9 s a few minutes later), so raw host times from
/// different runs compare the host, not the program. The kernel is
/// compiled with the benchmark and shares no code with the program, so a
/// change to the program cannot move it; dividing by its time leaves the
/// program's own cost.
///
/// The kernel is a small switch-dispatched interpreter over a fixed
/// pseudo-random code string, reading and writing a 2 MiB table per
/// thread: like the program's VM it is bound by indirect branches and
/// cache misses. A plain arithmetic loop tracked the passes worse: when
/// the host slowed, it moved about half as much as they did.
///
//===----------------------------------------------------------------------===//

#ifndef AOCI_PERFBENCH_HOSTSPEED_H
#define AOCI_PERFBENCH_HOSTSPEED_H

#include <cstdint>
#include <vector>

namespace perfbench {

class HostSpeedProbe {
public:
  /// Kernel time, in seconds, that defines the reference host speed.
  static constexpr double ReferenceSeconds = 0.1;

  /// Prepares one table per thread; \p Threads kernels run at once, as
  /// many as the workload's worker threads.
  explicit HostSpeedProbe(unsigned Threads);

  /// Host wall seconds for all threads to run the kernel once.
  double sample();

private:
  std::vector<uint8_t> Code;
  std::vector<std::vector<uint32_t>> Tables;
};

} // namespace perfbench

#endif // AOCI_PERFBENCH_HOSTSPEED_H
