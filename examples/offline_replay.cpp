//===- examples/offline_replay.cpp - Online vs offline profiles ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The paper's related work contrasts its online system with offline
// profile-directed inlining: "train" on one run, feed the profile into
// the next. This example makes the comparison concrete on the
// SPECjbb2000 stand-in, whose transaction mix flips halfway through:
//
//  1. ONLINE      — the paper's system, profiling as it runs;
//  2. OFFLINE-OK  — trained on a full run (both phases), replayed;
//  3. OFFLINE-BAD — trained only on phase-1 behaviour, replayed into a
//                   full run: the "variations in program behavior between
//                   the training and production runs" vulnerability the
//                   paper attributes to offline systems.
//
// A training run saves its AOS decision state as a v2 profile
// (RunConfig::CaptureProfile, docs/profile-format.md); the production
// run parses that text and warm-starts from it (RunConfig::WarmStart).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "profile/ProfileIo.h"

#include <cstdio>
#include <cstdlib>

using namespace aoci;

namespace {

RunConfig jbbFixed2(double Scale) {
  RunConfig Config;
  Config.WorkloadName = "SPECjbb2000";
  Config.Params.Scale = Scale;
  Config.Policy = PolicyKind::Fixed;
  Config.MaxDepth = 2;
  return Config;
}

/// Runs jbb under fixed(2) and returns its v2 profile, parsed back from
/// text as a later process would read it. \p TrainScale < full truncates
/// training to the NewOrder-heavy phase.
std::shared_ptr<const ProfileData> trainProfile(double TrainScale) {
  RunConfig Config = jbbFixed2(TrainScale);
  Config.CaptureProfile = true;
  const RunResult R = runExperiment(Config);
  auto Profile = std::make_shared<ProfileData>();
  std::string Error;
  if (!parseProfile(R.CapturedProfile, *Profile, Error)) {
    std::fprintf(stderr, "profile replay failed: %s\n", Error.c_str());
    std::exit(1);
  }
  return Profile;
}

uint64_t runProduction(std::shared_ptr<const ProfileData> Training,
                       const char *Label) {
  RunConfig Config = jbbFixed2(1.0);
  Config.WarmStart = std::move(Training);
  const RunResult R = runExperiment(Config);
  std::printf("  %-12s %12llu cycles, %llu optimizing compilations, "
              "%llu guard fallbacks\n",
              Label, static_cast<unsigned long long>(R.WallCycles),
              static_cast<unsigned long long>(R.OptCompilations),
              static_cast<unsigned long long>(R.GuardFallbacks));
  return R.WallCycles;
}

} // namespace

int main() {
  std::printf("SPECjbb2000 stand-in: online vs offline profile-directed "
              "inlining\n\n");

  std::printf("training (full run, both phases)...\n");
  auto FullProfile = trainProfile(1.0);
  std::printf("training (truncated: phase-1 behaviour only)...\n");
  // A short training run never reaches the Payment-heavy phase.
  auto Phase1Profile = trainProfile(0.2);

  std::printf("\nproduction runs:\n");
  uint64_t Online = runProduction(nullptr, "online");
  uint64_t OfflineOk = runProduction(FullProfile, "offline-ok");
  uint64_t OfflineBad = runProduction(Phase1Profile, "offline-bad");

  std::printf("\noffline-ok vs online:  %+.2f%%\n",
              (static_cast<double>(Online) /
                   static_cast<double>(OfflineOk) -
               1.0) *
                  100.0);
  std::printf("offline-bad vs online: %+.2f%% (stale phase-1 training)\n",
              (static_cast<double>(Online) /
                   static_cast<double>(OfflineBad) -
               1.0) *
                  100.0);
  return 0;
}
