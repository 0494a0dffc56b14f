//===- tests/ProfileIoTest.cpp - Profile persistence tests ------------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
//===----------------------------------------------------------------------===//

#include "core/AdaptiveSystem.h"
#include "profile/ProfileIo.h"
#include "workload/FigureOne.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace aoci;

namespace {

/// Runs Figure 1 under fixed(2) and returns its v2 profile text, as
/// `--profile-out` writes it.
std::string trainFigureOne(unsigned Iterations) {
  FigureOneProgram F = makeFigureOne(Iterations);
  VirtualMachine VM(F.P);
  auto Policy = makePolicy(PolicyKind::Fixed, 2);
  AdaptiveSystem Aos(VM, *Policy);
  Aos.attach();
  VM.addThread(F.P.entryMethod());
  VM.run();
  EXPECT_GT(Aos.dcg().numTraces(), 0u);
  return serializeProfileData(Aos.snapshotProfile("figure-one"));
}

} // namespace

TEST(ProfileIoTest, LiveProfileRoundTripsThroughText) {
  // Collect a real profile online, serialize, reload into a fresh run.
  const std::string Text = trainFigureOne(200000);
  ProfileData Training;
  std::string Error;
  ASSERT_TRUE(parseProfile(Text, Training, Error)) << Error;
  EXPECT_GT(Training.DcgTraces.size(), 0u);

  FigureOneProgram F = makeFigureOne(200000);
  VirtualMachine VM(F.P);
  auto Policy = makePolicy(PolicyKind::Fixed, 2);
  AdaptiveSystem Aos(VM, *Policy);
  Aos.attach();
  const WarmStartStats S = Aos.warmStart(Training);
  EXPECT_GT(S.TracesApplied, 0u);
  EXPECT_EQ(S.dropped(), 0u);
  EXPECT_FALSE(Aos.rules().empty())
      << "warm start codifies rules before execution starts";
  unsigned T = VM.addThread(F.P.entryMethod());
  VM.run();
  EXPECT_EQ(VM.threads()[T]->Result.asInt(), 3 * 200000);
}

TEST(ProfileIoTest, SeededRunSkipsTheWarmUp) {
  struct Outcome {
    uint64_t Fallbacks;
    uint64_t CompileCycles;
    uint64_t Compilations;
  };
  auto runWithSeed = [](bool Seed) {
    FigureOneProgram Prod = makeFigureOne(300000);
    VirtualMachine VM(Prod.P);
    auto Policy = makePolicy(PolicyKind::Fixed, 2);
    AdaptiveSystem Aos(VM, *Policy);
    Aos.attach();
    if (Seed) {
      ProfileData Training;
      std::string Error;
      EXPECT_TRUE(parseProfile(trainFigureOne(300000), Training, Error))
          << Error;
      Aos.warmStart(Training);
    }
    VM.addThread(Prod.P.entryMethod());
    VM.run();
    return Outcome{VM.counters().GuardFallbacks,
                   VM.codeManager().optCompileCycles(),
                   Aos.stats().OptCompilations};
  };
  Outcome Seeded = runWithSeed(true);
  Outcome Cold = runWithSeed(false);
  // The offline pipeline's wins: no transient mispredictions while the
  // profile warms up, and fewer/cheaper optimizing compilations. (Wall
  // clock can go either way — an offline profile also freezes decisions
  // the online system would keep refining, which is the flip side the
  // paper's related-work discussion alludes to.)
  EXPECT_LT(Seeded.Fallbacks, Cold.Fallbacks / 2 + 1);
  EXPECT_LE(Seeded.Compilations, Cold.Compilations);
  EXPECT_LE(Seeded.CompileCycles, Cold.CompileCycles);
}

//===----------------------------------------------------------------------===//
// The versioned v2 format (docs/profile-format.md).
//===----------------------------------------------------------------------===//

namespace {

/// A ProfileData touching every section, for round-trip tests.
ProfileData sampleProfileData() {
  ProfileData D;
  D.Workload = "jess";
  D.SavedAtCycle = 123456789;
  D.HasThresholds = true;
  D.DecayFactor = 0.95;
  D.HotMethodSamples = 8;
  D.HotTraceThreshold = 2.5;
  D.MinRuleWeight = 1.0;
  D.DcgTraces.push_back({7.25, {{"HashMap.get", 4}}, "MyKey.hashCode"});
  D.DcgTraces.push_back(
      {3.5, {{"HashMap.get", 4}, {"Main.runTest", 9}}, "Obj.hashCode"});
  D.Decisions.push_back({5.0, {{"Main.runTest", 9}}, "HashMap.get"});
  D.HotMethods.push_back({42.125, "Main.runTest"});
  D.HotMethods.push_back({7.0, "HashMap.get"});
  D.Refusals.push_back({"Main.runTest", "HashMap.get", 4, "Huge.blob"});
  return D;
}

} // namespace

TEST(ProfileIoTest, V2RoundTripIsBitExact) {
  const ProfileData D = sampleProfileData();
  const std::string Text = serializeProfileData(D);
  ProfileData Back;
  std::string Error;
  ASSERT_TRUE(parseProfile(Text, Back, Error)) << Error;
  EXPECT_TRUE(Back.Warnings.empty());
  EXPECT_EQ(Back.Version, ProfileFormatVersion);
  EXPECT_EQ(Back.Workload, "jess");
  EXPECT_EQ(Back.SavedAtCycle, 123456789u);
  EXPECT_TRUE(Back.HasThresholds);
  EXPECT_DOUBLE_EQ(Back.DecayFactor, 0.95);
  EXPECT_EQ(Back.DcgTraces.size(), 2u);
  EXPECT_EQ(Back.Decisions.size(), 1u);
  EXPECT_EQ(Back.HotMethods.size(), 2u);
  ASSERT_EQ(Back.Refusals.size(), 1u);
  EXPECT_EQ(Back.Refusals[0].Compiled, "Main.runTest");
  EXPECT_EQ(Back.Refusals[0].Site, 4u);
  // The determinism contract: parse-then-serialize is the identity.
  EXPECT_EQ(serializeProfileData(Back), Text);
}

TEST(ProfileIoTest, V2SerializationIsOrderIndependent) {
  ProfileData A = sampleProfileData();
  ProfileData B = sampleProfileData();
  std::reverse(B.DcgTraces.begin(), B.DcgTraces.end());
  std::reverse(B.HotMethods.begin(), B.HotMethods.end());
  EXPECT_EQ(serializeProfileData(A), serializeProfileData(B));
}

TEST(ProfileIoTest, V2RejectsMissingOrMalformedHeader) {
  ProfileData D;
  std::string Error;
  EXPECT_FALSE(parseProfile("", D, Error));
  EXPECT_NE(Error.find("line 1"), std::string::npos) << Error;
  EXPECT_NE(Error.find("AOCI-PROFILE"), std::string::npos) << Error;
  EXPECT_FALSE(parseProfile("[dcg]\n1.0 a:1 => b\n", D, Error));
  EXPECT_NE(Error.find("header"), std::string::npos) << Error;
  EXPECT_FALSE(parseProfile("AOCI-PROFILE\n", D, Error));
  EXPECT_FALSE(parseProfile("PROFILE v2\n", D, Error));
}

TEST(ProfileIoTest, V2RejectsUnsupportedVersions) {
  ProfileData D;
  std::string Error;
  for (const char *Header : {"AOCI-PROFILE v1\n", "AOCI-PROFILE v3\n",
                             "AOCI-PROFILE v99\n[dcg]\n"}) {
    EXPECT_FALSE(parseProfile(Header, D, Error)) << Header;
    EXPECT_NE(Error.find("unsupported profile version"), std::string::npos)
        << Error;
    EXPECT_NE(Error.find("v2"), std::string::npos)
        << "error must say which version this build reads: " << Error;
  }
}

TEST(ProfileIoTest, V2SkipsUnknownSectionsWithAWarning) {
  const std::string Text = "AOCI-PROFILE v2\n"
                           "[meta]\n"
                           "saved-at-cycle 7\n"
                           "[future-telemetry]\n"
                           "anything at all, even :: malformed ## lines\n"
                           "[hot-methods]\n"
                           "3.000000 Main.runTest\n";
  ProfileData D;
  std::string Error;
  ASSERT_TRUE(parseProfile(Text, D, Error)) << Error;
  ASSERT_EQ(D.Warnings.size(), 1u);
  EXPECT_NE(D.Warnings[0].find("future-telemetry"), std::string::npos);
  EXPECT_NE(D.Warnings[0].find("line 4"), std::string::npos);
  ASSERT_EQ(D.HotMethods.size(), 1u)
      << "parsing resumes after the unknown section";
  EXPECT_EQ(D.HotMethods[0].Method, "Main.runTest");
}

TEST(ProfileIoTest, V2SkipsUnknownKeysWithAWarning) {
  const std::string Text = "AOCI-PROFILE v2\n"
                           "[meta]\n"
                           "saved-at-cycle 7\n"
                           "saved-by aoci-9.99\n"
                           "[thresholds]\n"
                           "decay-factor 0.950000\n"
                           "frobnication-level 11\n";
  ProfileData D;
  std::string Error;
  ASSERT_TRUE(parseProfile(Text, D, Error)) << Error;
  ASSERT_EQ(D.Warnings.size(), 2u);
  EXPECT_NE(D.Warnings[0].find("saved-by"), std::string::npos);
  EXPECT_NE(D.Warnings[1].find("frobnication-level"), std::string::npos);
  EXPECT_DOUBLE_EQ(D.DecayFactor, 0.95);
}

TEST(ProfileIoTest, V2DiagnosticsNameLineSectionAndToken) {
  ProfileData D;
  std::string Error;
  // Malformed weight inside [dcg].
  EXPECT_FALSE(parseProfile(
      "AOCI-PROFILE v2\n[dcg]\nheavy HashMap.get:4 => MyKey.hashCode\n", D,
      Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
  EXPECT_NE(Error.find("[dcg]"), std::string::npos) << Error;
  EXPECT_NE(Error.find("'heavy'"), std::string::npos) << Error;
  // Bad site index in a context pair, inside [decisions].
  EXPECT_FALSE(parseProfile(
      "AOCI-PROFILE v2\n[decisions]\n1.0 HashMap.get:x => MyKey.hashCode\n",
      D, Error));
  EXPECT_NE(Error.find("[decisions]"), std::string::npos) << Error;
  EXPECT_NE(Error.find("'HashMap.get:x'"), std::string::npos) << Error;
  // Truncated refusal (missing callee).
  EXPECT_FALSE(parseProfile(
      "AOCI-PROFILE v2\n[refusals]\nMain.runTest HashMap.get:4 =>\n", D,
      Error));
  EXPECT_NE(Error.find("line 3"), std::string::npos) << Error;
  EXPECT_NE(Error.find("[refusals]"), std::string::npos) << Error;
  // Trailing junk after a refusal.
  EXPECT_FALSE(parseProfile("AOCI-PROFILE v2\n[refusals]\n"
                            "Main.runTest HashMap.get:4 => Huge.blob extra\n",
                            D, Error));
  EXPECT_NE(Error.find("'extra'"), std::string::npos) << Error;
  // Content before any section header.
  EXPECT_FALSE(parseProfile("AOCI-PROFILE v2\n1.0 a:1 => b\n", D, Error));
  EXPECT_NE(Error.find("expected section header"), std::string::npos) << Error;
  // Negative sample count in [hot-methods].
  EXPECT_FALSE(parseProfile(
      "AOCI-PROFILE v2\n[hot-methods]\n-3.0 Main.runTest\n", D, Error));
  EXPECT_NE(Error.find("'-3.0'"), std::string::npos) << Error;
}

TEST(ProfileIoTest, V2ToleratesCommentsBlanksAndCrlf) {
  const std::string Text = "# training profile, reviewed by hand\r\n"
                           "AOCI-PROFILE v2\r\n"
                           "\r\n"
                           "[meta]\r\n"
                           "saved-at-cycle 99\r\n"
                           "# a comment inside a section\r\n"
                           "[hot-methods]\r\n"
                           "1.500000 Main.runTest\r\n";
  ProfileData D;
  std::string Error;
  ASSERT_TRUE(parseProfile(Text, D, Error)) << Error;
  EXPECT_TRUE(D.Warnings.empty());
  EXPECT_EQ(D.SavedAtCycle, 99u);
  ASSERT_EQ(D.HotMethods.size(), 1u);
  EXPECT_DOUBLE_EQ(D.HotMethods[0].Samples, 1.5);
}

TEST(ProfileIoTest, V2GoldenProfileRoundTripsBitExactly) {
  // The checked-in fixture is the normative worked example of
  // docs/profile-format.md. Two invariants: serializing the canonical
  // ProfileData reproduces the fixture byte-for-byte, and parsing the
  // fixture then re-serializing is the identity (so the on-disk format
  // cannot drift without this test noticing).
  const std::string Text = serializeProfileData(sampleProfileData());
  expectMatchesGolden("profile_v2.golden", Text,
                      "the v2 profile bytes changed");
  ProfileData Back;
  std::string Error;
  ASSERT_TRUE(parseProfile(Text, Back, Error)) << Error;
  EXPECT_EQ(serializeProfileData(Back), Text);
}
