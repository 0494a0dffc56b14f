//===- tests/CliTest.cpp - End-to-end tests of the aoci driver ------------===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// Runs the built `aoci` binary as a user would. Two halves:
//
//  - Golden invocations: stdout, the exit status and every file an
//    invocation writes are compared against tests/golden/cli_*.golden.
//    Stderr (progress lines, host timings) is not compared. To change a
//    format on purpose, rerun with AOCI_UPDATE_GOLDEN=1 and review the
//    diff.
//  - A negative table: every malformed invocation must exit nonzero
//    with a diagnostic on stderr that names the flag and the value.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

namespace fs = std::filesystem;

namespace {

std::string readFile(const fs::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// A fresh per-test working directory, removed afterwards.
struct ScratchDir {
  fs::path Path;
  explicit ScratchDir(const std::string &Name)
      : Path(fs::temp_directory_path() /
             ("aoci_cli_" + Name + "_" + std::to_string(::getpid()))) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;
};

struct Outcome {
  /// Exit status, or 128 + signal number when the process was killed.
  int Status = -1;
  std::string Out;
  std::string Err;
};

/// Runs `aoci Args` inside \p Dir, capturing stdout and stderr.
Outcome runAoci(const std::string &Args, const fs::path &Dir) {
  const std::string Cmd = "cd '" + Dir.string() + "' && '" AOCI_BIN "' " +
                          Args + " 2> stderr.txt";
  Outcome O;
  FILE *Pipe = ::popen(Cmd.c_str(), "r");
  if (!Pipe)
    return O;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) != 0)
    O.Out.append(Buf, N);
  const int Raw = ::pclose(Pipe);
  O.Status = WIFEXITED(Raw) ? WEXITSTATUS(Raw) : 128 + WTERMSIG(Raw);
  O.Err = readFile(Dir / "stderr.txt");
  return O;
}

/// Byte count and FNV-1a 64 hash, for outputs too large to check in.
std::string digest(const std::string &Text) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(H));
  return std::to_string(Text.size()) + " bytes, fnv1a64 " + Hex;
}

struct Invocation {
  std::string Args;
  /// Files the invocation writes, relative to the working directory.
  std::vector<std::string> Files;
  /// Record only a digest of stdout (the whole-program disassembly).
  bool DigestStdout = false;
};

/// Runs \p Runs in order in one working directory and compares the
/// transcript against tests/golden/cli_<Name>.golden.
void expectGolden(const std::string &Name,
                  const std::vector<Invocation> &Runs) {
  ScratchDir Dir(Name);
  std::string Text;
  for (const Invocation &I : Runs) {
    const Outcome O = runAoci(I.Args, Dir.Path);
    Text += "$ aoci " + I.Args + "\n[exit " + std::to_string(O.Status) +
            "]\n";
    Text += I.DigestStdout ? "--- stdout: " + digest(O.Out) + "\n"
                           : "--- stdout\n" + O.Out;
    for (const std::string &F : I.Files) {
      EXPECT_TRUE(fs::exists(Dir.Path / F)) << I.Args << " wrote no " << F;
      Text += "--- " + F + "\n" + readFile(Dir.Path / F);
    }
  }
  aoci::expectMatchesGolden("cli_" + Name + ".golden", Text,
                            "aoci output changed");
}

} // namespace

TEST(CliTest, RunGolden) {
  expectGolden(
      "run",
      {{"run jess --policy fixed --depth 3 --scale 0.1 --osr on "
        "--code-cache 8000 --fuse on --organizer budget "
        "--budget-inflation 2 --budget-min-weight 1 --plans --trace-stats "
        "--profile-out run.prof",
        {"run.prof"}},
       {"run jess --policy fixed --scale 0.1 --warm-start run.prof --plans",
        {}},
       {"run compress --scale 0.05", {}}});
}

TEST(CliTest, GridGolden) {
  expectGolden("grid", {{"grid --workloads compress,jess --policies "
                         "fixed,paramLess --depths 2,3 --scale 0.05 "
                         "--jobs 2 --report all --csv grid.csv",
                         {"grid.csv"}}});
}

TEST(CliTest, TraceGolden) {
  expectGolden("trace", {{"trace compress --policy fixed --depth 2 "
                          "--scale 0.02 --max-events 40 --trace-filter "
                          "sample,controller-decision,plan-install "
                          "--trace-out trace.json",
                          {"trace.json"}}});
}

TEST(CliTest, ServeGolden) {
  expectGolden("serve", {{"serve --tenants compress:2,jess:1 --scale 0.05 "
                          "--csv serve.csv",
                          {"serve.csv"}}});
}

TEST(CliTest, SteadyGolden) {
  expectGolden("steady", {{"steady --workloads compress,jess --scale 0.1 "
                           "--json steady.json",
                           {"steady.json"}}});
}

TEST(CliTest, FuzzGolden) {
  expectGolden("fuzz", {{"fuzz --seed 3 --budget 4 --scale 0.05", {}}});
}

TEST(CliTest, ListAndDisasmGolden) {
  expectGolden("list_disasm",
               {{"list", {}},
                {"disasm compress Compressor.compressBlock", {}},
                {"disasm compress", {}, /*DigestStdout=*/true}});
}

namespace {

/// One malformed invocation and what its diagnostic must name.
struct RejectCase {
  const char *Id;
  const char *Args;
  const char *Flag;
  const char *Value;
};

const RejectCase RejectCases[] = {
    // Real-valued flags: the whole token, finite, in range.
    {"scale_abc", "run compress --scale abc", "--scale", "abc"},
    {"scale_nan", "run compress --scale nan", "--scale", "nan"},
    {"scale_negative", "run compress --scale -1", "--scale", "-1"},
    {"scale_zero", "grid --scale 0", "--scale", "0"},
    {"scale_inf", "trace compress --scale inf", "--scale", "inf"},
    {"scale_trailing", "steady --scale 0.1x", "--scale", "0.1x"},
    {"threshold_abc", "fuzz --threshold abc", "--threshold", "abc"},
    {"threshold_nan", "fuzz --threshold nan", "--threshold", "nan"},
    {"inflation_nan", "run compress --budget-inflation nan",
     "--budget-inflation", "nan"},
    {"inflation_zero", "grid --budget-inflation 0", "--budget-inflation",
     "0"},
    {"min_weight_abc", "serve --tenants compress --budget-min-weight abc",
     "--budget-min-weight", "abc"},
    {"min_weight_negative", "run compress --budget-min-weight -1",
     "--budget-min-weight", "-1"},
    // Names: workloads, reports, policies, tenants, trace kinds.
    {"grid_workload", "grid --workloads bogus", "--workloads", "bogus"},
    {"steady_workload", "steady --workloads compress,bogus", "--workloads",
     "bogus"},
    {"run_workload", "run bogus", "workload", "bogus"},
    {"trace_workload", "trace bogus", "workload", "bogus"},
    {"disasm_workload", "disasm bogus", "workload", "bogus"},
    {"report", "grid --report bogus", "--report", "bogus"},
    {"policy", "run compress --policy bogus", "--policy", "bogus"},
    {"policies", "grid --policies fixed,bogus", "--policies", "bogus"},
    {"tenants", "serve --tenants bogus:2", "--tenants", "bogus"},
    {"trace_filter", "trace compress --trace-filter bogus-kind",
     "--trace-filter", "bogus-kind"},
    {"trace_filter_empty_item",
     "trace compress --trace-filter sample,,gc-pause", "--trace-filter",
     "sample,,gc-pause"},
    {"osr", "grid --osr maybe", "--osr", "maybe"},
    {"fuse_level", "run compress --fuse level=9", "--fuse", "level=9"},
    {"share_cache", "serve --tenants compress --share-cache maybe",
     "--share-cache", "maybe"},
    // Integer ranges.
    {"grid_trials", "grid --trials 0", "--trials", "0"},
    {"trace_trials", "trace compress --trials 0", "--trials", "0"},
    {"steady_trials", "steady --trials 0", "--trials", "0"},
    {"depth_zero", "run compress --depth 0", "--depth", "0"},
    {"depths_zero", "grid --depths 2,0", "--depths", "0"},
    {"depth_a_zero", "fuzz --depth-a 0", "--depth-a", "0"},
    {"seed_negative", "run compress --seed -3", "--seed", "-3"},
    {"code_cache_suffix", "grid --code-cache 12k", "--code-cache", "12k"},
    {"jobs_negative", "serve --tenants compress --jobs -1", "--jobs", "-1"},
    {"slice_zero", "serve --tenants compress --slice 0", "--slice", "0"},
    // Argument structure.
    {"duplicate", "run compress --scale 0.1 --scale 0.2", "--scale", "0.2"},
    {"duplicate_list", "grid --policies fixed --policies class",
     "--policies", "class"},
    {"unknown_flag", "run compress --bogus 1", "--bogus", "--bogus"},
    {"foreign_flag", "steady --organizer budget", "--organizer",
     "--organizer"},
    {"missing_value", "run compress --scale", "--scale", "--scale"},
    {"warm_start_missing", "run compress --warm-start missing.prof",
     "--warm-start", "missing.prof"},
};

void PrintTo(const RejectCase &C, std::ostream *OS) { *OS << C.Args; }

class CliRejectTest : public ::testing::TestWithParam<RejectCase> {};

} // namespace

TEST_P(CliRejectTest, ExitsNonzeroWithDiagnostic) {
  const RejectCase &C = GetParam();
  ScratchDir Dir(C.Id);
  const Outcome O = runAoci(C.Args, Dir.Path);
  EXPECT_NE(O.Status, 0) << C.Args;
  EXPECT_LT(O.Status, 128) << C.Args << " was killed by a signal";
  EXPECT_NE(O.Err.find(C.Flag), std::string::npos)
      << C.Args << ": diagnostic does not name " << C.Flag << ":\n"
      << O.Err;
  EXPECT_NE(O.Err.find(std::string("'") + C.Value + "'"), std::string::npos)
      << C.Args << ": diagnostic does not quote '" << C.Value << "':\n"
      << O.Err;
  EXPECT_TRUE(O.Out.empty()) << C.Args << " printed to stdout:\n" << O.Out;
}

INSTANTIATE_TEST_SUITE_P(
    Cli, CliRejectTest, ::testing::ValuesIn(RejectCases),
    [](const ::testing::TestParamInfo<RejectCase> &Info) {
      return std::string(Info.param.Id);
    });
