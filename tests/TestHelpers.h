//===- tests/TestHelpers.h - Checks shared by the test suites ---*- C++ -*-===//
//
// Part of the AOCI project: a reproduction of "Adaptive Online
// Context-Sensitive Inlining" (Hazelwood & Grove, CGO 2003).
//
// The golden-file protocol (AOCI_UPDATE_GOLDEN=1 rewrites a fixture
// instead of comparing), the one run-equality check, which iterates the
// run counter table, and the markdown readers the documentation checks
// use.
//
//===----------------------------------------------------------------------===//

#ifndef AOCI_TESTS_TESTHELPERS_H
#define AOCI_TESTS_TESTHELPERS_H

#include "harness/RunCounters.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace aoci {

/// Compares \p Actual with the file at \p Path; \p Drift says what a
/// mismatch means. With AOCI_UPDATE_GOLDEN=1 in the environment it
/// rewrites the file instead and skips the test.
inline void expectMatchesFile(const std::string &Path,
                              const std::string &Actual,
                              const std::string &Drift) {
  if (const char *Update = std::getenv("AOCI_UPDATE_GOLDEN");
      Update && Update[0] == '1') {
    std::ofstream Out(Path, std::ios::binary);
    ASSERT_TRUE(Out) << "cannot write " << Path;
    Out << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing fixture " << Path
                  << " (regenerate with AOCI_UPDATE_GOLDEN=1)";
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  EXPECT_EQ(Buffer.str(), Actual)
      << Path << " drifted: " << Drift
      << ". If intentional, rerun with AOCI_UPDATE_GOLDEN=1 and review the "
         "fixture diff";
}

/// expectMatchesFile on the fixture tests/golden/\p Name.
inline void expectMatchesGolden(const std::string &Name,
                                const std::string &Actual,
                                const std::string &Drift) {
  expectMatchesFile(std::string(AOCI_GOLDEN_DIR) + "/" + Name, Actual, Drift);
}

/// Expects two runs to agree on every row of the run counter table but
/// \p Except, on their identity (workload, policy, depth) and on their
/// Plans and CapturedProfile text. TraceStats is Section 4 tooling, not
/// a counter, and is not compared.
inline void
expectSameRun(const RunResult &A, const RunResult &B,
              std::initializer_list<runcounter::Reader> Except = {}) {
  EXPECT_EQ(A.WorkloadName, B.WorkloadName);
  EXPECT_EQ(A.Policy, B.Policy);
  EXPECT_EQ(A.MaxDepth, B.MaxDepth);
  for (const runcounter::Spec &Row : runcounter::Table) {
    if (std::find(Except.begin(), Except.end(), Row.Get) != Except.end())
      continue;
    EXPECT_EQ(Row.Get(A), Row.Get(B)) << Row.Name;
  }
  EXPECT_EQ(A.Plans, B.Plans);
  EXPECT_EQ(A.CapturedProfile, B.CapturedProfile);
}

inline std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

/// The trimmed cells of a markdown table row: "| a | b |" -> {a, b}.
inline std::vector<std::string> tableCells(const std::string &Row) {
  std::vector<std::string> Cells;
  std::stringstream In(Row.substr(Row.find('|') + 1));
  for (std::string Cell; std::getline(In, Cell, '|');) {
    const size_t First = Cell.find_first_not_of(' ');
    const size_t Last = Cell.find_last_not_of(' ');
    Cells.push_back(First == std::string::npos
                        ? ""
                        : Cell.substr(First, Last - First + 1));
  }
  return Cells;
}

/// The `backticked` spans of \p Text.
inline std::vector<std::string> codeSpans(const std::string &Text) {
  std::vector<std::string> Spans;
  for (size_t Open = Text.find('`'); Open != std::string::npos;) {
    const size_t Close = Text.find('`', Open + 1);
    if (Close == std::string::npos)
      break;
    Spans.push_back(Text.substr(Open + 1, Close - Open - 1));
    Open = Text.find('`', Close + 1);
  }
  return Spans;
}

} // namespace aoci

#endif // AOCI_TESTS_TESTHELPERS_H
