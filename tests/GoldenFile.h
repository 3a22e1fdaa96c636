//===- tests/GoldenFile.h - Expected-file comparison for tests --*- C++ -*-===//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Characterization tests render a behaviour as text and compare it with an
/// expected file under tests/golden/. Running the tests with
/// DYNFB_UPDATE_GOLDEN=1 rewrites the files instead (review the diff).
///
//===----------------------------------------------------------------------===//

#ifndef DYNFB_TESTS_GOLDENFILE_H
#define DYNFB_TESTS_GOLDENFILE_H

#include <cstdlib>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>

namespace dynfb::test {

/// Compares \p Actual with the file at \p Path line by line, so a failure
/// names the first diverging line; with DYNFB_UPDATE_GOLDEN set, rewrites
/// the file and skips the test.
inline void expectMatchesGoldenFile(const std::string &Path,
                                    const std::string &Actual) {
  if (std::getenv("DYNFB_UPDATE_GOLDEN")) {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing expected file " << Path
                  << " (record it with DYNFB_UPDATE_GOLDEN=1)";
  std::stringstream Expected;
  Expected << In.rdbuf();
  std::istringstream A(Actual), E(Expected.str());
  std::string AL, EL;
  for (unsigned Line = 1;; ++Line) {
    const bool HaveA = static_cast<bool>(std::getline(A, AL));
    const bool HaveE = static_cast<bool>(std::getline(E, EL));
    if (!HaveA && !HaveE)
      break;
    ASSERT_TRUE(HaveA && HaveE && AL == EL)
        << Path << ":" << Line << " differs\n  expected: "
        << (HaveE ? EL : "<end of file>")
        << "\n  actual:   " << (HaveA ? AL : "<end of output>");
  }
}

} // namespace dynfb::test

#endif // DYNFB_TESTS_GOLDENFILE_H
