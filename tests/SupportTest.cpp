//===- tests/SupportTest.cpp - Unit tests for the support layer -----------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/Integration.h"
#include "support/Random.h"
#include "support/RootFinding.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "support/TablePrinter.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace dynfb;

namespace {

// ---------------------------- Random --------------------------------------

TEST(RandomTest, DeterministicStreams) {
  Rng A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next64(), B.next64());
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.next64() == B.next64();
  EXPECT_LT(Same, 4);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I) {
    const double X = R.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(RandomTest, UniformRespectsBounds) {
  Rng R(11);
  for (int I = 0; I < 1000; ++I) {
    const double X = R.uniform(-3.5, 2.25);
    EXPECT_GE(X, -3.5);
    EXPECT_LT(X, 2.25);
  }
}

TEST(RandomTest, NextBelowIsUnbiasedEnough) {
  Rng R(99);
  int Counts[10] = {};
  for (int I = 0; I < 100000; ++I)
    ++Counts[R.nextBelow(10)];
  for (int C : Counts) {
    EXPECT_GT(C, 9000);
    EXPECT_LT(C, 11000);
  }
}

TEST(RandomTest, GaussianMoments) {
  Rng R(5);
  RunningStat S;
  for (int I = 0; I < 200000; ++I)
    S.add(R.gaussian(2.0, 3.0));
  EXPECT_NEAR(S.mean(), 2.0, 0.05);
  EXPECT_NEAR(S.stddev(), 3.0, 0.05);
}

// ---------------------------- Statistics ----------------------------------

TEST(RunningStatTest, BasicMoments) {
  RunningStat S;
  for (double X : {1.0, 2.0, 3.0, 4.0})
    S.add(X);
  EXPECT_EQ(S.count(), 4u);
  EXPECT_DOUBLE_EQ(S.mean(), 2.5);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 4.0);
  EXPECT_DOUBLE_EQ(S.sum(), 10.0);
  EXPECT_NEAR(S.variance(), 1.25, 1e-12);
}

TEST(RunningStatTest, MergeMatchesSequential) {
  RunningStat All, A, B;
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    const double X = R.uniform(-5, 5);
    All.add(X);
    (I % 2 ? A : B).add(X);
  }
  A.merge(B);
  EXPECT_EQ(A.count(), All.count());
  EXPECT_NEAR(A.mean(), All.mean(), 1e-9);
  EXPECT_NEAR(A.variance(), All.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(A.min(), All.min());
  EXPECT_DOUBLE_EQ(A.max(), All.max());
}

TEST(RunningStatTest, MergeWithEmpty) {
  RunningStat A, Empty;
  A.add(1.0);
  A.merge(Empty);
  EXPECT_EQ(A.count(), 1u);
  Empty.merge(A);
  EXPECT_EQ(Empty.count(), 1u);
  EXPECT_DOUBLE_EQ(Empty.mean(), 1.0);
}

TEST(SeriesSetTest, GetOrCreateAndFind) {
  SeriesSet Set;
  EXPECT_TRUE(Set.empty());
  Set.getOrCreate("A").addPoint(1.0, 2.0);
  Set.getOrCreate("A").addPoint(2.0, 3.0);
  Set.getOrCreate("B").addPoint(0.5, 0.25);
  ASSERT_NE(Set.find("A"), nullptr);
  EXPECT_EQ(Set.find("A")->size(), 2u);
  EXPECT_EQ(Set.find("C"), nullptr);
  EXPECT_EQ(Set.all().size(), 2u);
}

// ---------------------------- RootFinding ---------------------------------

TEST(RootFindingTest, BisectFindsSqrt2) {
  auto F = [](double X) { return X * X - 2.0; };
  auto Root = bisect(F, 0.0, 2.0);
  ASSERT_TRUE(Root.has_value());
  EXPECT_NEAR(Root->X, std::sqrt(2.0), 1e-9);
}

TEST(RootFindingTest, BisectRejectsNoSignChange) {
  auto F = [](double X) { return X * X + 1.0; };
  EXPECT_FALSE(bisect(F, -1.0, 1.0).has_value());
}

TEST(RootFindingTest, BisectAcceptsEndpointRoot) {
  auto F = [](double X) { return X; };
  auto Root = bisect(F, 0.0, 5.0);
  ASSERT_TRUE(Root.has_value());
  EXPECT_DOUBLE_EQ(Root->X, 0.0);
}

TEST(RootFindingTest, NewtonConvergesFast) {
  auto F = [](double X) { return std::exp(X) - 3.0; };
  auto DF = [](double X) { return std::exp(X); };
  auto Root = newtonSafeguarded(F, DF, 1.0, 0.0, 4.0);
  ASSERT_TRUE(Root.has_value());
  EXPECT_NEAR(Root->X, std::log(3.0), 1e-9);
}

// ---------------------------- Integration ---------------------------------

TEST(IntegrationTest, PolynomialExact) {
  auto F = [](double X) { return 3.0 * X * X; };
  EXPECT_NEAR(integrate(F, 0.0, 2.0), 8.0, 1e-8);
}

TEST(IntegrationTest, ReversedBoundsNegate) {
  auto F = [](double X) { return X; };
  EXPECT_NEAR(integrate(F, 1.0, 0.0), -0.5, 1e-9);
}

TEST(IntegrationTest, ExponentialDecay) {
  const double Alpha = 0.065;
  auto F = [&](double T) { return std::exp(-Alpha * T); };
  const double Expected = (1.0 - std::exp(-Alpha * 10.0)) / Alpha;
  EXPECT_NEAR(integrate(F, 0.0, 10.0), Expected, 1e-8);
}

// ---------------------------- StringUtils ---------------------------------

TEST(StringUtilsTest, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
}

TEST(StringUtilsTest, ThousandsSeparator) {
  EXPECT_EQ(withThousandsSep(0), "0");
  EXPECT_EQ(withThousandsSep(999), "999");
  EXPECT_EQ(withThousandsSep(1000), "1,000");
  EXPECT_EQ(withThousandsSep(15471616), "15,471,616");
}

TEST(StringUtilsTest, FormatSeconds) {
  EXPECT_EQ(formatSeconds(0.5), "500.00 ms");
  EXPECT_EQ(formatSeconds(2.0), "2.00 s");
  EXPECT_EQ(formatSeconds(5e-6), "5.0 us");
}

// ---------------------------- TablePrinter --------------------------------

TEST(TablePrinterTest, RenderTextAligned) {
  Table T("Demo");
  T.setHeader({"Version", "1", "16"});
  T.addRow({"Original", "217.2", "15.64"});
  T.addRow({"Aggressive", "149.9", "12.87"});
  const std::string Text = T.renderText();
  EXPECT_NE(Text.find("Demo"), std::string::npos);
  EXPECT_NE(Text.find("Original"), std::string::npos);
  EXPECT_NE(Text.find("15.64"), std::string::npos);
}

TEST(TablePrinterTest, RenderCsvEscapes) {
  Table T("T");
  T.setHeader({"a", "b"});
  T.addRow({"x,y", "has \"quote\""});
  const std::string Csv = T.renderCsv();
  EXPECT_NE(Csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Csv.find("\"has \"\"quote\"\"\""), std::string::npos);
}

TEST(TablePrinterTest, SeriesCsv) {
  SeriesSet Set;
  Set.getOrCreate("Original").addPoint(1.5, 0.25);
  const std::string Csv = renderSeriesCsv(Set, "time", "overhead");
  EXPECT_NE(Csv.find("series,time,overhead"), std::string::npos);
  EXPECT_NE(Csv.find("Original,1.5,0.25"), std::string::npos);
}

// ---------------------------- CommandLine ---------------------------------

TEST(CommandLineTest, ParsesForms) {
  const char *Argv[] = {"prog", "--a=1",    "--b", "2",
                        "pos",  "--flag", "--d=x y"};
  CommandLine CL(7, Argv);
  EXPECT_EQ(CL.getInt("a", 0), 1);
  EXPECT_EQ(CL.getInt("b", 0), 2);
  EXPECT_TRUE(CL.getBool("flag", false));
  EXPECT_EQ(CL.getString("d", ""), "x y");
  ASSERT_EQ(CL.positional().size(), 1u);
  EXPECT_EQ(CL.positional()[0], "pos");
}

TEST(CommandLineTest, DefaultsWhenAbsent) {
  const char *Argv[] = {"prog"};
  CommandLine CL(1, Argv);
  EXPECT_EQ(CL.getInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(CL.getDouble("x", 2.5), 2.5);
  EXPECT_FALSE(CL.getBool("flag", false));
  EXPECT_FALSE(CL.has("n"));
}

TEST(CommandLineTest, UnqueriedFlagsDetected) {
  const char *Argv[] = {"prog", "--used=1", "--typo=2"};
  CommandLine CL(3, Argv);
  (void)CL.getInt("used", 0);
  const auto Unqueried = CL.unqueriedFlags();
  ASSERT_EQ(Unqueried.size(), 1u);
  EXPECT_EQ(Unqueried[0], "typo");
}

TEST(CommandLineTest, RepeatedFlagsAreRefused) {
  const char *Argv[] = {"prog", "--scale", "0.1", "--n=1",
                        "--scale=1e9", "--scale", "--typo", "--typo"};
  CommandLine CL(8, Argv);
  EXPECT_EQ(CL.repeatedFlags(), (std::vector<std::string>{"scale", "typo"}));
  // Each name is reported once, however often it repeats.
  EXPECT_EQ(CL.unqueriedFlags(),
            (std::vector<std::string>{"scale", "n", "typo"}));
  EXPECT_FALSE(rejectUnknownFlags(CL, "prog", {"scale", "n", "typo"}));

  const char *Once[] = {"prog", "--scale", "0.1", "--n=1"};
  EXPECT_TRUE(CommandLine(4, Once).repeatedFlags().empty());
  EXPECT_TRUE(rejectUnknownFlags(CommandLine(4, Once), "prog", {"scale", "n"}));
}

} // namespace
