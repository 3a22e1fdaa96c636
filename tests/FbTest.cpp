//===- tests/FbTest.cpp - Unit tests for the dynamic feedback core --------==//
//
// Part of the dynfb project (PLDI 1997 "Dynamic Feedback" reproduction).
//
//===----------------------------------------------------------------------===//

#include "GoldenFile.h"
#include "fb/Controller.h"
#include "fb/Driver.h"
#include "fb/Sampling.h"
#include "obs/Export.h"
#include "obs/Metrics.h"
#include "support/StringUtils.h"

#include <functional>
#include <gtest/gtest.h>

using namespace dynfb;
using namespace dynfb::fb;
using namespace dynfb::rt;

namespace {

/// Synthetic runner: version V has overhead OverheadFn(V, now). Work is a
/// fixed amount of virtual time; each interval consumes min(target,
/// remaining) and reports stats with exactly the requested overhead.
class MockRunner : public IntervalRunner {
public:
  MockRunner(unsigned NumVersions, Nanos TotalWork,
             std::function<double(unsigned, Nanos)> OverheadFn)
      : NumVersionsV(NumVersions), TotalWork(TotalWork),
        OverheadFn(std::move(OverheadFn)) {}
  ~MockRunner() override {
    if (OnDestroy)
      OnDestroy(*this);
  }

  unsigned numVersions() const override { return NumVersionsV; }
  std::string versionLabel(unsigned V) const override {
    return "v" + std::to_string(V);
  }
  IntervalReport runInterval(unsigned V, Nanos Target) override {
    const double Overhead = OverheadFn(V, Clock);
    // Overhead inflates the time needed per unit of useful work.
    const Nanos Dur = std::min(Target, Nanos(static_cast<double>(Remaining) /
                                             (1.0 - Overhead)));
    Clock += Dur;
    Remaining -= static_cast<Nanos>(static_cast<double>(Dur) *
                                    (1.0 - Overhead));
    if (Remaining < 1000) // Round-off guard.
      Remaining = 0;
    IntervalReport R;
    R.EffectiveNanos = Dur;
    R.Stats.ExecNanos = Dur;
    R.Stats.LockOpNanos = static_cast<Nanos>(Overhead * Dur);
    R.Stats.AcquireReleasePairs = static_cast<uint64_t>(V) + 1;
    R.Finished = Remaining == 0;
    ++IntervalsRun[V];
    return R;
  }
  bool done() const override { return Remaining == 0; }
  void reset() override { Remaining = TotalWork; }
  Nanos now() const override { return Clock; }

  const unsigned NumVersionsV;
  const Nanos TotalWork;
  Nanos Remaining = TotalWork;
  Nanos Clock = 0;
  std::function<double(unsigned, Nanos)> OverheadFn;
  std::map<unsigned, unsigned> IntervalsRun;
  /// The driver owns and destroys runners; a backend that needs a runner's
  /// final state can collect it here instead of keeping a dangling pointer.
  std::function<void(const MockRunner &)> OnDestroy;
};

/// Every third interval is zero-length and unmeasurable.
class FlakyMock : public MockRunner {
public:
  using MockRunner::MockRunner;
  IntervalReport runInterval(unsigned V, Nanos Target) override {
    if (++Calls % 3 == 0)
      return IntervalReport{};
    return MockRunner::runInterval(V, Target);
  }
  unsigned Calls = 0;
};

/// Version 1 never measures: every interval it runs is zero-length.
class ZeroForOneMock : public MockRunner {
public:
  using MockRunner::MockRunner;
  IntervalReport runInterval(unsigned V, Nanos Target) override {
    if (V == 1)
      return IntervalReport{};
    return MockRunner::runInterval(V, Target);
  }
};

FeedbackConfig smallConfig() {
  FeedbackConfig C;
  C.TargetSamplingNanos = millisToNanos(10);
  C.TargetProductionNanos = secondsToNanos(1);
  return C;
}

TEST(ControllerTest, PicksLowestOverheadVersion) {
  MockRunner R(3, secondsToNanos(3), [](unsigned V, Nanos) {
    return V == 1 ? 0.05 : 0.5; // Version 1 is clearly best.
  });
  FeedbackController C(smallConfig());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  ASSERT_FALSE(T.ChosenVersions.empty());
  for (unsigned V : T.ChosenVersions)
    EXPECT_EQ(V, 1u);
  EXPECT_EQ(T.dominantVersion(), 1u);
}

TEST(ControllerTest, SamplesEveryVersionEachSamplingPhase) {
  MockRunner R(3, secondsToNanos(2),
               [](unsigned, Nanos) { return 0.1; });
  FeedbackController C(smallConfig());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_EQ(T.SampledIntervals, T.SamplingPhases * 3);
  EXPECT_EQ(T.SampledOverheads.all().size(), 3u);
}

TEST(ControllerTest, AdaptsWhenEnvironmentChanges) {
  // Version 0 starts best; after 2 virtual seconds version 1 becomes best.
  MockRunner R(2, secondsToNanos(6), [](unsigned V, Nanos Now) {
    const bool Early = Now < secondsToNanos(2);
    if (V == 0)
      return Early ? 0.05 : 0.6;
    return Early ? 0.4 : 0.05;
  });
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(1);
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  ASSERT_GE(T.ChosenVersions.size(), 3u);
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
  EXPECT_EQ(T.ChosenVersions.back(), 1u);
}

TEST(ControllerTest, TiesResolveToEarliestPolicy) {
  MockRunner R(3, secondsToNanos(1),
               [](unsigned, Nanos) { return 0.2; });
  FeedbackController C(smallConfig());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  ASSERT_FALSE(T.ChosenVersions.empty());
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
}

TEST(ControllerTest, EarlyCutoffSkipsRemainingVersions) {
  // Extreme-first order puts the last version first; give it negligible
  // overhead so sampling cuts off after one interval.
  MockRunner R(3, secondsToNanos(2), [](unsigned V, Nanos) {
    return V == 2 ? 0.01 : 0.5;
  });
  FeedbackConfig Config = smallConfig();
  Config.EarlyCutoff = true;
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GT(T.SkippedByCutoff, 0u);
  EXPECT_EQ(T.ChosenVersions.front(), 2u);
  // Versions 0 and 1 were never run at all in the first phase.
  EXPECT_EQ(R.IntervalsRun.count(1), 0u);
}

std::vector<std::string> mockLabels(unsigned N) {
  std::vector<std::string> Labels;
  for (unsigned V = 0; V < N; ++V)
    Labels.push_back("v" + std::to_string(V));
  return Labels;
}

TEST(ControllerTest, SamplingOrderDefaultIsSpaceOrder) {
  FeedbackController C(smallConfig());
  const auto Order = C.samplingOrder(mockLabels(3), "S");
  EXPECT_EQ(Order, (std::vector<unsigned>{0, 1, 2}));
}

TEST(ControllerTest, SamplingOrderExtremesFirstUnderCutoff) {
  FeedbackConfig Config = smallConfig();
  Config.EarlyCutoff = true;
  FeedbackController C(Config);
  const auto Order = C.samplingOrder(mockLabels(3), "S");
  EXPECT_EQ(Order, (std::vector<unsigned>{2, 0, 1}));
}

TEST(ControllerTest, PolicyOrderingUsesHistory) {
  PolicyHistory History;
  History.recordBest("S", "v1");
  FeedbackConfig Config = smallConfig();
  Config.UsePolicyOrdering = true;
  FeedbackController C(Config, &History);
  const auto Order = C.samplingOrder(mockLabels(3), "S");
  EXPECT_EQ(Order.front(), 1u);
  // Unknown sections fall back to space order.
  EXPECT_EQ(C.samplingOrder(mockLabels(3), "T").front(), 0u);
}

TEST(ControllerTest, HistoryIsRecorded) {
  PolicyHistory History;
  MockRunner R(2, secondsToNanos(1), [](unsigned V, Nanos) {
    return V == 1 ? 0.1 : 0.5;
  });
  FeedbackController C(smallConfig(), &History);
  C.executeSection(R, "S");
  EXPECT_EQ(History.lastBest("S"), "v1");
}

TEST(ControllerTest, SamplesWholeSpaceAtEverySize) {
  // The sampling phase visits every point of the version space regardless
  // of its size: |space| = 1 (degenerate), 4, 9 (the 3x3 product).
  for (const unsigned N : {1u, 4u, 9u}) {
    const unsigned BestV = N - 1;
    MockRunner R(N, secondsToNanos(4), [BestV](unsigned V, Nanos) {
      return V == BestV ? 0.05 : 0.4;
    });
    FeedbackController C(smallConfig());
    const SectionExecutionTrace T = C.executeSection(R, "S");
    EXPECT_EQ(T.SampledIntervals, T.SamplingPhases * N) << "N=" << N;
    EXPECT_EQ(T.SampledOverheads.all().size(), N);
    ASSERT_FALSE(T.ChosenVersions.empty());
    EXPECT_EQ(T.dominantVersion(), BestV);
  }
}

TEST(ControllerTest, EarlyCutoffScalesWithSpaceSize) {
  // Early cut-off matters more the larger the space: with the extreme
  // (last) version acceptable, the middle of the space is never sampled.
  for (const unsigned N : {4u, 9u}) {
    MockRunner R(N, secondsToNanos(2), [N](unsigned V, Nanos) {
      return V == N - 1 ? 0.01 : 0.5;
    });
    FeedbackConfig Config = smallConfig();
    Config.EarlyCutoff = true;
    FeedbackController C(Config);
    const SectionExecutionTrace T = C.executeSection(R, "S");
    EXPECT_GT(T.SkippedByCutoff, 0u) << "N=" << N;
    EXPECT_EQ(T.ChosenVersions.front(), N - 1);
    EXPECT_EQ(R.IntervalsRun.count(1), 0u);
  }
}

TEST(ControllerTest, SamplingOrderAcrossSpaceSizes) {
  FeedbackController Plain(smallConfig());
  EXPECT_EQ(Plain.samplingOrder(mockLabels(1), "S"),
            (std::vector<unsigned>{0}));
  EXPECT_EQ(Plain.samplingOrder(mockLabels(4), "S"),
            (std::vector<unsigned>{0, 1, 2, 3}));

  FeedbackConfig Cut = smallConfig();
  Cut.EarlyCutoff = true;
  FeedbackController C(Cut);
  // Extremes first; a one-version space has a single extreme.
  EXPECT_EQ(C.samplingOrder(mockLabels(1), "S"),
            (std::vector<unsigned>{0}));
  EXPECT_EQ(C.samplingOrder(mockLabels(4), "S"),
            (std::vector<unsigned>{3, 0, 1, 2}));
  EXPECT_EQ(C.samplingOrder(mockLabels(9), "S"),
            (std::vector<unsigned>{8, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ControllerTest, HistorySurvivesReorderedAndExtendedSpace) {
  // History records descriptor names, not indices, so recorded knowledge
  // stays valid when the space is reordered or extended between runs.
  PolicyHistory History;
  History.recordBest("S", "Bounded");
  FeedbackConfig Config = smallConfig();
  Config.UsePolicyOrdering = true;
  FeedbackController C(Config, &History);

  const std::vector<std::string> Space3{"Original", "Bounded", "Aggressive"};
  EXPECT_EQ(C.samplingOrder(Space3, "S").front(), 1u);
  const std::vector<std::string> Reordered{"Aggressive", "Original",
                                           "Bounded"};
  EXPECT_EQ(C.samplingOrder(Reordered, "S").front(), 2u);
  const std::vector<std::string> Product{
      "Original",   "Original+chunk8",   "Original+chunk32",
      "Bounded",    "Bounded+chunk8",    "Bounded+chunk32",
      "Aggressive", "Aggressive+chunk8", "Aggressive+chunk32"};
  EXPECT_EQ(C.samplingOrder(Product, "S").front(), 3u);
}

TEST(ControllerTest, HistoryResolvesMergedVersionLabels) {
  // Water INTERF merges Bounded and Aggressive into one version labelled
  // "Bounded/Aggressive": a best recorded under a component name resolves
  // to the merged version, and a merged name resolves in a split space.
  PolicyHistory History;
  History.recordBest("S", "Aggressive");
  FeedbackConfig Config = smallConfig();
  Config.UsePolicyOrdering = true;
  FeedbackController C(Config, &History);
  const std::vector<std::string> Merged{"Original", "Bounded/Aggressive"};
  EXPECT_EQ(C.samplingOrder(Merged, "S").front(), 1u);

  History.recordBest("S", "Bounded/Aggressive");
  const std::vector<std::string> Split{"Original", "Bounded", "Aggressive"};
  EXPECT_EQ(C.samplingOrder(Split, "S").front(), 1u);
}

TEST(ControllerTest, RecordsEffectiveSamplingIntervals) {
  MockRunner R(2, secondsToNanos(1),
               [](unsigned, Nanos) { return 0.1; });
  FeedbackController C(smallConfig());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  ASSERT_EQ(T.EffectiveSamplingByVersion.size(), 2u);
  for (const auto &[Label, Stat] : T.EffectiveSamplingByVersion) {
    (void)Label;
    EXPECT_GT(Stat.count(), 0u);
    EXPECT_GT(Stat.mean(), 0.0);
  }
}

TEST(ControllerTest, SectionShorterThanSamplingStillCompletes) {
  MockRunner R(3, millisToNanos(5), [](unsigned, Nanos) { return 0.1; });
  FeedbackController C(smallConfig());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_TRUE(R.done());
  EXPECT_LE(T.SampledIntervals, 3u);
}

TEST(ControllerTest, OverheadAlwaysInUnitInterval) {
  OverheadStats S;
  S.ExecNanos = 1000;
  S.LockOpNanos = 600;
  S.WaitNanos = 600;
  EXPECT_DOUBLE_EQ(S.totalOverhead(), 1.0); // Clamped.
  S.LockOpNanos = 0;
  S.WaitNanos = 0;
  EXPECT_DOUBLE_EQ(S.totalOverhead(), 0.0);
  OverheadStats Empty;
  EXPECT_DOUBLE_EQ(Empty.totalOverhead(), 0.0);
}

// ----------------------------- Edge cases ---------------------------------

TEST(ControllerEdgeTest, SingleVersionSectionRunsToCompletion) {
  MockRunner R(1, secondsToNanos(1), [](unsigned, Nanos) { return 0.2; });
  FeedbackController C(smallConfig());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_TRUE(R.done());
  ASSERT_FALSE(T.ChosenVersions.empty());
  for (unsigned V : T.ChosenVersions)
    EXPECT_EQ(V, 0u);
  EXPECT_EQ(T.dominantVersion(), 0u);
  EXPECT_EQ(T.SampledOverheads.all().size(), 1u);
}

TEST(ControllerEdgeTest, ZeroWorkSectionProducesEmptyTrace) {
  MockRunner R(3, 0, [](unsigned, Nanos) { return 0.2; });
  FeedbackController C(smallConfig());
  ASSERT_TRUE(R.done());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_EQ(T.SampledIntervals, 0u);
  EXPECT_TRUE(T.ChosenVersions.empty());
  EXPECT_EQ(T.dominantVersion(), std::nullopt);
  EXPECT_EQ(T.durationNanos(), 0);
}

TEST(ControllerEdgeTest, SamplingIntervalLongerThanSection) {
  // The whole section fits inside the first sampling interval: the run
  // completes during sampling, never reaches production, and the trace
  // stays consistent.
  FeedbackConfig Config;
  Config.TargetSamplingNanos = secondsToNanos(10);
  Config.TargetProductionNanos = secondsToNanos(100);
  MockRunner R(3, millisToNanos(50), [](unsigned, Nanos) { return 0.1; });
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_TRUE(R.done());
  EXPECT_EQ(T.SampledIntervals, 1u);
  EXPECT_TRUE(T.ChosenVersions.empty());
  EXPECT_EQ(T.dominantVersion(), std::nullopt);
}

TEST(ControllerEdgeTest, DegenerateZeroDurationIntervalsAreCounted) {
  // A runner that reports zero-duration intervals for version 1: before the
  // robustness fix a 0/0 measurement entered selection as a perfect zero
  // overhead and version 1 always "won".
  ZeroForOneMock R(2, secondsToNanos(1), [](unsigned, Nanos) { return 0.3; });
  FeedbackController C(smallConfig());
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GT(T.DegenerateIntervals, 0u);
  ASSERT_FALSE(T.ChosenVersions.empty());
  for (unsigned V : T.ChosenVersions)
    EXPECT_EQ(V, 0u) << "a 0/0 measurement must never win selection";
  // Version 1 contributed no overhead samples and no effective intervals.
  EXPECT_EQ(T.SampledOverheads.find("v1"), nullptr);
  EXPECT_EQ(T.EffectiveSamplingByVersion.count("v1"), 0u);
}

// ------------------- Spanning intervals (Section 4.4 extension) -----------

TEST(SpanningTest, InterruptedMidSamplingPhaseResumesNextOccurrence) {
  // Occurrences of 4 ms against a 10 ms sampling interval: every occurrence
  // ends mid-interval, and the phase state must carry across occurrences
  // until each version has accumulated its full interval.
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(10);
  Config.SpanSectionExecutions = true;
  FeedbackController C(Config);

  unsigned TotalSampled = 0;
  std::vector<unsigned> Chosen;
  Nanos GlobalClock = 0;
  for (int Occ = 0; Occ < 30; ++Occ) {
    MockRunner R(2, millisToNanos(4), [](unsigned V, Nanos) {
      return V == 1 ? 0.05 : 0.5;
    });
    R.Clock = GlobalClock;
    const SectionExecutionTrace T = C.executeSection(R, "S");
    GlobalClock = R.Clock;
    EXPECT_TRUE(R.done());
    TotalSampled += T.SampledIntervals;
    for (unsigned V : T.ChosenVersions)
      Chosen.push_back(V);
  }
  // Exactly one completed sampling interval per version for the whole run,
  // each assembled from multiple interrupted occurrences.
  EXPECT_EQ(TotalSampled, 2u);
  ASSERT_FALSE(Chosen.empty());
  for (unsigned V : Chosen)
    EXPECT_EQ(V, 1u);
}

TEST(SpanningTest, SamplesOncePerProductionBudgetAcrossOccurrences) {
  // Many tiny occurrences: per-occurrence mode samples in each; spanning
  // mode samples once and then stays in production until the budget runs
  // out.
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(10);
  Config.SpanSectionExecutions = true;
  FeedbackController C(Config);

  unsigned TotalSampled = 0;
  for (int Occ = 0; Occ < 20; ++Occ) {
    MockRunner R(3, millisToNanos(50), [](unsigned V, Nanos) {
      return V == 1 ? 0.05 : 0.5;
    });
    const SectionExecutionTrace T = C.executeSection(R, "S");
    TotalSampled += T.SampledIntervals;
  }
  // Three sampling intervals (one per version) for the whole run, instead
  // of up to three per occurrence.
  EXPECT_EQ(TotalSampled, 3u);
}

TEST(SpanningTest, ProductionUsesBestVersionAcrossOccurrences) {
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(10);
  Config.SpanSectionExecutions = true;
  FeedbackController C(Config);

  std::vector<unsigned> Chosen;
  for (int Occ = 0; Occ < 10; ++Occ) {
    MockRunner R(2, millisToNanos(100), [](unsigned V, Nanos) {
      return V == 1 ? 0.02 : 0.6;
    });
    const SectionExecutionTrace T = C.executeSection(R, "S");
    for (unsigned V : T.ChosenVersions)
      Chosen.push_back(V);
  }
  ASSERT_FALSE(Chosen.empty());
  for (unsigned V : Chosen)
    EXPECT_EQ(V, 1u);
}

TEST(SpanningTest, ResamplesAfterProductionBudget) {
  // Production budget of 200 ms over 100 ms occurrences: after two
  // occurrences the controller resamples and can pick a new best version.
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = millisToNanos(200);
  Config.SpanSectionExecutions = true;
  FeedbackController C(Config);

  Nanos GlobalClock = 0;
  unsigned SamplingPhases = 0;
  std::vector<unsigned> Chosen;
  for (int Occ = 0; Occ < 12; ++Occ) {
    // Version 0 best before 600 ms of virtual time, version 1 after.
    MockRunner R(2, millisToNanos(100), [](unsigned V, Nanos Now) {
      const bool Early = Now < millisToNanos(600);
      if (V == 0)
        return Early ? 0.05 : 0.6;
      return Early ? 0.6 : 0.05;
    });
    R.Clock = GlobalClock;
    const SectionExecutionTrace T = C.executeSection(R, "S");
    GlobalClock = R.Clock;
    SamplingPhases += T.SamplingPhases;
    for (unsigned V : T.ChosenVersions)
      Chosen.push_back(V);
  }
  EXPECT_GT(SamplingPhases, 1u);
  ASSERT_GE(Chosen.size(), 2u);
  EXPECT_EQ(Chosen.front(), 0u);
  EXPECT_EQ(Chosen.back(), 1u);
}

TEST(SpanningTest, SamplingRepeatsApplyAcrossOccurrences) {
  // Three repeats per version, each interval assembled from interrupted
  // occurrences: one sampling phase of two versions is six intervals, and
  // each Sample event folds three usable repeats.
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(10);
  Config.SpanSectionExecutions = true;
  Config.SamplingRepeats = 3;
  Config.SamplingAggregation = OverheadAggregation::Median;
  obs::DecisionLog Log;
  FeedbackController C(Config, nullptr, &Log);

  unsigned TotalSampled = 0;
  Nanos GlobalClock = 0;
  for (int Occ = 0; Occ < 30; ++Occ) {
    MockRunner R(2, millisToNanos(4),
                 [](unsigned V, Nanos) { return V == 1 ? 0.05 : 0.5; });
    R.Clock = GlobalClock;
    const SectionExecutionTrace T = C.executeSection(R, "S");
    GlobalClock = R.Clock;
    TotalSampled += T.SampledIntervals;
    for (const auto &[Label, Stat] : T.EffectiveSamplingByVersion)
      EXPECT_GT(Stat.count(), 0u) << Label;
  }
  EXPECT_EQ(TotalSampled, 6u);
  ASSERT_EQ(Log.count(obs::DecisionKind::Sample), 2u);
  for (const obs::DecisionEvent &E : Log.events())
    if (E.Kind == obs::DecisionKind::Sample) {
      EXPECT_EQ(E.Repeats, 3u);
    }
}

TEST(SpanningTest, ProductionSlicesLetDriftCutProductionShort) {
  // One long occurrence: without slicing, spanning production is a single
  // interval and drift is only checked when the section ends. With slices,
  // the collapse of version 0 after 200 ms is seen and resampled away.
  auto Overhead = [](unsigned V, Nanos Now) {
    if (V == 0)
      return Now > millisToNanos(200) ? 0.8 : 0.05;
    return 0.25;
  };
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(2);
  Config.SpanSectionExecutions = true;
  Config.DriftResampleThreshold = 0.2;
  Config.ProductionSliceNanos = millisToNanos(50);
  MockRunner R(2, secondsToNanos(1), Overhead);
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GE(T.EarlyResamples, 1u);
  ASSERT_GE(T.ChosenVersions.size(), 2u);
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
  EXPECT_EQ(T.ChosenVersions.back(), 1u);

  Config.ProductionSliceNanos = 0;
  MockRunner Unsliced(2, secondsToNanos(1), Overhead);
  FeedbackController Paper(Config);
  const SectionExecutionTrace TP = Paper.executeSection(Unsliced, "S");
  EXPECT_EQ(TP.EarlyResamples, 0u);
  EXPECT_EQ(TP.ChosenVersions, std::vector<unsigned>{0u});
}

TEST(SpanningTest, StatePerSectionIsIndependent) {
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(10);
  Config.SpanSectionExecutions = true;
  FeedbackController C(Config);

  MockRunner RA(2, millisToNanos(50),
                [](unsigned V, Nanos) { return V == 0 ? 0.05 : 0.5; });
  MockRunner RB(2, millisToNanos(50),
                [](unsigned V, Nanos) { return V == 1 ? 0.05 : 0.5; });
  const SectionExecutionTrace TA = C.executeSection(RA, "A");
  const SectionExecutionTrace TB = C.executeSection(RB, "B");
  // Both sections sample their own candidates independently.
  EXPECT_GT(TA.SampledIntervals + TB.SampledIntervals, 0u);
  unsigned BestA = 99, BestB = 99;
  if (!TA.ChosenVersions.empty())
    BestA = TA.ChosenVersions.front();
  if (!TB.ChosenVersions.empty())
    BestB = TB.ChosenVersions.front();
  for (int I = 0; I < 10; ++I) {
    MockRunner R2A(2, millisToNanos(50),
                   [](unsigned V, Nanos) { return V == 0 ? 0.05 : 0.5; });
    MockRunner R2B(2, millisToNanos(50),
                   [](unsigned V, Nanos) { return V == 1 ? 0.05 : 0.5; });
    const auto T2A = C.executeSection(R2A, "A");
    const auto T2B = C.executeSection(R2B, "B");
    if (!T2A.ChosenVersions.empty())
      BestA = T2A.ChosenVersions.front();
    if (!T2B.ChosenVersions.empty())
      BestB = T2B.ChosenVersions.front();
  }
  EXPECT_EQ(BestA, 0u);
  EXPECT_EQ(BestB, 1u);
}

// ------------------- Resilience (quarantine / watchdog) --------------------

TEST(ResilienceTest, QuarantineExcludesRepeatOffenderFromSampling) {
  // Version 1 is catastrophically bad every time it is measured. Two strikes
  // quarantine it; afterwards sampling phases run without it.
  MockRunner R(2, secondsToNanos(3), [](unsigned V, Nanos) {
    return V == 1 ? 0.95 : 0.1;
  });
  FeedbackConfig Config = smallConfig();
  Config.QuarantineStrikes = 2;
  Config.QuarantineOverheadLimit = 0.9;
  Config.QuarantineBackoffPhases = 64; // No re-probe within this run.
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_EQ(T.Quarantines, 1u);
  EXPECT_EQ(T.Reprobes, 0u);
  // Sampled in the two striking phases, then never again.
  EXPECT_EQ(R.IntervalsRun[1], 2u);
  EXPECT_GT(T.SamplingPhases, 2u);
  for (unsigned V : T.ChosenVersions)
    EXPECT_EQ(V, 0u);
}

TEST(ResilienceTest, ReprobeClearsQuarantineWhenVersionRecovers) {
  // Version 1 is catastrophic before 2.5 virtual seconds and excellent
  // afterwards. It gets quarantined, fails one decayed re-probe (doubling
  // the backoff), sits out a phase, then passes the next re-probe and wins
  // production.
  MockRunner R(2, secondsToNanos(4), [](unsigned V, Nanos Now) {
    if (V == 0)
      return 0.2;
    return Now < secondsToNanos(2.5) ? 0.95 : 0.02;
  });
  FeedbackConfig Config = smallConfig();
  Config.QuarantineStrikes = 1;
  Config.QuarantineOverheadLimit = 0.9;
  Config.QuarantineBackoffPhases = 1;
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GE(T.Quarantines, 2u); // Initial strike-out plus a failed re-probe.
  EXPECT_EQ(T.Reprobes, 1u);
  // The quarantine kept version 1 out of at least one sampling phase
  // (IntervalsRun also counts production intervals, so count samples).
  const Series *V1 = T.SampledOverheads.find("v1");
  ASSERT_NE(V1, nullptr);
  EXPECT_LT(V1->size(), T.SamplingPhases);
  ASSERT_FALSE(T.ChosenVersions.empty());
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
  EXPECT_EQ(T.ChosenVersions.back(), 1u);
}

TEST(ResilienceTest, HysteresisNeverHoldsQuarantinedIncumbent) {
  // The incumbent turns catastrophic after 0.5 virtual seconds. A huge
  // hysteresis margin would hold it forever; quarantine must override the
  // hold and hand production to the challenger.
  const auto Overhead = [](unsigned V, Nanos Now) {
    if (V == 1)
      return 0.25;
    return Now < millisToNanos(500) ? 0.05 : 0.97;
  };
  FeedbackConfig Config = smallConfig();
  Config.SwitchHysteresis = 1.0; // Never switch on margin alone.
  Config.QuarantineStrikes = 1;
  Config.QuarantineOverheadLimit = 0.9;
  Config.QuarantineBackoffPhases = 64;
  MockRunner R(2, secondsToNanos(2.5), Overhead);
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GE(T.Quarantines, 1u);
  ASSERT_GE(T.ChosenVersions.size(), 2u);
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
  EXPECT_EQ(T.ChosenVersions.back(), 1u);

  // Control: with quarantine disabled the same hysteresis margin rides the
  // bad incumbent to the end of the run -- the override above really is the
  // quarantine, not the margin arithmetic.
  FeedbackConfig NoQuarantine = smallConfig();
  NoQuarantine.SwitchHysteresis = 1.0;
  MockRunner R2(2, secondsToNanos(2.5), Overhead);
  FeedbackController C2(NoQuarantine);
  const SectionExecutionTrace T2 = C2.executeSection(R2, "S");
  EXPECT_GT(T2.HysteresisHolds, 0u);
  for (unsigned V : T2.ChosenVersions)
    EXPECT_EQ(V, 0u);
}

TEST(ResilienceTest, AllVersionsQuarantinedDegradesToLastKnownGood) {
  // Both versions turn catastrophic after 0.5 virtual seconds. Once both
  // are quarantined the controller pins the last version that completed
  // production (version 0) instead of aborting, and failed re-probes keep
  // re-quarantining with doubled backoff.
  MockRunner R(2, secondsToNanos(1.5), [](unsigned V, Nanos Now) {
    if (Now < millisToNanos(500))
      return V == 0 ? 0.1 : 0.2;
    return V == 0 ? 0.96 : 0.97;
  });
  FeedbackConfig Config = smallConfig();
  Config.QuarantineStrikes = 1;
  Config.QuarantineOverheadLimit = 0.9;
  Config.QuarantineBackoffPhases = 3;
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GE(T.DegradedPhases, 2u);
  EXPECT_GE(T.Quarantines, 2u);
  EXPECT_EQ(T.Reprobes, 0u); // Nothing ever recovers in this run.
  ASSERT_FALSE(T.ChosenVersions.empty());
  for (unsigned V : T.ChosenVersions)
    EXPECT_EQ(V, 0u); // Last known-good, never the worse version 1.
  EXPECT_TRUE(R.done()); // Degraded mode still finishes the work.
}

TEST(ResilienceTest, SpanningModeDegradesWhenEverythingIsQuarantined) {
  // Same degraded pin through the spanning-phase state machine: both
  // versions strike out in the first spanning sampling phase and every
  // later phase starts with an empty sampling order.
  MockRunner R(2, millisToNanos(200), [](unsigned V, Nanos) {
    return V == 0 ? 0.96 : 0.97;
  });
  FeedbackConfig Config = smallConfig();
  Config.SpanSectionExecutions = true;
  Config.TargetProductionNanos = millisToNanos(100);
  Config.QuarantineStrikes = 1;
  Config.QuarantineOverheadLimit = 0.9;
  Config.QuarantineBackoffPhases = 64;
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_EQ(T.Quarantines, 2u);
  EXPECT_GE(T.DegradedPhases, 1u);
  for (unsigned V : T.ChosenVersions)
    EXPECT_EQ(V, 0u); // No production ever completed: pin the first version.
  EXPECT_TRUE(R.done());
}

TEST(ResilienceTest, WatchdogForcesResampleWithoutDriftBaseline) {
  // A single-version section whose overhead explodes mid-production. Drift
  // detection is off (threshold 0), so only the watchdog can cut the
  // production phase short and force a resample.
  MockRunner R(1, millisToNanos(800), [](unsigned, Nanos Now) {
    return Now < millisToNanos(500) ? 0.1 : 0.95;
  });
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(5);
  Config.ProductionSliceNanos = millisToNanos(100);
  Config.WatchdogBadSlices = 2;
  Config.WatchdogOverheadLimit = 0.9;
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GE(T.WatchdogResamples, 1u);
  EXPECT_GE(T.SamplingPhases, 2u);
  EXPECT_EQ(T.EarlyResamples, 0u); // Drift never fired; the watchdog did.
  EXPECT_TRUE(R.done());
}

TEST(ResilienceTest, WatchdogEscalatesStreakAfterEachFiring) {
  // When every production interval is bad, each firing doubles the required
  // streak (bounded): the forced resamples thin out instead of flapping
  // once per slice pair.
  MockRunner R(1, millisToNanos(600), [](unsigned, Nanos) { return 0.95; });
  FeedbackConfig Config = smallConfig();
  Config.TargetProductionNanos = secondsToNanos(5);
  Config.ProductionSliceNanos = millisToNanos(100);
  Config.WatchdogBadSlices = 2;
  Config.WatchdogOverheadLimit = 0.9;
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  ASSERT_GE(T.WatchdogResamples, 2u);
  // Every production slice was bad. Without escalation the watchdog would
  // fire once per WatchdogBadSlices slices; the doubling schedule must keep
  // it strictly below that rate.
  const unsigned ProductionIntervals =
      static_cast<unsigned>(R.IntervalsRun[0]) - T.SampledIntervals;
  EXPECT_LT(T.WatchdogResamples, ProductionIntervals / 2);
  EXPECT_TRUE(R.done());
}

// ------------------------- Sampling strategies ------------------------------

/// Everything one drained sampling phase produced, for protocol assertions.
struct DrivenPhase {
  std::vector<unsigned> Requested;
  Nanos RequestedNanos = 0;
  std::map<unsigned, double> Estimates;
  std::vector<SearchEvent> Events;
};

/// Drives \p S through one full phase over \p Cands, answering every request
/// from the fixed overhead table \p OverheadOf.
DrivenPhase drivePhase(SamplingStrategy &S, const std::vector<unsigned> &Cands,
                       std::function<double(unsigned)> OverheadOf) {
  std::vector<std::string> Labels;
  for (unsigned V = 0; V <= *std::max_element(Cands.begin(), Cands.end());
       ++V)
    Labels.push_back("v" + std::to_string(V));
  DrivenPhase Out;
  S.beginPhase(Cands, Labels);
  while (const std::optional<SampleRequest> Req = S.next()) {
    Out.Requested.push_back(Req->Version);
    Out.RequestedNanos += Req->SliceNanos;
    if (const std::optional<double> Est =
            S.report(Req->Version, OverheadOf(Req->Version)))
      Out.Estimates[Req->Version] = *Est;
    for (const SearchEvent &E : S.takeEvents())
      Out.Events.push_back(E);
  }
  for (const SearchEvent &E : S.takeEvents())
    Out.Events.push_back(E);
  return Out;
}

std::unique_ptr<SamplingStrategy> makeStrategy(SamplerKind K) {
  FeedbackConfig Config = smallConfig();
  Config.Sampler = K;
  return createSamplingStrategy(Config);
}

TEST(SamplingStrategyTest, NamesRoundTripAndRejectUnknown) {
  for (SamplerKind K :
       {SamplerKind::Exhaustive, SamplerKind::Halving, SamplerKind::Ucb})
    EXPECT_EQ(parseSamplerName(samplerName(K)), K);
  EXPECT_FALSE(parseSamplerName("bogus"));
  EXPECT_EQ(samplerNames().size(), 3u);
}

TEST(SamplingStrategyTest, ExhaustiveRequestsEachCandidateOnceInOrder) {
  const auto S = makeStrategy(SamplerKind::Exhaustive);
  const DrivenPhase P =
      drivePhase(*S, {2, 0, 1}, [](unsigned V) { return 0.1 * (V + 1); });
  EXPECT_EQ(P.Requested, (std::vector<unsigned>{2, 0, 1}));
  EXPECT_EQ(P.RequestedNanos, 3 * smallConfig().TargetSamplingNanos);
  // The measurement passes through as the estimate; no search events.
  EXPECT_DOUBLE_EQ(P.Estimates.at(2), 0.3);
  EXPECT_TRUE(P.Events.empty());
}

TEST(SamplingStrategyTest, HalvingPrunesToTheBestWithinBudget) {
  const auto S = makeStrategy(SamplerKind::Halving);
  const DrivenPhase P = drivePhase(*S, {0, 1, 2, 3, 4, 5, 6, 7},
                                   [](unsigned V) { return 0.1 * V; });
  // The budget is half of exhaustive's 8 full-length intervals.
  EXPECT_LE(P.RequestedNanos, 4 * smallConfig().TargetSamplingNanos);
  // Three rounds prune 4 + 2 + 1 versions; the best version survives and
  // is never pruned.
  unsigned Prunes = 0;
  for (const SearchEvent &E : P.Events)
    if (E.K == SearchEvent::Kind::Prune) {
      ++Prunes;
      EXPECT_NE(E.Version, 0u);
    }
  EXPECT_EQ(Prunes, 7u);
  // Every round re-measures the survivors, so the winner has several
  // requests and a current estimate.
  EXPECT_GE(std::count(P.Requested.begin(), P.Requested.end(), 0u), 2);
  EXPECT_DOUBLE_EQ(P.Estimates.at(0), 0.0);
}

TEST(SamplingStrategyTest, UcbCoversEveryArmWithinBudget) {
  const auto S = makeStrategy(SamplerKind::Ucb);
  const DrivenPhase P = drivePhase(
      *S, {0, 1, 2, 3, 4}, [](unsigned V) { return V == 3 ? 0.02 : 0.4; });
  EXPECT_LE(P.RequestedNanos,
            static_cast<Nanos>(0.5 * 5 * smallConfig().TargetSamplingNanos));
  // Coverage: every arm is measured at least once (nothing is ruled out on
  // the prior alone), so no prune events are emitted at budget exhaustion.
  for (unsigned V : {0u, 1u, 2u, 3u, 4u}) {
    EXPECT_GE(std::count(P.Requested.begin(), P.Requested.end(), V), 1)
        << "arm " << V;
    EXPECT_TRUE(P.Estimates.count(V)) << "arm " << V;
  }
  for (const SearchEvent &E : P.Events)
    EXPECT_EQ(E.K, SearchEvent::Kind::Promote);
  // The spare budget refines the empirical leader.
  EXPECT_GE(std::count(P.Requested.begin(), P.Requested.end(), 3u), 2);
  ASSERT_FALSE(P.Events.empty());
  EXPECT_EQ(P.Events.back().Version, 3u);
}

TEST(SamplingStrategyTest, DisqualifiedVersionIsNeverRequestedAgain) {
  for (SamplerKind K : {SamplerKind::Halving, SamplerKind::Ucb}) {
    const auto S = makeStrategy(K);
    std::vector<std::string> Labels{"v0", "v1", "v2", "v3"};
    S->beginPhase({0, 1, 2, 3}, Labels);
    bool Disqualified = false;
    while (const std::optional<SampleRequest> Req = S->next()) {
      EXPECT_FALSE(Disqualified && Req->Version == 1u)
          << samplerName(K) << " re-requested a disqualified version";
      S->report(Req->Version, 0.1 * (Req->Version + 1));
      if (Req->Version == 1u && !Disqualified) {
        S->disqualify(1);
        Disqualified = true;
      }
    }
    EXPECT_TRUE(Disqualified);
  }
}

TEST(ResilienceTest, QuarantineExcludesOffenderUnderEveryStrategy) {
  // The ResilienceTest quarantine guarantee is strategy-independent:
  // version 1 strikes out under halving and ucb exactly as it does under
  // the exhaustive sampler, and later phases never touch it.
  for (SamplerKind K : {SamplerKind::Halving, SamplerKind::Ucb}) {
    MockRunner R(2, secondsToNanos(3), [](unsigned V, Nanos) {
      return V == 1 ? 0.95 : 0.1;
    });
    FeedbackConfig Config = smallConfig();
    Config.Sampler = K;
    Config.QuarantineStrikes = 2;
    Config.QuarantineOverheadLimit = 0.9;
    Config.QuarantineBackoffPhases = 64; // No re-probe within this run.
    FeedbackController C(Config);
    const SectionExecutionTrace T = C.executeSection(R, "S");
    EXPECT_EQ(T.Quarantines, 1u) << samplerName(K);
    EXPECT_EQ(T.Reprobes, 0u) << samplerName(K);
    // Two strikes and out: the quarantined version is measured exactly
    // twice across the whole run, then excluded from every later phase.
    EXPECT_EQ(R.IntervalsRun[1], 2u) << samplerName(K);
    EXPECT_GT(T.SamplingPhases, 2u) << samplerName(K);
    for (unsigned V : T.ChosenVersions)
      EXPECT_EQ(V, 0u) << samplerName(K);
    EXPECT_TRUE(R.done()) << samplerName(K);
  }
}

TEST(ResilienceTest, DegradedModePinsLastKnownGoodUnderPartialSampling) {
  // Both versions turn catastrophic after 0.5 virtual seconds, under the
  // partial-sampling strategies this time: degraded mode must still pin
  // the last version that completed production instead of aborting.
  for (SamplerKind K : {SamplerKind::Halving, SamplerKind::Ucb}) {
    MockRunner R(2, secondsToNanos(1.5), [](unsigned V, Nanos Now) {
      if (Now < millisToNanos(500))
        return V == 0 ? 0.1 : 0.2;
      return V == 0 ? 0.96 : 0.97;
    });
    FeedbackConfig Config = smallConfig();
    Config.Sampler = K;
    Config.QuarantineStrikes = 1;
    Config.QuarantineOverheadLimit = 0.9;
    Config.QuarantineBackoffPhases = 64;
    FeedbackController C(Config);
    const SectionExecutionTrace T = C.executeSection(R, "S");
    EXPECT_GE(T.DegradedPhases, 1u) << samplerName(K);
    EXPECT_EQ(T.Quarantines, 2u) << samplerName(K);
    ASSERT_FALSE(T.ChosenVersions.empty()) << samplerName(K);
    for (unsigned V : T.ChosenVersions)
      EXPECT_EQ(V, 0u) << samplerName(K);
    EXPECT_TRUE(R.done()) << samplerName(K);
  }
}

TEST(ResilienceTest, HysteresisNeverHoldsPrunedIncumbent) {
  // The incumbent degrades mid-run and halving prunes it in a later phase.
  // Pruning resets its sampled overhead, so even a margin that would never
  // switch on overhead alone cannot hold it: hysteresis compares against
  // the incumbent's estimate, and a pruned incumbent has none.
  const auto Overhead = [](unsigned V, Nanos Now) {
    if (V == 0)
      return Now < millisToNanos(1500) ? 0.05 : 0.6;
    if (V == 1)
      return 0.10;
    return V == 2 ? 0.7 : 0.8;
  };
  FeedbackConfig Config = smallConfig();
  Config.Sampler = SamplerKind::Halving;
  Config.SwitchHysteresis = 1.0; // Never switch on margin alone.
  MockRunner R(4, secondsToNanos(3), Overhead);
  FeedbackController C(Config);
  const SectionExecutionTrace T = C.executeSection(R, "S");
  EXPECT_GT(T.Prunes, 0u);
  ASSERT_GE(T.ChosenVersions.size(), 2u);
  EXPECT_EQ(T.ChosenVersions.front(), 0u);
  EXPECT_EQ(T.ChosenVersions.back(), 1u);

  // Control: the exhaustive sampler never prunes, so the same margin rides
  // the degraded incumbent to the end of the run.
  FeedbackConfig Exhaustive = smallConfig();
  Exhaustive.SwitchHysteresis = 1.0;
  MockRunner R2(4, secondsToNanos(3), Overhead);
  FeedbackController C2(Exhaustive);
  const SectionExecutionTrace T2 = C2.executeSection(R2, "S");
  EXPECT_GT(T2.HysteresisHolds, 0u);
  for (unsigned V : T2.ChosenVersions)
    EXPECT_EQ(V, 0u);
}

TEST(ControllerTest, StaleHistoryNameIsDiagnosedAndCounted) {
  // A recorded best that no longer names any version must not silently
  // vanish: the miss is counted in the metrics registry and the order
  // falls back to space order.
  PolicyHistory History;
  History.recordBest("S", "v9-gone");
  FeedbackConfig Config = smallConfig();
  Config.UsePolicyOrdering = true;
  FeedbackController C(Config, &History);
  const uint64_t Before =
      obs::globalMetrics().counterValue("fb.history_misses");
  EXPECT_EQ(C.samplingOrder(mockLabels(3), "S"),
            (std::vector<unsigned>{0, 1, 2}));
  EXPECT_EQ(obs::globalMetrics().counterValue("fb.history_misses"),
            Before + 1);
  // Every miss counts, even for an already-diagnosed (section, name) pair.
  C.samplingOrder(mockLabels(3), "S");
  EXPECT_EQ(obs::globalMetrics().counterValue("fb.history_misses"),
            Before + 2);
  // A resolvable name is not a miss.
  History.recordBest("S", "v2");
  C.samplingOrder(mockLabels(3), "S");
  EXPECT_EQ(obs::globalMetrics().counterValue("fb.history_misses"),
            Before + 2);
}

// ---------------------------- Driver ---------------------------------------

/// Backend over MockRunners: each beginSection creates a fresh runner.
class MockBackend : public ExecutionBackend {
public:
  explicit MockBackend(std::function<double(unsigned, Nanos)> OverheadFn)
      : OverheadFn(std::move(OverheadFn)) {}

  void runSerial(Nanos Dur) override { Clock += Dur; }
  std::unique_ptr<IntervalRunner>
  beginSection(const std::string &) override {
    auto R = std::make_unique<MockRunner>(2, secondsToNanos(1), OverheadFn);
    R->Clock = Clock;
    // The driver destroys the runner before reading backend.now(); the
    // runner publishes its final state back here on destruction.
    R->OnDestroy = [this](const MockRunner &Done) {
      Clock = Done.Clock;
      LastIntervals = Done.IntervalsRun;
    };
    return R;
  }
  Nanos now() const override { return Clock; }

  Nanos Clock = 0;
  std::map<unsigned, unsigned> LastIntervals;
  std::function<double(unsigned, Nanos)> OverheadFn;
};

TEST(DriverTest, RunsScheduleAndAggregates) {
  MockBackend Backend([](unsigned V, Nanos) { return V == 0 ? 0.1 : 0.4; });
  Schedule Sched{Phase::serial(secondsToNanos(1)), Phase::parallel("A"),
                 Phase::parallel("A")};
  RunOptions Options;
  Options.Mode = ExecMode::Dynamic;
  Options.Config = smallConfig();
  const RunResult Result = runSchedule(Backend, Sched, Options);
  EXPECT_EQ(Result.Occurrences.size(), 2u);
  EXPECT_GT(Result.ParallelStats.ExecNanos, 0);
  const SeriesSet Merged = Result.mergedOverheadSeries("A");
  EXPECT_EQ(Merged.all().size(), 2u); // Two version labels.
}

TEST(DriverTest, FixedModeRunsVersionZeroOnly) {
  MockBackend Backend([](unsigned, Nanos) { return 0.2; });
  Schedule Sched{Phase::parallel("A")};
  RunOptions Options;
  Options.Mode = ExecMode::Fixed;
  const RunResult Result = runSchedule(Backend, Sched, Options);
  ASSERT_EQ(Result.Occurrences.size(), 1u);
  EXPECT_TRUE(Result.Occurrences[0].ChosenVersions.empty());
  ASSERT_EQ(Backend.LastIntervals.size(), 1u);
  EXPECT_GT(Backend.LastIntervals[0], 0u);
}


// ---------------- Controller characterization (pinned behaviour) -----------
//
// Both execution modes under a matrix of configurations and runners, each
// driven through the same sequence of section occurrences. The decision log
// and every SectionExecutionTrace counter are compared against expected
// files under tests/golden/controller/. After a deliberate behaviour change,
// rerun with DYNFB_UPDATE_GOLDEN=1 to rewrite the files, and review the diff.

/// Four versions whose ranking shifts over time: version 1 drifts badly
/// mid-run, version 2 wobbles around its mean, and version 3 starts above
/// the quarantine limit and ends below the early cut-off threshold.
double characterizationOverhead(unsigned V, Nanos Now) {
  const double T = nanosToSeconds(Now);
  switch (V) {
  case 0:
    return 0.30;
  case 1:
    return T >= 0.6 && T < 1.6 ? 0.70 : 0.12;
  case 2:
    return 0.13 + ((Now / millisToNanos(37)) % 2 == 0 ? 0.02 : -0.02);
  default:
    return T >= 2.0 ? 0.04 : 0.55;
  }
}

struct CharacterizationCase {
  const char *Mode;
  const char *Knobs;
  const char *Runner;
};

FeedbackConfig characterizationConfig(const CharacterizationCase &Case) {
  FeedbackConfig C = smallConfig();
  C.TargetProductionNanos = millisToNanos(250);
  C.SpanSectionExecutions = std::string(Case.Mode) == "spanning";
  const std::string Knobs = Case.Knobs;
  if (Knobs == "cutoff_ordering") {
    C.EarlyCutoff = true;
    C.UsePolicyOrdering = true;
  } else if (Knobs == "repeats3_median") {
    C.SamplingRepeats = 3;
    C.SamplingAggregation = OverheadAggregation::Median;
  } else if (Knobs == "hysteresis_drift_slice") {
    C.SwitchHysteresis = 0.05;
    C.DriftResampleThreshold = 0.10;
    C.ProductionSliceNanos = millisToNanos(50);
  } else if (Knobs == "quarantine_watchdog") {
    C.QuarantineStrikes = 2;
    C.QuarantineOverheadLimit = 0.5;
    C.QuarantineBackoffPhases = 2;
    C.WatchdogBadSlices = 2;
    C.WatchdogOverheadLimit = 0.5;
  } else if (Knobs == "halving") {
    C.Sampler = SamplerKind::Halving;
  } else if (Knobs == "ucb") {
    C.Sampler = SamplerKind::Ucb;
  }
  return C;
}

/// Occurrences alternate between long ones, which fit several phases, and
/// short ones, which a spanning production phase runs straight through.
std::unique_ptr<MockRunner> characterizationRunner(const std::string &Kind,
                                                   int Occurrence) {
  const Nanos Work = millisToNanos(Occurrence % 2 ? 80 : 450);
  if (Kind == "flaky")
    return std::make_unique<FlakyMock>(4, Work, characterizationOverhead);
  if (Kind == "zero_for_one")
    return std::make_unique<ZeroForOneMock>(4, Work,
                                            characterizationOverhead);
  return std::make_unique<MockRunner>(4, Work, characterizationOverhead);
}

/// One line of every SectionExecutionTrace counter.
std::string describeTrace(const SectionExecutionTrace &T, bool Done) {
  std::string Out = format(
      "occurrence start=%lld end=%lld done=%d phases=%u sampled=%u "
      "degenerate=%u cutoff_skipped=%u early_resamples=%u "
      "hysteresis_holds=%u quarantines=%u reprobes=%u watchdog=%u "
      "degraded=%u prunes=%u promotes=%u sampled_ns=%lld exec=%lld "
      "lock=%lld wait=%lld chosen=[",
      static_cast<long long>(T.StartNanos), static_cast<long long>(T.EndNanos),
      Done ? 1 : 0, T.SamplingPhases, T.SampledIntervals, T.DegenerateIntervals,
      T.SkippedByCutoff, T.EarlyResamples, T.HysteresisHolds, T.Quarantines,
      T.Reprobes, T.WatchdogResamples, T.DegradedPhases, T.Prunes, T.Promotes,
      static_cast<long long>(T.SampledNanos),
      static_cast<long long>(T.Total.ExecNanos),
      static_cast<long long>(T.Total.LockOpNanos),
      static_cast<long long>(T.Total.WaitNanos));
  for (size_t I = 0; I < T.ChosenVersions.size(); ++I)
    Out += format(I ? ",%u" : "%u", T.ChosenVersions[I]);
  Out += "] effective={";
  bool First = true;
  for (const auto &[Label, Stat] : T.EffectiveSamplingByVersion) {
    Out += format("%s%s:%llu/%.9g", First ? "" : ",", Label.c_str(),
                  static_cast<unsigned long long>(Stat.count()), Stat.mean());
    First = false;
  }
  Out += "} samples={";
  First = true;
  for (const Series &S : T.SampledOverheads.all()) {
    Out += format("%s%s:%zu", First ? "" : ",", S.Label.c_str(), S.size());
    First = false;
  }
  return Out + "}\n";
}

/// Runs \p Case's occurrences and renders the expected-file text: per
/// occurrence, its counters followed by the decision-log JSONL lines it
/// appended.
std::string runCharacterization(const CharacterizationCase &Case) {
  const FeedbackConfig Config = characterizationConfig(Case);
  PolicyHistory History;
  obs::DecisionLog Log;
  FeedbackController C(Config, &History, &Log);
  std::string Out;
  Nanos Clock = 0;
  for (int Occ = 0; Occ < 10; ++Occ) {
    std::unique_ptr<MockRunner> R = characterizationRunner(Case.Runner, Occ);
    R->Clock = Clock;
    const size_t LogStart = Log.size();
    const SectionExecutionTrace T = C.executeSection(*R, "S");
    Clock = R->Clock;
    Out += describeTrace(T, R->done());
    obs::RunTrace Events;
    Events.Decisions.assign(Log.events().begin() + LogStart,
                            Log.events().end());
    const std::string Jsonl = obs::toJsonl(Events);
    Out += Jsonl.substr(Jsonl.find('\n') + 1); // Drop the meta line.
  }
  return Out;
}

class ControllerCharacterizationTest
    : public ::testing::TestWithParam<CharacterizationCase> {};

TEST_P(ControllerCharacterizationTest, MatchesExpectedFile) {
  const CharacterizationCase &Case = GetParam();
  const std::string Path =
      format("%s/controller/%s_%s_%s.txt", DYNFB_TEST_GOLDEN_DIR, Case.Mode,
             Case.Knobs, Case.Runner);
  test::expectMatchesGoldenFile(Path, runCharacterization(Case));
}

std::vector<CharacterizationCase> characterizationCases() {
  std::vector<CharacterizationCase> Cases;
  for (const char *Mode : {"per_occurrence", "spanning"})
    for (const char *Knobs :
         {"default", "cutoff_ordering", "repeats3_median",
          "hysteresis_drift_slice", "quarantine_watchdog", "halving", "ucb"})
      for (const char *Runner : {"mock", "flaky", "zero_for_one"})
        Cases.push_back({Mode, Knobs, Runner});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ControllerCharacterizationTest,
    ::testing::ValuesIn(characterizationCases()),
    [](const ::testing::TestParamInfo<CharacterizationCase> &Info) {
      return format("%s_%s_%s", Info.param.Mode, Info.param.Knobs,
                    Info.param.Runner);
    });

} // namespace
